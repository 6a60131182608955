"""Tests of the benchmark itself: generated answers, statistics, checks.

    python3 -m pytest bench/tests -q
"""

import copy
import json
import os
import statistics
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import families  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from oracles import bar_tor_dims  # noqa: E402

SMALL = [("UT", 2), ("UT", 3), ("Alin", 3), ("Acyc", 2), ("Acyc", 3),
         ("kx", 2), ("kx", 3)]
I_MAX = 4
# the bar complex has (dim R - 1)^i terms in degree i, so it stays small
BAR_CASES = [("UT", 2, 3), ("UT", 3, 2), ("Alin", 3, 2), ("Acyc", 2, 3),
             ("kx", 2, 3), ("kx", 3, 3)]


def _bar_tor_along_corner(alg: families.Monomial, i_max: int):
    """Tor^R_i(k, k) along the corner map, from the bar-complex oracle."""
    structure = [[[Fraction(int(k == alg.product(i, j))) for k in range(alg.dim)]
                  for j in range(alg.dim)] for i in range(alg.dim)]
    unit = [Fraction(int(i in alg.vertex)) for i in range(alg.dim)]
    corner = [[[Fraction(int(r == alg.vertex[0]))]] for r in range(alg.dim)]
    return bar_tor_dims(structure, unit, 1, corner, 1, corner, i_max)


@pytest.mark.parametrize("family,n,i_max", BAR_CASES)
def test_known_tor_matches_bar_oracle(family, n, i_max):
    alg = families.build_algebra(family, n)
    assert _bar_tor_along_corner(alg, i_max) == families.known_tor(family, n, i_max)


@pytest.mark.parametrize("family,n", SMALL)
def test_generated_fixture_gives_known_answers(family, n):
    eng = wl.Engine()
    fx = eng.fixture.FixtureFile(json.loads(json.dumps(
        families.family_fixture(family, n, I_MAX, seed=7))))
    reports = eng.runner.run_tasks(fx, workers=1)
    hepi = reports[0]
    assert hepi.verdict == families.known_verdict(family, n, I_MAX)
    assert hepi.evidence["tor_dims"] == families.known_tor(family, n, I_MAX)
    assert len(reports) == 3
    assert all(r.verdict == "exact" and r.evidence["reverified"]
               for r in reports[1:])


def test_cycle_longer_than_max_degree_is_inconclusive():
    eng = wl.Engine()
    fx = eng.fixture.FixtureFile(json.loads(json.dumps(
        families.family_fixture("Acyc", 3, 2, seed=7))))
    hepi = eng.runner.run_task(fx, fx.tasks[0])
    assert hepi.verdict == families.known_verdict("Acyc", 3, 2) == "inconclusive"
    assert hepi.evidence["tor_dims"] == families.known_tor("Acyc", 3, 2)


def test_family_fixture_depends_only_on_seed():
    a = families.family_fixture("Acyc", 3, I_MAX, seed=5)
    assert a == families.family_fixture("Acyc", 3, I_MAX, seed=5)
    drawn = {json.dumps(families.family_fixture("Acyc", 3, I_MAX, seed=s)["maps"])
             for s in range(5)}
    assert len(drawn) > 1


def test_percentile_on_known_inputs():
    assert wl.percentile([3, 1, 4, 2], 50) == 2.5
    assert wl.percentile([7], 90) == 7
    assert wl.percentile(range(1, 11), 90) == pytest.approx(9.1)
    assert wl.percentile([5, 1, 9], 0) == 1
    assert wl.percentile([5, 1, 9], 100) == 9
    xs = [0.3, 1.7, 0.2, 5.0, 2.2, 2.9, 0.8]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert wl.percentile(xs, 25) == pytest.approx(q1)
    assert wl.percentile(xs, 50) == pytest.approx(q2)
    assert wl.percentile(xs, 75) == pytest.approx(q3)
    with pytest.raises(ValueError):
        wl.percentile([], 50)


def _fixture_pass(expected):
    speed = wl.Speed()
    eng, fxs, _, _ = wl.set_up(wl.fixture_paths(), 1, speed)
    tally, log = wl.Tally(), wl.Log(speed)
    wl.fixture_pass(eng, fxs, expected, tally, log)
    return tally, log


def test_fixture_pass_matches_the_record():
    tally, log = _fixture_pass(wl.load_expected())
    assert tally.attempted == 21 + 8 + 3 + 1
    assert tally.failed == 0
    assert len(log.tasks) == 21 and len(log.replays) == 8


def test_corrupted_digest_is_counted_as_failed():
    expected = copy.deepcopy(wl.load_expected())
    digest = expected["fixture-batch"]["digests"]["corner"]
    expected["fixture-batch"]["digests"]["corner"] = digest[::-1]
    tally, _ = _fixture_pass(expected)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0


def test_tracer_records_layers_and_restores_originals():
    speed = wl.Speed()
    eng, fxs, _, _ = wl.set_up(wl.fixture_paths(), 1, speed)
    solve, mult = eng.linalg.solve, eng.fixture.AlgebraPresentation.mult
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert eng.linalg.solve is not solve
        fxs = {n: eng.fixture.load_fixture(p) for n, p in wl.fixture_paths().items()}
        tally = wl.Tally()
        wl.fixture_pass(eng, fxs, wl.load_expected(), tally, wl.Log(speed))
    finally:
        tracer.uninstall()
    assert eng.linalg.solve is solve
    assert eng.fixture.AlgebraPresentation.mult is mult
    assert tally.failed == 0
    metrics = tracing.per_layer_metrics(tracer)
    assert metrics["runner.task.calls"] == 21 + 8
    assert metrics["lifting.found_ratio"] == pytest.approx(10 / 11)
    assert metrics["linalg.solve.calls"] > 0 and metrics["algebra.mult.calls"] > 0
    spans = tracer.spans()
    ids = {s[0] for s in spans}
    assert all(parent == 0 or parent in ids for *_, parent, _ in spans)
    assert all(t0 <= t1 and 0 <= cpu_s for _, _, t0, t1, cpu_s, _, _ in spans)
    for name, row in tracer.layer_summary().items():
        assert 0 <= row["self_s"] <= row["total_s"] + 1e-9, name


def test_self_time_counts_no_work_twice_across_threads():
    """Two threads share the interpreter lock: the wall time of their spans
    adds up to about twice the work, their thread CPU time does not."""
    import threading
    import time

    tracer = tracing.Tracer()

    def work():
        deadline = time.thread_time() + 0.2
        while time.thread_time() < deadline:
            pass

    span = tracer._span_wrapper("homcat.homspace", work)
    threads = [threading.Thread(target=span) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    row = tracer.layer_summary()["homcat.homspace"]
    assert row["calls"] == 2
    assert row["self_s"] == pytest.approx(0.4, abs=0.05)


class _FixedSpeed:
    def __init__(self):
        self.marked = 0

    def mark(self):
        self.marked += 1
        return self.marked - 1

    def factors(self):
        return [2.0, 4.0][:self.marked]


def test_step_scales_its_latencies_and_work_time():
    log = wl.Log(_FixedSpeed())
    with log.step():
        log.tasks.append(1.0)
        log.replays.append(0.25)
    with log.step():
        log.tasks.append(1.0)
    raw, scaled = log.metrics(raw=True), log.metrics()
    assert raw["task_p50_ms"] == pytest.approx(1000)
    assert scaled["task_p50_ms"] == pytest.approx(3000)
    assert raw["replay_p50_ms"] == pytest.approx(250)
    assert scaled["replay_p50_ms"] == pytest.approx(500)
    assert scaled["tasks_per_s"] < raw["tasks_per_s"]


def test_scale_factor_uses_the_kernel_times_around_a_step():
    speed = wl.Speed()
    speed.kernels = [0.01, 0.03, 0.01]
    assert speed.factors() == [pytest.approx(0.5), pytest.approx(0.5)]
    k = speed.mark()
    assert k == 2 and len(speed.factors()) == 3
