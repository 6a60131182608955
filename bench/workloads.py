"""The benchmark's workloads, their set-up and their correctness checks.

Every workload runs in one process against the public API of ``kbproj``
(``load_fixture``, ``run_task``/``run_tasks``, ``recognize_triangle``,
``verify_triangle_certificate`` and the ``serialize`` codecs), imported
from the checkout's ``src/``.  Work is done in whole units (a pass over the
fixtures, a round of the triangle sweep) until the time budget is spent,
so every run measures the same mix of tasks.

Operations are checked against ``expected.json`` and the known answers of
``families``; a mismatch or an exception counts as a failed operation and
never stops the run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import families

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "expected.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")

FIXTURES = ("corner", "split", "koszul")
REFERENCE_SEED = 13          # the seed of acceptance test 6
SWEEP_DRAWS = 3              # random chain maps per (source, target) pair
HEPI_MAX_DEGREE = 6
# family -> sizes n; one pass runs every member, smallest sizes first
FAMILY_SIZES = {"UT": (3, 5), "Alin": (4, 8), "Acyc": (3, 6), "kx": (2, 3)}
FAMILY_WORKERS = "2"
SETUP_REPS = 5
# at least 100 search tasks per run, and on the sweep one whole sweep, so
# its accepted count is checked on every run
MIN_UNITS = {"fixture-batch": 5, "triangle-sweep": SWEEP_DRAWS,
             "algebra-families": 5}
TRACED_UNITS = {"fixture-batch": 3, "triangle-sweep": 1, "algebra-families": 3}


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two closest ranks of the sorted values."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("percentile outside 0..100")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> Dict:
    with open(EXPECTED_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Engine:
    """One fresh import of the ``kbproj`` modules the workloads call.

    Functions are looked up on the modules at call time, so trace wrappers
    installed after the import take effect.
    """

    def __init__(self):
        for name in [n for n in sys.modules
                     if n == "kbproj" or n.startswith("kbproj.")]:
            del sys.modules[name]
        self.fixture = importlib.import_module("kbproj.fixture")
        self.runner = importlib.import_module("kbproj.runner")
        self.reports = importlib.import_module("kbproj.reports")
        self.serialize = importlib.import_module("kbproj.serialize")
        self.homcat = importlib.import_module("kbproj.homcat")
        self.linalg = importlib.import_module("kbproj.linalg")


class Tally:
    """Operations attempted and failed; failures are reported on stderr."""

    MAX_REPORTED = 5

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._reported = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._report(what)
        return ok

    def call(self, fn: Callable, what: str):
        """Run one step of an operation.  An exception is reported and gives
        None, which the operation's ``check`` then counts as a failure."""
        try:
            return fn()
        except Exception:
            self._report(what + "\n" + traceback.format_exc())
            return None

    def _report(self, what: str):
        self._reported += 1
        if self._reported <= self.MAX_REPORTED:
            print(f"bench: failed: {what}", file=sys.stderr)


# Duration of ``calibration_s`` at the machine speed every time is reported
# at (its median on the machine the baseline was measured on).
CAL_REF_S = 0.0100


def calibration_s() -> float:
    """Time one run of a fixed kernel of exact arithmetic in plain Python:
    Fraction elimination and list and dict work, like the engine's inner
    loops.  On a shared machine its duration follows how fast the
    interpreter runs at the moment.  The garbage collector is off while it
    runs, so a larger heap left by the code under test does not slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if was_enabled:
            gc.enable()


def _kernel() -> float:
    t0 = time.perf_counter()
    n = 12
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3)
             for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * x for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    counts: Dict[int, int] = {}
    for k in range(20000):
        counts[k % 97] = counts.get(k % 97, 0) + k
    return time.perf_counter() - t0


class Speed:
    """Scale factors that report times at the reference machine speed.

    The speed of a shared machine drifts by more than a third within
    minutes, so the calibration kernel is timed between steps of work of a
    fraction of a second each, and a step's times are multiplied by
    ``CAL_REF_S`` over the mean of the kernel times just before and after
    it.  (The median of a wider window of kernel times tracked the step
    times worse: the machine's speed changes within seconds.)
    """

    def __init__(self):
        self.kernels = [calibration_s()]

    def mark(self) -> int:
        """End a step: time the kernel, and return the step's number."""
        self.kernels.append(calibration_s())
        return len(self.kernels) - 2

    def factors(self) -> List[float]:
        """The scale factor of every step marked so far."""
        ks = self.kernels
        return [CAL_REF_S / ((a + b) / 2) for a, b in zip(ks, ks[1:])]


class Log:
    """Search-task and replay latencies, report digests and step wall times
    of one phase of a run, in raw seconds, each time with the step it was
    taken in.  Every metric pools the whole phase, so the 90th percentile has at
    least ten samples beyond it."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.tasks: List[float] = []
        self.replays: List[float] = []
        self.digests: List[str] = []
        self.walls: List[float] = []
        self._task_steps: List[int] = []
        self._replay_steps: List[int] = []
        self._wall_steps: List[int] = []

    @contextlib.contextmanager
    def step(self):
        """Time a step of work; latencies recorded inside it belong to it."""
        i, j = len(self.tasks), len(self.replays)
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        k = self.speed.mark()
        self._task_steps += [k] * (len(self.tasks) - i)
        self._replay_steps += [k] * (len(self.replays) - j)
        self.walls.append(wall)
        self._wall_steps.append(k)

    def metrics(self, raw: bool = False) -> Dict[str, float]:
        """The latency metrics, at the reference speed or unscaled."""
        fs = self.speed.factors()

        def scaled(xs, steps):
            return list(xs) if raw else [x * fs[k] for x, k in zip(xs, steps)]

        def ms(xs, q):
            return 1000 * percentile(xs, q) if xs else 0.0
        tasks = scaled(self.tasks, self._task_steps)
        replays = scaled(self.replays, self._replay_steps)
        return {
            "tasks_per_s": len(tasks) / sum(scaled(self.walls, self._wall_steps)),
            "task_p50_ms": ms(tasks, 50),
            "task_p90_ms": ms(tasks, 90),
            "replay_p50_ms": ms(replays, 50),
        }


# -- shared pieces ---------------------------------------------------------------


def set_up(paths: Dict[str, str], reps: int, speed: Speed):
    """Import ``kbproj`` afresh and load every fixture, ``reps`` times.

    Returns the last engine and fixtures and the median set-up time, scaled
    and raw; the import and each load are scaled as steps of their own.
    """
    steps: List[List[tuple]] = []      # per set-up: (step, seconds)

    def timed(fn):
        t0 = time.perf_counter()
        result = fn()
        steps[-1].append((speed.mark(), time.perf_counter() - t0))
        return result

    for _ in range(reps):
        steps.append([])
        eng = timed(Engine)
        fxs = {name: timed(lambda: eng.fixture.load_fixture(path))
               for name, path in paths.items()}
    fs = speed.factors()
    scaled = [sum(t * fs[k] for k, t in rep) for rep in steps]
    raw = [sum(t for _, t in rep) for rep in steps]
    return eng, fxs, statistics.median(scaled), statistics.median(raw)


def replay_certificates(eng: Engine, fx, reports, tally: Tally,
                        log: Log, label: str) -> List:
    """Replay every certificate in ``reports`` as a ``verify-certificate``
    task with an inline envelope; each must come back certified."""
    out = []
    for rep in reports:
        envelope = rep.evidence.get("certificate")
        if envelope is None:
            continue
        task = {"id": f"replay:{rep.task}", "command": "verify-certificate",
                "certificate": envelope}
        t0 = time.perf_counter()
        got = tally.call(lambda: eng.runner.run_task(fx, task),
                         f"{label} replay {rep.task}")
        log.replays.append(time.perf_counter() - t0)
        if tally.check(got is not None and got.verdict == "certified",
                       f"{label} replay {rep.task}"):
            out.append(got)
    return out


def _check_digest(tally: Tally, got: str, want: Optional[str], what: str):
    tally.check(want is not None and got == want,
                f"{what}: digest {got[:12]} differs from the expected record")


# -- fixture-batch -------------------------------------------------------------------


def fixture_paths() -> Dict[str, str]:
    return {n: os.path.join(ROOT, "fixtures", f"{n}.json") for n in FIXTURES}


def fixture_pass(eng: Engine, fxs: Dict, expected: Dict, tally: Tally,
                 log: Log):
    """All fixture tasks in order with one worker, then every certificate
    replayed; verdicts and report digests are checked against the record."""
    want = expected["fixture-batch"]
    replays = []
    for name in FIXTURES:
        fx = fxs[name]
        results = []
        with log.step():
            for task in fx.tasks:
                t0 = time.perf_counter()
                rep = tally.call(lambda: eng.runner.run_task(fx, task),
                                 f"{name}/{task['id']}")
                log.tasks.append(time.perf_counter() - t0)
                results.append((task["id"], rep))
            reports = [rep for _, rep in results if rep is not None]
            replays.extend(replay_certificates(eng, fx, reports, tally, log, name))
        for task_id, rep in results:
            tally.check(rep is not None
                        and rep.verdict == want["verdicts"][name].get(task_id),
                        f"{name}/{task_id}: verdict {getattr(rep, 'verdict', None)}")
        digest = sha256(eng.reports.emit_json(reports))
        _check_digest(tally, digest, want["digests"].get(name), name)
        log.digests.append(digest)
    digest = sha256(eng.reports.emit_json(replays))
    _check_digest(tally, digest, want["replay_digest"], "replays")
    log.digests.append(digest)


# -- triangle-sweep ----------------------------------------------------------------------


def sweep_rounds(eng: Engine, fx, rng: random.Random) -> List[List]:
    """The draws of acceptance test 6 on the corner algebra.

    For each (source, target) pair with nonzero Hom, ``SWEEP_DRAWS`` random
    chain maps are drawn in the test's order.  They are returned as rounds:
    round r holds draw r of every pair, so each round has the same mix of
    small and large complexes.
    """
    homcat, QQ = eng.homcat, eng.linalg.QQ
    P1s, P2s, S1r = (fx.complexes[n] for n in ("P1s", "P2s", "S1r"))
    sources = [P1s, P2s, S1r, P2s.shift(1), P1s.shift(-1),
               homcat.direct_sum(P1s, P2s), homcat.direct_sum(S1r, P2s)]
    targets = [S1r, P1s, P2s, S1r.shift(1), homcat.direct_sum(S1r, P2s),
               homcat.direct_sum(P1s, P1s)]
    per_pair = []
    for X in sources:
        for Y in targets:
            H = homcat.HomSpace(X, Y)
            if H.dim == 0:
                continue
            draws = []
            for _ in range(SWEEP_DRAWS):
                coords = [QQ.from_int(rng.randint(-3, 3)) for _ in range(H.dim)]
                draws.append(H.L0.unpack(
                    [sum((c * r[t] for c, r in zip(coords, H.reps)), QQ.zero)
                     for t in range(H.L0.dim)]))
            per_pair.append(draws)
    return [[draws[r] for draws in per_pair] for r in range(SWEEP_DRAWS)]


def sweep_round(eng: Engine, phis: List, tally: Tally, log: Log,
                tracer=None) -> int:
    """Recognize the cone triangle of each map and its rotation, then
    round-trip each certificate through JSON and replay it.  Returns the
    number of triangles accepted (exact, re-verified and replayed)."""
    accepted = 0
    for phi in phis:
        with log.step():
            accepted += _sweep_map(eng, phi, tally, log, tracer)
    if tracer is not None:
        tracer.task(None)
    return accepted


def _sweep_map(eng: Engine, phi, tally: Tally, log: Log, tracer) -> int:
    homcat, ser = eng.homcat, eng.serialize
    accepted = 0
    _, incl, proj = homcat.cone(phi)
    for legs in ((phi, incl, proj), homcat.rotate_triangle(phi, incl, proj)):
        label = f"sweep#{len(log.tasks)}"
        if tracer is not None:
            tracer.task(label)
        t0 = time.perf_counter()
        verdict = tally.call(lambda: homcat.recognize_triangle(*legs), label)
        ok = verdict is not None and verdict.verdict == "exact" and \
            bool(tally.call(lambda: homcat.verify_triangle_certificate(
                *legs, verdict), label))
        log.tasks.append(time.perf_counter() - t0)
        tally.check(ok, f"{label}: not recognized as exact")
        if not ok:
            continue
        t0 = time.perf_counter()
        text = tally.call(lambda: json.dumps(
            ser.triangle_cert_to_json(verdict), sort_keys=True,
            separators=(",", ":")), label)
        replayed = text is not None and bool(tally.call(
            lambda: homcat.verify_triangle_certificate(
                *legs, ser.triangle_cert_from_json(*legs, json.loads(text))),
            label))
        log.replays.append(time.perf_counter() - t0)
        tally.check(replayed, f"{label}: certificate replay refuted")
        if replayed:
            accepted += 1
            log.digests.append(sha256(text))
    return accepted


# -- algebra-families ----------------------------------------------------------------------


def family_members() -> List[tuple]:
    rank = max(len(v) for v in FAMILY_SIZES.values())
    return [(fam, sizes[i]) for i in range(rank)
            for fam, sizes in FAMILY_SIZES.items() if i < len(sizes)]


def write_family_fixtures(seed: int, directory: str) -> Dict[str, str]:
    """Generate every family member for ``seed`` into ``directory``."""
    paths = {}
    for fam, n in family_members():
        name = f"{fam}{n}"
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(families.family_fixture(fam, n, HEPI_MAX_DEGREE, seed), fh)
        paths[name] = path
    return paths


def family_pass(eng: Engine, fxs: Dict, expected: Dict, seed: int,
                tally: Tally, log: Log):
    """Each generated fixture's task list with ``KBPROJ_WORKERS=2``, then
    every triangle certificate replayed.  The hepi verdict and Tor list must
    match the known answer, every triangle must be exact and re-verified,
    and the hepi report bytes must match the record."""
    want = expected["algebra-families"]
    for fam, n in family_members():
        name = f"{fam}{n}"
        fx = fxs[name]
        with log.step():
            t0 = time.perf_counter()
            reports = tally.call(lambda: eng.runner.run_tasks(fx), name)
            wall = time.perf_counter() - t0
            if reports is not None:
                log.tasks.extend(rep.elapsed for rep in reports)
                replay_certificates(eng, fx, reports, tally, log, name)
            else:
                log.tasks.extend([wall] * len(fx.tasks))
        if not tally.check(reports is not None, f"{name}: run_tasks raised"):
            continue
        hepi = reports[0]
        tally.check(
            hepi.verdict == families.known_verdict(fam, n, HEPI_MAX_DEGREE)
            and hepi.evidence["tor_dims"]
            == families.known_tor(fam, n, HEPI_MAX_DEGREE),
            f"{name}: hepi {hepi.verdict} {hepi.evidence.get('tor_dims')}")
        _check_digest(tally, sha256(eng.reports.emit_json([hepi])),
                      want["hepi_digests"].get(name), f"{name} hepi report")
        for rep in reports[1:]:
            tally.check(rep.verdict == "exact"
                        and rep.evidence.get("reverified") is True,
                        f"{name}/{rep.task}: {rep.verdict}")
        digest = sha256(eng.reports.emit_json(reports))
        if seed == REFERENCE_SEED:
            _check_digest(tally, digest, want["reference_digests"].get(name),
                          f"{name} reports at seed {seed}")
        log.digests.append(digest)


# -- running a workload ----------------------------------------------------------------------


class Workload:
    """Inputs, set-up and one unit of work for a named workload."""

    def __init__(self, name: str, seed: int, expected: Dict, workdir: str):
        self.name = name
        self.seed = seed
        self.expected = expected
        self.speed = Speed()
        if name == "fixture-batch":
            self.paths = fixture_paths()
        elif name == "triangle-sweep":
            self.paths = {"corner": fixture_paths()["corner"]}
        elif name == "algebra-families":
            self.paths = write_family_fixtures(seed, workdir)
            os.environ["KBPROJ_WORKERS"] = FAMILY_WORKERS
        else:
            raise ValueError(f"unknown workload {name!r}")
        self.sweeps_done = 0

    def start(self, eng: Engine, fxs: Dict):
        """Prepare the inputs of a phase (untimed)."""
        self.eng, self.fxs = eng, fxs
        if self.name == "triangle-sweep":
            self.rng = random.Random(self.seed)
            self._new_sweep()

    def _new_sweep(self):
        self.rounds = sweep_rounds(self.eng, self.fxs["corner"], self.rng)
        self.round_no = 0
        self.sweep_accepted = 0
        self.sweep_digests: List[str] = []

    def unit(self, tally: Tally, log: Log, tracer=None):
        """One unit of work: a pass, or a round of the sweep."""
        if self.name == "fixture-batch":
            fixture_pass(self.eng, self.fxs, self.expected, tally, log)
        elif self.name == "algebra-families":
            family_pass(self.eng, self.fxs, self.expected, self.seed, tally, log)
        else:
            if self.round_no == len(self.rounds):
                self._new_sweep()
            before = len(log.digests)
            self.sweep_accepted += sweep_round(
                self.eng, self.rounds[self.round_no], tally, log, tracer)
            self.sweep_digests.extend(log.digests[before:])
            self.round_no += 1
            if self.round_no == len(self.rounds):
                self._finish_sweep(tally)

    def _finish_sweep(self, tally: Tally):
        want = self.expected["triangle-sweep"]
        tally.check(self.sweep_accepted == want["accepted"],
                    f"sweep accepted {self.sweep_accepted}, "
                    f"expected {want['accepted']}")
        if self.seed == REFERENCE_SEED and self.sweeps_done == 0:
            _check_digest(tally, sha256("".join(self.sweep_digests)),
                          want["reference_digest"],
                          f"sweep certificates at seed {self.seed}")
        self.sweeps_done += 1

    def run(self, tally: Tally, log: Log, seconds: Optional[float],
            units: Optional[int] = None, tracer=None):
        """Exactly ``units`` whole units, or whole units until ``seconds``
        have passed and at least ``MIN_UNITS`` are done."""
        deadline = None if seconds is None else time.perf_counter() + seconds
        done = 0
        while True:
            self.unit(tally, log, tracer)
            done += 1
            if done == units or (deadline is not None
                                 and done >= MIN_UNITS[self.name]
                                 and time.perf_counter() >= deadline):
                break


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_timed(name: str, seed: int, seconds: float, expected: Dict):
    """The untraced run: every end-to-end metric, and beside them the same
    times unscaled with the median, least and greatest scale factor."""
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as workdir:
        wl = Workload(name, seed, expected, workdir)
        eng, fxs, setup_s, raw_setup_s = set_up(wl.paths, SETUP_REPS, wl.speed)
        wl.start(eng, fxs)
        tally, log = Tally(), Log(wl.speed)
        wl.run(tally, log, seconds)
    metrics = log.metrics()
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = log.metrics(raw=True)
    raw["setup_s"] = raw_setup_s
    factors = wl.speed.factors()
    raw["scale_factor"] = {"median": statistics.median(factors),
                           "min": min(factors), "max": max(factors)}
    return tally, metrics, raw


def run_traced(name: str, seed: int, expected: Dict):
    """The traced run: a fixed amount of work untraced, then the same work
    with the trace wrappers installed.  Returns the tally, the per-layer
    metrics, the path of the span file and whether the report digests were
    identical with tracing on and off."""
    import tracing

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer = tracing.Tracer()
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=OUT_DIR) as workdir:
        wl = Workload(name, seed, expected, workdir)
        eng, fxs, _, _ = set_up(wl.paths, 1, wl.speed)
        tally = Tally()
        plain, traced = Log(wl.speed), Log(wl.speed)
        wl.start(eng, fxs)
        wl.run(tally, plain, None, units=TRACED_UNITS[name])
        tracer.install()
        try:
            fxs = {n: eng.fixture.load_fixture(p) for n, p in wl.paths.items()}
            wl.start(eng, fxs)
            wl.run(tally, traced, None, units=TRACED_UNITS[name], tracer=tracer)
        finally:
            tracer.uninstall()
    same = tally.check(plain.digests == traced.digests,
                       "report digests differ with tracing on and off")
    metrics = tracing.per_layer_metrics(tracer)
    metrics["trace.overhead"] = (plain.metrics()["tasks_per_s"]
                                 / traced.metrics()["tasks_per_s"])
    span_path = os.path.join(OUT_DIR, f"trace-{name}-{seed}.jsonl")
    tracer.write_jsonl(span_path)
    return tally, metrics, span_path, same
