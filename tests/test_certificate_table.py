"""The runner's certificate table: every kind is produced by a fixture task,
the bytes a producer emits replay as ``certified`` through
``verify-certificate``, and each entry calls the codecs and verifiers that
the ``runner`` module names at call time, so a rebinding of those globals
(the way the benchmark's tracer wraps functions) is what runs."""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import pytest

from kbproj import runner
from kbproj.cli import main
from kbproj.fixture import load_fixture

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURES = sorted(os.path.join(FIXDIR, f) for f in os.listdir(FIXDIR)
                  if f.endswith(".json"))
KINDS = sorted(runner._CERTS)
# the codecs and verifiers the table reaches through runner's globals
TABLE_NAMES = ("triangle_cert_to_json", "triangle_cert_from_json",
               "map_lift_cert_to_json", "map_lift_cert_from_json",
               "complex_lift_cert_to_json", "complex_lift_cert_from_json",
               "verify_triangle_certificate", "verify_map_lift",
               "verify_complex_lift")


def _cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


@pytest.fixture(scope="module")
def emitted():
    """kind -> [(fixture path, task id, envelope as printed by `kbproj run`)]."""
    out = {}
    for path in FIXTURES:
        for rep in _cli_json("run", "--fixture", path)["reports"]:
            envelope = rep["evidence"].get("certificate")
            if envelope is not None:
                assert rep["evidence"]["reverified"] is True
                out.setdefault(envelope["kind"], []).append((path, rep["task"], envelope))
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_has_a_fixture_task_that_produces_it(emitted, kind):
    assert emitted.get(kind), f"no fixture task emits a {kind} certificate"


@pytest.mark.parametrize("kind", KINDS)
def test_emitted_envelope_replays_certified(emitted, tmp_path, kind):
    for path, task_id, envelope in emitted[kind]:
        cert = tmp_path / f"{task_id}.json"
        cert.write_text(json.dumps(envelope))
        rep = _cli_json("verify-certificate", "--fixture", path,
                        "--certificate", str(cert))["reports"][0]
        assert (rep["verdict"], rep["evidence"]["reason"]) == ("certified", "replayed"), \
            f"{os.path.basename(path)} {task_id}: {rep['evidence']['reason']}"
        assert rep["evidence"]["kind"] == kind


def _rebind(monkeypatch, calls):
    """Wrap each table name in every loaded kbproj module that binds it, as
    the benchmark's tracer does, counting calls by name."""
    modules = [m for n, m in sys.modules.items() if n.startswith("kbproj") and m is not None]
    for name in TABLE_NAMES:
        original = getattr(runner, name)

        def wrapped(*args, _name=name, _fn=original, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapped)


@pytest.mark.parametrize("fixture,task_id,kind", [
    ("corner.json", "triangle-canonical", "triangle"),
    ("corner.json", "lift-corner-id", "map-lift"),
    ("corner.json", "rebuild-k3", "complex-lift"),
])
def test_rebound_codecs_and_verifiers_are_the_ones_called(monkeypatch, fixture, task_id,
                                                          kind):
    fx = load_fixture(os.path.join(FIXDIR, fixture))
    task = next(t for t in fx.tasks if t["id"] == task_id)
    calls = {}
    _rebind(monkeypatch, calls)
    produced = runner.run_task(fx, task)
    envelope = produced.evidence["certificate"]
    replayed = runner.run_task(fx, {"id": "replay", "command": "verify-certificate",
                                    "certificate": envelope})
    assert replayed.verdict == "certified"
    stem = kind.replace("-", "_")
    verifier = {"triangle": "verify_triangle_certificate", "map-lift": "verify_map_lift",
                "complex-lift": "verify_complex_lift"}[kind]
    # the producer encodes and replays; verify-certificate decodes and replays
    assert calls == {f"{stem}_cert_to_json": 1, f"{stem}_cert_from_json": 1, verifier: 2}


@pytest.mark.parametrize("task_id,verifier,refusal,why", [
    ("triangle-canonical", "verify_triangle_certificate", False,
     "certificate arithmetic failed"),
    ("lift-corner-id", "verify_map_lift", (False, "tampered"), "tampered"),
    ("rebuild-k3", "verify_complex_lift", (False, "tampered"), "tampered"),
])
def test_a_certificate_that_fails_its_replay_is_not_reported(monkeypatch, task_id, verifier,
                                                              refusal, why):
    fx = load_fixture(os.path.join(FIXDIR, "corner.json"))
    task = next(t for t in fx.tasks if t["id"] == task_id)
    monkeypatch.setattr(runner, verifier, lambda *args: refusal)
    with pytest.raises(runner.TaskError, match=f"produced certificate failed "
                                               f"re-verification: {why}$"):
        runner.run_task(fx, task)
