"""The int fast path of QQ against the Fraction-only oracle ring, end to end.

A fixture loaded over ``oracles.FractionRationals`` keeps every scalar a
``Fraction``, as ``linalg.QQ`` did before integral elements became ``int``.
Certificates and reports computed over both rings must be the same bytes.
"""

import hashlib
import json
import os
import random

import pytest

from kbproj import fixture
from kbproj.cli import main
from kbproj.fixture import load_fixture
from kbproj.homcat import HomSpace, cone, direct_sum, recognize_triangle, rotate_triangle
from kbproj.linalg import QQ
from kbproj.reports import emit_json
from kbproj.runner import run_tasks
from kbproj.serialize import triangle_cert_to_json

from oracles import FractionRationals

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = ("corner", "split", "koszul")


def _fixture_path(name):
    return os.path.join(ROOT, "fixtures", f"{name}.json")


def _load(name, ring, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(fixture, "QQ", ring)
        fx = load_fixture(_fixture_path(name))
    assert fx.ring is ring
    return fx


def _sweep_certificates(fx, seed=13):
    """The cone-triangle sweep of acceptance test 6, as certificate bytes."""
    ring = fx.ring
    P1s, P2s, S1r = (fx.complexes[n] for n in ("P1s", "P2s", "S1r"))
    sources = [P1s, P2s, S1r, P2s.shift(1), P1s.shift(-1),
               direct_sum(P1s, P2s), direct_sum(S1r, P2s)]
    targets = [S1r, P1s, P2s, S1r.shift(1), direct_sum(S1r, P2s),
               direct_sum(P1s, P1s)]
    rng = random.Random(seed)
    texts = []
    for X in sources:
        for Y in targets:
            H = HomSpace(X, Y)
            if H.dim == 0:
                continue
            for _ in range(3):
                coords = [ring.from_int(rng.randint(-3, 3)) for _ in range(H.dim)]
                phi = H.L0.unpack(
                    [sum((c * r[t] for c, r in zip(coords, H.reps)), ring.zero)
                     for t in range(H.L0.dim)])
                _, incl, proj = cone(phi)
                for legs in ((phi, incl, proj), rotate_triangle(phi, incl, proj)):
                    verdict = recognize_triangle(*legs)
                    assert verdict.verdict == "exact"
                    texts.append(json.dumps(triangle_cert_to_json(verdict),
                                            sort_keys=True, separators=(",", ":")))
    return texts


def test_triangle_sweep_certificates_are_byte_identical_over_both_rings(monkeypatch):
    fast = _sweep_certificates(_load("corner", QQ, monkeypatch))
    slow = _sweep_certificates(_load("corner", FractionRationals(), monkeypatch))
    assert len(fast) >= 100
    assert fast == slow


@pytest.mark.parametrize("name", FIXTURES)
def test_run_report_bytes_match_the_record_and_the_oracle_ring(capsys, monkeypatch, name):
    # bench/expected.json records the report digest of each fixture
    with open(os.path.join(ROOT, "bench", "expected.json")) as fh:
        recorded = json.load(fh)["fixture-batch"]["digests"][name]
    assert main(["run", "--fixture", _fixture_path(name)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == recorded
    slow = _load(name, FractionRationals(), monkeypatch)
    assert emit_json(run_tasks(slow, workers=1)) == out
