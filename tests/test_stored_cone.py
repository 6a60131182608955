"""The cone of a chain map is built once and stored on the map.

A repeat call returns the same objects; a map that fails the chain-map
check raises every time; a certificate decoded from JSON brings new maps,
so its cone and contraction are checked afresh even after an honest
certificate for the same triangle was verified; concurrent first calls
keep one cone.
"""

import copy
import json
import os
import sys
import threading

import pytest

from kbproj.fixture import load_fixture
from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomcatError,
    HomSpace,
    MapLayout,
    TriangleVerdict,
    cone,
    recognize_triangle,
    verify_triangle_certificate,
)
from kbproj.runner import run_task
from kbproj.serialize import triangle_cert_from_json, triangle_cert_to_json

CORNER = os.path.join(os.path.dirname(__file__), "..", "fixtures", "corner.json")


@pytest.fixture
def fx():
    return load_fixture(CORNER)


def test_repeat_call_returns_the_identical_cone(fx):
    phi = fx.maps["iota"]
    first = cone(phi)
    second = cone(phi)
    assert all(a is b for a, b in zip(first, second))
    # an equal but distinct map gets its own cone, equal to the first
    twin = GradedMap(phi.source, phi.target, 0, dict(phi.components), name=phi.name)
    other = cone(twin)
    assert other[0] is not first[0] and other[0] == first[0]
    assert other[1] == first[1] and other[2] == first[2]


def test_a_map_that_is_not_a_chain_map_raises_every_time(fx):
    S1r = fx.complexes["S1r"]
    ring = S1r.alg.ring
    # the identity at degree 0 only: d . 0 - id . d != 0
    not_closed = GradedMap(S1r, S1r, 0, {0: AlgMat.identity(S1r.alg, S1r.summands[0])})
    L1 = MapLayout(S1r, S1r, 1)
    odd = L1.unpack([ring.one] * L1.dim)
    assert not not_closed.is_chain_map() and not odd.is_zero()
    for bad in (not_closed, odd):
        for _ in range(2):
            with pytest.raises(HomcatError, match="degree-0 chain map"):
                cone(bad)


def _verify(fx, problem, payload):
    task = {"id": "replay", "command": "verify-certificate",
            "certificate": {"kind": "triangle", "problem": problem, "payload": payload}}
    return run_task(fx, task).verdict


def _bump_first_one(entries):
    """Change the first scalar "1" in a JSON component to "2"."""
    for row in entries:
        for entry in row:
            for t, c in enumerate(entry):
                if c == "1":
                    entry[t] = "2"
                    return
    raise AssertionError("no scalar 1 to tamper with")


@pytest.mark.parametrize("key", ["cone_contraction", "rho"])
def test_tampered_certificate_is_refuted_after_an_honest_one(fx, key):
    tri = fx.triangles["canonical"]
    verdict = recognize_triangle(tri["alpha"], tri["beta"], tri["gamma"])
    honest = json.loads(json.dumps(triangle_cert_to_json(verdict)))
    assert _verify(fx, "canonical", honest) == "certified"
    tampered = copy.deepcopy(honest)
    _bump_first_one(tampered[key][min(tampered[key], key=int)])
    assert _verify(fx, "canonical", tampered) == "refuted"
    # and the honest one still replays against the same stored cone of alpha
    assert _verify(fx, "canonical", honest) == "certified"


def test_a_decoded_comparison_map_gets_a_fresh_cone(fx):
    # rho + delta(k), with both homotopies moved by k, passes the homotopy
    # checks, so only the contraction check on its own cone can refute it
    P1s, S1r = fx.complexes["P1s"], fx.complexes["S1r"]
    H = HomSpace(P1s, S1r)
    alpha = H.L0.unpack(H.reps[0])
    _, incl, proj = cone(alpha)
    legs = (alpha, incl, proj)
    honest = recognize_triangle(*legs)
    assert verify_triangle_certificate(*legs, honest)
    L = MapLayout(incl.target, incl.target, -1)
    k = L.unpack([fx.ring.one] * L.dim)
    assert not k.delta().is_zero()
    moved = TriangleVerdict("exact", "moved", honest.rho + k.delta(),
                            honest.h_incl + k.compose(incl), honest.h_proj + proj.compose(k),
                            honest.cone_contraction)
    decoded = triangle_cert_from_json(
        *legs, json.loads(json.dumps(triangle_cert_to_json(moved))))
    assert (decoded.rho.compose(incl) - incl - decoded.h_incl.delta()).is_zero()
    assert (proj.compose(decoded.rho) - proj - decoded.h_proj.delta()).is_zero()
    assert not verify_triangle_certificate(*legs, decoded)
    again = triangle_cert_from_json(*legs, json.loads(json.dumps(triangle_cert_to_json(honest))))
    assert verify_triangle_certificate(*legs, again)


def test_threads_racing_on_a_first_cone_get_one_cone(fx):
    phi = fx.maps["iota"]
    fresh = GradedMap(phi.source, phi.target, 0, dict(phi.components), name="fresh")
    start = threading.Barrier(8, timeout=10)
    got = [None] * 8

    def build(i):
        start.wait()
        got[i] = cone(fresh)

    threads = [threading.Thread(target=build, args=(i,)) for i in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for other in got[1:]:
        assert all(a is b for a, b in zip(other, got[0]))
