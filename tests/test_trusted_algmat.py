"""Trusted construction against the validating constructors.

Internal arithmetic builds summand matrices through ``AlgMat._trusted``,
which skips the corner check, and derived complexes and graded maps through
``ProjComplex._trusted`` and ``GradedMap._trusted``, which skip the d^2 and
summand checks.  With them routed through ``AlgMat(...)``, ``ProjComplex(...)``
and ``GradedMap(...)``, everything the engine builds is checked again.
Building seeded random chain maps, then recognizing and checking their cone
triangles, the rotations and the triangle (0, incl, 0) of the zero map between
the same ends must raise nothing and give the same verdicts and certificates
as the unchecked run; so must every fixture task and its certificate replay.
"""

import os
import random

import pytest

from oracles import (
    route_trusted_algmats_through_validation,
    route_trusted_complexes_through_validation,
)
from test_operators import ALGEBRAS, complexes

from kbproj.fixture import load_fixture

from kbproj.homcat import (
    HomSpace,
    cone,
    recognize_triangle,
    rotate_triangle,
    verify_triangle_certificate,
    zero_map,
)
from kbproj.reports import emit_json
from kbproj.runner import run_task
from kbproj.serialize import map_components_to_json

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def random_chain_maps(alg, seed, count=10):
    rng = random.Random(seed)
    cx = complexes(alg, rng)
    ring = alg.ring
    out = []
    for X in cx:
        for Y in cx:
            H = HomSpace(X, Y)
            if H.dim:
                coords = [ring.from_int(rng.randint(-3, 3)) for _ in range(H.dim)]
                v = [ring.zero] * H.L0.dim
                for c, rep in zip(coords, H.reps):
                    v = [ring.add(a, ring.mul(c, b)) for a, b in zip(v, rep)]
                out.append(H.L0.unpack(v))
    rng.shuffle(out)
    return out[:count]


def triangles(phis):
    for phi in phis:
        _, incl, proj = cone(phi)
        yield phi, incl, proj
        yield rotate_triangle(phi, incl, proj)
        zero = zero_map(phi.source, phi.target)
        _, incl0, proj0 = cone(zero)
        yield zero, incl0, zero_map(proj0.source, proj0.target)


def outcomes(phis):
    out = []
    for legs in triangles(phis):
        v = recognize_triangle(*legs)
        cert = {k: None if m is None else map_components_to_json(m)
                for k, m in (("rho", v.rho), ("h_incl", v.h_incl),
                             ("h_proj", v.h_proj),
                             ("cone_contraction", v.cone_contraction))}
        out.append((v.verdict, v.reason, cert,
                    verify_triangle_certificate(*legs, v)))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_trusted_construction_matches_validation(name, monkeypatch):
    alg = ALGEBRAS[name]()
    fast = outcomes(random_chain_maps(alg, seed=17))
    assert {o[0] for o in fast} == {"exact", "not_exact"}
    assert all(o[3] == (o[0] == "exact") for o in fast)
    callers = route_trusted_algmats_through_validation(monkeypatch)
    assert outcomes(random_chain_maps(alg, seed=17)) == fast
    assert {"identity", "__add__", "__sub__", "neg", "scale",
            "__matmul__", "cone", "_glued_sum", "unpack"} <= callers


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_trusted_complexes_and_maps_match_validation(name, monkeypatch):
    alg = ALGEBRAS[name]()
    fast = outcomes(random_chain_maps(alg, seed=17))
    callers = route_trusted_complexes_through_validation(monkeypatch)
    assert outcomes(random_chain_maps(alg, seed=17)) == fast
    assert {"shift", "_glued_sum", "cone", "compose", "delta", "unpack",
            "identity_map", "delta_matrix"} <= callers


def fixture_pass(name):
    """Every task of a freshly loaded fixture, then each certificate replayed,
    as report JSON; a fresh load shares no stored cone or Hom space."""
    fx = load_fixture(os.path.join(FIXDIR, f"{name}.json"))
    reports = [run_task(fx, t) for t in fx.tasks]
    replays = [run_task(fx, {"id": f"replay:{r.task}", "command": "verify-certificate",
                             "certificate": r.evidence["certificate"]})
               for r in reports if "certificate" in r.evidence]
    assert all(r.verdict == "certified" for r in replays)
    return emit_json(reports + replays)


def test_fixture_tasks_match_validated_complexes_and_maps(monkeypatch):
    names = ("corner", "split", "koszul")
    fast = [fixture_pass(n) for n in names]
    callers = route_trusted_complexes_through_validation(monkeypatch)
    assert [fixture_pass(n) for n in names] == fast
    assert {"shift", "hard_truncate_le", "_glued_sum", "cone", "compose", "delta",
            "neg", "__sub__", "unpack", "homotopy_inverse_from_contraction"} <= callers
