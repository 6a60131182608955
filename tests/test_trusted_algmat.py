"""Trusted ``AlgMat`` construction against the validating constructor.

Internal arithmetic builds summand matrices through ``AlgMat._trusted``,
which skips the corner check.  With it routed through ``AlgMat(...)``, every
matrix the engine builds is checked again.  Building seeded random chain
maps, then recognizing and checking their cone triangles, the rotations and
the triangle (0, incl, 0) of the zero map between the same ends must raise
nothing and give the same verdicts and certificates as the unchecked run.
"""

import random

import pytest

from oracles import route_trusted_algmats_through_validation
from test_operators import ALGEBRAS, complexes

from kbproj.homcat import (
    HomSpace,
    cone,
    recognize_triangle,
    rotate_triangle,
    verify_triangle_certificate,
    zero_map,
)
from kbproj.serialize import map_components_to_json


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
    assert {"zeros", "identity", "__add__", "__sub__", "neg", "scale",
            "__matmul__", "cone", "_glued_sum", "unpack"} <= callers
