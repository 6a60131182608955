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

A functor's images are built by ``homcat.functor_image`` through the trusted
constructors too.  With ``oracles.checked_functor_image`` in its place, which
builds each image entry from the functor's corner tables and every image
through the checking constructors, as ``BimoduleFunctor`` did before, every
fixture functor's image of every fixture complex and map, every lift problem
``test_lifting.py`` solves, and every fixture task and replay must give the
same images and the same JSON bytes.
"""

import inspect
import json
import os
import random

import pytest

import test_lifting
from oracles import (
    checked_functor_image,
    route_functor_images_through_validation,
    route_trusted_algmats_through_validation,
    route_trusted_complexes_through_validation,
)
from test_operators import ALGEBRAS, complexes

from kbproj.fixture import load_fixture

from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomSpace,
    ProjComplex,
    cone,
    recognize_triangle,
    rotate_triangle,
    verify_triangle_certificate,
    zero_map,
)
from kbproj.lifting import MapLiftReport, SearchBudget
from kbproj.reports import emit_json
from kbproj.runner import run_task
from kbproj.serialize import (
    complex_lift_cert_to_json,
    map_components_to_json,
    map_lift_cert_to_json,
)

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


# -- functor images -------------------------------------------------------------

FIXTURES = ("corner", "split", "koszul", "two_cycle")


def image_inputs(fx):
    """(functor, input) for each fixture functor and each complex, differential
    and map over its source algebra that the fixture names or poses a lift on."""
    for F in fx.functors.values():
        cx = [X for X in fx.complexes.values() if X.alg == F.source_alg]
        for problem, _ in fx.lifts.values():
            cx += [problem.source, problem.target] if problem.functor is F else []
        for problem, _ in fx.complex_lifts.values():
            cx += [sl.source for sl in problem.stalks.values()] if problem.functor is F else []
        yield from ((F, x) for X in cx for x in (X, *X.diff.values()))
        yield from ((F, f) for f in fx.maps.values() if f.source.alg == F.source_alg)


def test_fixture_functor_images_match_the_checked_constructors():
    seen = set()
    for name in FIXTURES:
        for F, x in image_inputs(load_fixture(os.path.join(FIXDIR, f"{name}.json"))):
            seen.add((name, type(x)))
            apply = {AlgMat: F.apply_algmat, ProjComplex: F.apply_complex,
                     GradedMap: F.apply_map}[type(x)]
            got, want = apply(x), checked_functor_image(F, x)
            assert got == want and getattr(got, "name", None) == getattr(want, "name", None)
            if isinstance(x, GradedMap):
                FX, FY = F.apply_complex(x.source), F.apply_complex(x.target)
                assert F.apply_map(x, FX, FY) == checked_functor_image(F, x, FX, FY)
    # koszul and two_cycle declare no functor
    assert seen == {(n, k) for n in ("corner", "split") for k in (AlgMat, ProjComplex, GradedMap)}


def lift_problems_of_test_lifting():
    """(search, problem, budget) for every lift that a test of ``test_lifting.py``
    taking only its ``ctx`` solves, recorded by running those tests."""
    ctx, posed = test_lifting.lifting_context(), []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("lift_chain_map", "lift_complex"):
            def record(problem, budget=SearchBudget(), _search=getattr(test_lifting, name)):
                posed.append((_search, problem, budget))
                return _search(problem, budget)
            mp.setattr(test_lifting, name, record)
        for name, test in vars(test_lifting).items():
            if name.startswith("test_") and list(inspect.signature(test).parameters) == ["ctx"]:
                test(ctx)
    return posed


def lift_outcome(search, problem, budget):
    rep = search(problem, budget)
    if isinstance(rep, MapLiftReport):
        cert = rep.certificate and map_lift_cert_to_json(rep.certificate)
        out = [rep.verdict, rep.candidates_tried, rep.depth_reached, cert]
    else:
        cert = rep.certificate and complex_lift_cert_to_json(rep.certificate)
        out = [rep.verdict, rep.reason, cert]
    return json.dumps(out, sort_keys=True)


def test_lifting_problems_match_checked_functor_images(monkeypatch):
    posed = lift_problems_of_test_lifting()
    assert {search.__name__ for search, _, _ in posed} == {"lift_chain_map", "lift_complex"}
    fast = [lift_outcome(*run) for run in posed]
    kinds = route_functor_images_through_validation(monkeypatch)
    assert [lift_outcome(*run) for run in posed] == fast
    assert set(kinds) == {"complex", "map"}
    assert sum('"found"' in o for o in fast) >= 20 and any('"not_found"' in o for o in fast)


def test_fixture_tasks_match_checked_functor_images(monkeypatch):
    fast = [fixture_pass(n) for n in FIXTURES]
    kinds = route_functor_images_through_validation(monkeypatch)
    assert [fixture_pass(n) for n in FIXTURES] == fast
    assert set(kinds) == {"complex", "map"}
