"""Window ideal calculus from stored data against the paths it replaces.

``annihilator_ideal`` and ``kernel_objects`` read the images of a window and
their Hom spaces from the functor's stored image window, and ask for an image
Hom space only where the source Hom space is nonzero; the annihilator's probe
is "F(f) is a boundary of Hom(FX, FY)", one matrix product per pair;
``factor_through_ideal`` spans only nonzero Hom spaces and
``shift_stability_report`` computes images only of nonzero components;
``ideal_product`` loops over the stored components of both factors;
``ideal_closure`` is a worklist from its seeds; ``FiniteSubcat.shift_matrix``
is stored.  ``oracles.py`` keeps the fresh-image annihilator, the class-matrix
probe, the all-pairs factoring ideal and shift stability, the dense product
and the all-pairs fixpoint closure.  Both sides must agree on every functor of
the fixtures, and on induction along the corner map of generated algebras,
and the reports must not depend on what the caches already hold.
"""

import os
import sys
import threading

import pytest

from oracles import (
    annihilator_ideal_by_class_matrix,
    annihilator_ideal_fresh,
    dense_ideal_product,
    factor_through_ideal_all_pairs,
    fixpoint_ideal_closure,
    shift_stability_all_pairs,
)
from test_constructed_ideals import _projective_window
from test_structure_checks import family_data

from kbproj.fixture import FixtureFile, load_fixture
from kbproj.functors import BimoduleFunctor, induction_functor, kernel_objects
from kbproj.homcat import HomSpace, is_contractible
from kbproj.ideals import (
    annihilator_ideal,
    factor_through_ideal,
    ideal_closure,
    ideal_product,
    principal_ideal,
    shift_stability_report,
    telescope_report,
)
from kbproj.reports import emit_json
from kbproj.runner import run_task

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
CASES = [("corner", "G", "S"), ("split", "F", "S")]
# induction along the corner map R -> k of a generated algebra, on its
# projectives shifted over -1..1
GENERATED = [pytest.param(label, "corner", None, id=label) for label in ("UT3", "Alin4", "kx2")]
WINDOW_COMMANDS = ("telescope-report", "check-ideal")


def _load(fname):
    return load_fixture(os.path.join(FIXDIR, f"{fname}.json"))


def _case(fname, gname, sname):
    if sname is None:
        fx = FixtureFile(family_data(fname[:-1], int(fname[-1])))
        g = fx.ring_maps[gname]
        W = _projective_window(fname, fx)
        # e_i R (x) k is k where the map sends e_i to 1, and zero elsewhere
        witnesses = {i: [(0, (1,))] if any(g.apply(W.alg.idempotent_vec(i))) else []
                     for i in range(W.alg.n_idempotents())}
        return induction_functor(g, witnesses), W
    fx = _load(fname)
    return fx.functors[gname], fx.subcategories[sname]


def _check_seeds(fx, name):
    """The window and seed classes of a check-ideal entry, as the runner reads them."""
    spec = fx.ideals[name]
    sub = spec["subcat"]
    # the fixture groups the generators by the window pair they map between
    return sub, {ab: sub.hom(*ab).class_matrix(gs).rows()
                 for ab, gs in spec["generators"].items()}


def _check_ideal(fx, name):
    """The ideal of a check-ideal entry, generated as the runner generates it."""
    return ideal_closure(*_check_seeds(fx, name))


@pytest.mark.parametrize("fname,gname,sname", CASES + GENERATED)
def test_annihilator_and_kernel_match_fresh_images(fname, gname, sname):
    F, S = _case(fname, gname, sname)
    slow = annihilator_ideal_fresh(F, S)
    for _ in range(2):  # cold, then from the stored window
        assert annihilator_ideal(F, S).components == slow.components
        assert kernel_objects(F, S) == [name for name, X in S.objects.items()
                                        if is_contractible(F.apply_complex(X))[0]]
    assert annihilator_ideal_by_class_matrix(F, S).components == slow.components


@pytest.mark.parametrize("fname,gname,sname", CASES + GENERATED)
def test_nonzero_pairs_match_all_pairs(fname, gname, sname):
    F, S = _case(fname, gname, sname)
    kern = kernel_objects(F, S)
    fac = factor_through_ideal(S, kern)
    assert fac.components == factor_through_ideal_all_pairs(S, kern).components
    # one class at one pair, with none at its translate: not shift stable
    a, b = next((a, b) for a in S.shifts for b in S.shifts if S.hom(a, b).dim)
    one = principal_ideal(S, a, b, S.hom(a, b).basis()[0])
    stable = set()
    for I in (annihilator_ideal(F, S), fac, one):
        ok, pairs = shift_stability_report(I)
        assert (ok, pairs) == shift_stability_all_pairs(I)
        assert len(pairs) == len(S.shifts) ** 2
        stable.add(ok)
    assert stable == {True, False}


@pytest.mark.parametrize("fname", ["corner", "split"])
def test_worklist_closure_matches_the_fixpoint(fname):
    fx = _load(fname)
    assert fx.ideals
    for name in fx.ideals:
        sub, seeds = _check_seeds(fx, name)
        I = ideal_closure(sub, seeds)
        assert I.components == fixpoint_ideal_closure(sub, seeds).components
        assert I.components


@pytest.mark.parametrize("fname,gname,sname", CASES)
def test_sparse_product_matches_dense(fname, gname, sname):
    fx = _load(fname)
    F, S = fx.functors[gname], fx.subcategories[sname]
    ann = annihilator_ideal(F, S)
    fac = factor_through_ideal(S, kernel_objects(F, S))
    ideals = [_check_ideal(fx, name) for name in fx.ideals] + [ann, fac]
    assert any(I.components for I in ideals)
    for I in ideals:
        for J in ideals:
            assert ideal_product(I, J).components == dense_ideal_product(I, J).components


@pytest.mark.parametrize("fname", ["corner", "split"])
def test_window_reports_are_the_same_cold_and_warm(fname):
    fx = _load(fname)
    tasks = [t for t in fx.tasks if t["command"] in WINDOW_COMMANDS]
    assert {t["command"] for t in tasks} == set(WINDOW_COMMANDS)
    cold = [emit_json([run_task(_load(fname), t)]) for t in tasks]
    first = [emit_json([run_task(fx, t)]) for t in reversed(tasks)][::-1]
    warm = [emit_json([run_task(fx, t)]) for t in tasks]
    assert first == cold
    assert warm == cold


def test_second_telescope_report_builds_no_hom_space(monkeypatch):
    F, S = _case("corner", "G", "S")
    built = []
    init = HomSpace.__init__

    def counted(self, X, Y):
        built.append((X, Y))
        init(self, X, Y)

    monkeypatch.setattr(HomSpace, "__init__", counted)
    telescope_report(F, S)
    W = F.image_window(S)
    images = {id(X) for X in W.objects.values()}
    between_images = {(id(X), id(Y)) for X, Y in built
                      if id(X) in images and id(Y) in images}
    # annihilator pairs with a nonzero source Hom, plus the endomorphisms
    # that decide the kernel objects
    wanted = {(a, b) for a in S.names() for b in S.names()
              if S.hom(a, b).dim or a == b}
    assert between_images == {(id(W.objects[a]), id(W.objects[b])) for a, b in wanted}
    assert len(wanted) < len(S.names()) ** 2
    built.clear()
    telescope_report(F, S)
    assert built == []


def test_shift_matrix_is_stored():
    _, S = _case("corner", "G", "S")
    a, b = next((a, b) for a in S.shifts for b in S.shifts if S.hom(a, b).dim)
    M = S.shift_matrix(a, b)
    assert S.shift_matrix(a, b) is M


def test_threads_racing_on_a_first_image_window_keep_one():
    loaded, S = _case("split", "F", "S")
    F = BimoduleFunctor(loaded.bimodule, loaded.witnesses, loaded.name)
    assert not F._windows
    results = [None] * 8
    barrier = threading.Barrier(8, timeout=30)

    def work(i):
        barrier.wait()
        results[i] = F.image_window(S)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert all(W is results[0] for W in results)
    assert list(F._windows.values()) == [results[0]]
    assert F.image_window(S) is results[0]
    assert list(results[0].objects) == S.names()
