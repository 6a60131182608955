"""Ideals built by construction against the checking constructor and the
paths they replace.

``ideal_closure``, ``ideal_product``, ``factor_through_ideal`` and
``kernel_ideal`` build through ``HomIdeal._constructed``, which checks shapes
only; ``almost_derived_ideal`` reads its Hom spaces into the shifts of the
multiplication cone from an extension stored on the window.  With the
private path routed through the public ``HomIdeal(...)``, every engine-built
ideal must pass the closure check and the window reports must not change a
byte.  ``oracles.derived_ideal_fresh`` keeps the derived ideal built from
fresh Hom spaces on every call, and the new path must equal it cold and warm.
On windows of shifted projectives over generated algebras, closures,
products and factoring ideals must pass the closure check, the sparse
product must equal the dense one, the worklist closure must equal the
all-pairs fixpoint of ``oracles.fixpoint_ideal_closure``, and the factoring
ideal and shift stability, which walk only nonzero pairs, must equal their
all-pairs forms in ``oracles``.  An ideal stores only its nonzero
components.
"""

import os
import random

import pytest

from oracles import (
    dense_ideal_product,
    derived_ideal_fresh,
    factor_through_ideal_all_pairs,
    fixpoint_ideal_closure,
    route_constructed_ideals_through_closure_check,
    shift_stability_all_pairs,
)
from test_structure_checks import family_data

from kbproj.almost import AlmostCase, almost_derived_ideal
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.functors import FiniteSubcat
from kbproj.homcat import HomSpace, single_summand_complex
from kbproj.ideals import (
    HomIdeal,
    IdealError,
    factor_through_ideal,
    ideal_closure,
    ideal_product,
    principal_ideal,
    shift_stability_report,
)
from kbproj.linalg import Subspace
from kbproj.reports import emit_json
from kbproj.runner import run_task

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
WINDOW_COMMANDS = ("almost-report", "telescope-report", "check-ideal")
CONSTRUCTORS = {"ideal_closure", "ideal_product", "factor_through_ideal", "kernel_ideal"}
WINDOWS = (None, 0, 1, 3)


def _load(fname):
    return load_fixture(os.path.join(FIXDIR, f"{fname}.json"))


def _derived(case, window):
    return almost_derived_ideal(case, window=window)


@pytest.mark.parametrize("w", WINDOWS)
def test_derived_ideal_matches_fresh_hom_spaces(w):
    case = _load("corner").almost_cases["corner-almost"]
    window = None if w is None else (-w, w)
    cold = _derived(case, window)
    slow, hull = derived_ideal_fresh(cold.cone, case.subcat, window)
    assert slow.components
    for rep in (cold, _derived(case, window)):  # cold, then from the stored extension
        assert rep.ideal.components == slow.components
        assert rep.window == hull
    assert len(case.subcat._extensions) == 1


def test_almost_reports_are_the_same_cold_and_warm_for_every_window():
    tasks = [{"id": f"almost-{w}", "command": "almost-report", "name": "corner-almost",
              **({} if w is None else {"window": w})} for w in WINDOWS]
    cold = [emit_json([run_task(_load("corner"), t)]) for t in tasks]
    fx = _load("corner")
    first = [emit_json([run_task(fx, t)]) for t in reversed(tasks)][::-1]
    stored = list(fx.almost_cases["corner-almost"].subcat._extensions)
    warm = [emit_json([run_task(fx, t)]) for t in tasks]
    assert first == cold
    assert warm == cold
    # no window option gives the same shifts as window 3, and shares its extension
    assert len(stored) == 3
    assert fx.almost_cases["corner-almost"].subcat._extensions == stored


def test_a_stored_cone_window_builds_no_hom_space(monkeypatch):
    case = _load("corner").almost_cases["corner-almost"]
    first = _derived(case, None)
    built = []
    init = HomSpace.__init__

    def counted(self, X, Y):
        built.append((X, Y))
        init(self, X, Y)

    monkeypatch.setattr(HomSpace, "__init__", counted)
    again = _derived(case, None)
    assert built == []
    assert again.ideal.components == first.ideal.components
    # other shifts of the cone build their own extension
    _derived(case, (-1, 1))
    assert built and len(case.subcat._extensions) == 2


def test_a_cone_window_keeps_its_shifts_out_of_the_subcategory():
    # two cones over one subcategory must not see each other's Hom spaces
    fx = _load("corner")
    case = fx.almost_cases["corner-almost"]
    zero = fx.almost_cases["zero-almost"]
    corner = _derived(case, None)
    other = almost_derived_ideal(AlmostCase(zero.algebra, generators=[], include=["derived"],
                                            subcat=case.subcat, a_witness=[],
                                            square_witnesses={}))
    assert other.ideal.components == derived_ideal_fresh(other.cone, case.subcat)[0].components
    assert other.ideal != corner.ideal
    assert all(isinstance(a, str) and isinstance(b, str) for a, b in case.subcat._homs)
    assert len(case.subcat._extensions) == 2


def test_an_extension_reads_the_window_and_keeps_its_own_objects_apart():
    S = _load("corner").subcategories["S"]
    H = S.hom("P2s", "P1s")
    W = S.extended({0: S.objects["S1r"]})
    assert W.hom("P2s", "P1s") is H
    assert W.hom("P1s", 0).dim == S.hom("P1s", "S1r").dim
    assert ("P1s", 0) not in S._homs
    # an equal family of extra objects finds the stored extension, another does not
    assert S.extended({0: S.objects["S1r"].shift(1).shift(-1)}) is W
    assert S.extended({0: S.objects["P1s"]}) is not W
    assert S.extended({1: S.objects["S1r"]}) is not W


@pytest.mark.parametrize("fname", ["corner", "split"])
def test_window_reports_are_the_same_with_the_closure_check(fname, monkeypatch):
    tasks = [t for t in _load(fname).tasks if t["command"] in WINDOW_COMMANDS]
    report = [emit_json([run_task(_load(fname), t)]) for t in tasks]
    callers = route_constructed_ideals_through_closure_check(monkeypatch)
    fx = _load(fname)
    assert [emit_json([run_task(fx, t)]) for t in tasks] == report
    want = {"telescope-report": {"kernel_ideal", "factor_through_ideal"},
            "check-ideal": {"ideal_closure", "ideal_product"},
            "almost-report": {"kernel_ideal", "ideal_product"}}
    assert set().union(*(want[t["command"]] for t in tasks)) <= callers <= CONSTRUCTORS


@pytest.mark.parametrize("mode", ["constructed", "checked"])
def test_the_public_constructor_refuses_a_family_that_is_not_closed(mode, monkeypatch):
    if mode == "checked":
        route_constructed_ideals_through_closure_check(monkeypatch)
    S = _load("corner").subcategories["S"]
    ring = S.alg.ring
    # the identity of P1s, without its composite with P2s -> P1s
    comps = {("P1s", "P1s"): Subspace.full(ring, S.hom("P1s", "P1s").dim)}
    assert S.hom("P2s", "P1s").dim
    with pytest.raises(IdealError, match="not closed"):
        HomIdeal(S, comps)
    # the private path still checks shapes and pairs
    with pytest.raises(IdealError, match="ambient"):
        HomIdeal._constructed(S, {("P1s", "P1s"): Subspace.zero(ring, 5)})
    with pytest.raises(IdealError, match="unknown pair"):
        HomIdeal._constructed(S, {("nope", "P1s"): Subspace.zero(ring, 0)})


def test_an_ideal_stores_only_its_nonzero_components():
    S = _load("corner").subcategories["S"]
    ring = S.alg.ring
    fac = factor_through_ideal(S, ["P1s"])
    zeros = {(a, b): Subspace.zero(ring, S.hom(a, b).dim)
             for a in S.names() for b in S.names() if (a, b) not in fac.components}
    padded = HomIdeal(S, {**zeros, **fac.components})
    assert padded == HomIdeal(S, fac.components) == fac
    assert padded.components == fac.components
    assert all(I.dim for I in padded.components.values())
    assert padded.component("P2s", "S1r") == Subspace.zero(ring, S.hom("P2s", "S1r").dim)
    assert HomIdeal(S, zeros).components == {}


def test_a_seed_outside_the_window_is_refused():
    fx = _load("corner")
    S = fx.subcategories["S"]
    iota = fx.maps["iota"]
    coords = S.hom("P2s", "P1s").class_coords(iota)
    assert ideal_closure(S, {("P2s", "P1s"): [coords]}) == principal_ideal(S, "P2s", "P1s", iota)
    for key in (("P2s", "nope"), ("nope", "P1s"), ("P2s",)):
        with pytest.raises(IdealError, match="seed at unknown pair"):
            ideal_closure(S, {("P2s", "P1s"): [coords], key: [coords]})
    with pytest.raises(IdealError, match="seed at unknown pair"):
        principal_ideal(S, "P2s", "nope", iota)


# -- generated windows ------------------------------------------------------------


def _projective_window(label, fx=None):
    """The indecomposable projectives of a family member, shifted over -1..1,
    with P{i}[s + 1] declared the translation of P{i}[s]."""
    fx = fx or FixtureFile(family_data(label[:-1], int(label[-1])))
    alg = fx.algebras[next(n for n in fx.algebras if n != "k")]
    n = alg.n_idempotents()
    return FiniteSubcat({f"P{i}[{s}]": single_summand_complex(alg, i, 0).shift(s)
                         for s in (-1, 0, 1) for i in range(n)},
                        shifts={f"P{i}[{s}]": f"P{i}[{s + 1}]" for s in (-1, 0) for i in range(n)})


def _random_seeds(W, rng, count):
    ring = W.alg.ring
    pairs = [(a, b) for a in W.names() for b in W.names() if W.hom(a, b).dim]
    seeds = {}
    for a, b in rng.sample(pairs, min(count, len(pairs))):
        seeds[(a, b)] = [[ring.from_int(rng.randint(-2, 2)) for _ in range(W.hom(a, b).dim)]]
    return seeds


@pytest.mark.parametrize("label", ["UT3", "Alin4"])
def test_generated_window_ideals_are_closed(label):
    W = _projective_window(label)
    rng = random.Random(f"ideals:{label}")
    through = rng.sample(W.names(), 2)
    fac = factor_through_ideal(W, through)
    assert fac._closed() and fac.components
    assert fac.components == factor_through_ideal_all_pairs(W, through).components
    sizes, stable = [], set()
    for _ in range(3):
        seeds = _random_seeds(W, rng, 2)
        I = ideal_closure(W, seeds)
        assert I._closed()
        assert I.components == fixpoint_ideal_closure(W, seeds).components
        sizes.append(sum(I.dims().values()))
        products = [ideal_product(I, J) for J in (I, fac)]
        for J, P in zip((I, fac), products):
            assert P._closed()
            assert P.components == dense_ideal_product(I, J).components
        for K in [I, fac] + products:
            ok, pairs = shift_stability_report(K)
            assert (ok, pairs) == shift_stability_all_pairs(K) and len(pairs) == len(W.shifts) ** 2
            stable.add(ok)
    assert max(sizes) > 0
    assert stable == {True, False}
