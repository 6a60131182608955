"""Inherited module construction against the validating constructors.

``submodule``, ``quotient_module``, ``regular_module``, ``projective_module``,
``module_along_map``, ``module_tensor``, the three regular bimodules, the
corner modules Me of ``CornerFunctor.apply`` and the ideal that
``almost._check_tensor_dim`` tensors with itself build through
``FdModule._inherited`` and ``Bimodule._inherited``, which check shapes
only.  With those routed through ``FdModule(...)`` and ``Bimodule(...)``,
every module the engine derives has its unit, multiplicativity and
commutation checked again: on the three fixtures and the two smallest
members of each generated family, every construction must pass and the
report bytes must equal those of the normal run.  A subspace that is not
invariant is refused by ``submodule`` and by ``quotient_module`` in both
modes, and ``hom_dim`` counts the basis the oracle ``hom_modules`` returns.
"""

import os

import pytest

from oracles import hom_modules, route_inherited_modules_through_validation
from test_structure_checks import FIXDIR, FIXTURES, family_data

from kbproj.algebra import (
    AlgebraError,
    hom_dim,
    quotient_module,
    regular_bimodule,
    regular_module,
    submodule,
)
from kbproj.almost import corner_functor, standard_modules
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.linalg import Subspace
from kbproj.reports import emit_json
from kbproj.runner import run_tasks

MEMBERS = tuple(f"{fam}{n}" for fam in ("UT", "Alin", "Acyc", "kx") for n in (2, 3))
MODES = ("inherited", "validated")


def fresh(label):
    """A newly loaded fixture by label, so no module is taken from a cache."""
    if label in FIXTURES:
        return load_fixture(os.path.join(FIXDIR, f"{label}.json"))
    return FixtureFile(family_data(label[:-1], int(label[-1])))


def _actions(B):
    return B.left_action, B.right_action


@pytest.mark.parametrize("label", FIXTURES + MEMBERS)
def test_validated_construction_gives_the_same_report(label, monkeypatch):
    report = emit_json(run_tasks(fresh(label), workers=1))
    bimodules = [_actions(regular_bimodule(A)) for A in fresh(label).algebras.values()]
    callers = route_inherited_modules_through_validation(monkeypatch)
    fx = fresh(label)
    assert emit_json(run_tasks(fx, workers=1)) == report
    assert [_actions(regular_bimodule(A)) for A in fx.algebras.values()] == bimodules
    if label == "corner":
        assert {"submodule", "quotient_module", "regular_module", "projective_module",
                "module_along_map", "induction_bimodule", "regular_bimodule",
                "module_tensor"} <= callers
    elif label == "split":
        assert "restriction_bimodule" in callers
    elif label in MEMBERS:
        assert {"submodule", "projective_module", "module_along_map", "induction_bimodule",
                "module_tensor"} <= callers


def _not_invariant():
    """Regular modules with a line their action leaves: the line of e11 in
    UT2 (e11 . e12 = e12) and the line of 1 in k[x]/(x^3) (1 . x = x)."""
    for label, name in (("corner", "UT2"), ("kx3", "kx3")):
        alg = fresh(label).algebras[name]
        yield regular_module(alg), Subspace.from_spanning(alg.ring, alg.dim, [alg.basis_vec(0)])


@pytest.mark.parametrize("mode", MODES)
def test_a_subspace_that_is_not_invariant_is_refused(mode, monkeypatch):
    if mode == "validated":
        route_inherited_modules_through_validation(monkeypatch)
    for M, space in _not_invariant():
        with pytest.raises(AlgebraError, match="not closed under the module action"):
            submodule(M, space)
        with pytest.raises(AlgebraError, match="not closed under the module action"):
            quotient_module(M, space)


# the koszul fixture defines no algebra
@pytest.mark.parametrize("label", ("corner", "split") + MEMBERS)
def test_hom_dim_counts_the_oracle_basis(label):
    for alg in fresh(label).algebras.values():
        samples = standard_modules(alg)
        for M in samples.values():
            for N in samples.values():
                assert hom_dim(M, N) == len(hom_modules(M, N)), (alg.name, M.name, N.name)


def _derived_cases(fx):
    return {name: case for name, case in fx.almost_cases.items() if "derived" in case.include}


def test_the_tensor_square_cross_check_passes_the_public_constructors(monkeypatch):
    # the ideal a as a bimodule and a right module, and its tensor square
    # dimension by coequalizer, are checked again at every derived case's load
    paths = sorted(os.path.join(FIXDIR, f) for f in os.listdir(FIXDIR) if f.endswith(".json"))
    dims = {(p, name): case.tensor_square_dim
            for p in paths for name, case in _derived_cases(load_fixture(p)).items()}
    assert dims, "no fixture has a derived almost case"
    callers = route_inherited_modules_through_validation(monkeypatch)
    for p in paths:
        for name, case in _derived_cases(load_fixture(p)).items():
            assert case.tensor_square_dim == dims[p, name]
    assert "_check_tensor_dim" in callers


@pytest.mark.parametrize("label", ("corner", "split"))
def test_corner_modules_pass_the_public_constructor(label, monkeypatch):
    # Me over eRe for each vertex idempotent e and every sample module M
    cases = []
    for alg in fresh(label).algebras.values():
        for k in range(alg.n_idempotents()):
            F = corner_functor(alg, alg.idempotent_vec(k))
            cases += [(F, M) for M in standard_modules(alg).values()]
    images = [F.apply(M) for F, M in cases]
    callers = route_inherited_modules_through_validation(monkeypatch)
    for (F, M), N in zip(cases, images):
        checked = F.apply(M)
        assert (checked.dim, checked.action) == (N.dim, N.action), (F.e, M.name)
    assert callers == {"apply"}
