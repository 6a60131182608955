"""Tor read on the blocks e_j B, against Tor through a coequalizer per term.

``derived.tor_with_bimodule`` tensors each summand e_j R of a minimal
resolution as the block e_j B, and each differential as B's left action;
``oracles.tor_by_coequalizers`` is the path it replaced, which divides
P (x)_k B by its relations for every term P.  Their reports must be equal
on every member of the algebra-families workload at its sizes, on UT8 and
kx16, and on the fixtures' ring maps.  They must also match the families'
known answers, where those are right, and the bar complex, where it is
small enough to build.  The simples of a few algebras are also tensored
with the dual bimodule D(R), whose blocks are dense in a sheared basis.
A check-hepi task builds one coequalizer, the
S (x)_R S that the multiplication map is read on.
"""

import os
import sys

import pytest

from build_examples import split_map, upper_triangular_2
from oracles import tor_by_coequalizers
from test_derived import bar_dims_for_map, identity_of_sheared_ut2
from test_structure_checks import dense_algebras

import kbproj
from kbproj import algebra
from kbproj.algebra import (
    AlgebraError,
    Bimodule,
    induction_bimodule,
    module_along_map,
    projective_module,
    quotient_algebra,
    quotient_module,
    radical,
)
from kbproj.derived import tor_with_bimodule
from kbproj.fixture import FixtureFile, load_fixture
from kbproj.runner import run_tasks

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import families  # noqa: E402
import workloads  # noqa: E402

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
MAX_DEGREE = workloads.HEPI_MAX_DEGREE
MEMBERS = workloads.family_members() + [("UT", 8), ("kx", 16)]
# the bar complex in degree i + 1 has (dim R - 1)^(i + 1) basis elements
BAR_CELLS = 125


def corner_of(fam, n):
    return FixtureFile(families.family_fixture(fam, n, MAX_DEGREE, seed=1)).ring_maps["corner"]


def tor_both_ways(g, i_max):
    M, B = module_along_map(g), induction_bimodule(g)
    got = tor_with_bimodule(M, B, i_max)
    assert got == tor_by_coequalizers(M, B, i_max)
    return got


@pytest.mark.parametrize("fam,n", MEMBERS, ids=[f"{f}{n}" for f, n in MEMBERS])
def test_family_tor_matches_the_coequalizer_path_and_the_known_answer(fam, n):
    g = corner_of(fam, n)
    rep = tor_both_ways(g, MAX_DEGREE)
    # Alin_n resolves its simple in length n - 1, past the checked degrees
    if not (fam == "Alin" and n > MAX_DEGREE + 2):
        assert [rep.dims.get(i, 0) for i in range(MAX_DEGREE + 1)] \
            == families.known_tor(fam, n, MAX_DEGREE)
    cells = g.source.dim - 1
    i_bar = max((i for i in range(MAX_DEGREE + 1) if cells ** (i + 1) <= BAR_CELLS), default=0)
    if i_bar >= 2:
        assert [rep.dims.get(i, 0) for i in range(i_bar + 1)] == bar_dims_for_map(g, i_bar)


def _fixture_map(name, key):
    return load_fixture(os.path.join(FIXDIR, f"{name}.json")).ring_maps[key]


def _radical_quotient():
    A = upper_triangular_2()
    return quotient_algebra(A, radical(A))[1]


RING_MAPS = {
    "corner": lambda: _fixture_map("corner", "corner"),
    "split": lambda: _fixture_map("split", "split"),
    "two_cycle": lambda: _fixture_map("two_cycle", "top1"),
    "UT2'-identity": identity_of_sheared_ut2,
    "UT2-mod-radical": _radical_quotient,
}


@pytest.mark.parametrize("i_max", [0, 1, 2, 4])
@pytest.mark.parametrize("name", sorted(RING_MAPS))
def test_fixture_tor_matches_the_coequalizer_path(name, i_max):
    tor_both_ways(RING_MAPS[name](), i_max)


def dual_bimodule(A):
    """D(R) = Hom_k(R, k) with (r.phi.s)(x) = phi(s x r): on the dual basis its
    actions are the transposes of R's right and left multiplications."""
    n = A.dim
    return Bimodule(A, A, n, [A.right_regular(A.basis_vec(r)).transpose() for r in range(n)],
                    [A.left_regular(A.basis_vec(s)).transpose() for s in range(n)],
                    name=f"D({A.name})")


@pytest.mark.parametrize("label", ["two_cycle", "UT3'", "Alin4'"])
def test_simples_against_the_dual_bimodule(label):
    # Tor_i(S_j, D(R)) is dual to Ext^i(S_j, R), nonzero in several degrees
    fx = FixtureFile({"format_version": 1, "field": "QQ", "algebras": dense_algebras(label)})
    for A in fx.algebras.values():
        D = dual_bimodule(A)
        for j in range(A.n_idempotents()):
            P = projective_module(A, [j])
            S = quotient_module(P, P.times_ideal(radical(A).space))
            assert tor_with_bimodule(S, D, 3) == tor_by_coequalizers(S, D, 3)


def test_a_bimodule_over_another_algebra_is_refused():
    g = split_map()
    with pytest.raises(AlgebraError, match="sides do not match"):
        tor_with_bimodule(module_along_map(g), dual_bimodule(g.target), 2)


def test_a_hepi_task_builds_one_coequalizer(monkeypatch):
    fxs = [FixtureFile(families.family_fixture(fam, n, MAX_DEGREE, seed=1))
           for fam, n in workloads.family_members()]
    tasks = [[t for t in fx.tasks if t["command"] == "check-hepi"] for fx in fxs]
    for fx, ts in zip(fxs, tasks):
        run_tasks(fx, ts, workers=1)
    original, calls = algebra.module_tensor, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith(kbproj.__name__) and vars(mod).get("module_tensor") is original:
            monkeypatch.setattr(mod, "module_tensor", counted)
    for fx, ts in zip(fxs, tasks):
        run_tasks(fx, ts, workers=1)
    assert len(calls) == sum(map(len, tasks)) == len(fxs)
