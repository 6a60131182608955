"""Resolutions, Tor, and the ring-map certificate, against the bar oracle.

The oracle computes Tor through the normalized two-sided bar complex on
plain lists; the package computes it from a minimal resolution.  Both routes
must agree dimension by dimension.
"""

import json
import os

import pytest

from build_examples import (
    corner_map,
    dual_numbers,
    ground_field,
    sheared,
    split_map,
    upper_triangular_2,
    ut2_complexes,
)
from oracles import bar_tor_dims, dense_structure, linearize, proj_resolution_by_submodules

from kbproj.algebra import (
    AlgebraPresentation,
    RingMap,
    induction_bimodule,
    module_along_map,
    module_tensor,
    quotient_module,
    radical,
    regular_module,
)
from kbproj.derived import (
    DerivedError,
    check_homological_epi,
    multiplication_matrix,
    proj_resolution,
    tor_with_bimodule,
)
from kbproj.fixture import load_fixture
from kbproj.linalg import QQ
from test_cli import CORNER, TWO_CYCLE
from test_inherited_modules import MEMBERS, fresh
from test_structure_checks import FIXDIR, MAX_DEGREE


def bar_dims_for_map(g, i_max):
    """Tor_i^R(S, S) for a ring map R -> S via the plain bar-complex oracle."""
    R, S = g.source, g.target
    structure = dense_structure(R)
    unit = list(R.unit)

    def plain(M):
        return [[M.entry(i, j) for j in range(M.ncols)] for i in range(M.nrows)]

    m_action = [plain(S.right_regular(g.images[r])) for r in range(R.dim)]
    n_left = [plain(S.left_regular(g.images[r])) for r in range(R.dim)]
    return bar_tor_dims(structure, unit, S.dim, m_action, S.dim, n_left, i_max)


def tor_list(verdict_or_report, i_max):
    dims = verdict_or_report.tor if hasattr(verdict_or_report, "tor") else verdict_or_report.dims
    return [dims.get(i, 0) for i in range(i_max + 1)]


# -- resolutions -------------------------------------------------------------


def test_minimal_resolution_of_top_simple_matches_two_term_complex():
    ex = ut2_complexes()
    A = ex["alg"]
    P1 = regular_module(A)
    radsp = radical(A).space
    # the simple at the first vertex: quotient of e11R by its radical
    from kbproj.algebra import projective_module, submodule

    P1mod = projective_module(A, [0])
    S1mod = quotient_module(P1mod, P1mod.times_ideal(radsp))
    res = proj_resolution(S1mod, 5)
    assert res.complete
    assert res.summands == [[0], [1]]
    X = res.as_complex()
    assert X.summands == ex["S1r"].summands
    assert X.diff_at(-1) == ex["S1r"].diff_at(-1)
    assert linearize(res.differential_algmat(1)) == res.maps[0]


def test_resolution_of_semisimple_quotient():
    A = upper_triangular_2()
    M = regular_module(A)
    radsp = radical(A).space
    Q = quotient_module(M, M.times_ideal(radsp))
    res = proj_resolution(Q, 5)
    assert res.complete
    assert res.summands[0] == [0, 1]
    assert res.summands[1] == [1]
    assert res.length() == 1


def test_projective_module_resolves_in_length_zero():
    A = upper_triangular_2()
    res = proj_resolution(regular_module(A), 5)
    assert res.complete and res.length() == 0
    assert sorted(res.summands[0]) == [0, 1]


def test_infinite_resolution_stays_incomplete():
    D = dual_numbers()
    M = regular_module(D)
    radsp = radical(D).space
    K = quotient_module(M, M.times_ideal(radsp))
    res = proj_resolution(K, 4)
    assert not res.complete
    assert res.summands == [[0]] * 5


# -- the certificate, against the bar oracle ---------------------------------


def test_corner_map_certified_and_bar_oracle_agrees():
    g = corner_map()
    v = check_homological_epi(g, i_max=4)
    assert v.verdict == "certified"
    assert v.tensor_square_dim == 1 and v.target_dim == 1
    assert v.resolution_complete
    assert tor_list(v, 4) == [1, 0, 0, 0, 0]
    assert bar_dims_for_map(g, 4) == [1, 0, 0, 0, 0]


def test_split_map_refuted_by_tensor_square_and_bar_agrees():
    f = split_map()
    v = check_homological_epi(f, i_max=4)
    assert v.verdict == "refuted"
    assert not v.mu_is_iso
    assert v.tensor_square_dim == 4 and v.target_dim == 3
    # the tensor square itself, which the bar oracle sees as degree zero
    assert bar_dims_for_map(f, 2) == [4, 0, 0]


def test_dual_number_projection_refuted_by_tor_and_bar_agrees():
    D = dual_numbers()
    k = ground_field()
    g = RingMap(D, k, [["1"], ["0"]], name="x_to_0")
    v = check_homological_epi(g, i_max=4)
    assert v.verdict == "refuted"
    assert v.mu_is_iso
    assert "Tor_1" in v.reason
    assert v.tor[1] == 1
    assert bar_dims_for_map(g, 4) == [1, 1, 1, 1, 1]


def test_identity_map_certified():
    A = upper_triangular_2()
    ident = RingMap(A, A, [list(A.basis_vec(i)) for i in range(A.dim)], name="id")
    v = check_homological_epi(ident, i_max=3)
    assert v.verdict == "certified"
    assert v.tensor_square_dim == 3
    assert tor_list(v, 3) == [3, 0, 0, 0]
    assert bar_dims_for_map(ident, 2) == [3, 0, 0]


def identity_of_sheared_ut2():
    """The identity of UT2 in a basis where most products have two terms."""
    with open(CORNER) as fh:
        a = sheared(json.load(fh)["algebras"]["UT2"])
    A = AlgebraPresentation(QQ, a["basis"], a["structure"], a["unit"], a["idempotents"],
                            idempotent_names=a["idempotent_names"], name="UT2'")
    return RingMap(A, A, [list(A.basis_vec(i)) for i in range(A.dim)], name="id")


@pytest.mark.parametrize("make", [corner_map, split_map, identity_of_sheared_ut2])
def test_multiplication_matrix_against_the_dense_table(make):
    # row r is the product of T.reps[r] = sum c_ij b_i (x) b_j, read off the dense table
    g = make()
    S = g.target
    T = module_tensor(module_along_map(g), induction_bimodule(g))
    table = dense_structure(S)
    want = [[sum(c * table[pos // S.dim][pos % S.dim][m] for pos, c in enumerate(rep))
             for m in range(S.dim)] for rep in T.reps]
    mu = multiplication_matrix(g, T)
    assert [[mu.entry(r, m) for m in range(S.dim)] for r in range(mu.nrows)] == want


def test_quotient_by_radical_is_refuted():
    A = upper_triangular_2()
    from kbproj.algebra import quotient_algebra

    qalg, proj = quotient_algebra(A, radical(A))
    v = check_homological_epi(proj, i_max=4)
    assert v.verdict == "refuted"
    assert v.mu_is_iso  # S (x) S -> S is fine; the failure is higher up
    assert v.tor[1] == 1


def test_undecided_when_resolution_is_capped():
    # k has an infinite resolution over k[x]/(x^2), and Tor_1 is never reached
    g = RingMap(dual_numbers(), ground_field(), [["1"], ["0"]], name="x_to_0")
    v = check_homological_epi(g, i_max=0)
    assert v.verdict == "inconclusive"
    assert v.checked_up_to == 0
    assert not v.resolution_complete


@pytest.mark.parametrize("i_max", [1, 2, 3])
def test_top_degree_of_a_resolution_that_just_completes_is_checked(i_max):
    # k at vertex 1 of the quiver 1 <-> 2 with ab = 0 is resolved by
    # P1 <- P2 <- P1, of length 2; at i_max 1 that length is i_max + 1,
    # and Tor_2 = 1 must still refute
    g = load_fixture(TWO_CYCLE).lookup("ring_maps", "top1")
    v = check_homological_epi(g, i_max=i_max)
    assert v.verdict == "refuted" and "Tor_2" in v.reason
    assert v.resolution_complete
    assert tor_list(v, max(i_max, 2)) == [1, 0, 1] + [0] * (i_max - 2)
    assert v.checked_up_to == max(i_max, 2)
    assert bar_dims_for_map(g, 2) == [1, 0, 1]


def test_general_tor_against_bar_on_corner_bimodule():
    g = corner_map()
    M = module_along_map(g)
    B = induction_bimodule(g)
    rep = tor_with_bimodule(M, B, 4)
    assert rep.complete
    assert tor_list(rep, 4) == bar_dims_for_map(g, 4)
    assert rep.dims[0] == module_tensor(M, B).module.dim


FIXTURE_FILES = sorted(f[:-5] for f in os.listdir(FIXDIR) if f.endswith(".json"))


@pytest.mark.parametrize("label", FIXTURE_FILES + list(MEMBERS))
def test_resolutions_equal_the_submodule_oracle(label):
    # covering each syzygy where it lies, inside the last P_i, gives the
    # resolution that building it as a submodule and covering that gave
    fx = (load_fixture(os.path.join(FIXDIR, f"{label}.json")) if label in FIXTURE_FILES
          else fresh(label))
    assert fx.ring_maps or label == "koszul"
    for name, g in fx.ring_maps.items():
        M = module_along_map(g)
        got = proj_resolution(M, MAX_DEGREE + 1)
        want = proj_resolution_by_submodules(M, MAX_DEGREE + 1)
        assert ((got.summands, got.aug, got.maps, got.complete)
                == (want.summands, want.aug, want.maps, want.complete)), (label, name)
