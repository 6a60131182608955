"""Algebra layer: presentations, modules, radicals, ideals, tensor products.

Oracle style: radicals are cross-checked over GF(5) by enumerating every
two-sided nilpotent ideal; tensor dimensions are cross-checked by a plain
coequalizer elimination that never touches the package's Mat type.
"""

import pytest

from build_examples import (
    corner_map,
    dual_numbers,
    ground_field,
    product_of_two_fields,
    split_map,
    upper_triangular_2,
    ut2_structure_plain,
)
from oracles import (
    all_subspaces_gf,
    coequalizer_dim,
    dense_structure,
    gf_set_closure,
    hom_modules,
    is_nilpotent,
    is_two_sided,
    span_members,
    structure_mult,
)

from kbproj.algebra import (
    AlgebraError,
    AlgebraPresentation,
    Bimodule,
    FdModule,
    RingMap,
    TwoSidedIdeal,
    ideal_from_spanning,
    ideal_generated_by_idempotent,
    induction_bimodule,
    module_along_map,
    module_tensor,
    projective_module,
    quotient_algebra,
    quotient_module,
    radical,
    regular_bimodule,
    regular_module,
    restriction_bimodule,
    submodule,
)
from kbproj.linalg import GF, QQ, Mat, Subspace


# -- construction and validation -----------------------------------------


def test_ut2_constructs_and_multiplies():
    A = upper_triangular_2()
    e11, e12, e22 = A.basis_vec(0), A.basis_vec(1), A.basis_vec(2)
    assert A.mult(e11, e12) == e12
    assert A.mult(e12, e22) == e12
    assert A.mult(e12, e11) == A.zero_vec()
    assert A.mult(e12, e12) == A.zero_vec()
    assert A.mult(A.unit, e12) == e12


def test_structure_mult_oracle_agrees_with_presentation():
    A = upper_triangular_2()
    table = ut2_structure_plain()
    for i in range(3):
        for j in range(3):
            x = [0, 0, 0]
            y = [0, 0, 0]
            x[i] = 1
            y[j] = 1
            got = A.mult(A.basis_vec(i), A.basis_vec(j))
            want = structure_mult(table, x, y)
            assert [QQ.parse(str(c)) for c in want] == list(got)


def test_broken_associativity_rejected():
    # basis (1, x, y) with x*x = y, x*y = 1, y*x = 0, y*y = 0:
    # (x*x)*x = y*x = 0 but x*(x*x) = x*y = 1
    z, o = "0", "1"
    zero3 = [z, z, z]
    bad = [
        [[o, z, z], [z, o, z], [z, z, o]],
        [[z, o, z], [z, z, o], [o, z, z]],
        [[z, z, o], zero3, zero3],
    ]
    with pytest.raises(AlgebraError, match="associativity"):
        AlgebraPresentation(QQ, ["1", "x", "y"], bad, [o, z, z], [[o, z, z]], name="bad")


def test_bad_unit_rejected():
    z, o = "0", "1"
    structure = [
        [[o, z], [z, o]],
        [[z, o], [z, z]],
    ]
    with pytest.raises(AlgebraError, match="unit"):
        AlgebraPresentation(QQ, ["1", "x"], structure, [z, o], [[o, z]], name="bad")


def test_nonorthogonal_idempotents_rejected():
    A = upper_triangular_2()
    with pytest.raises(AlgebraError, match="orthogonal|sum"):
        AlgebraPresentation(
            QQ,
            list(A.basis_names),
            [[list(map(QQ.fmt, c)) for c in row] for row in dense_structure(A)],
            list(map(QQ.fmt, A.unit)),
            [["1", "0", "0"], ["1", "0", "1"]],
            name="bad",
        )


def test_corner_spaces_of_ut2():
    A = upper_triangular_2()
    assert A.corner_space(0, 0).dim == 1   # e11 R e11 = span{e11}
    assert A.corner_space(0, 1).dim == 1   # e11 R e22 = span{e12}
    assert A.corner_space(1, 0).dim == 0   # e22 R e11 = 0
    assert A.corner_space(1, 1).dim == 1
    assert A.right_ideal_space(0).dim == 2
    assert A.right_ideal_space(1).dim == 1


# -- radical: exhaustive oracle over GF(5), frozen values over QQ ----------


def _is_two_sided_nilpotent_gf5(table, basis, p=5):
    """Plain check that a GF(p) subspace is a nilpotent two-sided ideal."""
    dim = 3
    members = gf_set_closure(p, basis, dim)

    def mul(x, y):
        return tuple(int(c) for c in structure_mult(table, list(x), list(y), p=p))

    for m in members:
        for t in range(dim):
            b = tuple(1 if i == t else 0 for i in range(dim))
            if mul(b, m) not in members or mul(m, b) not in members:
                return False
    # nilpotency: iterate products until stable
    cur = set(members)
    for _ in range(8):
        nxt = {mul(x, y) for x in cur for y in cur}
        closure = gf_set_closure(p, nxt, dim)
        if closure == {tuple([0] * dim)}:
            return True
        if closure == cur:
            return False
        cur = closure
    return False


def test_radical_ut2_matches_exhaustive_gf5_oracle():
    table = ut2_structure_plain(p=5)
    best = None
    for basis in all_subspaces_gf(5, 3):
        if _is_two_sided_nilpotent_gf5(table, basis):
            size = len(span_members(5, basis, 3))
            if best is None or size > best[0]:
                best = (size, basis)
    # the unique maximal nilpotent ideal of UT2 over GF(5) is span{e12}
    assert best is not None
    assert best[0] == 5
    assert span_members(5, best[1], 3) == {(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 4, 0)}

    A = upper_triangular_2(GF(5))
    rad = radical(A)
    assert rad.dim == 1
    assert rad.space.contains([GF(5).zero, GF(5).one, GF(5).zero])


def test_radical_frozen_values():
    assert radical(upper_triangular_2()).dim == 1
    assert radical(product_of_two_fields()).dim == 0
    assert radical(ground_field()).dim == 0
    rad_dual = radical(dual_numbers())
    assert rad_dual.dim == 1
    assert rad_dual.space.contains([QQ.zero, QQ.one])


def test_radical_char_guard():
    with pytest.raises(AlgebraError, match="characteristic"):
        radical(upper_triangular_2(GF(3)))


def test_radical_square_and_quotient():
    A = upper_triangular_2()
    rad = radical(A)
    assert rad.square().dim == 0
    assert not rad.is_idempotent()
    assert is_two_sided(A, rad.space) and is_nilpotent(rad)
    qalg, proj = quotient_algebra(A, rad)
    assert qalg.dim == 2
    assert radical(qalg).dim == 0
    assert proj.apply(A.basis_vec(1)) == qalg.zero_vec()


# -- two-sided ideals ------------------------------------------------------


def test_ideal_generated_by_idempotent_is_span_e11_e12():
    A = upper_triangular_2()
    a = ideal_generated_by_idempotent(A, ["1", "0", "0"])
    assert a.dim == 2
    assert a.space.contains([QQ.one, QQ.zero, QQ.zero])
    assert a.space.contains([QQ.zero, QQ.one, QQ.zero])
    assert not a.space.contains([QQ.zero, QQ.zero, QQ.one])
    assert a.is_idempotent()


def test_ideal_closure_from_generators():
    A = upper_triangular_2()
    # e12 generates only span{e12}; e11 generates span{e11, e12}
    a = ideal_from_spanning(A, [["0", "1", "0"]])
    assert a.dim == 1
    b = ideal_from_spanning(A, [["1", "0", "0"]])
    assert b.dim == 2


def test_non_ideal_subspace_rejected():
    A = upper_triangular_2()
    sp = Subspace.from_spanning(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)])  # span{e11}: not an ideal
    with pytest.raises(AlgebraError, match="closed"):
        TwoSidedIdeal(A, sp)


# -- ring maps -------------------------------------------------------------


def test_corner_map_validates_and_split_map_validates():
    g = corner_map()
    assert g.apply(g.source.unit) == g.target.unit
    f = split_map()
    assert f.apply(f.source.unit) == f.target.unit


def test_non_multiplicative_map_rejected():
    A = upper_triangular_2()
    k = ground_field()
    with pytest.raises(AlgebraError, match="multiplicativity|unit"):
        RingMap(A, k, [["1"], ["1"], ["0"]], name="bad")


# -- modules ---------------------------------------------------------------


def test_regular_module_and_action():
    A = upper_triangular_2()
    M = regular_module(A)
    e12 = [QQ.zero, QQ.one, QQ.zero]
    acted = M.act(e12, A.basis_vec(2))   # e12 . e22 = e12
    assert acted == e12
    acted0 = M.act(e12, A.basis_vec(0))  # e12 . e11 = 0
    assert acted0 == [QQ.zero, QQ.zero, QQ.zero]


def test_module_unit_validation():
    A = upper_triangular_2()
    bad = [Mat.zeros(QQ, 1, 1) for _ in range(3)]
    with pytest.raises(AlgebraError, match="unit"):
        FdModule(A, 1, bad, name="bad")


def test_submodule_and_quotient_module():
    A = upper_triangular_2()
    M = regular_module(A)
    radsp = radical(A).space
    sub = submodule(M, radsp)
    assert sub.dim == 1
    # the inclusion with the rows of the subspace is a module map: incl(m.b) = incl(m).b
    incl = Mat.from_rows(QQ, radsp.rows, M.dim)
    for t in range(A.dim):
        assert sub.action[t] @ incl == incl @ M.action[t]
    quo = quotient_module(M, radsp)
    assert quo.dim == 2
    # the projection read off quotient_coords is a module map: proj(m.b) = proj(m).b
    proj = Mat.from_rows(QQ, [radsp.quotient_coords(r) for r in Mat.identity(QQ, M.dim).rows()],
                         quo.dim)
    for t in range(A.dim):
        lhs = M.action[t] @ proj
        rhs = proj @ quo.action[t]
        assert lhs == rhs
    with pytest.raises(AlgebraError, match="closed"):
        submodule(M, Subspace.from_spanning(QQ, 3, [(QQ.one, QQ.zero, QQ.zero)]))
    # a subspace of another space is refused as such, not as one the action moves
    for build in (submodule, quotient_module):
        with pytest.raises(AlgebraError, match="subspace of dimension-2 space, module of "
                                               "dimension 3"):
            build(M, Subspace.full(QQ, 2))


def test_times_ideal_and_annihilator():
    A = upper_triangular_2()
    M = regular_module(A)
    a = ideal_generated_by_idempotent(A, ["1", "0", "0"])
    Ma = M.times_ideal(a.space)
    assert Ma.dim == 2          # R.a = span{e11, e12}
    ann = M.annihilated_by(a.space)
    # m.e11 = 0 and m.e12 = 0 force the e11 coefficient to vanish, nothing else
    assert ann.dim == 2
    assert ann.contains([QQ.zero, QQ.zero, QQ.one])
    assert ann.contains([QQ.zero, QQ.one, QQ.zero])


def test_hom_modules_between_projectives_matches_corner():
    A = upper_triangular_2()
    P1 = projective_module(A, [0])
    P2 = projective_module(A, [1])
    assert len(hom_modules(P2, P1)) == A.corner_space(0, 1).dim == 1
    assert len(hom_modules(P1, P2)) == A.corner_space(1, 0).dim == 0
    assert len(hom_modules(P1, P1)) == 1
    assert len(hom_modules(P2, P2)) == 1
    # the P2 -> P1 generator really is a module map
    (F,) = hom_modules(P2, P1)
    for t in range(A.dim):
        assert P2.action[t] @ F == F @ P1.action[t]


# -- bimodules and tensor products ----------------------------------------


def test_regular_bimodule_validates():
    A = upper_triangular_2()
    B = regular_bimodule(A)
    assert B.dim == 3


def test_noncommuting_actions_rejected():
    A = ground_field()
    twist = Mat.from_rows(QQ, [[QQ.zero, QQ.one], [QQ.one, QQ.zero]], 2)
    eye = Mat.identity(QQ, 2)
    # left action of 1 must be identity; sneak the failure in via commutation
    with pytest.raises(AlgebraError):
        Bimodule(A, A, 2, [twist], [eye], name="bad")


def test_tensor_dim_corner_map_oracle():
    """k (x)_UT2 k has dimension 1: the corner map's tensor square."""
    g = corner_map()
    S_as_R = module_along_map(g)          # k as right UT2-module
    B = induction_bimodule(g)             # k as (UT2, k)-bimodule
    t = module_tensor(S_as_R, B)
    assert t.module.dim == 1

    # plain oracle on the same data
    table = ut2_structure_plain()
    m_action = [[[1]], [[0]], [[0]]]      # right action of e11,e12,e22 on k
    left_action = [[[1]], [[0]], [[0]]]   # left action on k via g
    assert coequalizer_dim(1, 1, 3, m_action, left_action) == 1
    assert structure_mult(table, [0, 1, 0], [0, 0, 1]) == [0, 1, 0]  # table sanity


def test_tensor_dim_split_map_oracle():
    """UT2 (x)_{kxk} UT2 has dimension 4, strictly larger than dim UT2 = 3."""
    f = split_map()
    A_as_B = module_along_map(f)          # UT2 as right (kxk)-module
    B = restriction_bimodule(f)           # UT2 as (kxk? no: (UT2...)) -- see below
    # need UT2 as a (kxk, UT2)-bimodule: left action via f, right regular
    ut2 = f.target
    left = [ut2.left_regular(f.images[i]) for i in range(f.source.dim)]
    right = [ut2.right_regular(ut2.basis_vec(j)) for j in range(ut2.dim)]
    bim = Bimodule(f.source, ut2, 3, left, right, name="fUT2")
    t = module_tensor(A_as_B, bim)
    assert t.module.dim == 4

    # plain oracle: M = UT2 (dim 3) over kxk (dim 2), B = UT2 with left action via f
    def mat_rows(M):
        return [[int(str(M.entry(i, j))) for j in range(M.ncols)] for i in range(M.nrows)]

    m_action = [mat_rows(A_as_B.action[i]) for i in range(2)]
    left_action = [mat_rows(bim.left_action[i]) for i in range(2)]
    assert coequalizer_dim(3, 3, 2, m_action, left_action) == 4
    assert B.dim == 3  # restriction bimodule itself stays dim 3


def test_tensor_right_action_is_welldefined():
    g = corner_map()
    S_as_R = module_along_map(g)
    B = induction_bimodule(g)
    t = module_tensor(S_as_R, B)
    k = g.target
    assert t.module.algebra == k
    assert t.module.action_of(k.unit) == Mat.identity(QQ, 1)


def test_ideal_tensor_square_dim_two():
    """a (x)_R a for a = R e11 R in UT2 has dimension 2 (multiplication iso)."""
    A = upper_triangular_2()
    a = ideal_generated_by_idempotent(A, ["1", "0", "0"])
    asub = submodule(regular_module(A), a.space)
    # a as (R, R)-bimodule restricted from the regular bimodule
    rows = [list(r) for r in a.space.rows]
    left = []
    right = []
    for t in range(A.dim):
        lrows = [a.space.coords_of(A.mult(A.basis_vec(t), tuple(r))) for r in a.space.rows]
        rrows = [a.space.coords_of(A.mult(tuple(r), A.basis_vec(t))) for r in a.space.rows]
        left.append(Mat.from_rows(QQ, lrows, a.dim))
        right.append(Mat.from_rows(QQ, rrows, a.dim))
    bim = Bimodule(A, A, a.dim, left, right, name="a")
    t = module_tensor(asub, bim)
    assert t.module.dim == 2


def test_quotient_algebra_by_corner_ideal():
    A = upper_triangular_2()
    a = ideal_generated_by_idempotent(A, ["1", "0", "0"])
    qalg, proj = quotient_algebra(A, a)
    assert qalg.dim == 1
    assert proj.apply(A.basis_vec(2)) == qalg.unit
