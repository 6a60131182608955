"""Homotopy category layer: complexes, cones, hom spaces, triangle recognition.

Hom dimensions are cross-checked against a plain-list oracle that works with
raw module matrices and never touches the summand-matrix machinery.
"""

import random

import pytest

from build_examples import upper_triangular_2, ut2_complexes
from oracles import plain_homotopy_hom_dim
from test_operators import ALGEBRAS

from kbproj.algebra import hom_modules, projective_module, quotient_module, radical, regular_module, submodule
from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomcatError,
    HomSpace,
    MapLayout,
    ProjComplex,
    chain_map,
    cone,
    direct_sum,
    identity_map,
    is_contractible,
    is_homotopy_equivalence,
    homotopy_inverse_from_contraction,
    recognize_triangle,
    rotate_triangle,
    single_summand_complex,
    verify_contraction,
    verify_triangle_certificate,
    zero_complex,
    zero_map,
)
from kbproj.linalg import QQ


@pytest.fixture(scope="module")
def ex():
    return ut2_complexes()


# -- plain-oracle extraction ------------------------------------------------


def plain_complex_data(X, lo, hi):
    """Degreewise dims, differentials, and action matrices as plain lists."""
    A = X.alg
    dims, acts, mods = [], [], []
    for n in range(lo, hi + 1):
        idems = list(X.summands_at(n))
        mod = projective_module(A, idems)
        mods.append(mod)
        dims.append(mod.dim)
        acts.append([[[m.entry(i, j) for j in range(mod.dim)] for i in range(mod.dim)]
                     for m in mod.action])
    diffs = []
    for n in range(lo, hi):
        src, tgt = X.summands_at(n), X.summands_at(n + 1)
        if not src or not tgt:
            diffs.append([])
            continue
        d = X.diff_at(n)
        src_spaces = [A.right_ideal_space(j) for j in src]
        tgt_spaces = [A.right_ideal_space(i) for i in tgt]
        rows = []
        for c, sp in enumerate(src_spaces):
            for v in sp.rows:
                out = []
                for r, tp in enumerate(tgt_spaces):
                    out.extend(tp.coords_of(A.mult(d.entries[r][c], tuple(v))))
                rows.append(out)
        diffs.append(rows)
    return dims, diffs, acts


def oracle_hom_dim(X, Y):
    los = [d for d in (X.lo, Y.lo) if d is not None]
    his = [d for d in (X.hi, Y.hi) if d is not None]
    lo, hi = min(los), max(his)
    xd, xdf, xa = plain_complex_data(X, lo, hi)
    yd, ydf, ya = plain_complex_data(Y, lo, hi)
    return plain_homotopy_hom_dim(xd, xdf, xa, yd, ydf, ya)


# -- complexes and matrices -------------------------------------------------


def test_entry_outside_corner_rejected(ex):
    A = ex["alg"]
    e11, e12, e22 = A.basis_vec(0), A.basis_vec(1), A.basis_vec(2)
    with pytest.raises(HomcatError, match="corner"):
        AlgMat(A, (1,), (0,), [[e12]])   # e12 does not sit in e22*R*e11
    assert AlgMat(A, (0,), (1,), [[e12]]).entries == ((e12,),)
    # e11 = e11*e11 but e11*e22 = 0: off e11*R*e22 on the right
    with pytest.raises(HomcatError, match=r"entry \(0,0\) .* corner e11\*R\*e22"):
        AlgMat(A, (0,), (1,), [[e11]])
    # e22*e22 = e22 but e11*e22 = 0: off e11*R*e22 on the left
    with pytest.raises(HomcatError, match=r"corner e11\*R\*e22"):
        AlgMat(A, (0,), (1,), [[e22]])
    # one bad entry among good ones, named by its position
    with pytest.raises(HomcatError, match=r"entry \(1,0\) .* corner e22\*R\*e11"):
        AlgMat(A, (0, 1), (0,), [[e11], [A.add_vec(e11, e12)]])
    with pytest.raises(HomcatError, match="rows"):
        AlgMat(A, (0, 1), (0,), [[e11]])
    with pytest.raises(HomcatError, match="columns"):
        AlgMat(A, (0,), (0, 1), [[e11]])


def random_algmat(alg, target, source, rng):
    """A summand matrix of random corner elements, built with the corner check."""
    ring = alg.ring
    ents = []
    for i in target:
        row = []
        for j in source:
            v = alg.zero_vec()
            for b in alg.corner_space(i, j).rows:
                v = alg.add_vec(v, alg.scale_vec(ring.from_int(rng.randint(-3, 3)), tuple(b)))
            row.append(v)
        ents.append(row)
    return AlgMat(alg, target, source, ents)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_block_and_sub_give_back_each_block(name):
    alg = ALGEBRAS[name]()
    last = alg.n_idempotents() - 1
    rows, row_slices = [(0, last), (last,)], [slice(0, 2), slice(2, 3)]
    cols, col_slices = [(last, 0, 0), (), (0,)], [slice(0, 3), slice(3, 3), slice(3, 4)]
    rng = random.Random(11)
    grid = [[random_algmat(alg, t, s, rng) for s in cols] for t in rows]
    grid[0][2] = None
    M = AlgMat.block(alg, rows, cols, grid)
    assert M.target_idems == (0, last, last)
    assert M.source_idems == (last, 0, 0, 0)
    assert AlgMat(alg, M.target_idems, M.source_idems, M.entries) == M
    for t, rs, grid_row in zip(rows, row_slices, grid):
        for s, cs, b in zip(cols, col_slices, grid_row):
            assert M.sub(rs, cs) == (AlgMat.zeros(alg, t, s) if b is None else b)
    # None blocks read as zeros
    empty = AlgMat.block(alg, rows, cols, [[None] * 3, [None] * 3])
    assert empty == AlgMat.zeros(alg, M.target_idems, M.source_idems)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_block_rejects_blocks_that_do_not_fit(name):
    alg = ALGEBRAS[name]()
    one = AlgMat.identity(alg, (0,))
    misfits = [([(0, 0)], [(0,)], [[one]]),            # rows of the block
               ([(0,)], [(0, 0)], [[one]]),            # columns of the block
               ([(0,), (0,)], [(0,)], [[one]]),        # one block row short
               ([(0,)], [(0,), (0,)], [[one]])]        # one block column short
    for rows, cols, grid in misfits:
        with pytest.raises(HomcatError, match="block"):
            AlgMat.block(alg, rows, cols, grid)
    other = ALGEBRAS["kxk" if name != "kxk" else "k[x]/x2"]()
    with pytest.raises(HomcatError, match="block"):
        AlgMat.block(other, [(0,)], [(0,)], [[one]])


def test_differential_must_square_to_zero(ex):
    A = ex["alg"]
    e11 = A.basis_vec(0)
    d = AlgMat(A, (0,), (0,), [[e11]])
    with pytest.raises(HomcatError, match="square"):
        ProjComplex(A, {0: (0,), 1: (0,), 2: (0,)}, {0: d, 1: d})


def test_shift_negates_differential(ex):
    S1 = ex["S1r"]
    sh = S1.shift(1)
    assert sh.summands == {-2: (1,), -1: (0,)}
    assert sh.diff_at(-2) == S1.diff_at(-1).neg()
    assert S1.shift(2).diff_at(-3) == S1.diff_at(-1)
    back = S1.shift(1).shift(-1)
    assert back.summands == S1.summands
    assert back.diff_at(-1) == S1.diff_at(-1)


def test_cone_of_corner_inclusion_is_the_two_term_resolution(ex):
    C, incl, proj = cone(ex["iota"])
    S1 = ex["S1r"]
    assert C.summands == S1.summands
    assert C.diff_at(-1) == S1.diff_at(-1)
    # and the canonical legs equal beta and gamma on the nose
    assert incl.components[0] == ex["beta"].components[0]
    assert proj.components[-1] == ex["gamma"].components[-1]


def test_chain_map_validation_rejects_noncommuting(ex):
    A = ex["alg"]
    P2s, S1 = ex["P2s"], ex["S1r"]
    e12 = A.basis_vec(1)
    with pytest.raises(HomcatError, match="commute"):
        chain_map(P2s.shift(1), S1, {-1: AlgMat(A, (1,), (1,), [[A.idempotent_vec(1)]])})


# -- hom spaces vs oracle ---------------------------------------------------


def test_hom_dims_match_oracle_and_frozen_values(ex):
    S1, P1s, P2s = ex["S1r"], ex["P1s"], ex["P2s"]
    cases = [
        (S1, S1, 1),
        (S1, P2s.shift(1), 1),     # the connecting class gamma spans this
        (P1s, S1, 1),
        (P2s, S1, 0),
        (S1, P1s, 0),
        (P1s, P2s, 0),
        (P2s, P1s, 1),
        (S1, S1.shift(1), 0),
        (S1.shift(1), S1, 0),
    ]
    for X, Y, frozen in cases:
        H = HomSpace(X, Y)
        assert H.dim == frozen
        assert oracle_hom_dim(X, Y) == frozen


def test_connecting_class_is_gamma(ex):
    H = HomSpace(ex["S1r"], ex["P2s"].shift(1))
    coords = H.class_coords(ex["gamma"])
    assert len(coords) == 1 and coords[0] != QQ.zero
    ok, _ = H.is_nullhomotopic(ex["gamma"])
    assert not ok


def test_hom_space_rejects_a_family_that_is_not_a_chain_map(ex):
    # e11 at degree 0 and nothing at -1 on S1r: delta picks up -e11 . e12
    A, S1 = ex["alg"], ex["S1r"]
    f = GradedMap(S1, S1, 0, {0: AlgMat(A, (0,), (0,), [[A.basis_vec(0)]])})
    assert not f.is_chain_map()
    for warm in (False, True):
        H = HomSpace(S1, S1)
        if warm:
            assert H.dim == 1
        with pytest.raises(HomcatError, match="not a chain map"):
            H.is_nullhomotopic(f)
        with pytest.raises(HomcatError, match="not a chain map"):
            H.class_coords(f)


def test_ext_dimension_agrees_with_module_level_count(ex):
    # module side: maps rad(P1) -> S2 modulo restrictions of maps P1 -> S2
    A = ex["alg"]
    M = regular_module(A)
    P1 = projective_module(A, [0])
    P2 = projective_module(A, [1])
    radsp = radical(A).space
    P1rad = P1.times_ideal(radsp)
    radmod, _ = submodule(P1, P1rad)
    assert len(hom_modules(radmod, P2)) == 1
    assert len(hom_modules(P1, P2)) == 0
    # graded side: same count as maps into the shifted stalk
    assert HomSpace(ex["S1r"], ex["P2s"].shift(1)).dim == 1 - 0


def test_delta_operators_compose_to_zero(ex):
    for X, Y in [(ex["S1r"], ex["S1r"]), (ex["S1r"], ex["P2s"].shift(1)),
                 (ex["P1s"], ex["S1r"])]:
        H = HomSpace(X, Y)
        if H.Lm1.dim and H.L1.dim:
            assert (H.Dm1 @ H.D0).is_zero()


def test_layout_roundtrip(ex):
    rng = random.Random(7)
    pairs = [(ex["S1r"], ex["S1r"], 0), (ex["S1r"], ex["S1r"], -1),
             (cone(ex["iota"])[0], ex["S1r"], 0), (ex["P1s"], ex["S1r"], 1)]
    for X, Y, deg in pairs:
        L = MapLayout(X, Y, deg)
        for _ in range(5):
            coords = [QQ.from_int(rng.randint(-4, 4)) for _ in range(L.dim)]
            assert L.pack(L.unpack(coords)) == coords


# -- contractibility and equivalences ---------------------------------------


def test_cone_of_identity_contracts(ex):
    C, _, _ = cone(identity_map(ex["S1r"]))
    ok, h = is_contractible(C)
    assert ok
    assert verify_contraction(C, h)


def test_resolution_is_not_contractible(ex):
    ok, h = is_contractible(ex["S1r"])
    assert not ok and h is None


def test_zero_complex_is_contractible(ex):
    ok, _ = is_contractible(zero_complex(ex["alg"]))
    assert ok


def test_homotopy_equivalence_with_extracted_inverse(ex):
    A = ex["alg"]
    S1 = ex["S1r"]
    pad, _, _ = cone(identity_map(ex["P2s"]))
    Y = direct_sum(S1, pad)
    z = A.zero_vec()
    comps = {
        -1: AlgMat(A, Y.summands_at(-1), S1.summands_at(-1), [[A.idempotent_vec(1)], [z]]),
        0: AlgMat(A, Y.summands_at(0), S1.summands_at(0), [[A.idempotent_vec(0)], [z]]),
    }
    phi = chain_map(S1, Y, comps, name="pad_incl")
    ok, h = is_homotopy_equivalence(phi)
    assert ok
    inv, h_src, h_tgt = homotopy_inverse_from_contraction(phi, h)
    assert inv.is_chain_map()
    assert (identity_map(S1) - inv.compose(phi) - h_src.delta()).is_zero()
    assert (identity_map(Y) - phi.compose(inv) - h_tgt.delta()).is_zero()


def test_non_equivalence_rejected(ex):
    ok, h = is_homotopy_equivalence(ex["iota"])
    assert not ok and h is None


# -- triangle recognition ----------------------------------------------------


def test_recognizer_accepts_the_fixture_triangle(ex):
    v = recognize_triangle(ex["iota"], ex["beta"], ex["gamma"])
    assert v.verdict == "exact"
    assert verify_triangle_certificate(ex["iota"], ex["beta"], ex["gamma"], v)


def test_recognizer_accepts_rotations(ex):
    t = (ex["iota"], ex["beta"], ex["gamma"])
    r1 = rotate_triangle(*t)
    v1 = recognize_triangle(*r1)
    assert v1.verdict == "exact"
    assert verify_triangle_certificate(*r1, v1)
    r2 = rotate_triangle(*r1)
    v2 = recognize_triangle(*r2)
    assert v2.verdict == "exact"
    assert verify_triangle_certificate(*r2, v2)


def test_recognizer_rejects_zero_third_leg(ex):
    z = zero_map(ex["S1r"], ex["P2s"].shift(1))
    v = recognize_triangle(ex["iota"], ex["beta"], z)
    assert v.verdict == "not_exact"


def test_recognizer_rejects_scaled_third_leg(ex):
    two = QQ.from_int(2)
    v = recognize_triangle(ex["iota"], ex["beta"], ex["gamma"].scale(two))
    assert v.verdict == "not_exact"


def test_recognizer_rejects_zero_first_leg(ex):
    z = zero_map(ex["P2s"], ex["P1s"])
    v = recognize_triangle(z, ex["beta"], ex["gamma"])
    assert v.verdict == "not_exact"


def test_recognizer_rejects_noncomposable(ex):
    with pytest.raises(HomcatError):
        recognize_triangle(ex["iota"], ex["gamma"], ex["gamma"])


def test_recognizer_on_random_cone_triangles(ex):
    rng = random.Random(13)
    S1, P1s, P2s = ex["S1r"], ex["P1s"], ex["P2s"]
    sources = [P1s, P2s, S1, P2s.shift(1), direct_sum(P1s, P2s)]
    targets = [S1, P1s, direct_sum(S1, P2s)]
    tried = 0
    for X in sources:
        for Y in targets:
            H = HomSpace(X, Y)
            if H.dim == 0:
                continue
            coords = [QQ.from_int(rng.randint(-3, 3)) for _ in range(H.dim)]
            phi = H.L0.unpack(
                [sum((c * r[t] for c, r in zip(coords, H.reps)), QQ.zero)
                 for t in range(H.L0.dim)])
            if not phi.is_chain_map():
                continue
            C, incl, proj = cone(phi)
            v = recognize_triangle(phi, incl, proj)
            assert v.verdict == "exact"
            assert verify_triangle_certificate(phi, incl, proj, v)
            tried += 1
    assert tried >= 4
