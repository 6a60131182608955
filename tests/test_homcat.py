"""Homotopy category layer: complexes, cones, hom spaces, triangle recognition.

Hom dimensions are cross-checked against a plain-list oracle that works with
raw module matrices and never touches the summand-matrix machinery.
"""

import dataclasses
import os
import random

import pytest

from build_examples import upper_triangular_2, ut2_complexes
from oracles import (dense_grid, hom_modules, plain_homotopy_hom_dim,
                     recognize_triangle_composites_first)
from test_operators import ALGEBRAS

from kbproj.algebra import projective_module, quotient_module, radical, regular_module, submodule
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
    operator_matrix,
    recognize_triangle,
    rotate_triangle,
    single_summand_complex,
    verify_contraction,
    verify_triangle_certificate,
    zero_complex,
    zero_map,
)
from kbproj.fixture import load_fixture
from kbproj.linalg import QQ
from kbproj.serialize import algmat_entries_from_json


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
                    out.extend(tp.coords_of(A.mult(dense_grid(d)[r][c], tuple(v))))
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
    assert dict(AlgMat(A, (0,), (1,), [[e12]]).nonzero_entries()) == {(0, 0): e12}
    # e11 = e11*e11 but e11*e22 = 0: off e11*R*e22 on the right
    with pytest.raises(HomcatError, match=r"entry \(0,0\) .* corner e11\*R\*e22"):
        AlgMat(A, (0,), (1,), [[e11]])
    # e22*e22 = e22 but e11*e22 = 0: off e11*R*e22 on the left
    with pytest.raises(HomcatError, match=r"corner e11\*R\*e22"):
        AlgMat(A, (0,), (1,), [[e22]])
    # one bad entry among good ones, named by its position
    with pytest.raises(HomcatError, match=r"entry \(1,0\) .* corner e22\*R\*e11"):
        AlgMat(A, (0, 1), (0,), [[e11], [A.add_vec(e11, e12)]])
    # a vector of the wrong length is refused, zero or not
    for short in ((0, 0), (0, 1)):
        with pytest.raises(HomcatError, match=r"entry \(0,0\) has 2 coordinates, not 3"):
            AlgMat(A, (0,), (1,), {(0, 0): short})
    with pytest.raises(HomcatError, match="rows"):
        AlgMat(A, (0, 1), (0,), [[e11]])
    with pytest.raises(HomcatError, match="columns"):
        AlgMat(A, (0,), (0, 1), [[e11]])


def test_zero_entries_skip_the_corner_check(ex, monkeypatch):
    # a zero lies on every corner: a decoded grid of zeros multiplies nothing
    A = ex["alg"]
    calls = []
    real = type(A).mult
    monkeypatch.setattr(type(A), "mult", lambda alg, x, y: calls.append(1) or real(alg, x, y))
    zero = ["0"] * A.dim
    M = algmat_entries_from_json(A, (0, 1), (1, 0), [[zero, zero], [zero, zero]])
    assert M.is_zero() and not calls
    e12 = ["0", "1", "0"]
    assert dict(algmat_entries_from_json(A, (0, 1), (1, 0), [[e12, zero], [zero, zero]])
                .nonzero_entries()) == {(0, 0): (0, 1, 0)}
    assert len(calls) == 2
    with pytest.raises(HomcatError, match=r"entry \(1,1\) .* corner e22\*R\*e11"):
        algmat_entries_from_json(A, (0, 1), (1, 0), [[zero, zero], [zero, e12]])


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
    assert AlgMat(alg, M.target_idems, M.source_idems, dense_grid(M)) == M
    assert AlgMat(alg, M.target_idems, M.source_idems, dict(M.nonzero_entries())) == M
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
    radmod = submodule(P1, P1rad)
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


@pytest.mark.parametrize("field", ["h_incl", "h_proj"])
def test_certificate_without_a_homotopy_is_refused(ex, field):
    legs = (ex["iota"], ex["beta"], ex["gamma"])
    v = recognize_triangle(*legs)
    assert verify_triangle_certificate(*legs, v)
    assert not verify_triangle_certificate(*legs, dataclasses.replace(v, **{field: None}))


# -- the comparison system is solved before the composites are tested --------


def _cone_triangles(ex, seed):
    """Cone triangles of seeded random chain maps, each with two rotations."""
    rng = random.Random(seed)
    S1, P1s, P2s = ex["S1r"], ex["P1s"], ex["P2s"]
    sources = [P1s, P2s, S1, P2s.shift(1), direct_sum(P1s, P2s)]
    targets = [S1, P1s, P2s.shift(1), direct_sum(S1, P2s)]
    for X in sources:
        for Y in targets:
            H = HomSpace(X, Y)
            for _ in range(2 if H.dim else 0):
                coords = [QQ.from_int(rng.randint(-3, 3)) for _ in range(H.dim)]
                phi = H.L0.unpack([sum((c * r[t] for c, r in zip(coords, H.reps)), QQ.zero)
                                   for t in range(H.L0.dim)])
                _, incl, proj = cone(phi)
                t1 = rotate_triangle(phi, incl, proj)
                yield from ((phi, incl, proj), t1, rotate_triangle(*t1))


def _broken_triangles(ex):
    """(legs, reason) for triangles that fail at each step of the recognizer."""
    P1s, P2s, S1r = ex["P1s"], ex["P2s"], ex["S1r"]
    iota, beta, gamma = ex["iota"], ex["beta"], ex["gamma"]
    first = "composite of the first two legs is not nullhomotopic"
    last = "composite of the last two legs is not nullhomotopic"
    none = "no comparison map from the cone exists"
    for X in (P1s, S1r):
        # X = X = X -0-> X[1]: b.a = id
        yield (identity_map(X), identity_map(X), zero_map(X, X.shift(1))), first
        # X -0-> X[1] = X[1] = X[1]: c.b = id
        SX = X.shift(1)
        yield (zero_map(X, SX), identity_map(SX), identity_map(SX)), last
    # first composite not null, second null
    yield (iota, identity_map(P1s), zero_map(P1s, P2s.shift(1))), first
    # both composites null, no comparison map
    yield (iota, beta, zero_map(S1r, P2s.shift(1))), none
    yield (zero_map(P2s, P1s), beta, gamma), none
    yield (zero_map(P1s, P2s), zero_map(P2s, P2s), zero_map(P2s, P1s.shift(1))), none


def _assert_same_verdict(v, w):
    assert (v.verdict, v.reason) == (w.verdict, w.reason)
    for field in ("rho", "h_incl", "h_proj", "cone_contraction"):
        assert getattr(v, field) == getattr(w, field), field


def test_recognizer_matches_the_composites_first_oracle(ex):
    fx = load_fixture(os.path.join(os.path.dirname(__file__), "..", "fixtures", "corner.json"))
    fixture_legs = [(t["alpha"], t["beta"], t["gamma"]) for t in fx.triangles.values()]
    swept = list(_cone_triangles(ex, 5))
    # a doubled third leg, and a zero second leg (every outcome but a failed composite)
    perturbed = ([(a, b, c.scale(QQ.from_int(2))) for a, b, c in swept[:6]]
                 + [(a, b.scale(QQ.zero), c) for a, b, c in swept])
    assert len(fixture_legs) >= 2 and len(swept) >= 40
    for legs in fixture_legs + swept + perturbed:
        _assert_same_verdict(recognize_triangle(*legs), recognize_triangle_composites_first(*legs))
    for legs, reason in _broken_triangles(ex):
        v = recognize_triangle(*legs)
        assert v.reason == reason
        _assert_same_verdict(v, recognize_triangle_composites_first(*legs))
    # systems with no unknowns: X -> 0 -> 0 -> X[1], with proj to match, and
    # 0 -> 0 -> 0 -> 0[1], with nothing to match
    O = zero_complex(ex["alg"])
    for X in (ex["P1s"], ex["S1r"]):
        legs = (zero_map(X, O), zero_map(O, O), zero_map(O, X.shift(1)))
        v = recognize_triangle(*legs)
        assert v.reason == "no comparison map from the cone exists"
        _assert_same_verdict(v, recognize_triangle_composites_first(*legs))
    legs = (zero_map(O, O), zero_map(O, O), zero_map(O, O.shift(1)))
    v = recognize_triangle(*legs)
    assert v.verdict == "exact" and verify_triangle_certificate(*legs, v)
    _assert_same_verdict(v, recognize_triangle_composites_first(*legs))


def test_an_exact_triangle_builds_one_hom_space(ex, monkeypatch):
    built = []
    real = HomSpace.__init__
    monkeypatch.setattr(HomSpace, "__init__", lambda H, X, Y: built.append((X, Y)) or real(H, X, Y))
    legs = (ex["iota"], ex["beta"], ex["gamma"])
    for t in (legs, rotate_triangle(*legs)):
        built.clear()
        v = recognize_triangle(*t)
        assert v.verdict == "exact" and len(built) == 1
        assert built[0][0] == built[0][1] == cone(v.rho)[0]
    built.clear()
    assert recognize_triangle_composites_first(*legs).verdict == "exact" and len(built) == 3
    for broken, reason in _broken_triangles(ex):
        built.clear()
        recognize_triangle(*broken)
        assert len(built) == (1 if reason.startswith("composite of the first") else 2)


# -- one equality rule for complexes and maps --------------------------------


@pytest.fixture(scope="module")
def split_leg(ex):
    """S1z: the summands of S1r with a zero differential; gsplit: gamma's
    component on S1z -> P2s[1], a chain map."""
    S1r = ex["S1r"]
    S1z = ProjComplex(ex["alg"], S1r.summands, {}, name="S1z")
    gsplit = chain_map(S1z, ex["P2s"].shift(1), dict(ex["gamma"].components), name="gsplit")
    return S1z, gsplit


def test_complexes_are_equal_by_summands_and_differentials(ex, split_leg):
    A, S1r = ex["alg"], ex["S1r"]
    S1z, _ = split_leg
    assert S1r == S1r.shift(1).shift(-1) and S1r.shift(1).shift(-1) is not S1r
    assert S1z != S1r and S1r != S1z
    # a stored zero differential is the absent one
    assert S1z == ProjComplex(A, S1r.summands, {-1: AlgMat.zeros(A, (0,), (1,))})
    assert S1r != ex["P1s"] and S1r != S1r.shift(1)
    with pytest.raises(TypeError):
        hash(S1r)


def test_maps_with_equal_components_and_different_endpoints_are_unequal(ex, split_leg):
    gamma = ex["gamma"]
    _, gsplit = split_leg
    assert gsplit.components == gamma.components and gsplit.degree == gamma.degree
    assert gsplit != gamma
    twin = GradedMap(ex["S1r"].shift(1).shift(-1), ex["P2s"].shift(1), 0,
                     dict(gamma.components))
    assert twin == gamma


def test_endpoint_checks_compare_differentials(ex, split_leg):
    S1r, P2s1 = ex["S1r"], ex["P2s"].shift(1)
    _, gsplit = split_leg
    with pytest.raises(HomcatError, match="parallel"):
        ex["gamma"] - gsplit
    with pytest.raises(HomcatError, match="endpoint"):
        gsplit.compose(ex["beta"])
    with pytest.raises(HomcatError, match="layout"):
        MapLayout(S1r, P2s1, 0).pack(gsplit)
    with pytest.raises(HomcatError, match="post-composition"):
        operator_matrix(MapLayout(ex["P1s"], S1r, 0), MapLayout(ex["P1s"], P2s1, 0),
                        post=gsplit)


def test_recognizer_rejects_legs_that_share_only_summands(ex, split_leg):
    # beta lands in S1r, gsplit starts at S1z: the legs do not compose
    _, gsplit = split_leg
    with pytest.raises(HomcatError, match="do not compose"):
        recognize_triangle(ex["iota"], ex["beta"], gsplit)


@pytest.mark.parametrize("idem", [-1, 5, 1.0, True])
def test_summand_index_outside_the_idempotents_rejected(ex, idem):
    A = ex["alg"]
    with pytest.raises(HomcatError, match=rf"summand index {idem!r} is not an idempotent index 0\.\.1"):
        single_summand_complex(A, idem, 0)
    with pytest.raises(HomcatError, match=r"degree 1 summand index .* 0\.\.1"):
        ProjComplex(A, {0: (0,), 1: (idem,)}, {})
    with pytest.raises(HomcatError, match="idempotent index"):
        AlgMat(A, (0,), (idem,), [[A.zero_vec()]])


def test_a_map_keeps_its_chain_map_verdict(ex, monkeypatch):
    # recognizing and replaying a cone triangle computes delta of each map once
    phi = ex["iota"]
    alpha = GradedMap(phi.source, phi.target, 0, dict(phi.components))
    seen = []
    real = GradedMap.delta
    monkeypatch.setattr(GradedMap, "delta", lambda f: seen.append(f) or real(f))
    _, incl, proj = cone(alpha)
    v = recognize_triangle(alpha, incl, proj)
    assert v.verdict == "exact" and verify_triangle_certificate(alpha, incl, proj, v)
    assert alpha.is_chain_map() and len(seen) > 3
    assert len(set(map(id, seen))) == len(seen)
