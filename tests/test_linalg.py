"""Exact linear algebra layer: scalars, solve, subspaces."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kbproj.linalg import (
    GF,
    QQ,
    LaurentPoly,
    LaurentRing,
    LinalgError,
    Mat,
    Subspace,
    rank,
    rref_rows,
    solve,
    solve_left,
)

from oracles import FractionRationals, dim_from_count, plain_rank, quotient_matrix, span_members


def q(x):
    return Fraction(x)


def qmat(rows):
    return Mat.from_rows(QQ, [[Fraction(x) for x in r] for r in rows], len(rows[0]))


def test_solve_scalar_example():
    x, ker = solve(qmat([[2]]), qmat([[1]]))
    assert x.rows() == [[Fraction(1, 2)]]
    assert ker.dim == 0


def test_solve_residual_is_exactly_zero():
    A = qmat([[1, 2, 3], [4, 5, 6]])
    b = qmat([[1], [1]])
    x, ker = solve(A, b)
    assert (A @ x - b).is_zero()
    assert ker.dim == 1
    # homogeneous solutions really solve
    for kv in ker.rows:
        col = Mat.from_rows(QQ, [[c] for c in kv], 1)
        assert (A @ col).is_zero()


def test_solve_inconsistent():
    A = qmat([[1, 1], [1, 1]])
    b = qmat([[0], [1]])
    x, ker = solve(A, b)
    assert x is None
    assert ker.dim == 1


def test_rank_nullity_f7_random_rank2():
    # random 3x5 of rank exactly 2 over GF(7); consistent rhs; kernel dim 3.
    # Expected values frozen from the independent plain-list oracle.
    rng = random.Random(20260815)
    F = GF(7)
    while True:
        U = [[rng.randrange(7) for _ in range(2)] for _ in range(3)]
        V = [[rng.randrange(7) for _ in range(5)] for _ in range(2)]
        A_rows = [[sum(U[i][k] * V[k][j] for k in range(2)) % 7 for j in range(5)] for i in range(3)]
        if plain_rank(A_rows, p=7) == 2:
            break
    A = Mat.from_rows(F, A_rows, 5)
    assert rank(A) == 2
    x0 = Mat.from_rows(F, [[rng.randrange(7)] for _ in range(5)], 1)
    b = A @ x0
    x, ker = solve(A, b)
    assert x is not None
    assert (A @ x - b).is_zero()
    assert ker.dim == 5 - plain_rank(A_rows, p=7)
    assert ker.dim == 3


def test_subspace_dims_sum_intersect_f5():
    # dim(V+W) + dim(V cap W) == dim V + dim W in GF(5)^6,
    # cross-checked by exhaustive member counting.
    rng = random.Random(7)
    F = GF(5)
    for _ in range(6):
        vvecs = [[rng.randrange(5) for _ in range(6)] for _ in range(rng.randrange(1, 4))]
        wvecs = [[rng.randrange(5) for _ in range(6)] for _ in range(rng.randrange(1, 4))]
        V = Subspace.from_spanning(F, 6, vvecs)
        W = Subspace.from_spanning(F, 6, wvecs)
        S = V.sum_with(W)
        I = V.intersect(W)
        assert S.dim + I.dim == V.dim + W.dim

        v_mem = span_members(5, vvecs, 6)
        w_mem = span_members(5, wvecs, 6)
        assert dim_from_count(5, len(v_mem)) == V.dim
        assert dim_from_count(5, len(w_mem)) == W.dim
        assert dim_from_count(5, len(v_mem & w_mem)) == I.dim
        sums = {tuple((a + b) % 5 for a, b in zip(x, y)) for x in v_mem for y in w_mem}
        assert dim_from_count(5, len(sums)) == S.dim
        # membership agrees with enumeration
        for m in list(v_mem)[:10]:
            assert V.contains([F.from_int(c) for c in m])


def test_subspace_canonical_basis():
    # the canonical basis depends only on the subspace, not its spanning set
    rng = random.Random(99)
    vecs = [[q(rng.randrange(-4, 5)) for _ in range(5)] for _ in range(3)]
    V = Subspace.from_spanning(QQ, 5, vecs)
    # random invertible recombination of the spanning set
    for _ in range(5):
        coeffs = [[q(rng.randrange(-3, 4)) for _ in range(3)] for _ in range(3)]
        if plain_rank([list(map(Fraction, r)) for r in coeffs]) != 3:
            continue
        new_vecs = []
        for row in coeffs:
            w = [Fraction(0)] * 5
            for c, v in zip(row, vecs):
                w = [a + c * b for a, b in zip(w, v)]
            new_vecs.append(w)
        W = Subspace.from_spanning(QQ, 5, new_vecs)
        assert V == W
        assert V.rows == W.rows


def test_subspace_quotient_reps():
    V = Subspace.from_spanning(QQ, 3, [[q(1), q(1), q(0)]])
    reps = V.completion()
    assert len(reps) == 2
    # unit vectors at non-pivot coordinates
    assert reps[0][1] == 1 or reps[0][2] == 1
    W = Subspace.full(QQ, 3)
    rel = V.quotient_reps(within=W)
    assert len(rel) == 2
    for r in rel:
        assert W.contains(r) and not V.contains(r)


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["QQ", "GF5"])
@settings(max_examples=80, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 4), st.integers(1, 5)))
def test_quotient_coords_complete_the_subspace(ring, data, shape):
    # v - sum c[k] completion()[k] lies in S, for c the quotient coordinates
    k, n = shape
    span = data.draw(_plain_matrix(ring, k, n))
    S = Subspace.from_spanning(ring, n, span)
    v = data.draw(_plain_matrix(ring, 1, n))[0]
    c = S.quotient_coords(v)
    reps = S.completion()
    assert len(c) == len(reps) == n - S.dim
    rest = list(v)
    for ck, rep in zip(c, reps):
        rest = [ring.sub(x, ring.mul(ck, y)) for x, y in zip(rest, rep)]
    p = None if ring is QQ else ring.p
    assert plain_rank(span + [rest], p) == plain_rank(span, p)
    assert c == quotient_matrix(ring, S).row_apply(v)


def test_member_and_coords():
    V = Subspace.from_spanning(QQ, 3, [[q(1), q(2), q(0)], [q(0), q(0), q(1)]])
    v = [q(3), q(6), q(-2)]
    assert V.contains(v)
    coords = V.coords_of(v)
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coords, V.rows):
        rebuilt = [a + c * b for a, b in zip(rebuilt, row)]
    assert rebuilt == v
    with pytest.raises(LinalgError):
        V.coords_of([q(0), q(1), q(0)])


def test_solve_left():
    A = qmat([[1, 2], [0, 1], [1, 0]])
    b = qmat([[2, 3]])
    x, ker = solve_left(A, b)
    assert x is not None
    assert (x @ A - b).is_zero()
    assert ker.ambient == 3


def test_laurent_rejected_by_solvers():
    L = LaurentRing(["x"])
    M = Mat.from_rows(L, [[L.one]], 1)
    with pytest.raises(LinalgError):
        rref_rows(L, M.rows())
    with pytest.raises(LinalgError):
        solve(M, M)


def test_laurent_arithmetic_basics():
    L = LaurentRing(["x", "y"])
    x = L.monomial([1, 0])
    xinv = L.monomial([-1, 0])
    assert L.mul(x, xinv) == L.one
    p = L.parse([[[0, 1], "2"], [[1, 0], "-1/2"]])
    assert L.fmt(p) == [[[0, 1], "2"], [[1, 0], "-1/2"]]
    assert L.add(p, L.neg(p)) == L.zero


def _zero_test_samples():
    F5 = GF(5)
    L = LaurentRing(["x", "y"])
    x, y = L.monomial([1, 0]), L.monomial([0, -1])
    p = L.add(x, L.monomial([0, 1], Fraction(-3, 2)))
    return [
        (QQ, [QQ.zero, QQ.one, QQ.from_int(0), q(-3), Fraction(-2, 7), Fraction(0, 5),
              QQ.sub(q(4), q(4)), QQ.mul(q(0), q(-9))]),
        (F5, [F5.zero, F5.one, F5.neg(F5.one), F5.neg(F5.zero)]
         + [F5.from_int(n) for n in (-10, -5, -3, 0, 4, 5, 10, 26)]
         + [F5.parse("15"), F5.mul(3, 5), F5.add(2, 3), F5.sub(1, 6)]),
        (L, [L.zero, L.one, x, L.neg(x), y, p, L.neg(p), L.add(p, L.neg(p)),
             L.mul(x, L.zero), L.parse([[[1, 0], "1"], [[1, 0], "-1"]]),
             LaurentPoly({(0, 0): Fraction(0)}),
             LaurentPoly({(1, 0): Fraction(0), (0, 1): Fraction(2)})]),
    ]


@pytest.mark.parametrize("ring, samples", _zero_test_samples(),
                         ids=["QQ", "GF5", "Laurent"])
def test_truthiness_is_the_zero_test(ring, samples):
    # the engine tests scalars for zero with `not x`
    for x in samples:
        assert bool(x) == (x != ring.zero), (ring, x)
    assert any(not x for x in samples) and any(samples)


ORACLE_QQ = FractionRationals()

_NUM, _DEN = st.integers(-40, 40), st.integers(1, 6)
# a rational as a fixture or a caller may give it: an int, a Fraction (whose
# denominator may have cancelled to 1) or text, "n/d" or "n"
_RATIONAL_INPUT = st.one_of(_NUM, st.builds(Fraction, _NUM, _DEN),
                            st.builds("{}/{}".format, _NUM, _DEN), _NUM.map(str))


def _agrees_with_oracle(got, want):
    assert got == want and QQ.fmt(got) == ORACLE_QQ.fmt(want), (got, want)
    # an integral result left as a Fraction would be the slow path back
    assert type(got) is (int if want.denominator == 1 else Fraction), (got, want)


def test_rationals_zero_and_one_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert (QQ.zero, QQ.one) == (ORACLE_QQ.zero, ORACLE_QQ.one)


@settings(max_examples=300, deadline=None)
@given(_RATIONAL_INPUT, _RATIONAL_INPUT)
@example(0, 0)
@example("4/2", "-6/3")
@example(Fraction(3, 2), Fraction(1, 2))
@example(Fraction(1, 2), Fraction(-1, 2))
@example(Fraction(2, 3), Fraction(3, 2))
@example(-7, "0/5")
def test_rationals_agree_with_the_fraction_oracle(x, y):
    a, b = QQ.parse(x), QQ.parse(y)
    fa, fb = ORACLE_QQ.parse(x), ORACLE_QQ.parse(y)
    _agrees_with_oracle(a, fa)
    _agrees_with_oracle(b, fb)
    _agrees_with_oracle(QQ.add(a, b), ORACLE_QQ.add(fa, fb))
    _agrees_with_oracle(QQ.sub(a, b), ORACLE_QQ.sub(fa, fb))
    _agrees_with_oracle(QQ.mul(a, b), ORACLE_QQ.mul(fa, fb))
    _agrees_with_oracle(QQ.neg(a), ORACLE_QQ.neg(fa))
    _agrees_with_oracle(QQ.parse(QQ.fmt(a)), fa)
    if fa.denominator == 1:
        _agrees_with_oracle(QQ.from_int(fa.numerator), ORACLE_QQ.from_int(fa.numerator))
    if fb:
        _agrees_with_oracle(QQ.div(a, b), ORACLE_QQ.div(fa, fb))
        _agrees_with_oracle(QQ.inv(b), ORACLE_QQ.inv(fb))
    else:
        for ring, u, v in ((QQ, a, b), (ORACLE_QQ, fa, fb)):
            with pytest.raises(ZeroDivisionError):
                ring.div(u, v)
            with pytest.raises(ZeroDivisionError):
                ring.inv(v)


@pytest.mark.parametrize("bad", [True, False, 1.5, None, "1/0", "x", [1]])
def test_rationals_parse_rejects_what_the_oracle_rejects(bad):
    for ring in (QQ, ORACLE_QQ):
        with pytest.raises(LinalgError):
            ring.parse(bad)


def _parsed(ring, text):
    """``ring.parse(text)``, or ``LinalgError`` when the text is rejected."""
    try:
        return ring.parse(text)
    except LinalgError:
        return LinalgError


# text close to the plain-integer fast path: signs, padding, underscores,
# decimal points, exponents, slashes and non-ASCII digits around digit runs
_NEAR_INTEGER_TEXT = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", "+", " ", "--", "-+"]),
    st.text("0123456789_\u0663\u06f7\uff11", max_size=6),
    st.sampled_from(["", " ", ".0", ".5", "e2", "/3", "/0", "-"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_NEAR_INTEGER_TEXT, st.text(max_size=6)))
@example("")
@example("-")
@example("-0")
@example("007")
@example("+3")
@example(" 3 ")
@example("1_0")
@example("1.0")
@example("1e2")
@example("\u0663")
@example("-\u0663")
@example("9" * 5000)
def test_rationals_parse_text_agrees_with_the_fraction_oracle(text):
    # plain integer text becomes int(text) without a Fraction; everything
    # else must still be accepted or rejected exactly as Fraction(text) is
    got, want = _parsed(QQ, text), _parsed(ORACLE_QQ, text)
    if want is LinalgError:
        assert got is LinalgError, (text, got)
    else:
        _agrees_with_oracle(got, want)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=0, max_size=4),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=0, max_size=4),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=0, max_size=4))
def test_laurent_ring_axioms(ta, tb, tc):
    L = LaurentRing(["x", "y"])

    def build(ts):
        out = L.zero
        for i, (e1, e2) in enumerate(ts):
            out = L.add(out, L.monomial([e1, e2], Fraction(i + 1, 2)))
        return out

    a, b, c = build(ta), build(tb), build(tc)
    assert L.mul(a, L.mul(b, c)) == L.mul(L.mul(a, b), c)
    assert L.mul(a, L.add(b, c)) == L.add(L.mul(a, b), L.mul(a, c))
    assert L.mul(a, b) == L.mul(b, a)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=4, max_size=4), min_size=1, max_size=5))
def test_rank_matches_plain_oracle(rows):
    A = Mat.from_rows(QQ, [[Fraction(x) for x in r] for r in rows], 4)
    assert rank(A) == plain_rank([[Fraction(x) for x in r] for r in rows])


def _nonzero_scalar(ring, rnd):
    if ring is QQ:
        return Fraction(rnd.choice([-3, -2, -1, 1, 2, 3]), rnd.randint(1, 3))
    return rnd.randint(1, ring.p - 1)


@st.composite
def _plain_matrix(draw, ring, nrows, ncols):
    """List-of-lists matrix at a drawn density in [0, 1], maybe with a zero row."""
    rnd = draw(st.randoms(use_true_random=False))
    density = draw(st.floats(0, 1))
    rows = [[_nonzero_scalar(ring, rnd) if rnd.random() < density else ring.zero
             for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [ring.zero] * ncols
    return rows


def _plain_mul(ring, a, b, ncols):
    out = [[ring.zero] * ncols for _ in a]
    for i, ra in enumerate(a):
        for k, rb in enumerate(b):
            for j, y in enumerate(rb):
                out[i][j] = ring.add(out[i][j], ring.mul(ra[k], y))
    return out


@pytest.mark.parametrize("ring", [QQ, GF(5)], ids=["QQ", "GF5"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)))
def test_mat_agrees_with_plain_lists(ring, data, shape):
    # the one sparse storage must read and compute like plain row lists
    n, m, k = shape
    a = data.draw(_plain_matrix(ring, n, m))
    b = data.draw(_plain_matrix(ring, n, m))
    c = data.draw(_plain_matrix(ring, m, k))
    v = data.draw(_plain_matrix(ring, 1, n))[0]
    s = data.draw(_plain_matrix(ring, 1, 1))[0][0]
    A, B, C = (Mat.from_rows(ring, a, m), Mat.from_rows(ring, b, m),
               Mat.from_rows(ring, c, k))
    assert (A.nrows, A.ncols) == (n, m) and A.rows() == a
    assert Mat.from_rows(ring, [], m).rows() == [] and Mat.from_rows(ring, [], m).ncols == m
    assert all(x for _, _, x in A.items())
    assert {(i, j) for i, j, _ in A.items()} == {(i, j) for i in range(n) for j in range(m) if a[i][j]}
    assert all(A.entry(i, j) == a[i][j] and A.row(i) == a[i] for i in range(n) for j in range(m))
    assert A.is_zero() == (not any(map(any, a)))
    assert (A + B).rows() == [[ring.add(x, y) for x, y in zip(r, t)] for r, t in zip(a, b)]
    assert (A - B).rows() == [[ring.sub(x, y) for x, y in zip(r, t)] for r, t in zip(a, b)]
    assert A.neg().rows() == [[ring.neg(x) for x in r] for r in a]
    assert A.scale(s).rows() == [[ring.mul(x, s) for x in r] for r in a]
    assert (A @ C).rows() == _plain_mul(ring, a, c, k)
    assert A.transpose().rows() == [[a[i][j] for i in range(n)] for j in range(m)]
    assert A.transpose().ncols == n
    assert A.row_apply(v) == _plain_mul(ring, [v], a, m)[0]
    assert (A == B) == (a == b)
    for X, Y in ((A, B), (A + B - B, A), (A.neg().neg(), A)):
        if X == Y:
            assert hash(X) == hash(Y)
    assert rank(A) == plain_rank(a, p=None if ring is QQ else ring.p)


@pytest.mark.parametrize("rows, ncols", [([[q(1), q(2)], [q(3)]], 2), ([[q(1), q(2)]], 3),
                                         ([[q(1)], [q(1), q(2)]], 1)],
                         ids=["ragged", "too-wide", "later-row-too-wide"])
def test_from_rows_rejects_a_row_of_the_wrong_width(rows, ncols):
    with pytest.raises(LinalgError, match="entries, expected"):
        Mat.from_rows(QQ, rows, ncols)


def test_matrix_ops():
    A = qmat([[1, 2], [3, 4]])
    B = qmat([[0, 1], [1, 0]])
    assert (A @ B).rows() == [[q(2), q(1)], [q(4), q(3)]]
    assert (A + B - B) == A
    assert A.scale(q(2)).rows() == [[q(2), q(4)], [q(6), q(8)]]
    assert A.transpose().transpose() == A
    assert A.row_apply([q(1), q(1)]) == [q(4), q(6)]
