"""Graded-map arithmetic that skips absent blocks, against the dense oracle.

``GradedMap.delta``, ``GradedMap.compose`` and the d^2 check of
``ProjComplex`` form a product only when both of its factors are present;
sums, differences, equality and ``MapLayout.pack`` read a component only
where it is stored.  ``oracles.dense_delta``, ``dense_compose``,
``dense_sum``, ``dense_equal``, ``dense_pack`` and ``dense_d_squared_defect``
form every product, sum and read, with zero matrices for the missing
blocks.  They must
agree on random maps of degree -1, 0 and 1 between the complexes of the
corner fixture (over UT2 and k) and Koszul complexes over k[x]/(x^2) (the
koszul fixture holds a Laurent contraction, not complexes of projectives),
their shifts, direct sums and cones, where some components of the maps and
some differentials of the complexes are missing.
"""

import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from build_examples import dual_numbers
from oracles import (
    dense_compose,
    dense_d_squared_defect,
    dense_delta,
    dense_equal,
    dense_pack,
    dense_sum,
)

from kbproj.fixture import load_fixture
from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomcatError,
    HomSpace,
    MapLayout,
    ProjComplex,
    cone,
    direct_sum,
)

DEGREES = (-1, 0, 1)
CORNER = os.path.join(os.path.dirname(__file__), "..", "fixtures", "corner.json")


def _some_chain_map(X, Y):
    """A nonzero chain map X -> Y from the sum of the class representatives, or None."""
    H = HomSpace(X, Y)
    if not H.dim:
        return None
    ring = X.alg.ring
    v = [ring.zero] * H.L0.dim
    for rep in H.reps:
        v = [ring.add(a, b) for a, b in zip(v, rep)]
    return H.L0.unpack(v)


def _grow(base):
    """The complexes, some shifts and direct sums, and cones of maps between them."""
    out = list(base)
    out += [base[0].shift(1), base[-1].shift(-1), direct_sum(base[0], base[-1]),
            direct_sum(base[-1], base[-1].shift(1))]
    for X in base:
        for Y in base:
            phi = _some_chain_map(X, Y)
            if phi is not None and len(out) < 14:
                out.append(cone(phi)[0])
    return out


def _pools():
    fx = load_fixture(CORNER)
    cx = fx.complexes
    ut2, S1r = cx["P1s"].alg, cx["S1r"]
    pools = {
        "UT2": _grow([
            cx["P1s"], cx["P2s"], S1r,
            # adjacent summands with no differential between them
            ProjComplex(ut2, {0: (0,), 1: (1,)}, {}, name="P1+P2[-1]"),
            # the differential of S1r, and none from degree 0 to 1
            ProjComplex(ut2, {-1: (1,), 0: (0,), 1: (0, 1)},
                        {-1: S1r.diff[-1]}, name="S1r+"),
            cone(fx.maps["iota"])[0],
        ]),
        # k3 has a differential at -2 and none at -1
        "k": _grow([cx["kstalk"], cx["kcone"], cx["k3"]]),
    }
    D = dual_numbers()
    x = AlgMat(D, (0,), (0,), [[D.basis_vec(1)]])
    one = (0,)
    koszul = ProjComplex(D, {-2: one, -1: one, 0: one}, {-2: x, -1: x}, name="K3")
    gapped = ProjComplex(D, {-1: one, 0: one, 1: one}, {-1: x}, name="K2+")
    pools["k[x]/x2"] = _grow([ProjComplex(D, {0: one}, {}, name="D"), koszul, gapped])
    return pools


POOLS = _pools()


def _missing_differentials(X):
    return [n for n in X.summands if n + 1 in X.summands and n not in X.diff]


def test_each_pool_has_complexes_with_missing_differentials():
    for pool in POOLS.values():
        gapped = [X for X in pool if _missing_differentials(X)]
        assert gapped and any(X.diff for X in gapped), [X.name for X in pool]


def _random_map(draw, X, Y, degree):
    """A degree-``degree`` family X -> Y with the components of some degrees dropped."""
    L = MapLayout(X, Y, degree)
    ring = X.alg.ring
    dropped = draw(st.sets(st.sampled_from(sorted(X.summands) or [0])))
    coords = draw(st.lists(st.integers(-2, 2), min_size=L.dim, max_size=L.dim))
    for n, _, _, corner, off in L.slots:
        if n in dropped:
            coords[off:off + corner.dim] = [0] * corner.dim
    return L.unpack([ring.from_int(c) for c in coords])


def _same(got, want):
    assert got.source is want.source and got.target is want.target
    assert (got.degree, got.name) == (want.degree, want.name)
    # the same nonzero components, in the same (sorted degree) order
    assert list(got.components) == list(want.components)
    assert all(got.components[n] == want.components[n] for n in want.components)


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_delta_and_compose_match_the_dense_oracle(data):
    pool = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    X, Y, Z = (data.draw(st.sampled_from(pool)) for _ in range(3))
    s, t = data.draw(st.sampled_from(DEGREES)), data.draw(st.sampled_from(DEGREES))
    f = _random_map(data.draw, X, Y, s)
    g = _random_map(data.draw, Y, Z, t)
    _same(f.delta(), dense_delta(f))
    _same(g.delta(), dense_delta(g))
    _same(g.compose(f), dense_compose(g, f))
    assert f.is_chain_map() == (s == 0 and not dense_delta(f).components)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sums_equality_and_pack_match_the_dense_oracle(data):
    pool = POOLS[data.draw(st.sampled_from(sorted(POOLS)))]
    X, Y = (data.draw(st.sampled_from(pool)) for _ in range(2))
    s = data.draw(st.sampled_from(DEGREES))
    f = _random_map(data.draw, X, Y, s)
    # half the time g is a rebuilt copy of f, so equal maps are compared too
    if data.draw(st.booleans()):
        g = GradedMap(X, Y, s, dict(f.components))
    else:
        g = _random_map(data.draw, X, Y, s)
    for got, want in ((f + g, dense_sum(f, g)), (f - g, dense_sum(f, g, subtract=True))):
        assert got.degree == want.degree and got.components == want.components
    assert (f == g) == dense_equal(f, g)
    L = MapLayout(X, Y, s)
    assert L.pack(f) == dense_pack(L, f)
    assert L.unpack(L.pack(g)) == g


def _random_differential(rng, alg, target, source):
    """A random summand matrix, zero about a third of the time."""
    ring = alg.ring
    scale = rng.choice((0, 1, 1))
    rows = []
    for i in target:
        row = []
        for j in source:
            corner = alg.corner_space(i, j)
            v = alg.zero_vec()
            for basis_row in corner.rows:
                c = ring.from_int(scale * rng.randint(-1, 1))
                v = alg.add_vec(v, alg.scale_vec(c, tuple(basis_row)))
            row.append(v)
        rows.append(row)
    return AlgMat(alg, target, source, rows)


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_d_squared_check_matches_the_dense_oracle(pool):
    alg = POOLS[pool][0].alg
    idems = range(alg.n_idempotents())
    rng = random.Random(11)
    outcomes = set()
    for _ in range(150):
        lo = rng.randint(-2, 0)
        summands = {n: tuple(rng.choice(idems) for _ in range(rng.randint(0, 2)))
                    for n in range(lo, lo + rng.randint(1, 4))}
        diff = {}
        for n in summands:
            if n + 1 in summands and rng.random() < 0.75:
                diff[n] = _random_differential(rng, alg, summands[n + 1], summands[n])
        want = dense_d_squared_defect(alg, summands, diff)
        if want is None:
            ProjComplex(alg, summands, diff, name="R")
        else:
            with pytest.raises(HomcatError, match=f"square to zero at {want}$"):
                ProjComplex(alg, summands, diff, name="R")
        outcomes.add(want is None)
    assert outcomes == {True, False}

