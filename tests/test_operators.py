"""Block-assembled Hom-complex operators against the probing oracle.

``delta_matrix`` and ``operator_matrix`` build their matrices from corner
multiplication tables.  Each is compared with ``probed_operator_matrix``,
which applies ``GradedMap.delta`` or ``GradedMap.compose`` to every unit
vector of the input layout, over shifts, cones and direct sums (so odd
degrees and their signs occur) and over four algebras.
"""

import random

import pytest

from build_examples import dual_numbers, product_of_two_fields, upper_triangular_2, ut2_complexes
from oracles import probed_operator_matrix

from kbproj.homcat import (
    HomcatError,
    MapLayout,
    cone,
    delta_matrix,
    direct_sum,
    operator_matrix,
    single_summand_complex,
)
from kbproj.linalg import GF, QQ

DEGREES = (-1, 0, 1)


def random_family(X, Y, degree, rng):
    L = MapLayout(X, Y, degree)
    ring = X.alg.ring
    return L.unpack([ring.from_int(rng.randint(-3, 3)) for _ in range(L.dim)])


def complexes(alg, rng):
    """Stalks, cones of stalk maps, and their shifts and direct sums."""
    stalks = [single_summand_complex(alg, i, 0) for i in range(alg.n_idempotents())]
    out = list(stalks)
    if alg.name == "UT2":
        ex = ut2_complexes(alg)
        out += [ex["S1r"], cone(ex["iota"])[0]]
    for P in stalks:
        for Q in stalks:
            f = random_family(P, Q, 0, rng)
            if not f.is_zero():
                out.append(cone(f)[0])
    big = out[-1]
    out += [big.shift(1), stalks[0].shift(-1), direct_sum(big, stalks[-1]),
            direct_sum(big, big.shift(1))]
    return out


ALGEBRAS = {
    "UT2/QQ": lambda: upper_triangular_2(QQ),
    "UT2/GF5": lambda: upper_triangular_2(GF(5)),
    "k[x]/x2": dual_numbers,
    "kxk": product_of_two_fields,
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_delta_matrix_matches_probing(name):
    rng = random.Random(3)
    cx = complexes(ALGEBRAS[name](), rng)
    for X in cx:
        for Y in cx:
            for s in DEGREES:
                Li, Lo = MapLayout(X, Y, s), MapLayout(X, Y, s + 1)
                assert delta_matrix(Li, Lo) == probed_operator_matrix(
                    Li, Lo, lambda g: g.delta()), (X, Y, s)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_composition_matrices_match_probing(name):
    rng = random.Random(5)
    cx = complexes(ALGEBRAS[name](), rng)
    for X in cx:
        for Y in cx:
            for s in DEGREES:
                Li = MapLayout(X, Y, s)
                a = rng.choice(DEGREES)
                Z = rng.choice(cx)
                F = random_family(Y, Z, a, rng)
                Lo = MapLayout(X, Z, s + a)
                assert operator_matrix(Li, Lo, post=F) == probed_operator_matrix(
                    Li, Lo, lambda g: F.compose(g)), (X, Y, Z, s, a)
                W = rng.choice(cx)
                B = random_family(W, X, a, rng)
                Lo = MapLayout(W, Y, s + a)
                assert operator_matrix(Li, Lo, pre=B) == probed_operator_matrix(
                    Li, Lo, lambda g: g.compose(B)), (W, X, Y, s, a)


def test_operator_matrix_rejects_layouts_that_do_not_fit():
    ex = ut2_complexes()
    S1, P1, P2 = ex["S1r"], ex["P1s"], ex["P2s"]
    Li = MapLayout(S1, S1, 0)
    with pytest.raises(HomcatError):
        delta_matrix(Li, MapLayout(S1, S1, 0))
    with pytest.raises(HomcatError):
        operator_matrix(Li, MapLayout(S1, P1, 0), post=ex["beta"])
    with pytest.raises(HomcatError):
        operator_matrix(Li, MapLayout(P2, S1, 0), pre=ex["iota"])
