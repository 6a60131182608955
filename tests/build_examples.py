"""Programmatic constructors for the worked examples used across the tests.

Kept separate from the package: tests build these directly so that the
JSON fixture loader can be cross-checked against them later.
"""

from fractions import Fraction

from oracles import structure_mult

from kbproj.algebra import AlgebraPresentation, RingMap
from kbproj.linalg import GF, QQ


def upper_triangular_2(ring=QQ) -> AlgebraPresentation:
    """2x2 upper triangular matrices, basis (e11, e12, e22)."""
    z = "0"
    o = "1"
    zero3 = [z, z, z]
    structure = [
        [[o, z, z], [z, o, z], zero3],          # e11 * (e11, e12, e22)
        [zero3, zero3, [z, o, z]],              # e12 * (e11, e12, e22)
        [zero3, zero3, [z, z, o]],              # e22 * (e11, e12, e22)
    ]
    return AlgebraPresentation(
        ring,
        ["e11", "e12", "e22"],
        structure,
        unit=[o, z, o],
        idempotents=[[o, z, z], [z, z, o]],
        idempotent_names=["e11", "e22"],
        name="UT2",
    )


def product_of_two_fields(ring=QQ) -> AlgebraPresentation:
    """The split semisimple algebra k x k, basis (u1, u2)."""
    z = "0"
    o = "1"
    structure = [
        [[o, z], [z, z]],
        [[z, z], [z, o]],
    ]
    return AlgebraPresentation(
        ring,
        ["u1", "u2"],
        structure,
        unit=[o, o],
        idempotents=[[o, z], [z, o]],
        idempotent_names=["u1", "u2"],
        name="kxk",
    )


def ground_field(ring=QQ) -> AlgebraPresentation:
    """The field itself, one basis element."""
    return AlgebraPresentation(ring, ["1"], [[["1"]]], unit=["1"], idempotents=[["1"]], name="k")


def dual_numbers(ring=QQ) -> AlgebraPresentation:
    """k[x]/(x^2), basis (1, x)."""
    z = "0"
    o = "1"
    structure = [
        [[o, z], [z, o]],
        [[z, o], [z, z]],
    ]
    return AlgebraPresentation(
        ring, ["1", "x"], structure, unit=[o, z], idempotents=[[o, z]], name="k[x]/x2"
    )


def corner_map(ut2=None) -> RingMap:
    """UT2 -> k sending e11 -> 1 and e12, e22 -> 0."""
    ut2 = ut2 or upper_triangular_2()
    k = ground_field(ut2.ring)
    return RingMap(ut2, k, [["1"], ["0"], ["0"]], name="corner")


def split_map(ut2=None) -> RingMap:
    """k x k -> UT2 sending u1 -> e11 and u2 -> e22 (the diagonal inclusion)."""
    ut2 = ut2 or upper_triangular_2()
    kk = product_of_two_fields(ut2.ring)
    z = "0"
    o = "1"
    return RingMap(kk, ut2, [[o, z, z], [z, z, o]], name="split")


def sheared(entry):
    """A fixture algebra entry rewritten in the basis b'_i = b_i + b_(i+1)
    (b'_(n-1) = b_(n-1)), so that most products have several nonzero terms.

    Old coordinates v become w_k = sum_(a <= k) (-1)^(k-a) v_a."""
    old = [[[Fraction(c) for c in cell] for cell in row] for row in entry["structure"]]
    n = len(old)

    def new(v):
        return [str(sum((-1) ** (k - a) * Fraction(v[a]) for a in range(k + 1)))
                for k in range(n)]

    def shear(i):
        return [1 if t in (i, i + 1) else 0 for t in range(n)]

    return dict(entry, basis=[f"{b}'" for b in entry["basis"]],
                structure=[[new(structure_mult(old, shear(i), shear(j))) for j in range(n)]
                           for i in range(n)],
                unit=new(entry["unit"]), idempotents=[new(e) for e in entry["idempotents"]])


def ut2_structure_plain(p=None):
    """The UT2 multiplication table as plain ints, for the test-side oracles."""

    def val(x):
        return x % p if p is not None else x

    dim = 3
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    table[0][0][0] = val(1)
    table[0][1][1] = val(1)
    table[1][2][1] = val(1)
    table[2][2][2] = val(1)
    return table


def ut2_complexes(A=None):
    """The standard complexes and triangle over UT2.

    P1s, P2s: stalk complexes of e11R, e22R at degree 0.
    S1r: two-term resolution P2 at -1 -> P1 at 0 by left multiplication e12.
    iota: P2s -> P1s by e12; beta: P1s -> S1r by e11; gamma: S1r -> P2s[1]
    by e22.  (iota, beta, gamma) is the canonical cone triangle on the nose.
    """
    from kbproj.homcat import AlgMat, ProjComplex, chain_map, single_summand_complex

    A = A or upper_triangular_2()
    e11 = A.basis_vec(0)
    e12 = A.basis_vec(1)
    e22 = A.basis_vec(2)
    P1s = single_summand_complex(A, 0, 0, name="P1")
    P2s = single_summand_complex(A, 1, 0, name="P2")
    S1r = ProjComplex(A, {-1: (1,), 0: (0,)},
                      {-1: AlgMat(A, (0,), (1,), [[e12]])}, name="S1res")
    iota = chain_map(P2s, P1s, {0: AlgMat(A, (0,), (1,), [[e12]])}, name="iota")
    beta = chain_map(P1s, S1r, {0: AlgMat(A, (0,), (0,), [[e11]])}, name="beta")
    gamma = chain_map(S1r, P2s.shift(1),
                      {-1: AlgMat(A, (1,), (1,), [[e22]])}, name="gamma")
    return {"alg": A, "P1s": P1s, "P2s": P2s, "S1r": S1r,
            "iota": iota, "beta": beta, "gamma": gamma}
