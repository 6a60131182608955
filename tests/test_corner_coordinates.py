"""Summand matrices in corner coordinates, against full algebra vectors.

``AlgMat`` keeps each nonzero entry as its coordinates in the basis of its
corner e_i R e_j, multiplies through the algebra's sparse corner product
tables, and writes full algebra vectors only in ``nonzero_entries()``.
``oracles.dense_algmat_product`` and ``oracles.dense_corner_error`` are the
paths this replaced: one ``alg.mult`` per pair of entries that meet, and the
corner test e_i . a = a = a . e_j of the checking constructor.  Random
summand matrices must give the oracle's entries under sums, differences,
negation, scaling, products, identities, cone maps and packing, and the
checking constructor must refuse exactly the oracle's off-corner entries,
with the same message.

The algebras: those of the fixtures; the family members UT5, Alin8, Acyc6
and kx3 (one corner, of dimension 3); UT2 over GF(5); kx3 in the rescaled
basis b'_i = c_i b_i, whose structure constants are not 1 and whose unit is
no basis vector; and UT2 in the sheared basis of ``build_examples.sheared``,
whose corner bases are not unit vectors; and k<x, y>/(x^2, y^2, yx), whose
one corner is not commutative.
"""

import json
import os
import random
import sys
from fractions import Fraction

import pytest

from build_examples import sheared, upper_triangular_2
from oracles import dense_algmat_product, dense_corner_error

from kbproj.algebra import AlgebraPresentation
from kbproj.fixture import load_fixture
from kbproj.homcat import (
    AlgMat,
    GradedMap,
    HomcatError,
    MapLayout,
    ProjComplex,
    cone,
    identity_map,
)
from kbproj.linalg import GF, QQ

BENCH = os.path.join(os.path.dirname(__file__), "..", "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import families  # noqa: E402

FIXDIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def _fixture_algebra(fixture, name):
    return lambda: load_fixture(os.path.join(FIXDIR, f"{fixture}.json")).algebras[name]


def _from_entry(name, entry):
    return AlgebraPresentation(QQ, entry["basis"], entry["structure"], entry["unit"],
                               entry["idempotents"], entry.get("idempotent_names"), name=name)


def _family(label):
    fam = label.rstrip("0123456789")
    return families.build_algebra(fam, int(label[len(fam):])).to_json()


def rescaled(entry, scales):
    """The algebra entry in the basis b'_i = scales[i] * b_i: old coordinates
    v become v_i / scales[i], and b'_i b'_j = sum_m c_i c_j s_ij^m / c_m b'_m."""
    c = [Fraction(x) for x in scales]

    def new(v):
        return [str(Fraction(x) / c[m]) for m, x in enumerate(v)]

    def product(i, j, cell):
        return [str(c[i] * c[j] * Fraction(x) / c[m]) for m, x in enumerate(cell)]

    return dict(entry, structure=[[product(i, j, cell) for j, cell in enumerate(row)]
                                  for i, row in enumerate(entry["structure"])],
                unit=new(entry["unit"]), idempotents=[new(e) for e in entry["idempotents"]])


def local_noncommutative():
    """k<x, y>/(x^2, y^2, yx), basis 1, x, y, xy: one corner, of dimension 4,
    on which x . y = xy but y . x = 0."""
    basis = ["1", "x", "y", "xy"]
    words = {"": 0, "x": 1, "y": 2, "xy": 3}
    structure = []
    for u in ("", "x", "y", "xy"):
        row = []
        for t in ("", "x", "y", "xy"):
            cell = ["0"] * 4
            if u + t in words:
                cell[words[u + t]] = "1"
            row.append(cell)
        structure.append(row)
    return AlgebraPresentation(QQ, basis, structure, ["1", "0", "0", "0"],
                               [["1", "0", "0", "0"]], name="kxy")


def _ut2_entry():
    with open(os.path.join(FIXDIR, "corner.json")) as fh:
        return json.load(fh)["algebras"]["UT2"]


ALGEBRAS = {
    "UT2": _fixture_algebra("corner", "UT2"),
    "k": _fixture_algebra("corner", "k"),
    "kxk": _fixture_algebra("split", "kxk"),
    "Q2": _fixture_algebra("two_cycle", "Q2"),
    **{label: (lambda label=label: _from_entry(label, _family(label)))
       for label in ("UT5", "Alin8", "Acyc6", "kx3")},
    "UT2/GF5": lambda: upper_triangular_2(GF(5)),
    "kx3-rescaled": lambda: _from_entry("kx3'", rescaled(_family("kx3"), [3, "1/2", -5])),
    "UT2-sheared": lambda: _from_entry("UT2'", sheared(_ut2_entry())),
    "kxy": local_noncommutative,
}


# -- random summand matrices and their dense entries ---------------------------


def _scalar(ring, rng):
    return ring.from_int(rng.randint(-3, 3))


def corner_element(alg, i, j, rng):
    """A random element of e_i R e_j, as a full algebra vector."""
    v = alg.zero_vec()
    for row in alg.corner_space(i, j).rows:
        v = alg.add_vec(v, alg.scale_vec(_scalar(alg.ring, rng), row))
    return v


def summands(alg, rng):
    return tuple(rng.randrange(alg.n_idempotents()) for _ in range(rng.randint(1, 3)))


def random_entries(alg, target, source, rng):
    """{(r, c): entry} with each entry a random corner element, some of them zero."""
    return {(r, c): corner_element(alg, i, j, rng) if rng.random() < 0.8 else alg.zero_vec()
            for r, i in enumerate(target) for c, j in enumerate(source)}


def nonzero(entries):
    return {k: tuple(v) for k, v in entries.items() if any(v)}


def dense(m):
    return dict(m.nonzero_entries())


def dense_lincomb(alg, a, b, sign):
    out = dict(a)
    for k, v in b.items():
        v = alg.scale_vec(sign, v)
        out[k] = alg.add_vec(out[k], v) if k in out else v
    return nonzero(out)


def dense_identity(alg, idems):
    return nonzero({(r, r): alg.idempotent_vec(i) for r, i in enumerate(idems)})


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_arithmetic_matches_the_dense_oracle(label):
    alg = ALGEBRAS[label]()
    ring, rng = alg.ring, random.Random(7)
    minus = ring.neg(ring.one)
    for _ in range(15):
        T, M, S = (summands(alg, rng) for _ in range(3))
        a, a2 = nonzero(random_entries(alg, T, M, rng)), nonzero(random_entries(alg, T, M, rng))
        b = nonzero(random_entries(alg, M, S, rng))
        A, A2, B = AlgMat(alg, T, M, a), AlgMat(alg, T, M, a2), AlgMat(alg, M, S, b)
        assert dense(A) == a and dense(B) == b
        assert dense(A + A2) == dense_lincomb(alg, a, a2, ring.one)
        assert dense(A - A2) == dense_lincomb(alg, a, a2, minus)
        assert dense(A.neg()) == nonzero({k: alg.scale_vec(minus, v) for k, v in a.items()})
        c = _scalar(ring, rng)
        assert dense(A.scale(c)) == nonzero({k: alg.scale_vec(c, v) for k, v in a.items()})
        assert (A - A).is_zero() and (A + A.neg()).is_zero()
        assert dense(A @ B) == dense_algmat_product(alg, a, b)
        assert dense((A + A2) @ B) == dense_algmat_product(
            alg, dense_lincomb(alg, a, a2, ring.one), b)
        assert dense(AlgMat.identity(alg, T)) == dense_identity(alg, T)
        assert AlgMat.identity(alg, T) @ A == A == A @ AlgMat.identity(alg, M)


def two_term_complex(alg, rng, name):
    """P^-1 -> P^0 with a random differential (two terms: d^2 = 0)."""
    lo, hi = summands(alg, rng), summands(alg, rng)
    d = AlgMat(alg, hi, lo, random_entries(alg, hi, lo, rng))
    return ProjComplex(alg, {-1: lo, 0: hi}, {-1: d}, name=name)


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_cone_maps_match_the_dense_oracle(label):
    alg = ALGEBRAS[label]()
    ring, rng = alg.ring, random.Random(11)
    minus = ring.neg(ring.one)
    for t in range(4):
        X = two_term_complex(alg, rng, f"X{t}")
        phi = identity_map(X).scale(ring.from_int(rng.randint(1, 3)))
        C, incl, proj = cone(phi)
        for n in C.degrees():
            nx = len(X.summands_at(n + 1))
            got_incl, got_proj = (dense(f.components[n]) if n in f.components else {}
                                  for f in (incl, proj))
            assert got_incl == {(nx + r, r): e for (r, _), e in
                                dense_identity(alg, X.summands_at(n)).items()}
            assert got_proj == dense_identity(alg, X.summands_at(n + 1))
        # C^-2 = X^-1 -> C^-1 = X^0 (+) Y^-1 is [-d_X; phi^-1], and
        # C^-1 -> C^0 = Y^0 is [phi^0, d_Y], where Y = X
        d, nx = dense(X.diff[-1]), len(X.summands_at(0))
        want = {k: alg.scale_vec(minus, v) for k, v in d.items()}
        want.update({(nx + r, c): v for (r, c), v in dense(phi.components[-1]).items()})
        assert dense(C.diff[-2]) == want
        want = dense(phi.components[0])
        want.update({(r, nx + c): v for (r, c), v in d.items()})
        assert dense(C.diff[-1]) == want


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_pack_and_unpack_match_the_dense_oracle(label):
    alg = ALGEBRAS[label]()
    ring, rng = alg.ring, random.Random(13)
    for t in range(3):
        X, Y = two_term_complex(alg, rng, f"X{t}"), two_term_complex(alg, rng, f"Y{t}")
        for s in (-1, 0, 1):
            comps = {n: random_entries(alg, Y.summands_at(n + s), X.summands_at(n), rng)
                     for n in X.degrees() if Y.summands_at(n + s)}
            g = GradedMap(X, Y, s, {n: AlgMat(alg, Y.summands_at(n + s), X.summands_at(n), e)
                                    for n, e in comps.items()})
            L = MapLayout(X, Y, s)
            v = L.pack(g)
            for n, r, c, corner, off in L.slots:
                entry = comps.get(n, {}).get((r, c), alg.zero_vec())
                assert v[off:off + corner.dim] == corner.coords_of(entry)
            assert L.unpack(v) == g
            w = [_scalar(ring, rng) for _ in range(L.dim)]
            h = L.unpack(w)
            for n, r, c, corner, off in L.slots:
                want = alg.combine(zip(w[off:off + corner.dim], corner.rows))
                got = dense(h.components[n]).get((r, c)) if n in h.components else None
                assert got == (want if any(want) else None)
            assert L.pack(h) == w


@pytest.mark.parametrize("label", sorted(ALGEBRAS))
def test_checking_constructor_refuses_exactly_the_oracles_entries(label):
    alg = ALGEBRAS[label]()
    ring, rng, n = alg.ring, random.Random(17), alg.n_idempotents()
    refused = 0
    for _ in range(40):
        T, S = summands(alg, rng), summands(alg, rng)
        entries = {}
        for r, i in enumerate(T):
            for c, j in enumerate(S):
                kind = rng.randrange(4)
                if kind == 0:
                    entries[(r, c)] = alg.zero_vec()
                elif kind == 1:
                    entries[(r, c)] = corner_element(alg, i, j, rng)
                elif kind == 2:     # an element of some corner, maybe another one
                    entries[(r, c)] = corner_element(alg, rng.randrange(n), rng.randrange(n), rng)
                else:
                    entries[(r, c)] = tuple(_scalar(ring, rng) for _ in range(alg.dim))
        want = dense_corner_error(alg, T, S, entries)
        if want is None:
            assert dense(AlgMat(alg, T, S, entries)) == nonzero(entries)
        else:
            refused += 1
            with pytest.raises(HomcatError) as exc:
                AlgMat(alg, T, S, entries)
            assert str(exc.value) == want
    proper = any(alg.corner_space(i, j).dim < alg.dim for i in range(n) for j in range(n))
    assert refused or not proper
