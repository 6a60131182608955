"""Fixture generator for the algebra-families workload.

Builds monomial algebras from quivers, in plain Python with exact
``Fraction`` arithmetic and no import of ``kbproj``, so the known answers
below are independent of the engine under test:

* ``UT``   upper-triangular n x n matrices (the path algebra of the linear
           quiver 1 -> ... -> n without relations);
* ``Alin`` the linear quiver with rad^2 = 0;
* ``Acyc`` the cyclic quiver on n vertices with rad^2 = 0;
* ``kx``   the truncated polynomial ring k[x]/(x^n).

Each fixture carries the corner map R -> k onto the first vertex, a
``check-hepi`` task on it, and ``recognize-triangle`` tasks on the mapping
cone triangle (and its rotation) of a seeded random chain map between two
projective stalks.  Conventions follow
``docs/format.md``: paths compose left to right, the vertex ``e_v``
satisfies ``e_v p = p`` exactly when ``p`` starts at ``v``, and a summand
matrix entry from ``e_s R`` to ``e_t R`` lies in ``e_t R e_s``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

# Known answers for check-hepi on the corner map R -> k.  Tor_0 is always k.
#   UT_n, linear A_n: pd of the simple at the source vertex is finite and
#       no projective in its resolution has that vertex on top -> certified.
#   k[x]/(x^n): the resolution of k is periodic with every term R, so
#       Tor_i = 1 for every i -> refuted.
#   cyclic A_n (rad^2 = 0): the resolution walks round the cycle, so
#       Tor_i = 1 exactly when n divides i -> refuted.


def known_tor(family: str, n: int, max_degree: int) -> List[int]:
    """Tor_i^R(k, k) for i = 0..max_degree along the corner map."""
    if family in ("UT", "Alin"):
        return [1] + [0] * max_degree
    if family == "kx":
        return [1] * (max_degree + 1)
    if family == "Acyc":
        return [1 if i % n == 0 else 0 for i in range(max_degree + 1)]
    raise ValueError(f"unknown family {family!r}")


def known_verdict(family: str, n: int, max_degree: int) -> str:
    if family in ("UT", "Alin"):
        return "certified"
    if family == "Acyc" and n > max_degree:
        return "inconclusive"      # Tor vanishes below n, the resolution never ends
    return "refuted"


class Monomial:
    """A monomial algebra: basis paths (start, end, word) closed under the
    relations, with product = concatenation when the result is a basis path."""

    def __init__(self, name: str, n_vertices: int,
                 paths: Sequence[Tuple[str, int, int, Tuple]]):
        self.name = name
        self.n_vertices = n_vertices
        self.names = [p[0] for p in paths]
        self.paths = [(s, e, w) for _, s, e, w in paths]
        self.dim = len(paths)
        self.index = {(s, e, w): i for i, (s, e, w) in enumerate(self.paths)}
        self.vertex = [self.index[(v, v, ())] for v in range(n_vertices)]

    def product(self, i: int, j: int):
        """Basis index of b_i b_j, or None when the product is zero."""
        s1, e1, w1 = self.paths[i]
        s2, e2, w2 = self.paths[j]
        if e1 != s2:
            return None
        return self.index.get((s1, e2, w1 + w2))

    def mult(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> List[Fraction]:
        out = [Fraction(0)] * self.dim
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        k = self.product(i, j)
                        if k is not None:
                            out[k] += a * b
        return out

    def corner_basis(self, t: int, s: int) -> List[int]:
        """Basis indices spanning e_t R e_s (paths from t to s)."""
        return [i for i, (a, b, _) in enumerate(self.paths) if a == t and b == s]

    def unit_vec(self, i: int) -> List[Fraction]:
        v = [Fraction(0)] * self.dim
        v[i] = Fraction(1)
        return v

    def to_json(self) -> Dict:
        def vec(v):
            return [str(c) for c in v]
        structure = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                k = self.product(i, j)
                row.append(vec(self.unit_vec(k)) if k is not None
                           else ["0"] * self.dim)
            structure.append(row)
        unit = [Fraction(0)] * self.dim
        for v in self.vertex:
            unit[v] = Fraction(1)
        return {
            "basis": list(self.names),
            "structure": structure,
            "unit": vec(unit),
            "idempotents": [vec(self.unit_vec(v)) for v in self.vertex],
            "idempotent_names": [f"v{v + 1}" for v in range(self.n_vertices)],
        }


def build_algebra(family: str, n: int) -> Monomial:
    """The n-th member of a family (n >= 2)."""
    if n < 2:
        raise ValueError("family members start at n = 2")
    paths = []
    if family == "UT":
        for i in range(n):
            for j in range(i, n):
                paths.append((f"e{i + 1}_{j + 1}", i, j, tuple(range(i, j))))
        return Monomial(f"UT{n}", n, paths)
    if family in ("Alin", "Acyc"):
        for v in range(n):
            paths.append((f"e{v + 1}", v, v, ()))
        n_arrows = n - 1 if family == "Alin" else n
        for a in range(n_arrows):
            paths.append((f"a{a + 1}", a, (a + 1) % n, (a,)))
        return Monomial(f"{family}{n}", n, paths)
    if family == "kx":
        for k in range(n):
            paths.append(("1" if k == 0 else f"x{k}", 0, 0, (0,) * k))
        return Monomial(f"kx{n}", 1, paths)
    raise ValueError(f"unknown family {family!r}")


# -- complexes and chain maps, plain Python --------------------------------
#
# A complex is {"summands": {deg: [idem, ...]}, "diff": {deg: entries}} with
# entries[r][c] an algebra vector from summand c of degree deg to summand r
# of degree deg + 1.  A degree-0 map is {deg: entries}.


def _zero(alg: Monomial) -> List[Fraction]:
    return [Fraction(0)] * alg.dim


def _summ(X: Dict, n: int) -> List[int]:
    return X["summands"].get(n, [])


def _diff(alg: Monomial, X: Dict, n: int) -> List[List]:
    if n in X["diff"]:
        return X["diff"][n]
    return [[_zero(alg) for _ in _summ(X, n)] for _ in _summ(X, n + 1)]


def _matmul(alg: Monomial, A: List[List], B: List[List], rows: int,
            cols: int) -> List[List]:
    """Entries of A after B (A's source = B's target)."""
    out = []
    for r in range(rows):
        row = []
        for c in range(cols):
            acc = _zero(alg)
            for m in range(len(B)):
                p = alg.mult(A[r][m], B[m][c])
                acc = [x + y for x, y in zip(acc, p)]
            row.append(acc)
        out.append(row)
    return out


def _degrees(X: Dict) -> List[int]:
    return sorted(X["summands"])


def _nullspace(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Basis of {x : row . x = 0 for every row}, by plain elimination."""
    work = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = 1 / work[r][c]
        work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, p in zip(work, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def random_chain_map(alg: Monomial, X: Dict, Y: Dict,
                     rng: random.Random) -> Dict[int, List[List]]:
    """A seeded random element of the space of degree-0 chain maps X -> Y."""
    slots = []    # (degree, row, col, basis index) -> one unknown each
    for n in _degrees(X):
        for r, t in enumerate(_summ(Y, n)):
            for c, s in enumerate(_summ(X, n)):
                for b in alg.corner_basis(t, s):
                    slots.append((n, r, c, b))

    def unpack(coords):
        comps = {n: [[_zero(alg) for _ in _summ(X, n)] for _ in _summ(Y, n)]
                 for n in _degrees(X)}
        for (n, r, c, b), x in zip(slots, coords):
            comps[n][r][c][b] += x
        return comps

    def delta(comps):
        # d_Y f - f d_X, flattened over every degree, row, column, coordinate
        flat = []
        for n in _degrees(X):
            rows, cols = len(_summ(Y, n + 1)), len(_summ(X, n))
            fn = comps.get(n, [])
            fn1 = comps.get(n + 1, [[_zero(alg) for _ in _summ(X, n + 1)]
                                    for _ in _summ(Y, n + 1)])
            a = _matmul(alg, _diff(alg, Y, n), fn, rows, cols)
            b = _matmul(alg, fn1, _diff(alg, X, n), rows, cols)
            for ra, rb in zip(a, b):
                for va, vb in zip(ra, rb):
                    flat.extend(x - y for x, y in zip(va, vb))
        return flat

    columns = [delta(unpack([Fraction(int(k == t)) for k in range(len(slots))]))
               for t in range(len(slots))]
    equations = [list(col) for col in zip(*columns)] if columns else []
    basis = _nullspace(equations, len(slots))
    coords = [Fraction(0)] * len(slots)
    for v in basis:
        # nonzero, so a one-dimensional Hom never yields the zero map
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        coords = [x + k * y for x, y in zip(coords, v)]
    return unpack(coords)


def cone_triangle(alg: Monomial, X: Dict, Y: Dict, phi: Dict):
    """(C, incl: Y -> C, proj: C -> X[1]) with the engine's sign conventions:
    C^n = X^(n+1) (+) Y^n and d_C = [[-d_X, 0], [phi, d_Y]]."""
    degs = sorted({n - 1 for n in _degrees(X)} | set(_degrees(Y)))
    summ = {}
    for n in degs:
        s = _summ(X, n + 1) + _summ(Y, n)
        if s:
            summ[n] = s
    diff = {}
    for n in sorted(summ):
        if n + 1 not in summ:
            continue
        xs, ys = _summ(X, n + 1), _summ(Y, n)
        xt, yt = _summ(X, n + 2), _summ(Y, n + 1)
        dX, dY = _diff(alg, X, n + 1), _diff(alg, Y, n)
        ph = phi.get(n + 1, [[_zero(alg) for _ in xs] for _ in yt])
        ents = []
        for r in range(len(xt)):
            ents.append([[-x for x in dX[r][c]] for c in range(len(xs))]
                        + [_zero(alg) for _ in ys])
        for r in range(len(yt)):
            ents.append([ph[r][c] for c in range(len(xs))]
                        + [dY[r][c] for c in range(len(ys))])
        diff[n] = ents
    C = {"summands": summ, "diff": diff}
    incl = {}
    for n in _degrees(Y):
        xs, ys = _summ(X, n + 1), _summ(Y, n)
        ents = [[_zero(alg) for _ in ys] for _ in xs]
        ents += [[alg.unit_vec(alg.vertex[i]) if c == r else _zero(alg)
                  for c in range(len(ys))] for r, i in enumerate(ys)]
        incl[n] = ents
    proj = {}
    for n in sorted(summ):
        xs, ys = _summ(X, n + 1), _summ(Y, n)
        if xs:
            proj[n] = [[alg.unit_vec(alg.vertex[i]) if c == r else _zero(alg)
                        for c in range(len(xs))] + [_zero(alg) for _ in ys]
                       for r, i in enumerate(xs)]
    return C, incl, proj


def _vec_json(v):
    return [str(c) for c in v]


def _complex_json(alg: Monomial, X: Dict) -> Dict:
    return {
        "algebra": alg.name,
        "summands": {str(n): list(s) for n, s in sorted(X["summands"].items())},
        "diff": {str(n): [[_vec_json(e) for e in row] for row in ents]
                 for n, ents in sorted(X["diff"].items())},
    }


def _map_json(source: str, target: str, comps: Dict, shift: int = 0,
              sign: int = 1) -> Dict:
    return {
        "source": source, "target": target,
        "components": {str(n - shift): [[_vec_json([sign * c for c in e])
                                          for e in row] for row in ents]
                       for n, ents in sorted(comps.items())
                       if any(c for row in ents for e in row for c in e)},
    }


def _pair(alg: Monomial) -> Tuple[Dict, Dict]:
    """The (source, target) objects of the triangle map: the stalk P_2 at the
    end of the first arrow a out of vertex 1 (P_1 itself for k[x]/(x^n)) and
    the stalk P_1.  The cone of a map P_2 -> P_1 is a two-term complex, the
    source of the rotated triangle's third map.  The pair is fixed per
    algebra, so only the coefficients depend on the seed and the work per
    task does not swing between seeds.  Maps into two-term complexes are
    left out: their Hom spaces make homcat the main cost, which is what the
    triangle-sweep workload measures."""
    arrow = next(i for i, (s, _, w) in enumerate(alg.paths)
                 if len(w) == 1 and s == 0)
    end = alg.paths[arrow][1]
    return {"summands": {0: [end]}, "diff": {}}, {"summands": {0: [0]}, "diff": {}}


def family_fixture(family: str, n: int, max_degree: int, seed: int) -> Dict:
    """Fixture JSON for one family member: the corner hepi check, and the cone
    triangle of a map P_2 -> P_1 drawn from ``seed`` and its rotation."""
    alg = build_algebra(family, n)
    rng = random.Random(f"{seed}:{family}:{n}")
    X, Y = _pair(alg)
    phi = random_chain_map(alg, X, Y, rng)
    C, incl, proj = cone_triangle(alg, X, Y, phi)
    complexes = {"X": _complex_json(alg, X), "Y": _complex_json(alg, Y),
                 "C": _complex_json(alg, C)}
    maps = {"phi": _map_json("X", "Y", phi),
            "incl": _map_json("Y", "C", incl),
            "proj": _map_json("C", "X[1]", proj),
            "rot": _map_json("X[1]", "Y[1]", phi, shift=1, sign=-1)}
    triangles = {"cone": {"alpha": "phi", "beta": "incl", "gamma": "proj"},
                 "cone-rot": {"alpha": "incl", "beta": "proj", "gamma": "rot"}}
    tasks = [{"id": "hepi-corner", "command": "check-hepi", "map": "corner",
              "max_degree": max_degree},
             {"id": "tri", "command": "recognize-triangle", "name": "cone"},
             {"id": "tri-rot", "command": "recognize-triangle",
              "name": "cone-rot"}]
    images = [["1"] if i == alg.vertex[0] else ["0"] for i in range(alg.dim)]
    return {
        "format_version": 1,
        "field": "QQ",
        "algebras": {
            alg.name: alg.to_json(),
            "k": {"basis": ["1"], "structure": [[["1"]]], "unit": ["1"],
                  "idempotents": [["1"]], "idempotent_names": ["1"]},
        },
        "ring_maps": {"corner": {"source": alg.name, "target": "k",
                                 "images": images}},
        "complexes": complexes,
        "maps": maps,
        "triangles": triangles,
        "tasks": tasks,
    }
