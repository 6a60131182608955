"""Exact linear algebra over the rationals, prime fields, and Laurent rings.

All arithmetic is exact: an integral rational is an ``int`` and any other is
a ``fractions.Fraction``, prime-field elements are ints in ``[0, p)``,
Laurent polynomials are dicts from integer exponent vectors to ``Fraction``
coefficients.  No floating point anywhere.

Conventions
-----------
* A ``Mat`` of shape (nrows, ncols) represents a linear map acting on the
  right of row vectors when used as an operator: ``image = v * M``.
* A ``Mat`` stores only its nonzero entries, as a dict ``{(i, j): v}``,
  whatever its density.  ``Mat.from_rows`` takes the width and checks every
  row against it, so an empty row list is a 0 x ncols matrix.
* ``solve(A, b)`` solves ``A @ x = b`` (column unknowns) and ``solve_left``
  solves ``x @ A = b``; each returns one solution, or None when there is
  none.  ``left_kernel(A)`` is the subspace {v : v @ A = 0}: the one way to
  ask for a kernel.
* There is one sparse row form, {column: nonzero entry}, and every
  elimination is ``_reduce``, Gauss-Jordan on such rows.  ``solve``, ``rank``
  and ``left_kernel`` read them from the matrix's entry dict, ``rref_rows``
  from dense spanning vectors.
* A ``Subspace`` stores only its reduced echelon basis {pivot: sparse row},
  so equal subspaces store equal bases, and grows through ``span_with``;
  its ``rows`` are a dense view of the basis, built on first read.
* Quotients V/S are taken in one basis: ``S.completion()``, the unit vectors
  at S's non-pivot coordinates.  ``S.quotient_coords(v)`` gives the
  coordinates of v + S in it (reduce v, keep the non-pivot entries); every
  quotient algebra and preimage uses this pair.
* Maps that keep S induce maps on S and on V/S, in the coordinates of
  ``coords_of`` and ``quotient_coords``: ``S.restrict(maps)`` and
  ``S.project(maps)`` build the action of every sub, quotient, tensor and
  corner module.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class LinalgError(ValueError):
    """Raised for shape mismatches, non-field division, malformed scalars."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Rationals:
    """The field of rational numbers: an integral element is an ``int``, any
    other a ``Fraction``, and every operation returns an element in that form."""

    kind = "rational"
    is_field = True

    zero = 0
    one = 1

    # the int-or-Fraction test is written out in add, sub and mul, the
    # innermost calls of the engine: a helper call would double its cost
    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero in QQ")
        c = Fraction(a, b)
        return c if c.denominator != 1 else c.numerator

    def inv(self, a):
        return self.div(self.one, a)

    def from_int(self, n: int):
        return index(n)

    def parse(self, s):
        if isinstance(s, bool):
            raise LinalgError("boolean is not a rational scalar")
        if isinstance(s, int):
            return int(s)
        if isinstance(s, str):
            try:
                # plain integer text, by far the most common, skips Fraction
                if s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
                    return int(s)
                s = Fraction(s)
            except (ValueError, ZeroDivisionError) as exc:
                raise LinalgError(f"cannot parse rational scalar {s!r}") from exc
        if isinstance(s, Fraction):
            return s if s.denominator != 1 else s.numerator
        raise LinalgError(f"cannot parse rational scalar {s!r}")

    def fmt(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")


QQ = Rationals()


class PrimeField:
    """The field with p elements; elements are ints in [0, p)."""

    kind = "prime"
    is_field = True

    _cache: Dict[int, "PrimeField"] = {}

    def __new__(cls, p: int):
        if p in cls._cache:
            return cls._cache[p]
        if not _is_prime(p):
            raise LinalgError(f"{p} is not prime")
        self = super().__new__(cls)
        self.p = p
        self.zero = 0
        self.one = 1 % p
        cls._cache[p] = self
        return self

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"division by zero in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def from_int(self, n: int):
        return n % self.p

    def parse(self, s):
        if isinstance(s, bool):
            raise LinalgError("boolean is not a prime-field scalar")
        if isinstance(s, int):
            return s % self.p
        if isinstance(s, str):
            try:
                # allow "a/b" with invertible b
                num, slash, den = s.partition("/")
                return self.div(int(num), int(den)) if slash else int(s) % self.p
            except (ValueError, ZeroDivisionError) as exc:
                raise LinalgError(f"cannot parse GF({self.p}) scalar {s!r}") from exc
        raise LinalgError(f"cannot parse GF({self.p}) scalar {s!r}")

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"


def GF(p: int) -> PrimeField:
    return PrimeField(p)


class LaurentPoly:
    """A Laurent polynomial: dict from integer exponent tuples to Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Tuple[int, ...], Fraction]):
        self.terms = {e: c for e, c in terms.items() if c != 0}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms):
            bits.append(f"{self.terms[exps]}*x^{list(exps)}")
        return " + ".join(bits)


class LaurentRing:
    """Multivariate Laurent polynomials over QQ.  Not a field: no rref/solve."""

    kind = "laurent"
    is_field = False

    def __init__(self, names: Sequence[str]):
        if not names:
            raise LinalgError("Laurent ring needs at least one variable")
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.zero = LaurentPoly({})
        self.one = LaurentPoly({(0,) * self.nvars: Fraction(1)})

    def monomial(self, exps: Sequence[int], coeff=Fraction(1)) -> LaurentPoly:
        if len(exps) != self.nvars:
            raise LinalgError("exponent vector length mismatch")
        return LaurentPoly({tuple(int(e) for e in exps): Fraction(coeff)})

    def add(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(terms)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a: LaurentPoly) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in a.terms.items()})

    def mul(self, a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
        terms: Dict[Tuple[int, ...], Fraction] = {}
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
        return LaurentPoly(terms)

    def from_int(self, n: int) -> LaurentPoly:
        return LaurentPoly({(0,) * self.nvars: Fraction(n)})

    def parse(self, s) -> LaurentPoly:
        """Parse a term list [[exps, coeff], ...]; ints/strs become constants."""
        if isinstance(s, LaurentPoly):
            return s
        if isinstance(s, bool):
            raise LinalgError("boolean is not a Laurent scalar")
        if isinstance(s, int):
            return self.from_int(s)
        if isinstance(s, str):
            return LaurentPoly({(0,) * self.nvars: Fraction(s)})
        if isinstance(s, (list, tuple)):
            terms: Dict[Tuple[int, ...], Fraction] = {}
            for item in s:
                if not (isinstance(item, (list, tuple)) and len(item) == 2):
                    raise LinalgError(f"Laurent term must be [exps, coeff]: {item!r}")
                exps, coeff = item
                if len(exps) != self.nvars:
                    raise LinalgError(
                        f"Laurent term exponent vector {exps!r} has wrong length"
                    )
                e = tuple(int(x) for x in exps)
                terms[e] = terms.get(e, Fraction(0)) + Fraction(str(coeff))
            return LaurentPoly(terms)
        raise LinalgError(f"cannot parse Laurent scalar {s!r}")

    def fmt(self, a: LaurentPoly):
        return [[list(e), str(c)] for e, c in sorted(a.terms.items())]

    def __repr__(self):
        return f"Laurent({','.join(self.names)})"

    def __eq__(self, other):
        return isinstance(other, LaurentRing) and self.names == other.names

    def __hash__(self):
        return hash(("laurent", self.names))


class Mat:
    """Immutable exact matrix over a ring.

    The one storage is a dict ``{(i, j): v}`` of the nonzero entries; an
    entry missing from it is ``ring.zero``.  No zero is ever stored, so a
    matrix is zero exactly when the dict is empty, and two matrices are
    equal exactly when their dicts are.

    ``from_rows(ring, rows, ncols)`` takes the width from the caller and
    checks every row against it, so an empty row list is a 0 x ncols matrix.
    """

    __slots__ = ("ring", "nrows", "ncols", "_items")

    def __init__(self, ring, nrows, ncols, items: Dict[Tuple[int, int], object]):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._items = items

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, ring, rows: Sequence[Sequence], ncols: int) -> "Mat":
        items = {}
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise LinalgError(f"row {i} has {len(r)} entries, expected {ncols}")
            for j, v in enumerate(r):
                if v:
                    items[(i, j)] = v
        return cls(ring, len(rows), ncols, items)

    @classmethod
    def from_entries(cls, ring, nrows, ncols, items: Dict[Tuple[int, int], object]) -> "Mat":
        return cls(ring, nrows, ncols, {k: v for k, v in items.items() if v})

    @classmethod
    def zeros(cls, ring, nrows, ncols) -> "Mat":
        return cls(ring, nrows, ncols, {})

    @classmethod
    def identity(cls, ring, n) -> "Mat":
        return cls(ring, n, n, {(i, i): ring.one for i in range(n)})

    @classmethod
    def lincomb(cls, ring, nrows, ncols, terms: Iterable[Tuple[object, "Mat"]]) -> "Mat":
        """Sum of c * m over the (c, m) pairs, accumulated in one dict."""
        items: Dict[Tuple[int, int], object] = {}
        for c, m in terms:
            for k, v in m._items.items():
                prod = ring.mul(v, c)
                items[k] = ring.add(items[k], prod) if k in items else prod
        return cls.from_entries(ring, nrows, ncols, items)

    # -- access -------------------------------------------------------

    def entry(self, i, j):
        return self._items.get((i, j), self.ring.zero)

    def row(self, i) -> List:
        r = [self.ring.zero] * self.ncols
        for (a, b), v in self._items.items():
            if a == i:
                r[b] = v
        return r

    def rows(self) -> List[List]:
        zero = self.ring.zero
        out = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self._items.items():
            out[i][j] = v
        return out

    def items(self) -> Iterable[Tuple[int, int, object]]:
        for (i, j), v in self._items.items():
            yield (i, j, v)

    def is_zero(self) -> bool:
        return not self._items

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other):
        if self.ring != other.ring or self.nrows != other.nrows or self.ncols != other.ncols:
            raise LinalgError("matrix shape/ring mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        items = dict(self._items)
        ring = self.ring
        for k, v in other._items.items():
            items[k] = ring.add(items.get(k, ring.zero), v)
        return Mat.from_entries(ring, self.nrows, self.ncols, items)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.neg()

    def neg(self) -> "Mat":
        ring = self.ring
        return Mat.from_entries(
            ring, self.nrows, self.ncols, {k: ring.neg(v) for k, v in self._items.items()}
        )

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ring != other.ring or self.ncols != other.nrows:
            raise LinalgError("matrix product shape mismatch")
        ring = self.ring
        items: Dict[Tuple[int, int], object] = {}
        other_rows: Dict[int, List[Tuple[int, object]]] = {}
        for (k, j), v in other._items.items():
            other_rows.setdefault(k, []).append((j, v))
        for (i, k), a in self._items.items():
            for j, b in other_rows.get(k, ()):
                key = (i, j)
                prod = ring.mul(a, b)
                if key in items:
                    items[key] = ring.add(items[key], prod)
                else:
                    items[key] = prod
        return Mat.from_entries(ring, self.nrows, other.ncols, items)

    def transpose(self) -> "Mat":
        return Mat(self.ring, self.ncols, self.nrows,
                   {(j, i): v for (i, j), v in self._items.items()})

    def row_apply(self, v: Sequence) -> List:
        """Return v * self for a row vector v of length nrows."""
        if len(v) != self.nrows:
            raise LinalgError("row vector length mismatch")
        ring = self.ring
        out = [ring.zero] * self.ncols
        for (i, j), a in self._items.items():
            if v[i]:
                out[j] = ring.add(out[j], ring.mul(v[i], a))
        return out

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._items == other._items
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, frozenset(self._items)))

    def __repr__(self):
        return f"Mat({self.ring}, {self.nrows}x{self.ncols})"


def hstack(mats: Sequence[Mat]) -> Mat:
    ring = mats[0].ring
    nrows = mats[0].nrows
    items = {}
    off = 0
    for m in mats:
        if m.nrows != nrows or m.ring != ring:
            raise LinalgError("hstack mismatch")
        for i, j, v in m.items():
            items[(i, j + off)] = v
        off += m.ncols
    return Mat.from_entries(ring, nrows, off, items)


def _require_field(ring):
    if not getattr(ring, "is_field", False):
        raise LinalgError(f"operation requires a field, got {ring!r}")


def _reduce(ring, rows: Iterable[Dict[int, object]], stop: Optional[int] = None):
    """Gauss-Jordan elimination on sparse rows {column: nonzero entry}, which
    it consumes.  Each row is cleared at the pivots so far and, if not zero,
    scaled to 1 at its first column, which is cleared from the earlier pivot
    rows.  Returns {pivot column: row}, the reduced echelon form (unique, so
    that of dense elimination), or None at a pivot at or past ``stop``."""
    _require_field(ring)
    zero, one, sub, mul = ring.zero, ring.one, ring.sub, ring.mul

    def take(v, f, row):
        # v -= f * row, keeping only the nonzero entries
        for j, y in row.items():
            x = sub(v.get(j, zero), mul(f, y))
            if x:
                v[j] = x
            else:
                del v[j]

    basis: Dict[int, Dict] = {}
    for v in rows:
        # a pivot row is zero at the other pivots, so v keeps its pivot columns
        for p in (basis.keys() & v.keys() if basis else ()):
            take(v, v[p], basis[p])
        if v:
            q = min(v)
            if stop is not None and q >= stop:
                return None
            if v[q] != one:
                inv = ring.inv(v[q])
                v = {j: mul(inv, x) for j, x in v.items()}
            for row in basis.values():
                if q in row:
                    take(row, row[q], v)
            basis[q] = v
    return basis


def rref_rows(ring, rows: Iterable[Sequence],
              start: Iterable[Dict[int, object]] = ()) -> Dict[int, Dict[int, object]]:
    """The reduced echelon basis {pivot: sparse row}, in pivot order, of the
    span of the sparse rows ``start`` and the dense ``rows``: the one step from
    spanning vectors to a ``Subspace`` basis.  ``start`` goes to ``_reduce``
    first; reduced rows, as a basis's are, cost it no elimination steps."""
    sparse = [dict(row) for row in start]
    sparse += [{j: x for j, x in enumerate(r) if x} for r in rows]
    basis = _reduce(ring, sparse)
    return basis if len(basis) < 2 else {p: basis[p] for p in sorted(basis)}


def rank(A: Mat) -> int:
    """Rank of A, eliminating its rows or its columns, whichever are fewer."""
    lines: Dict[int, Dict[int, object]] = {}
    for k, v in A._items.items():
        i, j = k if A.nrows <= A.ncols else k[::-1]
        lines.setdefault(i, {})[j] = v
    return len(_reduce(A.ring, lines.values()))


class Subspace:
    """A subspace of ring^ambient, stored as its reduced echelon basis {pivot: sparse row}."""

    __slots__ = ("ring", "ambient", "_basis", "_rows")

    def __init__(self, ring, ambient: int, basis: Dict[int, Dict[int, object]]):
        self.ring = ring
        self.ambient = ambient
        self._basis = basis
        self._rows = None

    @classmethod
    def from_spanning(cls, ring, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        return cls.zero(ring, ambient).span_with(vectors)

    @classmethod
    def zero(cls, ring, ambient: int) -> "Subspace":
        return cls(ring, ambient, {})

    @classmethod
    def full(cls, ring, ambient: int) -> "Subspace":
        return cls(ring, ambient, {j: {j: ring.one} for j in range(ambient)})

    @property
    def rows(self) -> Tuple[Tuple, ...]:
        # two threads that race here build equal tuples; either may be kept
        if self._rows is None:
            zero, n = self.ring.zero, self.ambient
            rows = []
            for row in self._basis.values():
                r = [zero] * n
                for j, x in row.items():
                    r[j] = x
                rows.append(tuple(r))
            self._rows = tuple(rows)
        return self._rows

    @property
    def pivots(self) -> Tuple[int, ...]:
        return tuple(self._basis)

    @property
    def dim(self) -> int:
        return len(self._basis)

    def span_with(self, vectors: Sequence[Sequence]) -> "Subspace":
        """The span of self and the dense ``vectors``."""
        for v in vectors:
            if len(v) != self.ambient:
                raise LinalgError("spanning vector has wrong length")
        if not any(map(any, vectors)):
            return self
        return Subspace(self.ring, self.ambient,
                        rref_rows(self.ring, vectors, self._basis.values()))

    def reduce(self, vec: Sequence) -> List:
        """Eliminate pivot coordinates of vec; residual is the canonical coset rep."""
        v = list(vec)
        if len(v) != self.ambient:
            raise LinalgError("vector length mismatch")
        sub, mul = self.ring.sub, self.ring.mul
        # a basis row is zero at the other pivots, so they clear in any order
        for p, row in self._basis.items():
            c = v[p]
            if c:
                for j, y in row.items():
                    v[j] = sub(v[j], mul(c, y))
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def coords_of(self, vec: Sequence) -> List:
        """Coefficients of vec in the canonical basis: its pivot entries."""
        if any(self.reduce(vec)):
            raise LinalgError("vector is not in the subspace")
        return [vec[p] for p in self._basis]

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        # c = (a | b) with a*V + b*W = 0; intersection is spanned by a*V.
        ker = left_kernel(Mat.from_rows(self.ring, self.rows + other.rows, self.ambient))
        V = Mat.from_rows(self.ring, self.rows, self.ambient)
        vecs = [V.row_apply(kv[: self.dim]) for kv in ker.rows]
        return Subspace.from_spanning(self.ring, self.ambient, vecs)

    def completion(self) -> List[List]:
        """Unit vectors at non-pivot coordinates: coset reps completing the basis."""
        zero, one, n = self.ring.zero, self.ring.one, self.ambient
        return [[zero] * j + [one] + [zero] * (n - 1 - j) for j in range(n) if j not in self._basis]

    def quotient_coords(self, vec: Sequence) -> List:
        """Coordinates of vec + self in the basis ``completion()`` of ambient/self.

        The reduced vector is zero at the pivots, so its non-pivot entries are
        the coefficients c with vec - sum c[k] completion()[k] in self.
        """
        v = self.reduce(vec)
        for p in reversed(self._basis):
            del v[p]
        return v

    def restrict(self, maps: Iterable[Mat]) -> List[Mat]:
        """The maps induced on self: row k of each is the ``coords_of`` of
        rows[k] @ m.  Raises ``LinalgError`` unless every map keeps self."""
        return [Mat.from_rows(self.ring, [self.coords_of(m.row_apply(r)) for r in self.rows],
                              self.dim) for m in maps]

    def project(self, maps: Sequence[Mat]) -> List[Mat]:
        """The maps induced on ambient/self: row k of each is the
        ``quotient_coords`` of completion()[k] @ m.  Raises ``LinalgError``
        unless every map keeps self: each basis row's image reduces to zero."""
        if not all(self.contains(m.row_apply(r)) for m in maps for r in self.rows):
            raise LinalgError("map does not keep the subspace")
        return [Mat.from_rows(self.ring, [self.quotient_coords(row) for j, row in
                                          enumerate(m.rows()) if j not in self._basis],
                              self.ambient - self.dim) for m in maps]

    def quotient_reps(self, within: "Subspace") -> List[Tuple]:
        """Coset representatives of within/self, for self inside within."""
        vecs = [self.reduce(r) for r in within.rows]
        return list(Subspace.from_spanning(self.ring, self.ambient, vecs).rows)

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(other.contains(r) for r in self.rows)

    def _check_compat(self, other):
        if self.ring != other.ring or self.ambient != other.ambient:
            raise LinalgError("subspace ambient/ring mismatch")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.ambient == other.ambient
            and self._basis == other._basis
        )

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def solve(A: Mat, b: Mat) -> Optional[Mat]:
    """Solve A @ x = b exactly: one solution x (free unknowns zero), or None
    when a pivot of [A | b] falls in b's columns, which is inconsistency."""
    ring = A.ring
    if b.nrows != A.nrows or b.ring != ring:
        raise LinalgError("solve: right-hand side shape mismatch")
    n = A.ncols
    rows: List[Dict[int, object]] = [{} for _ in range(A.nrows)]
    for (i, j), v in A._items.items():
        rows[i][j] = v
    for (i, j), v in b._items.items():
        rows[i][n + j] = v
    basis = _reduce(ring, rows, stop=n)
    if basis is None:
        return None
    x = Mat(ring, n, b.ncols, {(p, j - n): v for p, row in basis.items()
                               for j, v in row.items() if j >= n})
    # exactness invariant: residual must vanish identically (no zero is
    # stored, so A @ x equals b exactly when their entry dicts agree)
    if A @ x != b:
        raise LinalgError("internal error: nonzero solve residual")
    return x


def solve_left(A: Mat, b: Mat) -> Optional[Mat]:
    """Solve x @ A = b exactly: one solution x, or None when inconsistent."""
    xt = solve(A.transpose(), b.transpose())
    return None if xt is None else xt.transpose()


def left_kernel(A: Mat) -> Subspace:
    """The left null space {v : v @ A = 0}, a subspace of ring^nrows.

    A's columns are reduced in reversed coordinates, so a pivot row's other
    entries sit at free coordinates before its pivot: the kernel vector of a
    free f starts at f, and these vectors are the reduced basis as they are."""
    ring = A.ring
    n = A.nrows
    last = n - 1
    cols: List[Dict[int, object]] = [{} for _ in range(A.ncols)]
    for (i, j), v in A._items.items():
        cols[j][last - i] = v
    basis = _reduce(ring, cols)
    rows = {f: {f: ring.one} for f in range(n) if last - f not in basis}
    for q, row in basis.items():
        for k, x in row.items():
            if k != q:
                rows[last - k][last - q] = ring.neg(x)
    return Subspace(ring, n, rows)
