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
* ``solve(A, b)`` solves ``A @ x = b`` (column unknowns), per-column.
* ``Subspace`` bases are stored in reduced row echelon form, so two equal
  subspaces have identical bases.
* Quotients V/S are taken in one basis: ``S.completion()``, the unit vectors
  at S's non-pivot coordinates.  ``S.quotient_coords(v)`` gives the
  coordinates of v + S in it (reduce v, keep the non-pivot entries); every
  quotient module, algebra, tensor product and preimage uses this pair.
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
                return int(s) % self.p
            except ValueError:
                # allow "a/b" with invertible b
                if "/" in s:
                    num, den = s.split("/", 1)
                    return self.div(int(num) % self.p, int(den) % self.p)
                raise LinalgError(f"cannot parse GF({self.p}) scalar {s!r}")
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

    def scale(self, c) -> "Mat":
        ring = self.ring
        return Mat.from_entries(
            ring, self.nrows, self.ncols, {k: ring.mul(v, c) for k, v in self._items.items()}
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


def vstack(mats: Sequence[Mat]) -> Mat:
    ring = mats[0].ring
    ncols = mats[0].ncols
    items = {}
    off = 0
    for m in mats:
        if m.ncols != ncols or m.ring != ring:
            raise LinalgError("vstack mismatch")
        for i, j, v in m.items():
            items[(i + off, j)] = v
        off += m.nrows
    return Mat.from_entries(ring, off, ncols, items)


def _require_field(ring):
    if not getattr(ring, "is_field", False):
        raise LinalgError(f"operation requires a field, got {ring!r}")


def rref_rows(ring, rows: Sequence[Sequence]) -> Tuple[List[List], List[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    _require_field(ring)
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = ring.inv(work[r][c])
        work[r] = [ring.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(A: Mat) -> int:
    rows, _ = rref_rows(A.ring, A.rows())
    return len(rows)


class Subspace:
    """A subspace of ring^ambient with canonical RREF basis rows."""

    __slots__ = ("ring", "ambient", "rows", "pivots")

    def __init__(self, ring, ambient: int, rows: Sequence[Sequence], pivots: Sequence[int]):
        self.ring = ring
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_spanning(cls, ring, ambient: int, vectors: Sequence[Sequence]) -> "Subspace":
        _require_field(ring)
        for v in vectors:
            if len(v) != ambient:
                raise LinalgError("spanning vector has wrong length")
        rows, pivots = rref_rows(ring, vectors)
        return cls(ring, ambient, rows, pivots)

    @classmethod
    def zero(cls, ring, ambient: int) -> "Subspace":
        return cls(ring, ambient, [], [])

    @classmethod
    def full(cls, ring, ambient: int) -> "Subspace":
        return cls(ring, ambient, Mat.identity(ring, ambient).rows(), range(ambient))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence) -> List:
        """Eliminate pivot coordinates of vec; residual is the canonical coset rep."""
        ring = self.ring
        v = list(vec)
        if len(v) != self.ambient:
            raise LinalgError("vector length mismatch")
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [ring.sub(x, ring.mul(c, y)) for x, y in zip(v, row)]
        return v

    def contains(self, vec: Sequence) -> bool:
        return not any(self.reduce(vec))

    def coords_of(self, vec: Sequence) -> List:
        """Coefficients of vec in the canonical basis; vec must be a member."""
        ring = self.ring
        v = list(vec)
        coords = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coords.append(c)
            if c:
                v = [ring.sub(x, ring.mul(c, y)) for x, y in zip(v, row)]
        if any(v):
            raise LinalgError("vector is not in the subspace")
        return coords

    def sum_with(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace.from_spanning(self.ring, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ring, self.ambient)
        # c = (a | b) with a*V + b*W = 0; intersection is spanned by a*V.
        stacked = Mat.from_rows(self.ring, self.rows + other.rows, self.ambient)
        _, ker = solve(stacked.transpose(), Mat.zeros(self.ring, self.ambient, 1))
        V = Mat.from_rows(self.ring, self.rows, self.ambient)
        vecs = [V.row_apply(kv[: self.dim]) for kv in ker.rows]
        return Subspace.from_spanning(self.ring, self.ambient, vecs)

    def completion(self) -> List[List]:
        """Unit vectors at non-pivot coordinates: coset reps completing the basis."""
        ring = self.ring
        out = []
        pivset = set(self.pivots)
        for j in range(self.ambient):
            if j not in pivset:
                v = [ring.zero] * self.ambient
                v[j] = ring.one
                out.append(v)
        return out

    def quotient_coords(self, vec: Sequence) -> List:
        """Coordinates of vec + self in the basis ``completion()`` of ambient/self.

        The reduced vector is zero at the pivots, so its non-pivot entries are
        the coefficients c with vec - sum c[k] completion()[k] in self.
        """
        v = self.reduce(vec)
        for p in reversed(self.pivots):
            del v[p]
        return v

    def quotient_reps(self, within: "Subspace") -> List[List]:
        """Coset representatives of within/self, for self inside within."""
        vecs = [self.reduce(r) for r in within.rows]
        rows, _ = rref_rows(self.ring, vecs)
        return rows

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
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def solve(A: Mat, b: Mat) -> Tuple[Optional[Mat], Subspace]:
    """Solve A @ x = b exactly.

    Returns (x, kernel): x is None when inconsistent; kernel is the subspace
    {v : A @ v = 0} of ring^ncols (spans all homogeneous solutions).
    """
    _require_field(A.ring)
    ring = A.ring
    if b.nrows != A.nrows or b.ring != ring:
        raise LinalgError("solve: right-hand side shape mismatch")
    n = A.ncols
    aug = [ra + rb for ra, rb in zip(A.rows(), b.rows())]
    red, pivots = rref_rows(ring, aug)
    pivots_in_A = [p for p in pivots if p < n]
    inconsistent = any(p >= n for p in pivots)

    # kernel of A from the reduced rows restricted to A's columns
    pivset = set(pivots_in_A)
    free_cols = [j for j in range(n) if j not in pivset]
    ker_vecs = []
    arows = [r[:n] for r in red[: len(pivots_in_A)]]
    for f in free_cols:
        v = [ring.zero] * n
        v[f] = ring.one
        for row, p in zip(arows, pivots_in_A):
            v[p] = ring.neg(row[f])
        ker_vecs.append(v)
    kernel = Subspace.from_spanning(ring, n, ker_vecs)

    if inconsistent:
        return None, kernel

    x_rows = [[ring.zero] * b.ncols for _ in range(n)]
    for row, p in zip(red, pivots_in_A):
        x_rows[p] = row[n:]
    x = Mat.from_rows(ring, x_rows, b.ncols)
    # exactness invariant: residual must vanish identically
    if not (A @ x - b).is_zero():
        raise LinalgError("internal error: nonzero solve residual")
    return x, kernel


def solve_left(A: Mat, b: Mat) -> Tuple[Optional[Mat], Subspace]:
    """Solve x @ A = b; kernel is the left null space {v : v @ A = 0}."""
    xt, ker = solve(A.transpose(), b.transpose())
    return (None if xt is None else xt.transpose()), ker
