"""Bounded complexes of projective summands and their homotopy category.

Objects are complexes of finite direct sums of the modules e_i R attached to
the algebra's idempotent list.  Maps between such summands are given by left
multiplication with corner elements, so a map of sums is a matrix of algebra
elements; composition is matrix product over the algebra.

Grading and signs, fixed once here and used everywhere:
  * differentials raise degree by one and square to zero;
  * (shift X)^n = X^(n+1) with differential -d, and no sign on shifted maps;
  * cone(phi)^n = X^(n+1) (+) Y^n with differential [[-d_X, 0], [phi, d_Y]];
  * a degree-s family f has delta(f) = d_Y . f - (-1)^s f . d_X, chain maps
    are the degree-0 kernel and nullhomotopic maps the image of degree -1;
  * triangle rotation sends (a, b, c) to (b, c, -shift(a)).

Linear algebra on maps happens in field coordinates: a ``MapLayout`` gives
each (degree, target summand, source summand) slot the coordinates of its
corner space.  The operators the engine solves with, delta, g -> F . g and
g -> g . F, are assembled block by block by ``operator_matrix``: each nonzero
entry of F (or of a differential) connects one input slot to one output slot
through the algebra's cached corner multiplication table, so no graded map
is built per column.  ``HomSpace`` builds only its degree 0 and -1 layouts
up front; the operators, cycles, boundaries and class representatives are
computed on first use, so a nullhomotopy test costs the two operators next
to degree 0 and one solve, and a contractibility test only the degree -1
operator.  Triangle recognition assembles five operators for one solve: an
exact triangle builds one ``HomSpace``, for the cone of its comparison map,
and only one with no comparison map two more, to test its composites.

A component a graded map does not store, a differential a complex does not
store, or an entry a summand matrix does not store is zero, and arithmetic
skips it.  Every reader of a graded map goes through ``components.get``, so
``delta``, ``compose``, sums, differences, equality, the d^2 check of
``ProjComplex`` and ``MapLayout.pack`` build no zero matrix to add, multiply
or read.  An ``AlgMat`` keeps only its nonzero entries, as full algebra
vectors keyed by (row, column): a product pairs only the stored entries of a
row and a column, packing and operator assembly visit only stored entries,
and ``is_zero`` asks whether any is stored.  Neither stores a zero, so two
maps are equal exactly when their degrees, component dicts and endpoints are.

Two complexes are equal when they have the same algebra, the same summands
and the same differentials, an absent differential counting as zero.
``ProjComplex.__eq__`` is the one complex-equality rule: every endpoint check
here (sums, composition, layouts, operators, contractions and the legs of a
triangle) asks it, so a map may sit on any equal copy of its endpoints, and
one whose endpoints merely share summands with the expected ones is refused.

``GradedMap.is_chain_map`` is the one chain-map test: ``chain_map``,
``cone``, triangle recognition and certificate replay, the lifting checks
and fixture loading all ask it.  A map keeps its verdict after the first ask.

``cone(phi)`` stores (C, incl, proj) on phi once phi passes its degree-0
chain-map check, and a repeat call returns that triple; a map that fails
the check stores nothing and raises on every call.  Maps are never changed
after construction, so a stored cone cannot go stale.  A certificate decoded
from JSON brings new map objects, so its comparison map gets a fresh cone
and its contraction a fresh check.

Corner support and summand indices are checked where summand matrices enter
the engine: the public ``AlgMat(...)`` constructor, which fixture loading,
certificate decoding, functor images and the derived and almost layers go
through; ``ProjComplex`` checks its summand indices too.  Internal arithmetic
builds with ``AlgMat._trusted``, private to this module, and skips the check:
sums, products, scalings, blocks, slices and unpacked coordinates are made of
entries already on their corners, idempotents or combinations of corner-basis
rows, so it could never fail there, and at two algebra products per entry it
cost more than the arithmetic itself.
Block summand matrices are assembled only by ``AlgMat.block``, which checks
that each block fits its row and column summands, and cut only by
``AlgMat.sub``: cones, direct sums, contraction slices and lifting's block
sums all go through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import AlgebraPresentation
from .linalg import Mat, Subspace, hstack, left_kernel, solve_left, vstack


class HomcatError(ValueError):
    """Ill-formed complexes, maps, or certificates."""


class AlgMat:
    """A matrix of algebra elements: a map of projective sums.

    Rows index target summands, columns source summands; the entry at (r, c)
    lies in e_{target[r]} R e_{source[c]} and acts by left multiplication.
    Only nonzero entries are stored, keyed by (r, c); other modules read them
    through ``nonzero_entries()``.

    ``AlgMat(...)`` takes a grid of rows or a dict {(r, c): entry} and checks
    the shape, the idempotent indices and that every nonzero entry lies on its
    corner, at two algebra products per entry (a zero entry is dropped
    unchecked), so data from outside the engine goes through it.  Internal
    arithmetic builds through ``_trusted``, which skips the checks (see the
    module docstring for why that is safe).
    """

    __slots__ = ("alg", "target_idems", "source_idems", "_nz", "_lin")

    def __init__(self, alg: AlgebraPresentation, target_idems: Sequence[int],
                 source_idems: Sequence[int], entries):
        self.alg = alg
        self.target_idems = _checked_idems(alg, target_idems, "target summand")
        self.source_idems = _checked_idems(alg, source_idems, "source summand")
        rows, cols = range(len(self.target_idems)), range(len(self.source_idems))
        if not isinstance(entries, dict):
            if len(entries) != len(rows) or any(len(row) != len(cols) for row in entries):
                raise HomcatError("entry rows and columns do not match the summands")
            entries = {(r, c): a for r, row in enumerate(entries) for c, a in enumerate(row)}
        if any(r not in rows or c not in cols for r, c in entries):
            raise HomcatError("entry key outside the rows and columns of the summands")
        nz = {}
        for (r, c), a in entries.items():
            a = tuple(a)
            if len(a) != alg.dim:
                raise HomcatError(f"entry ({r},{c}) has {len(a)} coordinates, not {alg.dim}")
            if not any(a):
                continue    # dropped: zero lies on every corner
            ei = alg.idempotent_vec(self.target_idems[r])
            ej = alg.idempotent_vec(self.source_idems[c])
            if alg.mult(ei, a) != a or alg.mult(a, ej) != a:
                raise HomcatError(
                    f"entry ({r},{c}) is not supported on the corner "
                    f"{alg.idempotent_names[self.target_idems[r]]}"
                    f"*R*{alg.idempotent_names[self.source_idems[c]]}"
                )
            nz[(r, c)] = a
        self._nz = nz
        self._lin = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _trusted(cls, alg, target_idems, source_idems, nz) -> "AlgMat":
        """No checks: ``nz`` maps (r, c) to nonzero entry tuples on their corners."""
        m = object.__new__(cls)
        m.alg = alg
        m.target_idems = tuple(target_idems)
        m.source_idems = tuple(source_idems)
        m._nz = nz
        m._lin = None
        return m

    @classmethod
    def zeros(cls, alg, target_idems, source_idems) -> "AlgMat":
        return cls._trusted(alg, target_idems, source_idems, {})

    @classmethod
    def identity(cls, alg, idems) -> "AlgMat":
        ents = {(r, r): e for r, e in enumerate(map(alg.idempotent_vec, idems)) if any(e)}
        return cls._trusted(alg, idems, idems, ents)

    @classmethod
    def block(cls, alg, row_idems: Sequence[Tuple[int, ...]],
              col_idems: Sequence[Tuple[int, ...]],
              blocks: Sequence[Sequence[Optional["AlgMat"]]]) -> "AlgMat":
        """The block matrix of a grid of summand matrices; ``None`` is a zero block.

        Block (i, j) maps the summand tuple ``col_idems[j]`` to ``row_idems[i]``;
        the result's summands are the concatenations.
        """
        if len(blocks) != len(row_idems) or any(len(g) != len(col_idems) for g in blocks):
            raise HomcatError("block grid does not match the row and column summands")
        nz = {}
        r0 = 0
        for t, grid_row in zip(row_idems, blocks):
            c0 = 0
            for b, s in zip(grid_row, col_idems):
                if b is not None:
                    if b.alg != alg or b.target_idems != t or b.source_idems != s:
                        raise HomcatError("block does not fit its row and column summands")
                    for (r, c), a in b._nz.items():
                        nz[(r0 + r, c0 + c)] = a
                c0 += len(s)
            r0 += len(t)
        return cls._trusted(alg, sum(row_idems, ()), sum(col_idems, ()), nz)

    def sub(self, rows: slice, cols: slice) -> "AlgMat":
        """The block of the target summands ``rows`` and source summands ``cols``."""
        r0, r1, _ = rows.indices(len(self.target_idems))
        c0, c1, _ = cols.indices(len(self.source_idems))
        return AlgMat._trusted(self.alg, self.target_idems[rows], self.source_idems[cols],
                               {(r - r0, c - c0): a for (r, c), a in self._nz.items()
                                if r0 <= r < r1 and c0 <= c < c1})

    def nonzero_entries(self):
        """The ((r, c), entry) pairs of the nonzero entries."""
        return self._nz.items()

    # -- arithmetic --------------------------------------------------------

    def _check_shape(self, other: "AlgMat"):
        if (self.alg != other.alg or self.target_idems != other.target_idems
                or self.source_idems != other.source_idems):
            raise HomcatError("summand mismatch in matrix arithmetic")

    def __add__(self, other: "AlgMat") -> "AlgMat":
        self._check_shape(other)
        add, nz = self.alg.ring.add, dict(self._nz)
        for k, b in other._nz.items():
            nz[k] = tuple(map(add, nz[k], b)) if k in nz else b
        return AlgMat._trusted(self.alg, self.target_idems, self.source_idems,
                               {k: v for k, v in nz.items() if any(v)})

    def __sub__(self, other: "AlgMat") -> "AlgMat":
        self._check_shape(other)
        ring, nz = self.alg.ring, dict(self._nz)
        for k, b in other._nz.items():
            nz[k] = tuple(map(ring.sub, nz[k], b)) if k in nz else tuple(map(ring.neg, b))
        return AlgMat._trusted(self.alg, self.target_idems, self.source_idems,
                               {k: v for k, v in nz.items() if any(v)})

    def neg(self) -> "AlgMat":
        neg = self.alg.ring.neg
        return AlgMat._trusted(self.alg, self.target_idems, self.source_idems,
                               {k: tuple(map(neg, a)) for k, a in self._nz.items()})

    def scale(self, c) -> "AlgMat":
        if not c:
            return AlgMat.zeros(self.alg, self.target_idems, self.source_idems)
        return AlgMat._trusted(self.alg, self.target_idems, self.source_idems,
                               {k: self.alg.scale_vec(c, a) for k, a in self._nz.items()})

    def __matmul__(self, other: "AlgMat") -> "AlgMat":
        """Composition: self after other (other's source is the composite source).

        As in Gustavson's sparse product, entry (r, k) meets only row k of other."""
        if self.alg != other.alg or self.source_idems != other.target_idems:
            raise HomcatError("summand mismatch in composition")
        alg = self.alg
        right: Dict[int, List] = {}
        for (k, c), b in other._nz.items():
            right.setdefault(k, []).append((c, b))
        nz: Dict[Tuple[int, int], Tuple] = {}
        for (r, k), a in self._nz.items():
            for c, b in right.get(k, ()):
                p = alg.mult(a, b)
                key = (r, c)
                nz[key] = alg.add_vec(nz[key], p) if key in nz else p
        return AlgMat._trusted(alg, self.target_idems, other.source_idems,
                               {k: v for k, v in nz.items() if any(v)})

    def is_zero(self) -> bool:
        return not self._nz

    def __eq__(self, other):
        if not isinstance(other, AlgMat):
            return NotImplemented
        return (self.alg == other.alg and self.target_idems == other.target_idems
                and self.source_idems == other.source_idems and self._nz == other._nz)

    __hash__ = None

    def linearize(self) -> Mat:
        """Underlying field-linear map on row vectors, source dim x target dim."""
        if self._lin is None:
            alg = self.alg
            src = [alg.right_ideal_space(j) for j in self.source_idems]
            tgt = [alg.right_ideal_space(i) for i in self.target_idems]
            row_off = [0, *accumulate(s.dim for s in src)]
            col_off = [0, *accumulate(s.dim for s in tgt)]
            items = {}
            for (r, c), a in self._nz.items():
                for t, v in enumerate(src[c].rows):
                    for w, x in enumerate(tgt[r].coords_of(alg.mult(a, v))):
                        items[(row_off[c] + t, col_off[r] + w)] = x
            self._lin = Mat.from_entries(alg.ring, row_off[-1], col_off[-1], items)
        return self._lin

    def __repr__(self):
        return f"AlgMat({len(self.target_idems)}x{len(self.source_idems)} over {self.alg.name})"


def _checked_idems(alg, idems: Sequence[int], what: str) -> Tuple[int, ...]:
    """The summand indices as a tuple, each an idempotent index 0..n-1."""
    n = alg.n_idempotents()
    for i in idems:
        if type(i) is not int or not 0 <= i < n:
            raise HomcatError(f"{what} index {i!r} is not an idempotent index 0..{n - 1}")
    return tuple(idems)


class ProjComplex:
    """A bounded complex of projective summands."""

    def __init__(self, alg: AlgebraPresentation, summands: Dict[int, Sequence[int]],
                 diff: Dict[int, AlgMat], name: str = "X"):
        self.alg = alg
        self.summands = {n: _checked_idems(alg, s, f"{name}: degree {n} summand")
                         for n, s in summands.items() if len(s) > 0}
        self.name = name
        degs = sorted(self.summands)
        self.lo = degs[0] if degs else None
        self.hi = degs[-1] if degs else None
        self.diff = {}
        for n, d in diff.items():
            if d is None or (n not in self.summands) or (n + 1 not in self.summands):
                continue
            self.diff[n] = d
        self._validate()

    def _validate(self):
        for n, d in self.diff.items():
            if d.alg != self.alg:
                raise HomcatError(f"{self.name}: differential over wrong algebra")
            if d.source_idems != self.summands[n] or d.target_idems != self.summands.get(n + 1, ()):
                raise HomcatError(f"{self.name}: differential at degree {n} has wrong summands")
        for n in self.summands:
            dd = _product(self.diff.get(n + 1), self.diff.get(n))
            if dd is not None and not dd.is_zero():
                raise HomcatError(f"{self.name}: differential does not square to zero at {n}")

    def is_zero(self) -> bool:
        return not self.summands

    def degrees(self) -> List[int]:
        return sorted(self.summands)

    def summands_at(self, n: int) -> Tuple[int, ...]:
        return self.summands.get(n, ())

    def diff_at(self, n: int) -> AlgMat:
        if n in self.diff:
            return self.diff[n]
        return AlgMat.zeros(self.alg, self.summands_at(n + 1), self.summands_at(n))

    def shift(self, k: int = 1) -> "ProjComplex":
        """Translation by k: degree n picks up the old degree n + k, sign (-1)^k on d."""
        summands = {n - k: s for n, s in self.summands.items()}
        sign = self.alg.ring.one if k % 2 == 0 else self.alg.ring.neg(self.alg.ring.one)
        diff = {n - k: d.scale(sign) for n, d in self.diff.items()}
        return ProjComplex(self.alg, summands, diff, name=f"{self.name}[{k}]")

    def hard_truncate_ge(self, n: int) -> "ProjComplex":
        summands = {m: s for m, s in self.summands.items() if m >= n}
        diff = {m: d for m, d in self.diff.items() if m >= n}
        return ProjComplex(self.alg, summands, diff, name=f"{self.name}|>={n}")

    def hard_truncate_le(self, n: int) -> "ProjComplex":
        summands = {m: s for m, s in self.summands.items() if m <= n}
        diff = {m: d for m, d in self.diff.items() if m + 1 <= n}
        return ProjComplex(self.alg, summands, diff, name=f"{self.name}|<={n}")

    def __eq__(self, other):
        """Same algebra, summands and differentials; the name is not compared."""
        if self is other:
            return True
        if not isinstance(other, ProjComplex):
            return NotImplemented
        # an absent differential is zero: test the stored one, build no zero block
        return (self.alg == other.alg and self.summands == other.summands
                and all(d == other.diff[n] if n in other.diff else d.is_zero()
                        for n, d in self.diff.items())
                and all(n in self.diff or d.is_zero() for n, d in other.diff.items()))

    __hash__ = None

    def __repr__(self):
        parts = ", ".join(f"{n}:{list(s)}" for n, s in sorted(self.summands.items()))
        return f"ProjComplex({self.name}: {parts or 'zero'})"


def single_summand_complex(alg, idem: int, degree: int = 0, name: Optional[str] = None) -> ProjComplex:
    idem, = _checked_idems(alg, (idem,), "summand")
    nm = name or f"P({alg.idempotent_names[idem]})@{degree}"
    return ProjComplex(alg, {degree: (idem,)}, {}, name=nm)


def zero_complex(alg, name: str = "0") -> ProjComplex:
    return ProjComplex(alg, {}, {}, name=name)


class GradedMap:
    """A degree-s family of summand-matrix maps X^n -> Y^(n+s), no conditions."""

    def __init__(self, source: ProjComplex, target: ProjComplex, degree: int,
                 components: Dict[int, AlgMat], name: str = "f"):
        if source.alg != target.alg:
            raise HomcatError("map between complexes over different algebras")
        self.source = source
        self.target = target
        self.degree = degree
        self.name = name
        comps = {}
        for n, m in components.items():
            if m is None or m.is_zero():
                continue
            if m.source_idems != source.summands_at(n):
                raise HomcatError(f"{name}: component at {n} has wrong source summands")
            if m.target_idems != target.summands_at(n + degree):
                raise HomcatError(f"{name}: component at {n} has wrong target summands")
            comps[n] = m
        self.components = comps

    def is_zero(self) -> bool:
        return not self.components

    def _check_parallel(self, other: "GradedMap"):
        if (self.degree != other.degree or self.source != other.source
                or self.target != other.target):
            raise HomcatError("maps are not parallel")

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        comps = dict(self.components)
        for n, m in other.components.items():
            a = comps.get(n)
            comps[n] = m if a is None else a + m
        return GradedMap(self.source, self.target, self.degree, comps)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        comps = dict(self.components)
        for n, m in other.components.items():
            a = comps.get(n)
            comps[n] = m.neg() if a is None else a - m
        return GradedMap(self.source, self.target, self.degree, comps)

    def neg(self) -> "GradedMap":
        comps = {n: m.neg() for n, m in self.components.items()}
        return GradedMap(self.source, self.target, self.degree, comps, name=f"-{self.name}")

    def scale(self, c) -> "GradedMap":
        comps = {n: m.scale(c) for n, m in self.components.items()}
        return GradedMap(self.source, self.target, self.degree, comps)

    def compose(self, other: "GradedMap") -> "GradedMap":
        """self . other: apply other first.  Degrees add."""
        if other.target != self.source:
            raise HomcatError("composition endpoint mismatch")
        comps = {}
        for n in other.source.degrees():
            a = _product(self.components.get(n + other.degree), other.components.get(n))
            if a is not None:
                comps[n] = a
        return GradedMap(other.source, self.target, self.degree + other.degree, comps,
                         name=f"{self.name}.{other.name}")

    def delta(self) -> "GradedMap":
        """d_target . f - (-1)^deg f . d_source, one degree higher."""
        even = self.degree % 2 == 0
        f, d_x, d_y = self.components, self.source.diff, self.target.diff
        comps = {}
        for n in self.source.degrees():
            a = _product(d_y.get(n + self.degree), f.get(n))
            b = _product(f.get(n + 1), d_x.get(n))
            if b is None:
                m = a
            elif a is None:
                m = b.neg() if even else b
            else:
                m = a - b if even else a + b
            if m is not None:
                comps[n] = m
        return GradedMap(self.source, self.target, self.degree + 1, comps, name=f"delta({self.name})")

    def is_chain_map(self) -> bool:
        """Degree 0 and delta(f) = 0: the engine's only chain-map test, kept on the map."""
        if "_chain" not in self.__dict__:
            self.__dict__["_chain"] = self.degree == 0 and self.delta().is_zero()
        return self.__dict__["_chain"]

    def shift(self, k: int = 1) -> "GradedMap":
        comps = {n - k: m for n, m in self.components.items()}
        return GradedMap(self.source.shift(k), self.target.shift(k), self.degree, comps,
                         name=f"{self.name}[{k}]")

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        # exact: the constructor stores no zero component
        return (self.degree == other.degree and self.components == other.components
                and self.source == other.source and self.target == other.target)

    __hash__ = None

    def __repr__(self):
        return f"GradedMap({self.name}: {self.source.name} -> {self.target.name}, deg {self.degree})"


def _product(a: Optional[AlgMat], b: Optional[AlgMat]) -> Optional[AlgMat]:
    """a @ b, or None when either factor is an absent (zero) block."""
    return None if a is None or b is None else a @ b


def chain_map(source, target, components, name="f") -> GradedMap:
    """Validated degree-0 chain map."""
    f = GradedMap(source, target, 0, components, name=name)
    if not f.is_chain_map():
        raise HomcatError(f"{name}: does not commute with the differentials")
    return f


def identity_map(X: ProjComplex) -> GradedMap:
    comps = {n: AlgMat.identity(X.alg, X.summands_at(n)) for n in X.degrees()}
    return GradedMap(X, X, 0, comps, name=f"id_{X.name}")


def zero_map(X: ProjComplex, Y: ProjComplex, degree: int = 0) -> GradedMap:
    return GradedMap(X, Y, degree, {}, name="0")


def cone(phi: GradedMap) -> Tuple[ProjComplex, GradedMap, GradedMap]:
    """Mapping cone with its inclusion of the target and projection to shift(source).

    Returns (C, incl: Y -> C, proj: C -> X[1]).  The triple is stored on phi
    once phi passes the chain-map check, so a repeat call returns the same
    objects; a map that fails the check is not stored and raises every time.
    Concurrent first calls keep one triple.
    """
    built = phi.__dict__.get("_cone")
    if built is not None:
        return built
    if not phi.is_chain_map():
        raise HomcatError("cone needs a degree-0 chain map")
    X, Y = phi.source, phi.target
    SX = X.shift(1)
    C = _glued_sum(SX, Y, {n - 1: m for n, m in phi.components.items()},
                   f"cone({phi.name})")
    # inclusion of Y, (0, id), and projection to X[1], (x, y) -> x: the
    # columns of Y and the rows of X[1] in the identity of C
    incl_comps = {}
    proj_comps = {}
    for n, s in C.summands.items():
        ident = AlgMat.identity(X.alg, s)
        nx = len(SX.summands_at(n))
        incl_comps[n] = ident.sub(slice(None), slice(nx, None))
        proj_comps[n] = ident.sub(slice(nx), slice(None))
    incl = GradedMap(Y, C, 0, incl_comps, name=f"into_cone({phi.name})")
    proj = GradedMap(C, SX, 0, proj_comps, name=f"cone_to_shift({phi.name})")
    return phi.__dict__.setdefault("_cone", (C, incl, proj))


def direct_sum(X: ProjComplex, Y: ProjComplex, name: Optional[str] = None) -> ProjComplex:
    """Degreewise sum with block-diagonal differential (X summands first)."""
    if Y.alg != X.alg:
        raise HomcatError("direct sum of complexes over different algebras")
    return _glued_sum(X, Y, {}, name or f"{X.name}(+){Y.name}")


def _glued_sum(X: ProjComplex, Y: ProjComplex, glue: Dict[int, AlgMat],
               name: str) -> ProjComplex:
    """X (+) Y degreewise with differential [[d_X, 0], [glue, d_Y]].

    ``glue[n]`` maps X^n to Y^(n+1); a missing degree is zero.
    """
    summands = {n: X.summands_at(n) + Y.summands_at(n)
                for n in sorted(set(X.degrees()) | set(Y.degrees()))}
    diff = {n: AlgMat.block(X.alg, [X.summands_at(n + 1), Y.summands_at(n + 1)],
                            [X.summands_at(n), Y.summands_at(n)],
                            [[X.diff.get(n), None], [glue.get(n), Y.diff.get(n)]])
            for n in summands if n + 1 in summands}
    return ProjComplex(X.alg, summands, diff, name=name)


class MapLayout:
    """Field coordinates for the space of degree-s families X -> Y.

    One slot per (degree, target summand, source summand) with coordinates in
    the corresponding corner subspace; ``index`` maps (n, r, c) to the slot's
    offset.
    """

    def __init__(self, X: ProjComplex, Y: ProjComplex, degree: int):
        self.X = X
        self.Y = Y
        self.degree = degree
        self.alg = X.alg
        self.slots = []
        self.index = {}
        off = 0
        for n in X.degrees():
            m = n + degree
            ys = Y.summands_at(m)
            xs = X.summands_at(n)
            for r, i in enumerate(ys):
                for c, j in enumerate(xs):
                    corner = self.alg.corner_space(i, j)
                    if corner.dim:
                        self.slots.append((n, r, c, corner, off))
                        self.index[(n, r, c)] = off
                        off += corner.dim
        self.dim = off

    def pack(self, g: GradedMap) -> List:
        alg = self.alg
        if g.source != self.X or g.target != self.Y or g.degree != self.degree:
            raise HomcatError("map does not fit this layout")
        out = [alg.ring.zero] * self.dim
        # a nonzero entry lies on a nonzero corner, so it has a slot
        for n, m in g.components.items():
            for (r, c), a in m._nz.items():
                off = self.index[(n, r, c)]
                coords = alg.corner_space(m.target_idems[r], m.source_idems[c]).coords_of(a)
                out[off:off + len(coords)] = coords
        return out

    def unpack(self, coords: Sequence) -> GradedMap:
        alg = self.alg
        per_degree: Dict[int, Dict] = {}
        for n, r, c, corner, off in self.slots:
            cfs = coords[off:off + corner.dim]
            if any(cfs):
                per_degree.setdefault(n, {})[(r, c)] = alg.combine(
                    (cf, row) for cf, row in zip(cfs, corner.rows) if cf)
        comps = {n: AlgMat._trusted(alg, self.Y.summands_at(n + self.degree),
                                    self.X.summands_at(n), nz)
                 for n, nz in per_degree.items()}
        return GradedMap(self.X, self.Y, self.degree, comps)


def _entry_blocks(layout_in: MapLayout, layout_out: MapLayout, F: GradedMap, post: bool):
    """Yield (coords of a nonzero entry of F, table, input offset, output offset).

    Each item is one block of the operator: the input slot of g and the
    output slot of the composite that the entry of F connects, with the
    corner multiplication table relating them.
    """
    alg = layout_in.alg
    s = layout_in.degree
    for n, Fn in F.components.items():
        for (q, c), a in Fn._nz.items():
            i, j = Fn.target_idems[q], Fn.source_idems[c]
            f = alg.corner_space(i, j).coords_of(a)
            if post:
                # F . g: g^(n-s) lands on F's source summand c
                g_deg = n - s
                for x, l in enumerate(layout_in.X.summands_at(g_deg)):
                    off_in = layout_in.index.get((g_deg, c, x))
                    off_out = layout_out.index.get((g_deg, q, x))
                    if off_in is not None and off_out is not None:
                        yield f, alg.corner_mult_table(i, j, l), off_in, off_out
            else:
                # g . F: g^(n+deg F) leaves F's target summand q
                g_deg = n + F.degree
                for y, k in enumerate(layout_in.Y.summands_at(g_deg + s)):
                    off_in = layout_in.index.get((g_deg, y, q))
                    off_out = layout_out.index.get((n, y, c))
                    if off_in is not None and off_out is not None:
                        yield f, alg.corner_mult_table(k, i, j), off_in, off_out


def operator_matrix(layout_in: MapLayout, layout_out: MapLayout,
                    post: Optional[GradedMap] = None, pre: Optional[GradedMap] = None,
                    pre_sign=None) -> Mat:
    """Matrix (row convention) of g -> post . g + pre_sign * g . pre.

    Either term may be absent; pre_sign defaults to one.  The matrix is
    assembled block by block from the algebra's corner multiplication
    tables: row block of an input slot, column block of an output slot.
    """
    ring = layout_in.alg.ring
    X, Y, s = layout_in.X, layout_in.Y, layout_in.degree
    if post is not None and (
            post.source != Y or layout_out.X != X or layout_out.Y != post.target
            or layout_out.degree != s + post.degree):
        raise HomcatError("post-composition does not fit the layouts")
    if pre is not None and (
            pre.target != X or layout_out.X != pre.source or layout_out.Y != Y
            or layout_out.degree != s + pre.degree):
        raise HomcatError("pre-composition does not fit the layouts")
    items: Dict[Tuple[int, int], object] = {}

    def add(key, v):
        items[key] = ring.add(items[key], v) if key in items else v

    if post is not None:
        # F . g: entry coordinate u of F, input coordinate t, output w
        for f, T, off_in, off_out in _entry_blocks(layout_in, layout_out, post, True):
            for u, fu in enumerate(f):
                if fu:
                    for t, row in enumerate(T[u]):
                        for w, v in enumerate(row):
                            if v:
                                add((off_in + t, off_out + w), ring.mul(fu, v))
    if pre is not None:
        sign = ring.one if pre_sign is None else pre_sign
        # g . F: input coordinate u, entry coordinate t of F, output w
        for f, T, off_in, off_out in _entry_blocks(layout_in, layout_out, pre, False):
            for t, ft in enumerate(f):
                if ft:
                    ft = ring.mul(sign, ft)
                    for u, rows in enumerate(T):
                        for w, v in enumerate(rows[t]):
                            if v:
                                add((off_in + u, off_out + w), ring.mul(v, ft))
    return Mat.from_entries(ring, layout_in.dim, layout_out.dim, items)


def delta_matrix(layout_in: MapLayout, layout_out: MapLayout) -> Mat:
    """Matrix of delta(g) = d_Y . g - (-1)^s g . d_X on degree-s families."""
    X, Y = layout_in.X, layout_in.Y
    ring = X.alg.ring
    sign = ring.neg(ring.one) if layout_in.degree % 2 == 0 else ring.one
    return operator_matrix(layout_in, layout_out, post=GradedMap(Y, Y, 1, Y.diff),
                           pre=GradedMap(X, X, 1, X.diff), pre_sign=sign)


class HomSpace:
    """Chain maps X -> Y modulo homotopy, in explicit field coordinates.

    Only the degree 0 and -1 layouts are built up front.  The operators,
    cycles, boundaries and class representatives are computed on first use,
    so a nullhomotopy test costs two operators and one solve.  Class
    coordinates are taken a batch at a time by ``class_matrix``, with one
    chain-map check and one solve for the batch; ``class_coords`` is its
    batch of one.
    """

    def __init__(self, X: ProjComplex, Y: ProjComplex):
        self.X = X
        self.Y = Y
        self.ring = X.alg.ring
        self.L0 = MapLayout(X, Y, 0)
        self.Lm1 = MapLayout(X, Y, -1)

    @cached_property
    def L1(self) -> MapLayout:
        return MapLayout(self.X, self.Y, 1)

    @cached_property
    def D0(self) -> Mat:
        return delta_matrix(self.L0, self.L1)

    @cached_property
    def Dm1(self) -> Mat:
        return delta_matrix(self.Lm1, self.L0)

    @cached_property
    def boundaries(self) -> Subspace:
        if not self.Lm1.dim:
            return Subspace.zero(self.ring, self.L0.dim)
        return Subspace.from_spanning(self.ring, self.L0.dim, self.Dm1.rows())

    @cached_property
    def cycles(self) -> Subspace:
        cycles = left_kernel(self.D0) if self.L0.dim else Subspace.zero(self.ring, 0)
        if not self.boundaries.is_subspace_of(cycles):
            raise HomcatError("internal error: boundaries not inside cycles")
        return cycles

    @cached_property
    def reps(self) -> List[Tuple]:
        if not self.cycles.dim:
            return []
        return self.boundaries.quotient_reps(within=self.cycles)

    @cached_property
    def dim(self) -> int:
        return len(self.reps)

    def basis(self) -> List[GradedMap]:
        return [self.L0.unpack(r) for r in self.reps]

    def _cycle_coords(self, maps: Sequence[GradedMap]) -> Mat:
        """Coordinates of the maps, one row each; they must be chain maps (V . D0 = 0)."""
        V = Mat.from_rows(self.ring, [self.L0.pack(f) for f in maps], self.L0.dim)
        if not (V @ self.D0).is_zero():
            raise HomcatError("not a chain map")
        return V

    def class_matrix(self, maps: Sequence[GradedMap]) -> Mat:
        """Row i: coordinates of maps[i]'s homotopy class in the basis of representatives."""
        V = self._cycle_coords(maps)
        if not self.reps:
            return Mat.zeros(self.ring, V.nrows, 0)
        M = Mat.from_rows(self.ring, self.reps + list(self.boundaries.rows), self.L0.dim)
        x = solve_left(M, V)
        if x is None:
            raise HomcatError("internal error: cycle escaped its own span")
        return Mat.from_entries(self.ring, V.nrows, self.dim,
                                {(i, j): v for i, j, v in x.items() if j < self.dim})

    def class_coords(self, f: GradedMap) -> List:
        """Coordinates of f's homotopy class in the basis of representatives."""
        return self.class_matrix([f]).row(0)

    def is_nullhomotopic(self, f: GradedMap) -> Tuple[bool, Optional[GradedMap]]:
        """Decide f ~ 0; on success also return a homotopy h with delta(h) = f."""
        return self._homotopy(self._cycle_coords([f]).row(0))

    def _homotopy(self, v: List) -> Tuple[bool, Optional[GradedMap]]:
        """Solve delta(h) = v for the coordinates v of a chain map."""
        ring = self.ring
        if not any(v):
            return True, zero_map(self.X, self.Y, degree=-1)
        if self.Lm1.dim == 0:
            return False, None
        x = solve_left(self.Dm1, Mat.from_rows(ring, [v], self.L0.dim))
        if x is None:
            return False, None
        return True, self.Lm1.unpack(x.row(0))


def is_contractible(X: ProjComplex) -> Tuple[bool, Optional[GradedMap]]:
    """Decide nullhomotopy of the identity; the witness contracts the complex."""
    if X.is_zero():
        return True, zero_map(X, X, degree=-1)
    H = HomSpace(X, X)
    # the identity is a chain map, so only the degree -1 operator is needed
    return H._homotopy(H.L0.pack(identity_map(X)))


def verify_contraction(X: ProjComplex, h: GradedMap) -> bool:
    """Direct check that delta(h) = id, with no solving involved."""
    if h.degree != -1:
        return False
    want = identity_map(X)
    return (h.delta() - want).is_zero()


def is_homotopy_equivalence(phi: GradedMap) -> Tuple[bool, Optional[GradedMap]]:
    """Decide invertibility up to homotopy via contractibility of the cone."""
    C, _, _ = cone(phi)
    return is_contractible(C)


def homotopy_inverse_from_contraction(phi: GradedMap, h: GradedMap):
    """Extract an inverse and both homotopies from a contraction of cone(phi).

    Returns (inv, h_src, h_tgt) with delta(h_src) = id_X - inv . phi and
    delta(h_tgt) = id_Y - phi . inv.
    """
    X, Y = phi.source, phi.target
    C, _, _ = cone(phi)
    if h.source != C or h.target != C or h.degree != -1:
        raise HomcatError("not a contraction of the cone")
    inv_comps = {}
    a_comps = {}
    e_comps = {}
    # h^n: X^(n+1) (+) Y^n -> X^n (+) Y^(n-1)
    for n, m in sorted(h.components.items()):
        xs, xt = slice(len(X.summands_at(n + 1))), slice(len(X.summands_at(n)))
        ys, yt = slice(xs.stop, None), slice(xt.stop, None)
        inv_comps[n] = m.sub(xt, ys)
        a_comps[n + 1] = m.sub(xt, xs)
        e_comps[n] = m.sub(yt, ys)
    inv = GradedMap(Y, X, 0, inv_comps, name=f"inv({phi.name})")
    h_src = GradedMap(X, X, -1, a_comps).neg()
    h_tgt = GradedMap(Y, Y, -1, e_comps)
    return inv, h_src, h_tgt


@dataclass
class TriangleVerdict:
    """Outcome of triangle recognition, with a re-checkable certificate."""

    verdict: str                       # "exact" or "not_exact"
    reason: str
    rho: Optional[GradedMap] = None            # cone(alpha) -> Z comparison map
    h_incl: Optional[GradedMap] = None         # rho . incl ~ beta witness
    h_proj: Optional[GradedMap] = None         # gamma . rho ~ proj witness
    cone_contraction: Optional[GradedMap] = None  # contraction of cone(rho)


def rotate_triangle(alpha: GradedMap, beta: GradedMap, gamma: GradedMap):
    """(a, b, c) -> (b, c, -a[1])."""
    return beta, gamma, alpha.shift(1).neg()


def recognize_triangle(alpha: GradedMap, beta: GradedMap, gamma: GradedMap) -> TriangleVerdict:
    """Decide whether X -a-> Y -b-> Z -c-> X[1] is exact in the homotopy category.

    A comparison map rho: cone(a) -> Z with rho.incl ~ b and c.rho ~ proj is
    found by one combined linear solve; exactness then reduces to rho being
    an equivalence.  Any comparison map between two exact triangles over the
    identity on X and Y is automatically an equivalence, so a failed
    contraction refutes exactness just as a missing rho does.

    A comparison map makes b.a and c.b null (b.a ~ rho.incl.a ~ 0, c.b ~
    c.rho.incl ~ proj.incl = 0), so the composites are tested, in that order,
    only when no rho exists, to name the first that is not null.
    """
    X, Y = alpha.source, alpha.target
    Z = beta.target
    if beta.source != Y:
        raise HomcatError("triangle legs do not compose: target of first != source of second")
    if gamma.source != Z:
        raise HomcatError("triangle legs do not compose: target of second != source of third")
    SX = X.shift(1)
    if gamma.target != SX:
        raise HomcatError("third leg must land in the shifted first object")
    for leg, nm in ((alpha, "first"), (beta, "second"), (gamma, "third")):
        if not leg.is_chain_map():
            return TriangleVerdict("not_exact", f"{nm} leg is not a chain map")

    C, incl, proj = cone(alpha)
    ring = X.alg.ring
    L_cz0 = MapLayout(C, Z, 0)
    L_cz1 = MapLayout(C, Z, 1)
    L_yzm1 = MapLayout(Y, Z, -1)
    L_yz0 = MapLayout(Y, Z, 0)
    L_csxm1 = MapLayout(C, SX, -1)
    L_csx0 = MapLayout(C, SX, 0)

    D_chain = delta_matrix(L_cz0, L_cz1)
    C_incl = operator_matrix(L_cz0, L_yz0, pre=incl)
    C_gamma = operator_matrix(L_cz0, L_csx0, post=gamma)
    D_yz = delta_matrix(L_yzm1, L_yz0)
    D_csx = delta_matrix(L_csxm1, L_csx0)

    n0, n1, n2 = L_cz0.dim, L_yzm1.dim, L_csxm1.dim
    m0, m1, m2 = L_cz1.dim, L_yz0.dim, L_csx0.dim

    rhs = [ring.zero] * m0 + L_yz0.pack(beta) + L_csx0.pack(proj)
    if n0 + n1 + n2 == 0:
        sol = None if any(rhs) else []
    else:
        zero = Mat.zeros
        top = hstack([D_chain, C_incl, C_gamma])
        mid = hstack([zero(ring, n1, m0), D_yz.neg(), zero(ring, n1, m2)])
        bot = hstack([zero(ring, n2, m0), zero(ring, n2, m1), D_csx.neg()])
        M = vstack([top, mid, bot])
        x = solve_left(M, Mat.from_rows(ring, [rhs], m0 + m1 + m2))
        sol = None if x is None else x.row(0)
    if sol is None:
        if not HomSpace(X, Z).is_nullhomotopic(beta.compose(alpha))[0]:
            return TriangleVerdict("not_exact", "composite of the first two legs is not nullhomotopic")
        if not HomSpace(Y, SX).is_nullhomotopic(gamma.compose(beta))[0]:
            return TriangleVerdict("not_exact", "composite of the last two legs is not nullhomotopic")
        return TriangleVerdict("not_exact", "no comparison map from the cone exists")
    rho = L_cz0.unpack(sol[:n0])
    h_incl = L_yzm1.unpack(sol[n0:n0 + n1])
    h_proj = L_csxm1.unpack(sol[n0 + n1:])
    ok, contraction = is_homotopy_equivalence(rho)
    if not ok:
        return TriangleVerdict(
            "not_exact",
            "a comparison map from the cone exists but is not an equivalence",
            rho=rho, h_incl=h_incl, h_proj=h_proj,
        )
    return TriangleVerdict("exact", "cone comparison map is an equivalence",
                           rho=rho, h_incl=h_incl, h_proj=h_proj,
                           cone_contraction=contraction)


def verify_triangle_certificate(alpha: GradedMap, beta: GradedMap, gamma: GradedMap,
                                verdict: TriangleVerdict) -> bool:
    """Re-check an exactness certificate by direct arithmetic, no solving."""
    if verdict.verdict != "exact":
        return False
    if any(m is None for m in (verdict.rho, verdict.h_incl, verdict.h_proj,
                                verdict.cone_contraction)):
        return False
    _, incl, proj = cone(alpha)
    rho = verdict.rho
    if not rho.is_chain_map():
        return False
    if not (rho.compose(incl) - beta - verdict.h_incl.delta()).is_zero():
        return False
    if not (gamma.compose(rho) - proj - verdict.h_proj.delta()).is_zero():
        return False
    Crho, _, _ = cone(rho)
    return verify_contraction(Crho, verdict.cone_contraction)
