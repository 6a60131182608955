"""Finite-dimensional algebras given by structure constants, and their modules.

An algebra presentation carries a field, a basis, the multiplication table,
the unit, and a complete orthogonal idempotent list.  Everything is
validated up front; later layers may assume the axioms hold.  The dense
structure constants are read once into ``products[i][j]``, the nonzero
coordinates (m, c) of b_i b_j; only this module reads that table.

Module convention: module elements are row vectors, a right action matrix A_b
acts as ``m . b = m @ A_b``, so the action map b -> A_b is multiplicative.
Left actions (in bimodules) are stored the same way and are therefore
anti-multiplicative; validation checks exactly that.
"""

from __future__ import annotations

from functools import reduce
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import LinalgError, Mat, Subspace, hstack, left_kernel, rank


class AlgebraError(ValueError):
    """Violated algebra/module axioms or unusable inputs."""


class AlgebraPresentation:
    """A finite-dimensional unital algebra with a chosen idempotent system."""

    def __init__(
        self,
        ring,
        basis_names: Sequence[str],
        structure: Sequence[Sequence[Sequence]],
        unit: Sequence,
        idempotents: Sequence[Sequence],
        idempotent_names: Optional[Sequence[str]] = None,
        name: str = "A",
    ):
        self.ring = ring
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = dim = len(self.basis_names)
        if dim == 0:
            raise AlgebraError(f"{name}: empty basis")
        if len(structure) != dim or any(len(row) != dim or any(len(cell) != dim for cell in row)
                                        for row in structure):
            raise AlgebraError(f"{name}: structure table is not {dim}x{dim}x{dim}")

        def nonzero(cell):
            # "0", nearly every entry of a dense table, is skipped unparsed
            parsed = ((m, ring.parse(c)) for m, c in enumerate(cell) if c != "0")
            return tuple((m, c) for m, c in parsed if c)

        self.products = tuple(tuple(map(nonzero, row)) for row in structure)
        self.unit = tuple(ring.parse(c) for c in unit)
        self.idempotents = tuple(tuple(ring.parse(c) for c in e) for e in idempotents)
        if idempotent_names is None:
            idempotent_names = [f"e{k}" for k in range(len(self.idempotents))]
        self.idempotent_names = tuple(idempotent_names)
        self._corner_cache: Dict[Tuple[int, int], Subspace] = {}
        self._corner_mult_cache: Dict[Tuple[int, int, int], Tuple] = {}
        self._right_ideal_cache: Dict[int, Subspace] = {}
        # projective_module by summand tuple, projective_radical by ("rad", *tuple),
        # radical by "radical" and almost.standard_modules by "samples";
        # concurrent first calls may both build, and setdefault keeps one result
        self._built: Dict[object, object] = {}
        self._validate()

    # -- element arithmetic --------------------------------------------

    def zero_vec(self) -> Tuple:
        return tuple([self.ring.zero] * self.dim)

    def basis_vec(self, i: int) -> Tuple:
        v = [self.ring.zero] * self.dim
        v[i] = self.ring.one
        return tuple(v)

    def mult(self, x: Sequence, y: Sequence) -> Tuple:
        ring = self.ring
        out = [ring.zero] * self.dim
        for i, xi in enumerate(x):
            if xi:
                row = self.products[i]
                for j, yj in enumerate(y):
                    if yj and row[j]:
                        c = ring.mul(xi, yj)
                        for m, s in row[j]:
                            out[m] = ring.add(out[m], ring.mul(c, s))
        return tuple(out)

    def combine(self, terms: Iterable[Tuple[object, Sequence]]) -> Tuple:
        """Sum of c * v over the (scalar, vector) pairs."""
        ring = self.ring
        out = [ring.zero] * self.dim
        for c, v in terms:
            for n, s in enumerate(v):
                if s:
                    out[n] = ring.add(out[n], ring.mul(c, s))
        return tuple(out)

    def add_vec(self, x, y):
        return tuple(self.ring.add(a, b) for a, b in zip(x, y))

    def scale_vec(self, c, x):
        return tuple(self.ring.mul(c, a) for a in x)

    def left_regular(self, x: Sequence) -> Mat:
        """Matrix of m -> x.m in the row convention (rows are images of basis)."""
        return Mat.from_rows(self.ring, [self.mult(x, self.basis_vec(t)) for t in range(self.dim)],
                             self.dim)

    def right_regular(self, x: Sequence) -> Mat:
        """Matrix of m -> m.x in the row convention."""
        return Mat.from_rows(self.ring, [self.mult(self.basis_vec(t), x) for t in range(self.dim)],
                             self.dim)

    # -- idempotent corners --------------------------------------------

    def idempotent_vec(self, i: int) -> Tuple:
        return self.idempotents[i]

    def n_idempotents(self) -> int:
        return len(self.idempotents)

    def right_ideal_space(self, i: int) -> Subspace:
        """Span of e_i . R: underlying space of the projective summand e_i R."""
        if i not in self._right_ideal_cache:
            e = self.idempotents[i]
            vecs = [self.mult(e, self.basis_vec(t)) for t in range(self.dim)]
            self._right_ideal_cache[i] = Subspace.from_spanning(self.ring, self.dim, vecs)
        return self._right_ideal_cache[i]

    def corner_space(self, i: int, j: int) -> Subspace:
        """Span of e_i . R . e_j; carries Hom(e_j R, e_i R) via left multiplication."""
        key = (i, j)
        if key not in self._corner_cache:
            ei, ej = self.idempotents[i], self.idempotents[j]
            vecs = [self.mult(self.mult(ei, self.basis_vec(t)), ej) for t in range(self.dim)]
            self._corner_cache[key] = Subspace.from_spanning(self.ring, self.dim, vecs)
        return self._corner_cache[key]

    def corner_mult_table(self, k: int, i: int, j: int) -> Tuple:
        """Multiplication e_k R e_i x e_i R e_j -> e_k R e_j on corner bases.

        Entry [u][t] holds the corner(k, j) coordinates of
        corner(k, i).rows[u] . corner(i, j).rows[t].
        """
        key = (k, i, j)
        if key not in self._corner_mult_cache:
            left, right = self.corner_space(k, i), self.corner_space(i, j)
            out = self.corner_space(k, j)
            self._corner_mult_cache[key] = tuple(
                tuple(tuple(out.coords_of(self.mult(x, y))) for y in right.rows)
                for x in left.rows)
        return self._corner_mult_cache[key]

    # -- validation ------------------------------------------------------

    def _validate(self):
        ring, dim, name = self.ring, self.dim, self.name
        if len(self.unit) != dim:
            raise AlgebraError(f"{name}: unit vector has wrong length")
        if len(self.idempotent_names) != len(self.idempotents):
            raise AlgebraError(f"{name}: need one name per idempotent")
        # (b_i b_j) b_l = sum_m c_ij^m b_m b_l and b_i (b_j b_l) = sum_m c_jl^m b_i b_m;
        # both are 0 when b_i b_j = 0 = b_j b_l, so those l are skipped, in order
        P = self.products
        nonzero = [[l for l, cell in enumerate(row) if cell] for row in P]
        for i in range(dim):
            for j, pij in enumerate(P[i]):
                for l in range(dim) if pij else nonzero[j]:
                    diff = {}
                    for m, c in pij:
                        for n, s in P[m][l]:
                            diff[n] = ring.add(diff.get(n, ring.zero), ring.mul(c, s))
                    for m, c in P[j][l]:
                        for n, s in P[i][m]:
                            diff[n] = ring.sub(diff.get(n, ring.zero), ring.mul(c, s))
                    if any(diff.values()):
                        raise AlgebraError(
                            f"{name}: associativity fails at basis triple "
                            f"({self.basis_names[i]},{self.basis_names[j]},{self.basis_names[l]})"
                        )
        for i in range(dim):
            b = self.basis_vec(i)
            if self.mult(self.unit, b) != b or self.mult(b, self.unit) != b:
                raise AlgebraError(f"{name}: unit fails on basis element {self.basis_names[i]}")
        total = tuple([ring.zero] * dim)
        for k, e in enumerate(self.idempotents):
            if len(e) != dim:
                raise AlgebraError(f"{name}: idempotent {k} has wrong length")
            if self.mult(e, e) != e:
                raise AlgebraError(f"{name}: idempotent {k} is not idempotent")
            for m, f in enumerate(self.idempotents):
                if m != k and any(self.mult(e, f)):
                    raise AlgebraError(f"{name}: idempotents {k},{m} are not orthogonal")
            total = self.add_vec(total, e)
        if total != self.unit:
            raise AlgebraError(f"{name}: idempotents do not sum to the unit")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, AlgebraPresentation):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.products == other.products
            and self.unit == other.unit
            and self.idempotents == other.idempotents
        )

    def __hash__(self):
        return hash((self.products, self.unit, self.idempotents))

    def __repr__(self):
        return f"AlgebraPresentation({self.name}, dim={self.dim})"


def _acting(ring, dim: int, action: Sequence[Mat], x: Sequence) -> Mat:
    """The matrix sum_i x_i action[i] by which x acts.  A basis element, one
    nonzero coordinate equal to ``ring.one``, acts by its stored matrix,
    returned as it is: a ``Mat`` is immutable."""
    terms = [(c, a) for c, a in zip(x, action) if c]
    if len(terms) == 1 and terms[0][0] == ring.one:
        return terms[0][1]
    return Mat.lincomb(ring, dim, dim, terms)


class FdModule:
    """A finite-dimensional right module given by action matrices.

    ``FdModule(...)`` checks the shapes, the unit and every product of two
    action matrices.  Modules built from outside data, as by
    ``CornerFunctor.apply``, go through it.  The constructors that derive a
    module from a checked one build through ``_inherited``, which checks the
    shapes only, because what they inherit proves the rest: ``submodule``
    and ``quotient_module`` induce the action with ``Subspace.restrict`` or
    ``Subspace.project``, which refuse a subspace the action moves, and a sub
    or quotient of a checked module by an invariant subspace is a module;
    ``regular_module``, ``projective_module`` and ``module_along_map`` act by
    right multiplication in a checked algebra, on right ideals e_i R or along
    a checked ``RingMap``; ``module_tensor`` divides M (x)_k B, a module
    through id (x) B's right action, by relations that action keeps, since B
    is a checked bimodule.  ``projective_module``, its radical layer
    ``projective_radical``, ``radical`` and the sample modules of
    ``almost.standard_modules`` are cached on the algebra, so an algebra and
    the modules they return are immutable.  A submodule comes without its
    inclusion, whose rows are ``space.rows``, and a quotient without its
    projection, which is ``space.quotient_coords``.
    """

    def __init__(self, algebra: AlgebraPresentation, dim: int, action: Sequence[Mat], name: str = "M"):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.name = name
        self._validate()

    @classmethod
    def _inherited(cls, algebra, dim, action, name) -> "FdModule":
        """A module whose axioms its caller has proved: only shapes are checked."""
        M = object.__new__(cls)
        M.algebra, M.dim, M.action, M.name = algebra, dim, tuple(action), name
        M._check_shapes()
        return M

    def _check_shapes(self):
        alg = self.algebra
        if len(self.action) != alg.dim:
            raise AlgebraError(f"{self.name}: need one action matrix per algebra basis element")
        for a in self.action:
            if a.nrows != self.dim or a.ncols != self.dim or a.ring != alg.ring:
                raise AlgebraError(f"{self.name}: action matrix shape mismatch")

    def _validate(self):
        self._check_shapes()
        alg, act, n = self.algebra, self.action, self.dim
        unit = self.action_of(alg.unit)
        if unit != Mat.identity(alg.ring, n):
            raise AlgebraError(f"{self.name}: unit does not act as identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = act[i] @ act[j]
                rhs = Mat.lincomb(alg.ring, n, n, ((c, act[m]) for m, c in alg.products[i][j]))
                if lhs != rhs:
                    raise AlgebraError(
                        f"{self.name}: action not multiplicative at "
                        f"({alg.basis_names[i]},{alg.basis_names[j]})"
                    )

    def action_of(self, x: Sequence) -> Mat:
        return _acting(self.algebra.ring, self.dim, self.action, x)

    def act(self, v: Sequence, x: Sequence) -> List:
        return self.action_of(x).row_apply(list(v))

    def times_ideal(self, space: Subspace) -> Subspace:
        """Subspace M . a for an ideal (or any subspace) a of the algebra."""
        vecs = []
        for arow in space.rows:
            vecs.extend(self.action_of(arow).rows())
        return Subspace.from_spanning(self.algebra.ring, self.dim, vecs)

    def annihilated_by(self, space: Subspace) -> Subspace:
        """Largest submodule killed by the given ideal: {m : m.a = 0 for all a}."""
        if space.dim == 0:
            return Subspace.full(self.algebra.ring, self.dim)
        return left_kernel(hstack([self.action_of(arow) for arow in space.rows]))

    def __repr__(self):
        return f"FdModule({self.name}, dim={self.dim} over {self.algebra.name})"


def regular_module(alg: AlgebraPresentation) -> FdModule:
    # right multiplication in the checked algebra: associativity and the unit
    # prove the axioms
    action = [alg.right_regular(alg.basis_vec(i)) for i in range(alg.dim)]
    return FdModule._inherited(alg, alg.dim, action, name=alg.name)


def _induced(M: FdModule, space: Subspace, induce) -> List[Mat]:
    """``induce(space, M.action)`` for ``Subspace.restrict`` or ``project``; a
    subspace of another space, or one the action moves, is an ``AlgebraError``."""
    if space.ambient != M.dim:
        raise AlgebraError(f"{M.name}: subspace of dimension-{space.ambient} space, "
                           f"module of dimension {M.dim}")
    try:
        return induce(space, M.action)
    except LinalgError:
        raise AlgebraError(f"{M.name}: subspace is not closed under the module action") from None


def submodule(M: FdModule, space: Subspace) -> FdModule:
    """Submodule on a subspace closed under the action, in the coordinates of
    ``space.coords_of``: its inclusion into M has the rows ``space.rows``."""
    action = _induced(M, space, Subspace.restrict)
    # an invariant subspace of a checked module is a module
    return FdModule._inherited(M.algebra, space.dim, action, name=f"{M.name}|sub")


def quotient_module(M: FdModule, space: Subspace) -> FdModule:
    """Quotient by a subspace closed under the action, in the coordinates of
    ``space.quotient_coords``, which is the projection M -> M/space."""
    action = _induced(M, space, Subspace.project)
    # the quotient of a checked module by an invariant subspace is a module
    return FdModule._inherited(M.algebra, M.dim - space.dim, action, name=f"{M.name}|quo")


def hom_dim(M: FdModule, N: FdModule) -> int:
    """Dimension of the space of right-module homomorphisms M -> N."""
    if M.algebra != N.algebra:
        raise AlgebraError("modules over different algebras")
    ring = M.algebra.ring
    nm, nn = M.dim, N.dim
    # unknown F (nm x nn), constraints rhoM(b) F = F rhoN(b): row k*nn + j is
    # the unknown F[k][j], column (b*nm + i)*nn + j the constraint's entry (i, j)
    items: Dict[Tuple[int, int], object] = {}
    for b in range(M.algebra.dim):
        off = b * nm * nn
        for i, k, a in M.action[b].items():
            for j in range(nn):
                key = (k * nn + j, off + i * nn + j)
                items[key] = ring.add(items[key], a) if key in items else a
        for l, j, c in N.action[b].items():
            for i in range(nm):
                key = (i * nn + l, off + i * nn + j)
                items[key] = ring.sub(items[key], c) if key in items else ring.neg(c)
    return nm * nn - rank(Mat.from_entries(ring, nm * nn, M.algebra.dim * nm * nn, items))


class Bimodule:
    """An (R, S)-bimodule with commuting stored actions.

    Both actions are stored as matrices acting on the right of row vectors,
    so the right action is multiplicative and the left action is
    anti-multiplicative; ``Bimodule(...)`` checks both, the units and
    commutation.  ``induction_bimodule``, ``restriction_bimodule`` and
    ``regular_bimodule`` build through ``_inherited``, which checks the
    shapes only: they act by left and right multiplication in a checked
    algebra, along a checked ``RingMap``, so associativity and the map's unit
    and multiplicativity prove the axioms and the commutation.
    """

    def __init__(self, left_alg, right_alg, dim, left_action, right_action, name="B"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self.name = name
        self._validate()

    @classmethod
    def _inherited(cls, left_alg, right_alg, dim, left_action, right_action, name) -> "Bimodule":
        """A bimodule whose axioms its caller has proved: only shapes are checked."""
        B = object.__new__(cls)
        B.left_alg, B.right_alg, B.dim, B.name = left_alg, right_alg, dim, name
        B.left_action, B.right_action = tuple(left_action), tuple(right_action)
        B._check_shapes()
        return B

    def _check_shapes(self):
        L, R = self.left_alg, self.right_alg
        if R.ring != L.ring:
            raise AlgebraError(f"{self.name}: bimodule sides over different fields")
        if len(self.left_action) != L.dim or len(self.right_action) != R.dim:
            raise AlgebraError(f"{self.name}: wrong number of action matrices")
        for m in self.left_action + self.right_action:
            if m.nrows != self.dim or m.ncols != self.dim:
                raise AlgebraError(f"{self.name}: action matrix shape mismatch")

    def _validate(self):
        self._check_shapes()
        ring, n = self.left_alg.ring, self.dim
        L, R = self.left_alg, self.right_alg
        left, right = self.left_action, self.right_action
        if self.left_of(L.unit) != Mat.identity(ring, n):
            raise AlgebraError(f"{self.name}: left unit fails")
        if self.right_of(R.unit) != Mat.identity(ring, n):
            raise AlgebraError(f"{self.name}: right unit fails")
        for i in range(L.dim):
            for j in range(L.dim):
                # anti-multiplicative: (b_i b_j) . m corresponds to Mat_j @ Mat_i
                lhs = left[j] @ left[i]
                rhs = Mat.lincomb(ring, n, n, ((c, left[m]) for m, c in L.products[i][j]))
                if lhs != rhs:
                    raise AlgebraError(f"{self.name}: left action not anti-multiplicative")
        for i in range(R.dim):
            for j in range(R.dim):
                lhs = right[i] @ right[j]
                rhs = Mat.lincomb(ring, n, n, ((c, right[m]) for m, c in R.products[i][j]))
                if lhs != rhs:
                    raise AlgebraError(f"{self.name}: right action not multiplicative")
        for a in left:
            for b in right:
                if a @ b != b @ a:
                    raise AlgebraError(f"{self.name}: actions do not commute")

    def left_of(self, x) -> Mat:
        return _acting(self.left_alg.ring, self.dim, self.left_action, x)

    def right_of(self, x) -> Mat:
        return _acting(self.right_alg.ring, self.dim, self.right_action, x)

    def left_space_of_idempotent(self, i: int) -> Subspace:
        """Span of e_i . B inside B."""
        e = self.left_alg.idempotent_vec(i)
        E = self.left_of(e)
        return Subspace.from_spanning(self.left_alg.ring, self.dim, E.rows())

    def __repr__(self):
        return f"Bimodule({self.name}: {self.left_alg.name}-{self.right_alg.name}, dim={self.dim})"


class RingMap:
    """A unital algebra map, stored as images of the source basis."""

    def __init__(self, source: AlgebraPresentation, target: AlgebraPresentation,
                 images: Sequence[Sequence], name: str = "f"):
        self.source = source
        self.target = target
        self.images = tuple(tuple(target.ring.parse(c) for c in im) for im in images)
        self.name = name
        self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        if src.ring != tgt.ring:
            raise AlgebraError(f"{self.name}: source/target fields differ")
        if len(self.images) != src.dim:
            raise AlgebraError(f"{self.name}: need one image per source basis element")
        if any(len(im) != tgt.dim for im in self.images):
            raise AlgebraError(f"{self.name}: image vector has wrong length")
        if self.apply(src.unit) != tgt.unit:
            raise AlgebraError(f"{self.name}: unit is not preserved")
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = tgt.mult(self.images[i], self.images[j])
                rhs = tgt.combine((c, self.images[m]) for m, c in src.products[i][j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"{self.name}: multiplicativity fails at "
                        f"({src.basis_names[i]},{src.basis_names[j]})"
                    )

    def apply(self, x: Sequence) -> Tuple:
        return self.target.combine((c, im) for c, im in zip(x, self.images) if c)

    def __repr__(self):
        return f"RingMap({self.name}: {self.source.name} -> {self.target.name})"


# The four constructors below act by left and right multiplication in the
# checked algebra S (or A), along the checked ring map f: associativity, the
# unit of the algebra and the unit and multiplicativity of f prove the module
# axioms and, for bimodules, that the two actions commute.


def induction_bimodule(f: RingMap) -> Bimodule:
    """Target algebra S as an (R, S)-bimodule along f: R -> S."""
    S = f.target
    left = [S.left_regular(f.images[i]) for i in range(f.source.dim)]
    right = [S.right_regular(S.basis_vec(j)) for j in range(S.dim)]
    return Bimodule._inherited(f.source, S, S.dim, left, right, name=f"ind({f.name})")


def restriction_bimodule(f: RingMap) -> Bimodule:
    """Target algebra A as an (A, C)-bimodule along f: C -> A (restriction data)."""
    A = f.target
    left = [A.left_regular(A.basis_vec(i)) for i in range(A.dim)]
    right = [A.right_regular(f.images[j]) for j in range(f.source.dim)]
    return Bimodule._inherited(A, f.source, A.dim, left, right, name=f"res({f.name})")


def regular_bimodule(alg: AlgebraPresentation) -> Bimodule:
    left = [alg.left_regular(alg.basis_vec(i)) for i in range(alg.dim)]
    right = [alg.right_regular(alg.basis_vec(i)) for i in range(alg.dim)]
    return Bimodule._inherited(alg, alg, alg.dim, left, right, name=alg.name)


def module_along_map(f: RingMap) -> FdModule:
    """The target algebra as a right module over the source, via f."""
    S, R = f.target, f.source
    action = [S.right_regular(f.images[i]) for i in range(R.dim)]
    return FdModule._inherited(R, S.dim, action, name=f"{S.name} as {R.name}-mod")


class TwoSidedIdeal:
    """A two-sided ideal presented by its underlying subspace.  The constructor
    checks closure; only ``radical`` skips it, through ``_proved`` (see there)."""

    def __init__(self, algebra: AlgebraPresentation, space: Subspace, name: str = "a"):
        self.algebra = algebra
        self.space = space
        self.name = name
        self._validate()

    @classmethod
    def _proved(cls, algebra, space, name) -> "TwoSidedIdeal":
        """An ideal whose closure its caller has proved: nothing is checked."""
        ideal = object.__new__(cls)
        ideal.algebra, ideal.space, ideal.name = algebra, space, name
        return ideal

    def _validate(self):
        alg = self.algebra
        for row in self.space.rows:
            for t in range(alg.dim):
                b = alg.basis_vec(t)
                if not self.space.contains(alg.mult(b, row)):
                    raise AlgebraError(f"{self.name}: not closed under left multiplication")
                if not self.space.contains(alg.mult(row, b)):
                    raise AlgebraError(f"{self.name}: not closed under right multiplication")

    @property
    def dim(self):
        return self.space.dim

    def square(self) -> "TwoSidedIdeal":
        alg = self.algebra
        vecs = [alg.mult(u, v) for u in self.space.rows for v in self.space.rows]
        return TwoSidedIdeal(alg, Subspace.from_spanning(alg.ring, alg.dim, vecs), name=f"{self.name}^2")

    def is_idempotent(self) -> bool:
        return self.square().space == self.space

    def __repr__(self):
        return f"TwoSidedIdeal({self.name}, dim={self.dim} of {self.algebra.name})"


def ideal_from_spanning(alg: AlgebraPresentation, vectors: Sequence[Sequence], name="a") -> TwoSidedIdeal:
    """Two-sided ideal generated by the given elements (closure computed)."""
    ring = alg.ring
    vecs = [tuple(ring.parse(c) for c in v) for v in vectors]
    space = Subspace.from_spanning(ring, alg.dim, vecs)
    while True:
        new_vecs = []
        for row in space.rows:
            for t in range(alg.dim):
                b = alg.basis_vec(t)
                new_vecs.append(alg.mult(b, row))
                new_vecs.append(alg.mult(row, b))
        bigger = space.span_with(new_vecs)
        if bigger == space:
            break
        space = bigger
    return TwoSidedIdeal(alg, space, name=name)


def ideal_generated_by_idempotent(alg: AlgebraPresentation, e: Sequence, name="ReR") -> TwoSidedIdeal:
    """The ideal R e R for an idempotent element e."""
    e = tuple(alg.ring.parse(c) for c in e)
    if alg.mult(e, e) != e:
        raise AlgebraError("generator is not idempotent")
    vecs = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            vecs.append(alg.mult(alg.mult(alg.basis_vec(i), e), alg.basis_vec(j)))
    return TwoSidedIdeal(alg, Subspace.from_spanning(alg.ring, alg.dim, vecs), name=name)


def radical(alg: AlgebraPresentation) -> TwoSidedIdeal:
    """Jacobson radical: the kernel of the trace form (x, y) -> tr L(xy) of
    the left regular representation.

    Valid in characteristic 0, or characteristic p > dim (guarded), where the
    kernel is the radical by theorem and is not re-checked (see e.g.
    R. S. Pierce, *Associative Algebras*, 1982).  It is a two-sided ideal,
    since tr L((zx)y) = tr L(x(yz)) and tr L((xz)y) = tr L(x(zy)).  It is
    nilpotent: for x in it, tr L(x^k) = 0 for every k, and Newton's
    identities, which divide only by k <= dim < p, make L(x) nilpotent; an
    ideal of nilpotent elements of a finite-dimensional algebra is nilpotent
    (Wedderburn).  Associativity, which both arguments use, is checked when
    the algebra is built.
    Computed once and cached on the algebra.
    """
    if "radical" in alg._built:
        return alg._built["radical"]
    ring = alg.ring
    if ring.kind == "prime" and ring.p <= alg.dim:
        raise AlgebraError(
            f"radical needs characteristic 0 or p > dim; GF({ring.p}) with dim {alg.dim}"
        )
    if ring.kind == "laurent":
        raise AlgebraError("radical requires a field")

    def total(terms):
        return reduce(ring.add, terms, ring.zero)

    # tr L(b_i b_j) = sum_m c_ij^m tau_m, with tau_m = tr L(b_m) = sum_k c_mk^k
    P = alg.products
    tau = [total(c for k, cell in enumerate(row) for n, c in cell if n == k) for row in P]
    rows = [[total(ring.mul(c, tau[m]) for m, c in cell) for cell in row] for row in P]
    T = Mat.from_rows(ring, rows, alg.dim)
    ideal = TwoSidedIdeal._proved(alg, left_kernel(T), name=f"rad({alg.name})")
    return alg._built.setdefault("radical", ideal)


class TensorResult:
    """M tensor_R B as a right module over B's right-acting algebra.

    ``reps`` are coset representatives in M (x)_k B (coordinate i*dimB + j
    for m_i (x) b_j) of the module's basis.
    """

    def __init__(self, module: FdModule, reps: List[List]):
        self.module = module
        self.reps = reps


def module_tensor(M: FdModule, B: Bimodule) -> TensorResult:
    """Coequalizer presentation of M tensor_R B (R = M's algebra = B's left side)."""
    if M.algebra != B.left_alg:
        raise AlgebraError("module/bimodule sides do not match for tensor")
    ring = M.algebra.ring
    R, S, n = M.algebra, B.right_alg, B.dim
    amb = M.dim * n
    rels = []
    left_rows = [B.left_action[r].rows() for r in range(R.dim)]
    for i in range(M.dim):
        for r in range(R.dim):
            mi_r = M.action[r].row(i)
            for j in range(n):
                vec = [ring.zero] * amb
                for u, c in enumerate(mi_r):
                    if c:
                        vec[u * n + j] = ring.add(vec[u * n + j], c)
                for v, c in enumerate(left_rows[r][j]):
                    if c:
                        vec[i * n + v] = ring.sub(vec[i * n + v], c)
                rels.append(vec)
    relations = Subspace.from_spanning(ring, amb, rels)
    # (m (x) b) . s = m (x) (b.s): id (x) rho_s makes M (x)_k B a module, and
    # it keeps the relations m.r (x) b - m (x) r.b, since (r.b).s = r.(b.s) in
    # a checked bimodule: the quotient by an invariant subspace is a module
    action = relations.project(
        [Mat.from_entries(ring, amb, amb, {(i * n + j, i * n + v): x for i in range(M.dim)
                                           for j, v, x in B.right_action[s].items()})
         for s in range(S.dim)])
    module = FdModule._inherited(S, amb - relations.dim, action, name=f"{M.name}(x){B.name}")
    return TensorResult(module, relations.completion())


def quotient_algebra(alg: AlgebraPresentation, ideal: TwoSidedIdeal,
                     name: Optional[str] = None) -> Tuple[AlgebraPresentation, RingMap]:
    """Quotient by a two-sided ideal, with the projection map.

    The idempotent list is the nonzero images of the source idempotents;
    fails if those do not form a complete orthogonal system (supply an
    explicit presentation in that case).
    """
    ring = alg.ring
    space = ideal.space
    reps = space.completion()
    project = space.quotient_coords
    names = [f"{alg.basis_names[j]}~" for j in range(alg.dim) if j not in space.pivots]
    structure = [[project(alg.mult(ra, rb)) for rb in reps] for ra in reps]
    unit = project(alg.unit)
    idems = []
    idem_names = []
    for k in range(alg.n_idempotents()):
        img = project(alg.idempotent_vec(k))
        if any(img):
            idems.append(img)
            idem_names.append(alg.idempotent_names[k])
    qname = name or f"{alg.name}/{ideal.name}"
    qalg = AlgebraPresentation(ring, names, structure, unit, idems,
                               idempotent_names=idem_names, name=qname)
    proj = RingMap(alg, qalg, [project(alg.basis_vec(i)) for i in range(alg.dim)],
                   name=f"proj:{alg.name}->{qname}")
    return qalg, proj


def projective_module(alg: AlgebraPresentation, summands: Sequence[int]) -> FdModule:
    """Direct sum of the right ideals e_i R as one module.

    The module is built once per summand tuple and then cached on the
    algebra, like ``radical``: a repeat call returns the same object, so
    neither it nor the algebra may be changed after construction.
    """
    key = tuple(summands)
    if key in alg._built:
        return alg._built[key]
    ring = alg.ring
    spaces = [alg.right_ideal_space(i) for i in key]
    dim = sum(sp.dim for sp in spaces)
    action = []
    for t in range(alg.dim):
        b = alg.basis_vec(t)
        rows, off = [], 0
        for sp in spaces:
            for r in sp.rows:
                row = [ring.zero] * dim
                row[off:off + sp.dim] = sp.coords_of(alg.mult(r, b))
                rows.append(row)
            off += sp.dim
        action.append(Mat.from_rows(ring, rows, dim))
    # right multiplication on right ideals of the checked algebra, like regular_module
    mod = FdModule._inherited(alg, dim, action, name=f"P({list(key)})")
    return alg._built.setdefault(key, mod)


def projective_radical(alg: AlgebraPresentation, summands: Sequence[int]) -> Subspace:
    """The radical layer P . rad(R) of P = ``projective_module(alg, summands)``,
    cached on the algebra with P, under ("rad", *summands)."""
    key = ("rad", *summands)
    if key not in alg._built:
        P = projective_module(alg, summands)
        alg._built.setdefault(key, P.times_ideal(radical(alg).space))
    return alg._built[key]


def presentation_matrix(alg: AlgebraPresentation, pairs, act, dim: int) -> Mat:
    """Matrix of (+)_u e_{j_u} R -> V, (r_u) -> sum_u act(g_u, r_u), for ``pairs`` (j_u, g_u)
    and a right action ``act`` on V of dimension ``dim``: a row act(g, r) per row r of e_j R."""
    return Mat.from_rows(alg.ring, [act(g, r) for j, g in pairs
                                    for r in alg.right_ideal_space(j).rows], dim)


def check_witness(alg: AlgebraPresentation, space: Subspace, pairs, act, what: str) -> Mat:
    """The ``presentation_matrix`` of ``pairs``, checked to write ``space`` as
    (+)_u e_{j_u} R: each j an idempotent index of ``alg``, each g of length
    ``space.ambient`` in ``space`` with act(g, e_j) = g, and the matrix square
    of rank ``space.dim``.  The one projectivity rule; an ``AlgebraError``
    names ``what``."""
    for j, g in pairs:
        if type(j) is not int or j not in range(alg.n_idempotents()):
            raise AlgebraError(f"{what}: witness index {j!r} is not an idempotent "
                               f"index of {alg.name}")
        if len(g) != space.ambient:
            raise AlgebraError(f"{what}: witness element has {len(g)} coordinates, "
                               f"not {space.ambient}")
        if not space.contains(g):
            raise AlgebraError(f"{what}: witness element lies outside the module")
        if list(act(g, alg.idempotent_vec(j))) != list(g):
            raise AlgebraError(f"{what}: witness element not supported at idempotent {j}")
    W = presentation_matrix(alg, pairs, act, space.ambient)
    if W.nrows != space.dim or rank(W) != space.dim:
        raise AlgebraError(f"{what}: witness map is not a bijection onto the module "
                           f"(rows {W.nrows}, module dim {space.dim})")
    return W
