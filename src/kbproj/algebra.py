"""Finite-dimensional algebras given by structure constants, and their modules.

An algebra presentation carries a field, a basis, the full multiplication
table, the unit, and a complete orthogonal idempotent list.  Everything is
validated up front; later layers may assume the axioms hold.  The product
b_i b_j of two basis elements is the row ``structure[i][j]``, and the checks
read it there.

Module convention: module elements are row vectors, a right action matrix A_b
acts as ``m . b = m @ A_b``, so the action map b -> A_b is multiplicative.
Left actions (in bimodules) are stored the same way and are therefore
anti-multiplicative; validation checks exactly that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .linalg import Mat, Subspace, hstack, solve


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
        primitive: bool = True,
        name: str = "A",
    ):
        self.ring = ring
        self.name = name
        self.basis_names = tuple(basis_names)
        self.dim = len(self.basis_names)
        if self.dim == 0:
            raise AlgebraError(f"{name}: empty basis")
        self.structure = tuple(
            tuple(tuple(ring.parse(c) for c in structure[i][j]) for j in range(self.dim))
            for i in range(self.dim)
        )
        self.unit = tuple(ring.parse(c) for c in unit)
        self.idempotents = tuple(tuple(ring.parse(c) for c in e) for e in idempotents)
        if idempotent_names is None:
            idempotent_names = [f"e{k}" for k in range(len(self.idempotents))]
        self.idempotent_names = tuple(idempotent_names)
        self.primitive = bool(primitive)
        self._corner_cache: Dict[Tuple[int, int], Subspace] = {}
        self._corner_mult_cache: Dict[Tuple[int, int, int], Tuple] = {}
        self._right_ideal_cache: Dict[int, Subspace] = {}
        # projective_module by summand tuple and radical by "radical"; concurrent
        # first calls may both build, and setdefault keeps one result for all
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
        for i in range(self.dim):
            xi = x[i]
            if not xi:
                continue
            row = self.structure[i]
            for j in range(self.dim):
                yj = y[j]
                if not yj:
                    continue
                c = ring.mul(xi, yj)
                for l, s in enumerate(row[j]):
                    if s:
                        out[l] = ring.add(out[l], ring.mul(c, s))
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

    def is_zero_vec(self, x) -> bool:
        return not any(x)

    def left_regular(self, x: Sequence) -> Mat:
        """Matrix of m -> x.m in the row convention (rows are images of basis)."""
        return Mat.from_rows(self.ring, [self.mult(x, self.basis_vec(t)) for t in range(self.dim)],
                             self.dim)

    def right_regular(self, x: Sequence) -> Mat:
        """Matrix of m -> m.x in the row convention."""
        return Mat.from_rows(self.ring, [self.mult(self.basis_vec(t), x) for t in range(self.dim)],
                             self.dim)

    def trace_left_mult(self, x: Sequence):
        ring = self.ring
        t = ring.zero
        for m, c in enumerate(x):
            if c:
                for i, cell in enumerate(self.structure[m]):
                    if cell[i]:
                        t = ring.add(t, ring.mul(c, cell[i]))
        return t

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
        for row in self.structure:
            if len(row) != dim or any(len(c) != dim for c in row):
                raise AlgebraError(f"{name}: structure table is not {dim}x{dim}x{dim}")
        if len(self.unit) != dim:
            raise AlgebraError(f"{name}: unit vector has wrong length")
        # (b_i b_j) b_l = sum_m c_ij^m b_m b_l and b_i (b_j b_l) = sum_m c_jl^m b_i b_m
        st = self.structure
        nonzero = [[[(m, c) for m, c in enumerate(cell) if c] for cell in row] for row in st]
        for i in range(dim):
            for j in range(dim):
                for l in range(dim):
                    lhs = self.combine((c, st[m][l]) for m, c in nonzero[i][j])
                    rhs = self.combine((c, st[i][m]) for m, c in nonzero[j][l])
                    if lhs != rhs:
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
                if m != k and not self.is_zero_vec(self.mult(e, f)):
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
            and self.structure == other.structure
            and self.unit == other.unit
            and self.idempotents == other.idempotents
        )

    def __hash__(self):
        return hash((self.structure, self.unit, self.idempotents))

    def __repr__(self):
        return f"AlgebraPresentation({self.name}, dim={self.dim})"


class FdModule:
    """A finite-dimensional right module given by action matrices.

    Every module is validated when it is built, including those the engine
    builds itself.  ``projective_module`` and ``radical`` are cached on the
    algebra, so an algebra and the modules they return are immutable.
    """

    def __init__(self, algebra: AlgebraPresentation, dim: int, action: Sequence[Mat], name: str = "M"):
        self.algebra = algebra
        self.dim = dim
        self.action = tuple(action)
        self.name = name
        self._validate()

    def _validate(self):
        alg = self.algebra
        ring = alg.ring
        if len(self.action) != alg.dim:
            raise AlgebraError(f"{self.name}: need one action matrix per algebra basis element")
        for a in self.action:
            if a.nrows != self.dim or a.ncols != self.dim or a.ring != ring:
                raise AlgebraError(f"{self.name}: action matrix shape mismatch")
        unit = self.action_of(alg.unit)
        if unit != Mat.identity(ring, self.dim):
            raise AlgebraError(f"{self.name}: unit does not act as identity")
        for i in range(alg.dim):
            for j in range(alg.dim):
                lhs = self.action[i] @ self.action[j]
                rhs = self.action_of(alg.structure[i][j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"{self.name}: action not multiplicative at "
                        f"({alg.basis_names[i]},{alg.basis_names[j]})"
                    )

    def action_of(self, x: Sequence) -> Mat:
        return Mat.lincomb(self.algebra.ring, self.dim, self.dim,
                           ((c, a) for c, a in zip(x, self.action) if c))

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
        ring = self.algebra.ring
        if space.dim == 0:
            return Subspace.full(ring, self.dim)
        blocks = [self.action_of(arow) for arow in space.rows]
        _, ker = solve(hstack(blocks).transpose(), Mat.zeros(ring, space.dim * self.dim, 1))
        return ker

    def __repr__(self):
        return f"FdModule({self.name}, dim={self.dim} over {self.algebra.name})"


def regular_module(alg: AlgebraPresentation) -> FdModule:
    return FdModule(alg, alg.dim, [alg.right_regular(alg.basis_vec(i)) for i in range(alg.dim)], name=alg.name)


def submodule(M: FdModule, space: Subspace) -> Tuple[FdModule, Mat]:
    """Submodule on a subspace closed under the action.  Returns (module, inclusion)."""
    alg = M.algebra
    ring = alg.ring
    for row in space.rows:
        for i in range(alg.dim):
            img = M.action[i].row_apply(list(row))
            if not space.contains(img):
                raise AlgebraError("subspace is not closed under the module action")
    action = []
    for i in range(alg.dim):
        rows = [space.coords_of(M.action[i].row_apply(list(r))) for r in space.rows]
        action.append(Mat.from_rows(ring, rows, space.dim))
    incl = Mat.from_rows(ring, space.rows, M.dim)
    return FdModule(alg, space.dim, action, name=f"{M.name}|sub"), incl


def quotient_module(M: FdModule, space: Subspace) -> Tuple[FdModule, Mat]:
    """Quotient by a subspace closed under the action.  Returns (module, projection)."""
    alg = M.algebra
    ring = alg.ring
    reps = space.completion()
    qdim = len(reps)
    project = space.quotient_coords
    action = []
    for i in range(alg.dim):
        rows = [project(M.action[i].row_apply(r)) for r in reps]
        action.append(Mat.from_rows(ring, rows, qdim))
    proj = Mat.from_rows(ring, [project(r) for r in Mat.identity(ring, M.dim).rows()], qdim)
    return FdModule(alg, qdim, action, name=f"{M.name}|quo"), proj


def hom_modules(M: FdModule, N: FdModule) -> List[Mat]:
    """Basis of right-module homomorphisms M -> N (matrices in row convention)."""
    if M.algebra != N.algebra:
        raise AlgebraError("modules over different algebras")
    ring = M.algebra.ring
    nm, nn = M.dim, N.dim
    if nm == 0 or nn == 0:
        return []
    # unknown F (nm x nn), constraints rhoM(b) F = F rhoN(b), flattened rows
    rows = []
    for b in range(M.algebra.dim):
        A, B = M.action[b], N.action[b]
        for i in range(nm):
            for j in range(nn):
                row = [ring.zero] * (nm * nn)
                for k in range(nm):
                    row[k * nn + j] = ring.add(row[k * nn + j], A.entry(i, k))
                for l in range(nn):
                    row[i * nn + l] = ring.sub(row[i * nn + l], B.entry(l, j))
                rows.append(row)
    big = Mat.from_rows(ring, rows, nm * nn)
    _, ker = solve(big, Mat.zeros(ring, big.nrows, 1))
    out = []
    for kv in ker.rows:
        out.append(Mat.from_rows(ring, [kv[i * nn:(i + 1) * nn] for i in range(nm)], nn))
    return out


class Bimodule:
    """An (R, S)-bimodule with commuting stored actions.

    Both actions are stored as matrices acting on the right of row vectors,
    so the right action is multiplicative and the left action is
    anti-multiplicative; validation enforces both plus commutation.
    """

    def __init__(self, left_alg, right_alg, dim, left_action, right_action, name="B"):
        self.left_alg = left_alg
        self.right_alg = right_alg
        self.dim = dim
        self.left_action = tuple(left_action)
        self.right_action = tuple(right_action)
        self.name = name
        self._validate()

    def _validate(self):
        ring = self.left_alg.ring
        if self.right_alg.ring != ring:
            raise AlgebraError(f"{self.name}: bimodule sides over different fields")
        L, R = self.left_alg, self.right_alg
        if len(self.left_action) != L.dim or len(self.right_action) != R.dim:
            raise AlgebraError(f"{self.name}: wrong number of action matrices")
        for m in list(self.left_action) + list(self.right_action):
            if m.nrows != self.dim or m.ncols != self.dim:
                raise AlgebraError(f"{self.name}: action matrix shape mismatch")
        if self.left_of(L.unit) != Mat.identity(ring, self.dim):
            raise AlgebraError(f"{self.name}: left unit fails")
        if self.right_of(R.unit) != Mat.identity(ring, self.dim):
            raise AlgebraError(f"{self.name}: right unit fails")
        for i in range(L.dim):
            for j in range(L.dim):
                # anti-multiplicative: (b_i b_j) . m corresponds to Mat_j @ Mat_i
                lhs = self.left_action[j] @ self.left_action[i]
                rhs = self.left_of(L.structure[i][j])
                if lhs != rhs:
                    raise AlgebraError(f"{self.name}: left action not anti-multiplicative")
        for i in range(R.dim):
            for j in range(R.dim):
                lhs = self.right_action[i] @ self.right_action[j]
                rhs = self.right_of(R.structure[i][j])
                if lhs != rhs:
                    raise AlgebraError(f"{self.name}: right action not multiplicative")
        for a in self.left_action:
            for b in self.right_action:
                if a @ b != b @ a:
                    raise AlgebraError(f"{self.name}: actions do not commute")

    def left_of(self, x) -> Mat:
        return Mat.lincomb(self.left_alg.ring, self.dim, self.dim,
                           ((c, a) for c, a in zip(x, self.left_action) if c))

    def right_of(self, x) -> Mat:
        return Mat.lincomb(self.right_alg.ring, self.dim, self.dim,
                           ((c, a) for c, a in zip(x, self.right_action) if c))

    def right_module(self) -> FdModule:
        return FdModule(self.right_alg, self.dim, self.right_action, name=f"{self.name}|right")

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
                rhs = self.apply(src.structure[i][j])
                if lhs != rhs:
                    raise AlgebraError(
                        f"{self.name}: multiplicativity fails at "
                        f"({src.basis_names[i]},{src.basis_names[j]})"
                    )

    def apply(self, x: Sequence) -> Tuple:
        return self.target.combine((c, im) for c, im in zip(x, self.images) if c)

    def __repr__(self):
        return f"RingMap({self.name}: {self.source.name} -> {self.target.name})"


def induction_bimodule(f: RingMap) -> Bimodule:
    """Target algebra S as an (R, S)-bimodule along f: R -> S."""
    S = f.target
    left = [S.left_regular(f.images[i]) for i in range(f.source.dim)]
    right = [S.right_regular(S.basis_vec(j)) for j in range(S.dim)]
    return Bimodule(f.source, S, S.dim, left, right, name=f"ind({f.name})")


def restriction_bimodule(f: RingMap) -> Bimodule:
    """Target algebra A as an (A, C)-bimodule along f: C -> A (restriction data)."""
    A = f.target
    left = [A.left_regular(A.basis_vec(i)) for i in range(A.dim)]
    right = [A.right_regular(f.images[j]) for j in range(f.source.dim)]
    return Bimodule(A, f.source, A.dim, left, right, name=f"res({f.name})")


def regular_bimodule(alg: AlgebraPresentation) -> Bimodule:
    left = [alg.left_regular(alg.basis_vec(i)) for i in range(alg.dim)]
    right = [alg.right_regular(alg.basis_vec(i)) for i in range(alg.dim)]
    return Bimodule(alg, alg, alg.dim, left, right, name=alg.name)


def module_along_map(f: RingMap) -> FdModule:
    """The target algebra as a right module over the source, via f."""
    S, R = f.target, f.source
    action = [S.right_regular(f.images[i]) for i in range(R.dim)]
    return FdModule(R, S.dim, action, name=f"{S.name} as {R.name}-mod")


class TwoSidedIdeal:
    """A two-sided ideal presented by its underlying subspace."""

    def __init__(self, algebra: AlgebraPresentation, space: Subspace, name: str = "a"):
        self.algebra = algebra
        self.space = space
        self.name = name
        self._validate()

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

    def is_nilpotent(self, cap: int = 64) -> bool:
        alg = self.algebra
        cur = self.space
        for _ in range(cap):
            if cur.dim == 0:
                return True
            vecs = [alg.mult(u, v) for u in cur.rows for v in cur.rows]
            nxt = Subspace.from_spanning(alg.ring, alg.dim, vecs)
            if nxt == cur:
                return cur.dim == 0
            cur = nxt
        return cur.dim == 0

    def __repr__(self):
        return f"TwoSidedIdeal({self.name}, dim={self.dim} of {self.algebra.name})"


def ideal_from_spanning(alg: AlgebraPresentation, vectors: Sequence[Sequence], name="a") -> TwoSidedIdeal:
    """Two-sided ideal generated by the given elements (closure computed)."""
    ring = alg.ring
    vecs = [tuple(ring.parse(c) for c in v) for v in vectors]
    space = Subspace.from_spanning(ring, alg.dim, vecs)
    while True:
        new_vecs = list(space.rows)
        for row in space.rows:
            for t in range(alg.dim):
                b = alg.basis_vec(t)
                new_vecs.append(alg.mult(b, row))
                new_vecs.append(alg.mult(row, b))
        bigger = Subspace.from_spanning(ring, alg.dim, new_vecs)
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
    """Jacobson radical via the trace form of the left regular representation.

    Valid in characteristic 0, or characteristic p > dim (guarded); the
    resulting subspace is re-verified to be a nilpotent two-sided ideal.
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
    rows = [[alg.trace_left_mult(prod) for prod in row] for row in alg.structure]
    T = Mat.from_rows(ring, rows, alg.dim)
    _, ker = solve(T.transpose(), Mat.zeros(ring, alg.dim, 1))
    ideal = TwoSidedIdeal(alg, ker, name=f"rad({alg.name})")
    if not ideal.is_nilpotent():
        raise AlgebraError("trace-form kernel is not nilpotent; radical unavailable")
    return alg._built.setdefault("radical", ideal)


class TensorResult:
    """M tensor_R B as a right module over B's right-acting algebra.

    ``relations.quotient_coords`` maps M (x) B coordinates (index i*dimB + j)
    onto quotient coordinates; ``reps`` are coset representatives back in
    M (x) B.
    """

    def __init__(self, module: FdModule, relations: Subspace, reps: List[List]):
        self.module = module
        self.relations = relations
        self.reps = reps


def module_tensor(M: FdModule, B: Bimodule) -> TensorResult:
    """Coequalizer presentation of M tensor_R B (R = M's algebra = B's left side)."""
    if M.algebra != B.left_alg:
        raise AlgebraError("module/bimodule sides do not match for tensor")
    ring = M.algebra.ring
    R = M.algebra
    amb = M.dim * B.dim
    rels = []
    left_rows = [B.left_action[r].rows() for r in range(R.dim)]
    for i in range(M.dim):
        for r in range(R.dim):
            mi_r = M.action[r].row(i)
            for j in range(B.dim):
                vec = [ring.zero] * amb
                for u, c in enumerate(mi_r):
                    if c:
                        vec[u * B.dim + j] = ring.add(vec[u * B.dim + j], c)
                for v, c in enumerate(left_rows[r][j]):
                    if c:
                        vec[i * B.dim + v] = ring.sub(vec[i * B.dim + v], c)
                rels.append(vec)
    relations = Subspace.from_spanning(ring, amb, rels)
    reps = relations.completion()
    qdim = len(reps)
    # right action of B's right algebra on the quotient: (m (x) b) . s = m (x) (b.s)
    S = B.right_alg
    action = []
    for s in range(S.dim):
        right_s = B.right_action[s].rows()
        rows = []
        for rep in reps:
            out = [ring.zero] * amb
            for pos, c in enumerate(rep):
                if not c:
                    continue
                i, j = divmod(pos, B.dim)
                for v, d in enumerate(right_s[j]):
                    if d:
                        out[i * B.dim + v] = ring.add(out[i * B.dim + v], ring.mul(c, d))
            rows.append(relations.quotient_coords(out))
        action.append(Mat.from_rows(ring, rows, qdim))
    module = FdModule(S, qdim, action, name=f"{M.name}(x){B.name}")
    return TensorResult(module, relations, reps)


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
                               idempotent_names=idem_names, primitive=alg.primitive, name=qname)
    proj = RingMap(alg, qalg, [project(alg.basis_vec(i)) for i in range(alg.dim)],
                   name=f"proj:{alg.name}->{qname}")
    return qalg, proj


def projective_module(alg: AlgebraPresentation, summands: Sequence[int]) -> FdModule:
    """Direct sum of the right ideals e_i R as one module.

    The module is built and validated once per summand tuple and then
    cached on the algebra, like ``radical``: a repeat call returns the same
    object, so neither it nor the algebra may be changed after construction.
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
    mod = FdModule(alg, dim, action, name=f"P({list(key)})")
    return alg._built.setdefault(key, mod)
