"""Exact functors between homotopy categories, given by bimodules.

A functor here is tensoring with an (R, S)-bimodule B whose left corners
e_i . B are projective right S-modules.  That projectivity is not assumed:
the constructor demands witnesses, one list per source idempotent, writing
e_i . B as an explicit direct sum of summands f_j . S, and verifies that the
witness map is bijective.  Complexes and maps are then transported summand
by summand, entirely inside projective presentations.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import Bimodule, RingMap, induction_bimodule, restriction_bimodule
from .homcat import AlgMat, GradedMap, HomSpace, ProjComplex, is_contractible, same_complex
from .linalg import Mat, Subspace, rank, solve_left


class FunctorError(ValueError):
    """Witness or transport failure in a bimodule functor."""


class BimoduleFunctor:
    """Tensoring with a bimodule, with certified projective corners."""

    def __init__(self, bimodule: Bimodule,
                 witnesses: Dict[int, Sequence[Tuple[int, Sequence]]],
                 name: str = "F"):
        self.bimodule = bimodule
        self.name = name
        self.source_alg = bimodule.left_alg
        self.target_alg = bimodule.right_alg
        ring = self.source_alg.ring
        self.witnesses: Dict[int, List[Tuple[int, Tuple]]] = {}
        self._wmat: Dict[int, Mat] = {}
        self._wblocks: Dict[int, List[Tuple[int, int, int]]] = {}  # (target idem, offset, dim)
        for i in range(self.source_alg.n_idempotents()):
            if i not in witnesses:
                raise FunctorError(f"{name}: no witness list for source idempotent {i}")
            pairs = [(int(j), tuple(ring.parse(c) for c in w)) for j, w in witnesses[i]]
            self.witnesses[i] = pairs
            self._validate_witness(i, pairs)

    def _validate_witness(self, i: int, pairs):
        B = self.bimodule
        ring = self.source_alg.ring
        ei = self.source_alg.idempotent_vec(i)
        E = B.left_of(ei)
        corner = B.left_space_of_idempotent(i)
        rows = []
        blocks = []
        off = 0
        for j, w in pairs:
            if list(E.row_apply(list(w))) != list(w):
                raise FunctorError(f"{self.name}: witness for idempotent {i} "
                                   f"is not left-fixed by it")
            fj = self.target_alg.idempotent_vec(j)
            if list(B.right_of(fj).row_apply(list(w))) != list(w):
                raise FunctorError(f"{self.name}: witness for idempotent {i} "
                                   f"is not right-supported on its target summand")
            sp = self.target_alg.right_ideal_space(j)
            for s in sp.rows:
                rows.append(B.right_of(tuple(s)).row_apply(list(w)))
            blocks.append((j, off, sp.dim))
            off += sp.dim
        W = Mat.from_rows(ring, rows, B.dim)
        for r in range(W.nrows):
            if not corner.contains(W.row(r)):
                raise FunctorError(f"{self.name}: witness span escapes the corner")
        if W.nrows != corner.dim or rank(W) != corner.dim:
            raise FunctorError(
                f"{self.name}: witness for idempotent {i} is not a bijection "
                f"onto its corner (rows {W.nrows}, corner dim {corner.dim})"
            )
        self._wmat[i] = W
        self._wblocks[i] = blocks

    # -- transport ----------------------------------------------------------

    def target_summands(self, i: int) -> Tuple[int, ...]:
        return tuple(j for j, _ in self.witnesses[i])

    def image_summands(self, idems: Sequence[int]) -> Tuple[int, ...]:
        out: List[int] = []
        for i in idems:
            out.extend(self.target_summands(i))
        return tuple(out)

    def _entry_block(self, a, tgt_i: int, src_i: int) -> List[List[Tuple]]:
        """Image of one left-multiplication entry as a grid of target elements."""
        B = self.bimodule
        ring = self.source_alg.ring
        S = self.target_alg
        La = B.left_of(a)
        cols = []
        for _, wv in self.witnesses[src_i]:
            img = La.row_apply(list(wv))
            x, _ = solve_left(self._wmat[tgt_i], Mat.from_rows(ring, [img], B.dim))
            if x is None:
                raise FunctorError(f"{self.name}: image escaped the witness span")
            coords = x.row(0)
            col = []
            for ju, offu, dimu in self._wblocks[tgt_i]:
                sp = S.right_ideal_space(ju)
                vec = [ring.zero] * S.dim
                for t in range(dimu):
                    cf = coords[offu + t]
                    if cf:
                        for p, b in enumerate(sp.rows[t]):
                            vec[p] = ring.add(vec[p], ring.mul(cf, b))
                col.append(tuple(vec))
            cols.append(col)
        # transpose: rows = target witness summands, cols = source witness summands
        nrows = len(self._wblocks[tgt_i])
        return [[cols[c][r] for c in range(len(cols))] for r in range(nrows)]

    def apply_algmat(self, m: AlgMat) -> AlgMat:
        S = self.target_alg
        tgt = self.image_summands(m.target_idems)
        src = self.image_summands(m.source_idems)
        grid: List[List] = [[None] * len(src) for _ in range(len(tgt))]
        roff = 0
        for r, ti in enumerate(m.target_idems):
            rspan = len(self.witnesses[ti])
            coff = 0
            for c, si in enumerate(m.source_idems):
                cspan = len(self.witnesses[si])
                block = self._entry_block(m.entries[r][c], ti, si)
                for u in range(rspan):
                    for v in range(cspan):
                        grid[roff + u][coff + v] = block[u][v]
                coff += cspan
            roff += rspan
        return AlgMat(S, tgt, src, grid)

    def apply_complex(self, X: ProjComplex, name: Optional[str] = None) -> ProjComplex:
        summands = {n: self.image_summands(X.summands_at(n)) for n in X.degrees()}
        diff = {n: self.apply_algmat(d) for n, d in X.diff.items()}
        return ProjComplex(self.target_alg, summands, diff,
                           name=name or f"{self.name}({X.name})")

    def apply_map(self, f: GradedMap, FX: Optional[ProjComplex] = None,
                  FY: Optional[ProjComplex] = None) -> GradedMap:
        FX = FX or self.apply_complex(f.source)
        FY = FY or self.apply_complex(f.target)
        comps = {n: self.apply_algmat(m) for n, m in f.components.items()}
        return GradedMap(FX, FY, f.degree, comps, name=f"{self.name}({f.name})")

    def k0_matrix(self) -> List[List[int]]:
        """Multiplicity matrix on summand classes, consistent with dimensions."""
        S = self.target_alg
        out = []
        for i in range(self.source_alg.n_idempotents()):
            row = [0] * S.n_idempotents()
            total = 0
            for j, _ in self.witnesses[i]:
                row[j] += 1
                total += S.right_ideal_space(j).dim
            if total != self.bimodule.left_space_of_idempotent(i).dim:
                raise FunctorError("witness multiplicities disagree with corner dimension")
            out.append(row)
        return out

    def __repr__(self):
        return (f"BimoduleFunctor({self.name}: {self.source_alg.name} -> "
                f"{self.target_alg.name})")


def induction_functor(g: RingMap, witnesses, name: Optional[str] = None) -> BimoduleFunctor:
    """Base change along R -> S: tensor with S as an (R, S)-bimodule."""
    return BimoduleFunctor(induction_bimodule(g), witnesses, name=name or f"ind({g.name})")


def restriction_functor(f: RingMap, witnesses, name: Optional[str] = None) -> BimoduleFunctor:
    """Restriction along C -> A: tensor with A as an (A, C)-bimodule."""
    return BimoduleFunctor(restriction_bimodule(f), witnesses, name=name or f"res({f.name})")


class FiniteSubcat:
    """A finite family of complexes with cached hom spaces and compositions.

    ``shifts`` optionally declares that one object is literally the
    translation of another (same summands, same differentials); ideal-side
    stability checks use that pairing.
    """

    def __init__(self, objects: Dict[str, ProjComplex],
                 shifts: Optional[Dict[str, str]] = None):
        self.objects = dict(objects)
        self.order = list(objects)
        if not self.objects:
            raise FunctorError("empty object family")
        algs = {id(X.alg) for X in self.objects.values()}
        if len(algs) != 1:
            raise FunctorError("objects live over different algebras")
        self.alg = next(iter(self.objects.values())).alg
        self.shifts = dict(shifts or {})
        for a, sa in self.shifts.items():
            if a not in self.objects or sa not in self.objects:
                raise FunctorError(f"shift pairing mentions unknown object {a} or {sa}")
            X, SX = self.objects[a], self.objects[sa]
            lit = X.shift(1)
            if not same_complex(SX, lit):
                raise FunctorError(f"{sa} is not literally the translation of {a}")
        self._homs: Dict[Tuple[str, str], HomSpace] = {}
        self._comp: Dict[Tuple[str, str, str], List[List[List]]] = {}

    def names(self) -> List[str]:
        return list(self.order)

    def hom(self, a: str, b: str) -> HomSpace:
        key = (a, b)
        if key not in self._homs:
            self._homs[key] = HomSpace(self.objects[a], self.objects[b])
        return self._homs[key]

    def composition_tensor(self, a: str, b: str, c: str) -> List[List[List]]:
        """T[i][j] = class coordinates of (j-th map b->c) . (i-th map a->b)."""
        key = (a, b, c)
        if key not in self._comp:
            Hab, Hbc, Hac = self.hom(a, b), self.hom(b, c), self.hom(a, c)
            fs, gs = Hab.basis(), Hbc.basis()
            self._comp[key] = [[Hac.class_coords(g.compose(f)) for g in gs] for f in fs]
        return self._comp[key]

    def shift_matrix(self, a: str, b: str) -> Mat:
        """Class-coordinate matrix of the translation Hom(a,b) -> Hom(sa, sb)."""
        sa, sb = self.shifts.get(a), self.shifts.get(b)
        if sa is None or sb is None:
            raise FunctorError("shift pairing not declared for both endpoints")
        Hab = self.hom(a, b)
        Hs = self.hom(sa, sb)
        ring = self.alg.ring
        rows = []
        for f in Hab.basis():
            g = f.shift(1)
            moved = GradedMap(self.objects[sa], self.objects[sb], 0, g.components)
            rows.append(Hs.class_coords(moved))
        return Mat.from_rows(ring, rows, Hs.dim)


def functor_class_matrix(F: BimoduleFunctor, H: HomSpace,
                         FH: HomSpace, FX: ProjComplex, FY: ProjComplex) -> Mat:
    """Matrix (row convention) of the induced map on homotopy classes."""
    ring = F.source_alg.ring
    rows = [FH.class_coords(F.apply_map(f, FX, FY)) for f in H.basis()]
    return Mat.from_rows(ring, rows, FH.dim)


def annihilator_classes(F: BimoduleFunctor, H: HomSpace,
                        FH: HomSpace, FX: ProjComplex, FY: ProjComplex) -> Subspace:
    """Classes killed by the functor, as a subspace in class coordinates."""
    ring = F.source_alg.ring
    M = functor_class_matrix(F, H, FH, FX, FY)
    if H.dim == 0:
        return Subspace.zero(ring, 0)
    if FH.dim == 0:
        return Subspace.full(ring, H.dim)
    _, ker = solve_left(M, Mat.zeros(ring, 1, FH.dim))
    return ker


def kernel_objects(F: BimoduleFunctor, subcat: FiniteSubcat) -> List[str]:
    """Names of objects sent to a contractible complex."""
    out = []
    for name, X in subcat.objects.items():
        ok, _ = is_contractible(F.apply_complex(X))
        if ok:
            out.append(name)
    return out
