"""Exact functors between homotopy categories, given by bimodules.

A functor here is tensoring with an (R, S)-bimodule B whose left corners
e_i . B are projective right S-modules.  That projectivity is not assumed:
the constructor demands witnesses, one list per source idempotent, writing
e_i . B as an explicit direct sum of summands f_j . S, and verifies that the
witness map is bijective with ``algebra.check_witness``, the witness rule
almost cases share.  Complexes and maps are then transported summand
by summand, entirely inside projective presentations.

Images come from tables built once per functor: ``corner_table(t, s)`` holds
the image of each basis row of the corner e_t R e_s, found on first use by
one solve against the witness span, which is where an image escaping the
span is caught, and each image row proved on its corner.  The ``apply_*``
methods go to ``homcat.functor_image``, which combines those images by an
entry's corner coordinates and checks them no more; ``functor_matrix``
assembles g -> F(g) from them.

``image_window(subcat)`` applies the functor to a window's objects once and
stores the images on the functor, as a ``FiniteSubcat`` with its own Hom
cache; ``kernel_objects`` and ``ideals.annihilator_ideal`` read them there.
The annihilator's probe is "F(f) is a boundary of Hom(FX, FY)": the images
of a Hom space's representatives are one product with ``window_matrix``,
the ``functor_matrix`` of the pair, stored on the functor beside the window.
Tables and windows are stored with ``dict.setdefault``, so threads racing on
a first call may both build, and all of them keep one result; a window
finds a stored ``extended`` window by equality, as complexes are unhashable.
"""

from __future__ import annotations

from collections import ChainMap
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import (
    AlgebraError,
    Bimodule,
    RingMap,
    check_witness,
    induction_bimodule,
    restriction_bimodule,
)
from .homcat import (
    AlgMat,
    FunctorError,
    GradedMap,
    HomSpace,
    MapLayout,
    ProjComplex,
    functor_image,
)
from .linalg import Mat, solve_left


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
        # corner_table by (target, source) idempotent; concurrent first calls
        # may both build, and setdefault keeps one result for all
        self._tables: Dict[Tuple[int, int], List] = {}
        # image_window by source window (identity), kept the same way
        self._windows: Dict[FiniteSubcat, FiniteSubcat] = {}
        # window_matrix by (source window, a, b), kept the same way
        self._matrices: Dict[Tuple[FiniteSubcat, str, str], Mat] = {}
        n = self.source_alg.n_idempotents()
        for k in witnesses:
            if k not in range(n):
                raise FunctorError(f"{name}: witness key {k!r} is not an index 0..{n - 1}")
        for i in range(n):
            if i not in witnesses:
                raise FunctorError(f"{name}: no witness list for source idempotent {i}")
            pairs = [(j, tuple(ring.parse(c) for c in w)) for j, w in witnesses[i]]
            self.witnesses[i] = pairs
            self._validate_witness(i, pairs)

    def _validate_witness(self, i: int, pairs):
        # e_i . B as the sum of the f_j . S, under B's right action
        B, S = self.bimodule, self.target_alg
        try:
            self._wmat[i] = check_witness(S, B.left_space_of_idempotent(i), pairs,
                                          lambda w, s: B.right_of(s).row_apply(list(w)),
                                          self.name)
        except AlgebraError as exc:
            raise FunctorError(str(exc)) from exc
        dims = [S.right_ideal_space(j).dim for j, _ in pairs]
        self._wblocks[i] = list(zip(self.target_summands(i), accumulate(dims, initial=0), dims))

    # -- transport ----------------------------------------------------------

    def target_summands(self, i: int) -> Tuple[int, ...]:
        return tuple(j for j, _ in self.witnesses[i])

    def image_summands(self, idems: Sequence[int]) -> Tuple[int, ...]:
        out: List[int] = []
        for i in idems:
            out.extend(self.target_summands(i))
        return tuple(out)

    def corner_table(self, t: int, s: int) -> List[Tuple[int, int, List[List]]]:
        """Images of the basis rows of the source corner e_t R e_s, built once.

        One item (u, v, coords) per nonzero block (target witness u, source
        witness v): ``coords[k]`` is that block of basis row k's image, in
        the coordinates of its target corner.
        """
        if (t, s) in self._tables:
            return self._tables[(t, s)]
        S, ring = self.target_alg, self.source_alg.ring
        basis = self.source_alg.corner_space(t, s).rows
        srcw = self.witnesses[s]
        imgs = [self.bimodule.left_of(a).row_apply(list(wv)) for a in basis for _, wv in srcw]
        x = solve_left(self._wmat[t], Mat.from_rows(ring, imgs, self.bimodule.dim))
        if x is None:
            raise FunctorError(f"{self.name}: image escaped the witness span")
        coords = x.rows()
        table = []
        for u, (ju, off, dim) in enumerate(self._wblocks[t]):
            rows = S.right_ideal_space(ju).rows
            for v, (jv, _) in enumerate(srcw):
                elems = [S.combine((cf, e) for cf, e in zip(x_kv[off:off + dim], rows) if cf)
                         for x_kv in coords[v::len(srcw)]]
                if any(map(any, elems)):
                    corner = S.corner_space(ju, jv)
                    table.append((u, v, [corner.coords_of(e) for e in elems]))
        return self._tables.setdefault((t, s), table)

    def apply_algmat(self, m: AlgMat) -> AlgMat:
        return functor_image(self, m)

    def apply_complex(self, X: ProjComplex) -> ProjComplex:
        return functor_image(self, X)

    def image_window(self, subcat: FiniteSubcat) -> FiniteSubcat:
        """The images F(X) of a window's objects, under the objects' names,
        as a window over the target algebra; built once per window."""
        W = self._windows.get(subcat)
        if W is None:
            W = self._windows.setdefault(subcat, FiniteSubcat(
                {name: self.apply_complex(X) for name, X in subcat.objects.items()}))
        return W

    def window_matrix(self, subcat: FiniteSubcat, a: str, b: str) -> Mat:
        """``functor_matrix`` of Hom(a, b) in a window into its image window, built once."""
        key = (subcat, a, b)
        if key not in self._matrices:
            self._matrices.setdefault(key, functor_matrix(
                self, subcat.hom(a, b).L0, self.image_window(subcat).hom(a, b).L0))
        return self._matrices[key]

    def apply_map(self, f: GradedMap, FX: Optional[ProjComplex] = None,
                  FY: Optional[ProjComplex] = None) -> GradedMap:
        return functor_image(self, f, FX, FY)

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
    """A finite family of complexes whose ``hom``, ``composition_tensor`` and
    ``shift_matrix`` are each built on first use and stored on the window,
    so every ideal on it shares them.  The stored data stay valid because a
    window is immutable after construction.

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
        self.alg = next(iter(self.objects.values())).alg
        if any(X.alg != self.alg for X in self.objects.values()):
            raise FunctorError("objects live over different algebras")
        self.shifts = dict(shifts or {})
        for a, sa in self.shifts.items():
            if a not in self.objects or sa not in self.objects:
                raise FunctorError(f"shift pairing mentions unknown object {a} or {sa}")
            if self.objects[sa] != self.objects[a].shift(1):
                raise FunctorError(f"{sa} is not literally the translation of {a}")
        self._homs: Dict[Tuple[str, str], HomSpace] = {}
        self._comp: Dict[Tuple[str, str, str], List[List[List]]] = {}
        self._shift: Dict[Tuple[str, str], Mat] = {}
        self._extensions: List[Tuple[Dict[int, ProjComplex], FiniteSubcat]] = []

    def names(self) -> List[str]:
        return list(self.order)

    def hom(self, a: str, b: str) -> HomSpace:
        H = self._homs.get((a, b))
        if H is None:
            H = self._homs[(a, b)] = HomSpace(self.objects[a], self.objects[b])
        return H

    def composition_tensor(self, a: str, b: str, c: str) -> List[List[List]]:
        """T[i][j] = class coordinates of (j-th map b->c) . (i-th map a->b)."""
        key = (a, b, c)
        if key not in self._comp:
            Hab, Hbc, Hac = self.hom(a, b), self.hom(b, c), self.hom(a, c)
            fs, gs = Hab.basis(), Hbc.basis()
            C = Hac.class_matrix([g.compose(f) for f in fs for g in gs]).rows() if fs and gs else []
            self._comp[key] = [C[i * len(gs):(i + 1) * len(gs)] for i in range(len(fs))]
        return self._comp[key]

    def extended(self, extra: Dict[int, ProjComplex]) -> "FiniteSubcat":
        """This window with more objects under integer keys, apart from the
        string names; built once per equal family of extra objects.  It reads
        this window's stored Hom spaces and tensors and keeps its own apart."""
        for known, W in self._extensions:
            if known == extra:
                return W
        W = FiniteSubcat({**self.objects, **extra})
        W._homs, W._comp = ChainMap({}, self._homs), ChainMap({}, self._comp)
        self._extensions.append((extra, W))
        return W

    def shift_matrix(self, a: str, b: str) -> Mat:
        """Class-coordinate matrix of the translation Hom(a,b) -> Hom(sa, sb)."""
        key = (a, b)
        if key not in self._shift:
            sa, sb = self.shifts.get(a), self.shifts.get(b)
            if sa is None or sb is None:
                raise FunctorError("shift pairing not declared for both endpoints")
            self._shift[key] = self.hom(sa, sb).class_matrix(
                [f.shift(1) for f in self.hom(a, b).basis()])
        return self._shift[key]


def functor_matrix(F: BimoduleFunctor, layout_in: MapLayout, layout_out: MapLayout) -> Mat:
    """Matrix (row convention) of g -> F(g) from a layout to the layout of its images.

    Like ``homcat.operator_matrix``, it is assembled block by block: each
    slot of g feeds the output slots of its corner table's nonzero blocks.
    """
    X, Y, s = layout_in.X, layout_in.Y, layout_in.degree
    if (layout_in.alg != F.source_alg or layout_out.alg != F.target_alg
            or layout_out.degree != s
            or any(FA.summands_at(n) != F.image_summands(A.summands_at(n))
                   for A, FA in ((X, layout_out.X), (Y, layout_out.Y))
                   for n in set(A.degrees()) | set(FA.degrees()))):
        raise FunctorError(f"{F.name}: output layout is not the image of the input layout")
    items = {}
    for n, r, c, _, off_in in layout_in.slots:
        ys, xs = Y.summands_at(n + s), X.summands_at(n)
        roff, coff = len(F.image_summands(ys[:r])), len(F.image_summands(xs[:c]))
        for u, v, coords in F.corner_table(ys[r], xs[c]):
            off_out = layout_out.index[(n, roff + u, coff + v)]
            for k, row in enumerate(coords):
                for w, val in enumerate(row):
                    if val:
                        items[(off_in + k, off_out + w)] = val
    return Mat.from_entries(layout_in.alg.ring, layout_in.dim, layout_out.dim, items)


def kernel_objects(F: BimoduleFunctor, subcat: FiniteSubcat) -> List[str]:
    """Names of objects sent to a contractible complex.

    F(X) is contractible exactly when its identity, and so every endomorphism,
    is nullhomotopic: when Hom(F(X), F(X)) in the image window is zero.
    """
    W = F.image_window(subcat)
    return [name for name in W.names() if W.hom(name, name).dim == 0]
