"""Ideals of homotopy classes on a finite family of complexes.

An ideal assigns to every ordered pair of objects a subspace of the
hom classes, closed under composition with arbitrary classes on either
side.  All calculus happens in class coordinates of the cached hom
spaces, so products, closures, stability and saturation checks reduce
to exact linear algebra over the ground field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .functors import BimoduleFunctor, FiniteSubcat, kernel_objects
from .homcat import GradedMap, recognize_triangle
from .linalg import Mat, Subspace, left_kernel


class IdealError(ValueError):
    """Malformed ideal data or mismatched subcategory objects."""


Pair = Tuple[str, str]


def compose_coords(subcat: FiniteSubcat, a: str, b: str, c: str,
                   v: Sequence, w: Sequence) -> List:
    """Class coordinates of (class w in hom(b,c)) . (class v in hom(a,b))."""
    ring = subcat.alg.ring
    T = subcat.composition_tensor(a, b, c)
    out = [ring.zero] * subcat.hom(a, c).dim
    for i, vi in enumerate(v):
        if not vi:
            continue
        for j, wj in enumerate(w):
            if not wj:
                continue
            cf = ring.mul(vi, wj)
            for p, t in enumerate(T[i][j]):
                out[p] = ring.add(out[p], ring.mul(cf, t))
    return out


def _unit(ring, n: int, i: int) -> List:
    v = [ring.zero] * n
    v[i] = ring.one
    return v


class HomIdeal:
    """Per-pair subspaces of hom classes, closed under composition.

    Only nonzero components are stored: ``components`` maps a pair to a
    subspace of positive dimension, and ``component`` gives the zero
    subspace at every other pair of the window.  ``HomIdeal(...)`` checks
    the shapes of the pairs it is given, and the closure by composing each
    basis class with every class on either side.  ``ideal_closure``,
    ``ideal_product``, ``factor_through_ideal`` and ``kernel_ideal`` build
    through ``_constructed``, which checks the shapes only: each proves the
    closure of what it builds, in one line at the call.
    """

    def __init__(self, subcat: FiniteSubcat,
                 components: Dict[Pair, Subspace]):
        self._fill(subcat, components)
        if not self._closed():
            raise IdealError("components are not closed under composition")

    @classmethod
    def _constructed(cls, subcat: FiniteSubcat,
                     components: Dict[Pair, Subspace]) -> "HomIdeal":
        """An ideal whose closure its caller has proved: only shapes are checked."""
        I = object.__new__(cls)
        I._fill(subcat, components)
        return I

    def _fill(self, subcat: FiniteSubcat, components: Dict[Pair, Subspace]):
        self.subcat = subcat
        self.components: Dict[Pair, Subspace] = {}
        for key, got in components.items():
            want = subcat.hom(*_window_pair(subcat, key, "component")).dim
            if got.ambient != want:
                raise IdealError(f"component at ({key[0]}, {key[1]}) has ambient "
                                 f"{got.ambient}, hom space has dim {want}")
            if got.dim:
                self.components[key] = got

    def _closed(self) -> bool:
        return all(self.component(*key).contains(w)
                   for (a, b), I in self.components.items()
                   for key, new in _composites(self.subcat, a, b, I.rows) for w in new)

    def component(self, a: str, b: str) -> Subspace:
        got = self.components.get((a, b))
        if got is None:
            return Subspace.zero(self.subcat.alg.ring, self.subcat.hom(a, b).dim)
        return got

    def contains_map(self, a: str, b: str, f: GradedMap) -> bool:
        return self.component(a, b).contains(self.subcat.hom(a, b).class_coords(f))

    def dims(self) -> Dict[Pair, int]:
        return {k: s.dim for k, s in self.components.items()}

    def __eq__(self, other):
        if not isinstance(other, HomIdeal):
            return NotImplemented
        if self.subcat is not other.subcat:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(frozenset((k, s.rows) for k, s in self.components.items()))

    def __repr__(self):
        nz = ", ".join(f"{a}->{b}:{d}" for (a, b), d in sorted(self.dims().items()))
        return f"HomIdeal({nz or 'zero'})"


def _window_pair(subcat: FiniteSubcat, key, what: str) -> Pair:
    if not (isinstance(key, tuple) and len(key) == 2
            and all(x in subcat.objects for x in key)):
        raise IdealError(f"{what} at unknown pair {key}")
    return key


def zero_ideal(subcat: FiniteSubcat) -> HomIdeal:
    return HomIdeal(subcat, {})


def _composites(subcat: FiniteSubcat, a: str, b: str, rows: Sequence[Sequence]):
    """Yield ((a, c), classes) and ((c, b), classes) for each object c: the
    composites of the classes ``rows`` of hom(a, b) with each basis class of
    hom(b, c) on the left and of hom(c, a) on the right.  A c with both hom
    spaces zero composes with nothing and is skipped."""
    ring = subcat.alg.ring
    for c in subcat.names():
        Hbc, Hca = subcat.hom(b, c), subcat.hom(c, a)
        if Hbc.dim:
            yield (a, c), [compose_coords(subcat, a, b, c, v, _unit(ring, Hbc.dim, j))
                           for v in rows for j in range(Hbc.dim)]
        if Hca.dim:
            yield (c, b), [compose_coords(subcat, c, a, b, _unit(ring, Hca.dim, j), v)
                           for v in rows for j in range(Hca.dim)]


def ideal_closure(subcat: FiniteSubcat,
                  seeds: Dict[Pair, Sequence[Sequence]]) -> HomIdeal:
    """Smallest two-sided ideal containing the seed classes."""
    ring = subcat.alg.ring
    spans: Dict[Pair, Subspace] = {}
    todo = [(_window_pair(subcat, key, "seed"), vecs) for key, vecs in seeds.items()]
    while todo:
        key, vecs = todo.pop()
        old = spans[key] if key in spans else Subspace.zero(ring, subcat.hom(*key).dim)
        new = [v for v in vecs if not old.contains(v)]
        if new:
            spans[key] = old.span_with(new)
            todo.extend(_composites(subcat, *key, new))
    # every class added is composed with every basis class on either side
    return HomIdeal._constructed(subcat, spans)


def principal_ideal(subcat: FiniteSubcat, a: str, b: str, f: GradedMap) -> HomIdeal:
    """Ideal generated by the class of one map."""
    coords = subcat.hom(*_window_pair(subcat, (a, b), "seed")).class_coords(f)
    return ideal_closure(subcat, {(a, b): [coords]})


def ideal_product(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """Span of composites (element of J) . (element of I)."""
    if I.subcat is not J.subcat:
        raise IdealError("ideal product across different subcategories")
    subcat = I.subcat
    vecs: Dict[Pair, List] = {}
    for (a, b), S in I.components.items():
        for (b2, c), T in J.components.items():
            if b2 == b:
                vecs.setdefault((a, c), []).extend(
                    compose_coords(subcat, a, b, c, v, w) for v in S.rows for w in T.rows)
    ring = subcat.alg.ring
    comps = {key: Subspace.from_spanning(ring, subcat.hom(*key).dim, vs)
             for key, vs in vecs.items()}
    # h . (j . i) = (h . j) . i and (j . i) . g = j . (i . g), with h . j in J and i . g in I
    return HomIdeal._constructed(subcat, comps)


def is_idempotent_ideal(I: HomIdeal) -> bool:
    return ideal_product(I, I) == I


def kernel_ideal(subcat: FiniteSubcat, probe: Callable[[str, str], Mat]) -> HomIdeal:
    """The classes a probe kills: where hom(a, b) is nonzero, the left kernel
    of ``probe(a, b)``, whose row i is the image of basis class i.  The probe
    must kill h . f and f . g whenever it kills f; each caller says why."""
    names = subcat.names()
    return HomIdeal._constructed(subcat, {(a, b): left_kernel(probe(a, b))
                                          for a in names for b in names
                                          if subcat.hom(a, b).dim})


def annihilator_ideal(F: BimoduleFunctor, subcat: FiniteSubcat) -> HomIdeal:
    """The classes F kills, by the probe "F(f) is a boundary of Hom(FX, FY)",
    read in the images and Hom spaces of ``F.image_window(subcat)``."""
    W = F.image_window(subcat)

    def probe(a, b):
        H, FH = subcat.hom(a, b), W.hom(a, b)
        # F of a chain map is a chain map, and F(f) ~ 0 exactly when F(f) is a
        # boundary: the images of the representatives need no check and no solve
        images = Mat.from_rows(H.ring, H.reps, H.L0.dim) @ F.window_matrix(subcat, a, b)
        return _modulo(images, FH.boundaries)
    # F(h . f) = F(h) . F(f) is nullhomotopic when F(f) is
    return kernel_ideal(subcat, probe)


def factor_through_ideal(subcat: FiniteSubcat, through: Sequence[str]) -> HomIdeal:
    """Classes spanned by composites passing through the named objects."""
    ring = subcat.alg.ring
    names = subcat.names()
    for t in through:
        if t not in subcat.objects:
            raise IdealError(f"unknown object {t!r} in factoring family")
    # composite of basis classes i of hom(a, b) and j of hom(b, c): T[i][j]
    comps = {(a, c): Subspace.from_spanning(
        ring, subcat.hom(a, c).dim,
        [t for b in through for row in subcat.composition_tensor(a, b, c) for t in row])
        for a in names for c in names if subcat.hom(a, c).dim}
    # a composite with a map through t still passes through t
    return HomIdeal._constructed(subcat, comps)


# -- stability and saturation -------------------------------------------------


def shift_stability_report(I: HomIdeal) -> Tuple[bool, List[Pair]]:
    """Compare each component with its declared translation, where possible.

    Returns (all checked pairs matched, list of checked pairs).  Pairs
    without a declared translation on both sides are skipped; stability
    is only ever asserted for the window that was actually checked.
    """
    subcat = I.subcat
    ring = subcat.alg.ring
    checked = []
    ok = True
    for a, b in product(subcat.names(), repeat=2):
        sa, sb = subcat.shifts.get(a), subcat.shifts.get(b)
        if sa is None or sb is None:
            continue
        checked.append((a, b))
        S = I.components.get((a, b))
        if S is None:
            # the translation of a zero component is zero
            ok = ok and (sa, sb) not in I.components
            continue
        M = subcat.shift_matrix(a, b)
        image = Subspace.from_spanning(ring, M.ncols, [M.row_apply(r) for r in S.rows])
        if image != I.component(sa, sb):
            ok = False
    return ok, checked


def _modulo(M: Mat, S: Subspace) -> Mat:
    """The rows of M, read in the quotient coordinates of ring^ambient / S."""
    return Mat.from_rows(M.ring, [S.quotient_coords(r) for r in M.rows()], S.ambient - S.dim)


def _preimage(M: Mat, S: Subspace) -> Subspace:
    """Subspace {v : v @ M lies in S}."""
    return left_kernel(_modulo(M, S))


@dataclass
class TrianglePresentation:
    """An exact triangle whose objects carry subcat names, recognized when built."""

    names: Tuple[str, str, str]
    alpha: GradedMap
    beta: GradedMap
    gamma: GradedMap

    def __post_init__(self):
        verdict = recognize_triangle(self.alpha, self.beta, self.gamma)
        if verdict.verdict != "exact":
            raise IdealError(f"triangle on {self.names} failed verification: {verdict.reason}")


@dataclass
class SaturationCheck:
    triangle: Tuple[str, str, str]
    target: str
    applicable: bool
    holds: bool


def saturation_report(I: HomIdeal, triangles: Sequence[TrianglePresentation]
                      ) -> Tuple[bool, List[SaturationCheck]]:
    """Test saturation against the supplied triangles.

    For a triangle (alpha, beta) with the middle leg beta inside the
    ideal, every class composing into the ideal along alpha must already
    lie in it.  Triangles whose middle leg is outside impose nothing.
    """
    subcat = I.subcat
    ring = subcat.alg.ring
    checks: List[SaturationCheck] = []
    ok = True
    for tri in triangles:
        na, nb, nc = tri.names
        for name, obj in ((na, tri.alpha.source), (nb, tri.alpha.target),
                          (nc, tri.beta.target)):
            if name not in subcat.objects or subcat.objects[name] != obj:
                raise IdealError(f"triangle object does not match {name!r}")
        beta_in = I.contains_map(nb, nc, tri.beta)
        alpha_coords = subcat.hom(na, nb).class_coords(tri.alpha)
        for y in subcat.names():
            if not beta_in:
                checks.append(SaturationCheck(tri.names, y, False, True))
                continue
            Hby = subcat.hom(nb, y)
            rows = [compose_coords(subcat, na, nb, y, alpha_coords,
                                   _unit(ring, Hby.dim, i))
                    for i in range(Hby.dim)]
            M = Mat.from_rows(ring, rows, subcat.hom(na, y).dim)
            lhs = _preimage(M, I.component(na, y))
            holds = lhs.is_subspace_of(I.component(nb, y))
            checks.append(SaturationCheck(tri.names, y, True, holds))
            if not holds:
                ok = False
    return ok, checks


@dataclass
class ExactIdealReport:
    square: HomIdeal                   # I . I, which idempotence compares with I
    idempotent: bool
    shift_stable: bool
    shift_pairs_checked: List[Pair]
    saturated: Optional[bool]
    saturation_checks: List[SaturationCheck] = field(default_factory=list)


def exact_ideal_report(I: HomIdeal,
                       triangles: Sequence[TrianglePresentation] = ()) -> ExactIdealReport:
    square = ideal_product(I, I)
    stable, pairs = shift_stability_report(I)
    sat, checks = saturation_report(I, triangles) if triangles else (None, [])
    return ExactIdealReport(square, square == I, stable, pairs, sat, checks)


# -- annihilator versus kernel ------------------------------------------------


@dataclass
class TelescopeReport:
    """Comparison of the two candidate ideals attached to a functor.

    ``annihilator`` collects the classes the functor kills;
    ``factor_ideal`` collects the classes factoring through killed
    objects.  The second is always contained in the first; the report
    records whether they agree on the window.
    """

    annihilator: HomIdeal
    kernel_names: List[str]
    factor_ideal: HomIdeal
    consistent: bool
    mismatches: List[Pair]


def telescope_report(F: BimoduleFunctor, subcat: FiniteSubcat) -> TelescopeReport:
    ann = annihilator_ideal(F, subcat)
    kern = kernel_objects(F, subcat)
    fac = factor_through_ideal(subcat, kern)
    mismatches = []
    for key in sorted(ann.components.keys() | fac.components.keys()):
        A, T = ann.component(*key), fac.component(*key)
        if not T.is_subspace_of(A):
            raise IdealError(f"factoring classes at {key} escape the annihilator")
        if A != T:
            mismatches.append(key)
    return TelescopeReport(ann, kern, fac, not mismatches, mismatches)
