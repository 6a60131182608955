"""Ideals of homotopy classes on a finite family of complexes.

An ideal assigns to every ordered pair of objects a subspace of the
hom classes, closed under composition with arbitrary classes on either
side.  All calculus happens in class coordinates of the cached hom
spaces, so products, closures, stability and saturation checks reduce
to exact linear algebra over the ground field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .functors import BimoduleFunctor, FiniteSubcat, annihilator_classes, kernel_objects
from .homcat import GradedMap, HomSpace, recognize_triangle, same_complex
from .linalg import Mat, Subspace, solve_left


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
    """Per-pair subspaces of hom classes, verified two-sided."""

    def __init__(self, subcat: FiniteSubcat,
                 components: Dict[Pair, Subspace], validate: bool = True):
        self.subcat = subcat
        ring = subcat.alg.ring
        self.components: Dict[Pair, Subspace] = {}
        names = subcat.names()
        for a in names:
            for b in names:
                got = components.get((a, b))
                want = subcat.hom(a, b).dim
                if got is None:
                    got = Subspace.zero(ring, want)
                if got.ambient != want:
                    raise IdealError(f"component at ({a}, {b}) has ambient "
                                     f"{got.ambient}, hom space has dim {want}")
                self.components[(a, b)] = got
        for key in components:
            if key not in self.components:
                raise IdealError(f"component at unknown pair {key}")
        if validate and not self._closed():
            raise IdealError("components are not closed under composition")

    def _closed(self) -> bool:
        return all(self.components[key].contains(w)
                   for (a, b), I in self.components.items() if I.dim
                   for key, new in _composites(self.subcat, a, b, I.rows) for w in new)

    def component(self, a: str, b: str) -> Subspace:
        return self.components[(a, b)]

    def contains_map(self, a: str, b: str, f: GradedMap) -> bool:
        return self.components[(a, b)].contains(self.subcat.hom(a, b).class_coords(f))

    def dims(self) -> Dict[Pair, int]:
        return {k: s.dim for k, s in self.components.items() if s.dim > 0}

    def total_dim(self) -> int:
        return sum(s.dim for s in self.components.values())

    def is_zero(self) -> bool:
        return self.total_dim() == 0

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


def zero_ideal(subcat: FiniteSubcat) -> HomIdeal:
    return HomIdeal(subcat, {}, validate=False)


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
    names = subcat.names()
    spans = {(a, b): Subspace.from_spanning(ring, subcat.hom(a, b).dim, list(seeds.get((a, b), ())))
             for a in names for b in names}
    changed = True
    while changed:
        changed = False
        for a, b in spans:
            if spans[(a, b)].dim:
                for key, new in _composites(subcat, a, b, spans[(a, b)].rows):
                    old = spans[key]
                    spans[key] = Subspace.from_spanning(ring, old.ambient, list(old.rows) + new)
                    changed = changed or spans[key].dim > old.dim
    return HomIdeal(subcat, spans)


def principal_ideal(subcat: FiniteSubcat, a: str, b: str, f: GradedMap) -> HomIdeal:
    """Ideal generated by the class of one map."""
    coords = subcat.hom(a, b).class_coords(f)
    return ideal_closure(subcat, {(a, b): [coords]})


def ideal_product(I: HomIdeal, J: HomIdeal) -> HomIdeal:
    """Span of composites (element of J) . (element of I)."""
    if I.subcat is not J.subcat:
        raise IdealError("ideal product across different subcategories")
    subcat = I.subcat
    ring = subcat.alg.ring
    names = subcat.names()
    comps = {}
    for a in names:
        for c in names:
            vecs = []
            for b in names:
                for v in I.component(a, b).rows:
                    for w in J.component(b, c).rows:
                        vecs.append(compose_coords(subcat, a, b, c, v, w))
            comps[(a, c)] = Subspace.from_spanning(ring, subcat.hom(a, c).dim, vecs)
    return HomIdeal(subcat, comps)


def is_idempotent_ideal(I: HomIdeal) -> bool:
    return ideal_product(I, I) == I


def annihilator_ideal(F: BimoduleFunctor, subcat: FiniteSubcat) -> HomIdeal:
    """Classes sent to a nullhomotopic map by the functor."""
    images = {name: F.apply_complex(X) for name, X in subcat.objects.items()}
    comps = {}
    for a in subcat.names():
        for b in subcat.names():
            FH = HomSpace(images[a], images[b])
            comps[(a, b)] = annihilator_classes(F, subcat.hom(a, b), FH,
                                                images[a], images[b])
    return HomIdeal(subcat, comps)


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
        for a in names for c in names}
    return HomIdeal(subcat, comps)


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
    for (a, b), S in I.components.items():
        sa, sb = subcat.shifts.get(a), subcat.shifts.get(b)
        if sa is None or sb is None:
            continue
        checked.append((a, b))
        M = subcat.shift_matrix(a, b)
        image = Subspace.from_spanning(ring, M.ncols, [M.row_apply(r) for r in S.rows])
        if image != I.component(sa, sb):
            ok = False
    return ok, checked


def _preimage(subcat, ring, M: Mat, S: Subspace) -> Subspace:
    """Subspace {v : v @ M lies in S}."""
    if M.nrows == 0:
        return Subspace.zero(ring, 0)
    qdim = S.ambient - S.dim
    if qdim == 0:
        return Subspace.full(ring, M.nrows)
    MQ = Mat.from_rows(ring, [S.quotient_coords(r) for r in M.rows()], qdim)
    _, ker = solve_left(MQ, Mat.zeros(ring, 1, qdim))
    return ker


@dataclass
class TrianglePresentation:
    """A verified exact triangle whose three objects carry subcat names."""

    names: Tuple[str, str, str]
    alpha: GradedMap
    beta: GradedMap
    gamma: GradedMap


@dataclass
class SaturationCheck:
    triangle: Tuple[str, str, str]
    target: str
    applicable: bool
    holds: bool


def saturation_report(I: HomIdeal, triangles: Sequence[TrianglePresentation],
                      verify: bool = True) -> Tuple[bool, List[SaturationCheck]]:
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
            if name not in subcat.objects or not same_complex(subcat.objects[name], obj):
                raise IdealError(f"triangle object does not match {name!r}")
        if verify:
            verdict = recognize_triangle(tri.alpha, tri.beta, tri.gamma)
            if verdict.verdict != "exact":
                raise IdealError(f"triangle on {tri.names} failed verification: "
                                 f"{verdict.reason}")
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
            lhs = _preimage(subcat, ring, M, I.component(na, y))
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

    @property
    def exact_on_window(self) -> bool:
        return self.idempotent and self.shift_stable and self.saturated is True


def exact_ideal_report(I: HomIdeal,
                       triangles: Sequence[TrianglePresentation] = (),
                       verify_triangles: bool = True) -> ExactIdealReport:
    square = ideal_product(I, I)
    stable, pairs = shift_stability_report(I)
    if triangles:
        sat, checks = saturation_report(I, triangles, verify=verify_triangles)
    else:
        sat, checks = None, []
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
    for key in ann.components:
        A, T = ann.components[key], fac.components[key]
        if not T.is_subspace_of(A):
            raise IdealError(f"factoring classes at {key} escape the annihilator")
        if A != T:
            mismatches.append(key)
    return TelescopeReport(ann, kern, fac, not mismatches, sorted(mismatches))
