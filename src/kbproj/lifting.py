"""Lifting maps and complexes through a bimodule functor.

Two problems are solved here.  Given a functor F and a chain map
alpha: F(X) -> F(Y), ``lift_chain_map`` searches for a replacement
pi: X' -> X that F turns into an equivalence together with a genuine
chain map X' -> Y hitting alpha up to homotopy.  Replacements are
built by coning off maps into shifted generator complexes that F
kills, so the search space is a tree ordered by (depth, generator,
shift, basis element), and each node asks ``homcat.solve_up_to_homotopy``
for a lift and its homotopy.  Given a complex over the target,
``lift_complex`` rebuilds it from the lowest degree up, from supplied stalk
lifts whose inverses its checked problem keeps, lifting each attaching map
with the same search.  Both problems are checked once, when built.

Every positive answer carries a certificate that re-verifies by direct
arithmetic, with no linear solving: see ``verify_map_lift`` and
``verify_complex_lift``.  A map lift's certificate contracts the cone of
F(pi) on first read; ``lift_complex`` never reads it, and reuses F(pi).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from .functors import BimoduleFunctor, functor_matrix
from .homcat import (
    AlgMat,
    GradedMap,
    HomSpace,
    ProjComplex,
    chain_map,
    cone,
    direct_sum,
    homotopy_inverse_from_contraction,
    identity_map,
    is_contractible,
    is_homotopy_equivalence,
    single_summand_complex,
    solve_up_to_homotopy,
    verify_contraction,
    zero_complex,
    zero_map,
)


class LiftError(ValueError):
    """Ill-posed lifting problem or malformed certificate."""


@dataclass
class SearchBudget:
    max_depth: int = 3
    max_candidates: int = 500


@dataclass
class MapLiftCertificate:
    replacement: ProjComplex                 # X'
    to_source: GradedMap                     # pi: X' -> X
    lifted: GradedMap                        # X' -> Y
    image: GradedMap                         # F(pi): F(X') -> F(X)
    defect_homotopy: GradedMap               # delta(h) = F(lifted) - alpha . F(pi)
    depth: int
    path: Tuple[Tuple[int, int, int], ...]   # (generator, shift, basis index)

    @cached_property
    def replacement_contraction(self) -> GradedMap:
        """A contraction of cone(F(pi)), built on first read."""
        ok, contraction = is_contractible(cone(self.image)[0])
        if not ok:
            raise LiftError("internal error: replacement not invertible "
                            "under the functor")
        return contraction


@dataclass
class MapLiftReport:
    verdict: str                             # "found" or "not_found"
    certificate: Optional[MapLiftCertificate]
    candidates_tried: int
    depth_reached: int


@dataclass(eq=False)
class MapLiftProblem:
    """Lift alpha: F(X) -> F(Y) across F, coning off generators F kills.  The
    constructor checks the problem, so the solver and the verifier take
    alpha's endpoints as F(X) and F(Y).  ``_checked`` skips the checks for
    ``lift_complex``'s attaching maps: chain maps between images by
    construction, whose generators the complex problem has checked."""

    functor: BimoduleFunctor
    source: ProjComplex                      # X
    target: ProjComplex                      # Y
    map: GradedMap                           # alpha: F(X) -> F(Y)
    generators: Sequence[ProjComplex] = ()

    def __post_init__(self):
        F, alpha = self.functor, self.map
        if self.source.alg != F.source_alg or self.target.alg != F.source_alg:
            raise LiftError("endpoints live over the wrong algebra")
        if not alpha.is_chain_map():
            raise LiftError("the map to lift must be a degree-0 chain map")
        FX, FY = F.apply_complex(self.source), F.apply_complex(self.target)
        if alpha.source != FX or alpha.target != FY:
            raise LiftError("the map to lift does not connect the functor images")
        _check_generators(F, self.generators)

    @classmethod
    def _checked(cls, functor, source, target, map, generators) -> "MapLiftProblem":
        """A problem whose checks its caller has proved."""
        P = object.__new__(cls)
        P.functor, P.source, P.target, P.map, P.generators = \
            functor, source, target, map, generators
        return P


def _check_generators(F: BimoduleFunctor, generators: Sequence[ProjComplex]):
    for K in generators:
        if K.alg != F.source_alg:
            raise LiftError("generator lives over the wrong algebra")
        if K.is_zero():
            raise LiftError("zero complex is useless as a generator")
        ok, _ = is_contractible(F.apply_complex(K))
        if not ok:
            raise LiftError(f"generator {K.name} is not killed by the functor: "
                            "coning it off cannot keep the replacement invertible")


def lift_chain_map(problem: MapLiftProblem,
                   budget: SearchBudget = SearchBudget()) -> MapLiftReport:
    """Search for a lift of the problem's map across its functor."""
    F, X, Y, alpha = problem.functor, problem.source, problem.target, problem.map
    FX = alpha.source
    queue = deque()
    queue.append((X, identity_map(X), 0, ()))
    tried = 0
    depth_reached = 0
    while queue:
        Xc, pi, depth, path = queue.popleft()
        if tried >= budget.max_candidates:
            break
        tried += 1
        depth_reached = max(depth_reached, depth)
        # the root candidate is X itself; every other is a new complex
        Fpi = F.apply_map(pi, FX if depth == 0 else None, FX)
        # F(lifted) - alpha . F(pi) = delta(homotopy)
        got = solve_up_to_homotopy(Xc, Y, [
            (lambda L, Lb: functor_matrix(F, L, Lb), alpha.compose(Fpi))])
        if got is not None:
            lifted, (homot,) = got
            cert = MapLiftCertificate(Xc, pi, lifted, Fpi, homot, depth, path)
            return MapLiftReport("found", cert, tried, depth_reached)
        if depth >= budget.max_depth or Xc.is_zero():
            continue
        for g_idx, K in enumerate(problem.generators):
            for n in range(K.lo - Xc.hi, K.hi - Xc.lo + 1):
                SK = K.shift(n)
                H = HomSpace(Xc, SK)
                for b_idx, psi in enumerate(H.basis()):
                    _, _, proj = cone(psi)
                    step = proj.shift(-1).neg()
                    queue.append((step.source, pi.compose(step), depth + 1,
                                  path + ((g_idx, n, b_idx),)))
    return MapLiftReport("not_found", None, tried, depth_reached)


def verify_map_lift(problem: MapLiftProblem, cert: MapLiftCertificate) -> Tuple[bool, str]:
    """Re-check a lift certificate by direct arithmetic only."""
    F, X, Y, alpha = problem.functor, problem.source, problem.target, problem.map
    pi, lifted = cert.to_source, cert.lifted
    if pi.source != cert.replacement or pi.target != X:
        return False, "replacement map has wrong endpoints"
    if lifted.source != cert.replacement or lifted.target != Y:
        return False, "lifted map has wrong endpoints"
    if not pi.is_chain_map():
        return False, "replacement map is not a chain map"
    if not lifted.is_chain_map():
        return False, "lifted map is not a chain map"
    FR = F.apply_complex(cert.replacement)
    Fpi = F.apply_map(pi, FR, alpha.source)
    Cpi, _, _ = cone(Fpi)
    if not verify_contraction(Cpi, cert.replacement_contraction):
        return False, "contraction does not invert the replacement image"
    want = F.apply_map(lifted, FR, alpha.target) - alpha.compose(Fpi)
    if cert.defect_homotopy.degree != -1:
        return False, "defect witness has wrong degree"
    if not (cert.defect_homotopy.delta() - want).is_zero():
        return False, "defect witness does not bound the difference"
    return True, ""


# -- lifting whole complexes --------------------------------------------------


@dataclass
class StalkLift:
    """A source complex presenting one projective stalk of the target."""

    source: ProjComplex
    equivalence: GradedMap       # F(source) -> stalk at degree 0


@dataclass
class ComplexLiftCertificate:
    lift: ProjComplex
    equivalence: GradedMap       # F(lift) -> target
    cone_contraction: GradedMap


@dataclass
class ComplexLiftReport:
    verdict: str
    certificate: Optional[ComplexLiftCertificate]
    reason: str = ""


@dataclass(eq=False)
class ComplexLiftProblem:
    """Rebuild Y as F of a source complex from stalk lifts, one per summand
    index, and generators F kills.  The constructor checks the problem and
    keeps a homotopy inverse of each stalk's equivalence."""

    functor: BimoduleFunctor
    target: ProjComplex                      # Y
    stalks: Dict[int, StalkLift]
    generators: Sequence[ProjComplex] = ()
    inverses: Dict[int, GradedMap] = field(init=False, repr=False)   # stalk -> F(source)

    def __post_init__(self):
        if self.target.alg != self.functor.target_alg:
            raise LiftError("target complex lives over the wrong algebra")
        self.inverses = _check_stalk_table(self.functor, self.stalks)
        _check_generators(self.functor, self.generators)


def _check_stalk_table(F: BimoduleFunctor, table: Dict[int, StalkLift]) -> Dict[int, GradedMap]:
    inverses = {}
    for j, sl in table.items():
        if sl.equivalence.source != F.apply_complex(sl.source):
            raise LiftError(f"stalk lift {j}: equivalence source is not the functor image")
        if sl.equivalence.target != single_summand_complex(F.target_alg, j, 0):
            raise LiftError(f"stalk lift {j}: equivalence target is not the stalk")
        if not sl.equivalence.is_chain_map():
            raise LiftError(f"stalk lift {j}: equivalence is not a chain map")
        ok, contraction = is_homotopy_equivalence(sl.equivalence)
        if not ok:
            raise LiftError(f"stalk lift {j}: map is not an equivalence")
        inverses[j] = homotopy_inverse_from_contraction(sl.equivalence, contraction)[0]
    return inverses


def _sum_map(f: GradedMap, g: GradedMap, src: ProjComplex,
             tgt: ProjComplex) -> GradedMap:
    comps = {n: AlgMat.block(src.alg, [f.target.summands_at(n), g.target.summands_at(n)],
                             [f.source.summands_at(n), g.source.summands_at(n)],
                             [[f.components.get(n), None], [None, g.components.get(n)]])
             for n in src.degrees()}
    return GradedMap(src, tgt, 0, comps)


def _lift_stalk_layer(problem: ComplexLiftProblem, h: int
                      ) -> Tuple[ProjComplex, GradedMap, GradedMap]:
    """Lift the target's degree-h summands: (X, e: F(X) -> layer, an inverse
    of e), each the block sum of the stalks' own, shifted by -h."""
    F = problem.functor
    parts = [(problem.stalks[j].source.shift(-h), problem.stalks[j].equivalence.shift(-h),
              problem.inverses[j].shift(-h)) for j in problem.target.summands_at(h)]
    X, e, inv = parts[0]
    for Xi, ei, invi in parts[1:]:
        X = direct_sum(X, Xi)
        FX, layer = F.apply_complex(X), direct_sum(e.target, ei.target)
        e, inv = _sum_map(e, ei, FX, layer), _sum_map(inv, invi, layer, FX)
    return X, e, inv


def lift_complex(problem: ComplexLiftProblem,
                 budget: SearchBudget = SearchBudget()) -> ComplexLiftReport:
    """Rebuild the problem's target Y as a functor image, with certificate.

    Bottom up: the lift X of Y below degree h, with e: F(X) -> that part, is
    glued to the stalk layer A at h along a lift of inv(A) . d . e, d being
    Y's differential into h; inv(A) sums the problem's stalk inverses."""
    F, Y = problem.functor, problem.target
    degs = Y.degrees()
    missing = next((j for h in reversed(degs) for j in Y.summands_at(h)
                    if j not in problem.stalks), None)
    if missing is not None:
        return ComplexLiftReport("not_found", None,
                                 f"no stalk lift supplied for summand {missing}")
    if degs:
        X, e, _ = _lift_stalk_layer(problem, degs[0])
    else:
        X = zero_complex(F.source_alg)
        e = zero_map(F.apply_complex(X), Y)
    for h in degs[1:]:
        XA, q, invA = _lift_stalk_layer(problem, h)
        A = q.target
        XBs, eBs = X.shift(-1), e.shift(-1)
        SB = eBs.target
        dmap = chain_map(SB, A, {h: Y.diff_at(h - 1)}, name="attach")
        m = invA.compose(dmap).compose(eBs)
        # m is a chain map F(XBs) = eBs.source -> F(XA) = q.source, and the generators
        # are the checked problem's; the cone check below compares F(X) with a fresh image
        rep = lift_chain_map(MapLiftProblem._checked(F, XBs, XA, m, problem.generators),
                             budget)
        if rep.verdict != "found":
            return ComplexLiftReport("not_found", None, f"attaching map into degree {h} "
                                     "has no lift within the budget")
        cert = rep.certificate
        dhat = cert.lifted
        X, _, _ = cone(dhat)
        FX = F.apply_complex(X)
        Fd = F.apply_map(dhat, cert.image.source, q.source)
        CFd, _, _ = cone(Fd)
        if FX != CFd:
            raise LiftError("internal error: functor image of the cone is not "
                            "the cone of the image")
        p = eBs.compose(cert.image)
        ok, H = HomSpace(p.source, A).is_nullhomotopic(q.compose(Fd) - dmap.compose(p))
        if not ok:
            raise LiftError("internal error: comparison square does not commute "
                            "up to homotopy")
        # [[p, 0], [H, q]]: F(XBs)^(n+1) (+) F(XA)^n -> SB^(n+1) (+) A^n
        comps = {n: AlgMat.block(Y.alg, [SB.summands_at(n + 1), A.summands_at(n)],
                                 [p.source.summands_at(n + 1), q.source.summands_at(n)],
                                 [[p.components.get(n + 1), None],
                                  [H.components.get(n + 1), q.components.get(n)]])
                 for n in FX.degrees()}
        e = chain_map(FX, Y.hard_truncate_le(h), comps, name=f"compare@{h}")
    ok, contraction = is_homotopy_equivalence(e)
    if not ok:
        raise LiftError("internal error: assembled comparison map is not "
                        "an equivalence")
    return ComplexLiftReport("found", ComplexLiftCertificate(X, e, contraction))


def verify_complex_lift(problem: ComplexLiftProblem,
                        cert: ComplexLiftCertificate) -> Tuple[bool, str]:
    """Re-check a complex lift certificate by direct arithmetic only."""
    FX = problem.functor.apply_complex(cert.lift)
    e = cert.equivalence
    if e.source != FX:
        return False, "comparison map does not start at the functor image"
    if e.target != problem.target:
        return False, "comparison map does not end at the target"
    if not e.is_chain_map():
        return False, "comparison map is not a chain map"
    C, _, _ = cone(e)
    if not verify_contraction(C, cert.cone_contraction):
        return False, "contraction does not certify the equivalence"
    return True, ""
