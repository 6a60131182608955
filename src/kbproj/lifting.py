"""Lifting maps and complexes through a bimodule functor.

Two problems are solved here.  Given a functor F and a chain map
alpha: F(X) -> F(Y), ``lift_chain_map`` searches for a replacement
pi: X' -> X that F turns into an equivalence together with a genuine
chain map X' -> Y hitting alpha up to homotopy.  Replacements are
built by coning off maps into shifted generator complexes that F
kills, so the search space is a tree ordered by (depth, generator,
shift, basis element).  Given a complex over the target, ``lift_complex``
rebuilds it degree by degree from supplied stalk lifts, lifting each
attaching map with the same search.

Every positive answer carries a certificate that re-verifies by direct
arithmetic, with no linear solving: see ``verify_map_lift`` and
``verify_complex_lift``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .functors import BimoduleFunctor, functor_matrix
from .homcat import (
    AlgMat,
    GradedMap,
    HomSpace,
    MapLayout,
    ProjComplex,
    chain_map,
    cone,
    delta_matrix,
    direct_sum,
    homotopy_inverse_from_contraction,
    identity_map,
    is_contractible,
    is_homotopy_equivalence,
    same_complex,
    verify_contraction,
    zero_complex,
)
from .linalg import Mat, hstack, solve_left, vstack


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
    replacement_contraction: GradedMap       # contracts cone(F(pi))
    defect_homotopy: GradedMap               # delta(h) = F(lifted) - alpha . F(pi)
    depth: int
    path: Tuple[Tuple[int, int, int], ...]   # (generator, shift, basis index)


@dataclass
class MapLiftReport:
    verdict: str                             # "found" or "not_found"
    certificate: Optional[MapLiftCertificate]
    candidates_tried: int
    depth_reached: int


def _check_problem(F: BimoduleFunctor, X: ProjComplex, Y: ProjComplex,
                   alpha: GradedMap) -> Tuple[ProjComplex, ProjComplex]:
    if X.alg != F.source_alg or Y.alg != F.source_alg:
        raise LiftError("endpoints live over the wrong algebra")
    FX, FY = F.apply_complex(X), F.apply_complex(Y)
    if not alpha.is_chain_map():
        raise LiftError("the map to lift must be a degree-0 chain map")
    if not same_complex(alpha.source, FX) or not same_complex(alpha.target, FY):
        raise LiftError("the map to lift does not connect the functor images")
    return FX, FY


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


def _try_node(F: BimoduleFunctor, Xc: ProjComplex, Y: ProjComplex,
              FY: ProjComplex, alpha: GradedMap,
              Fpi: GradedMap) -> Optional[Tuple[GradedMap, GradedMap]]:
    """Solve for (lifted, homotopy) with F(lifted) - alpha . F(pi) = delta(h)."""
    ring = F.source_alg.ring
    FXc = Fpi.source
    la0 = MapLayout(Xc, Y, 0)
    la1 = MapLayout(Xc, Y, 1)
    lf0 = MapLayout(FXc, FY, 0)
    lfm = MapLayout(FXc, FY, -1)
    T = functor_matrix(F, la0, lf0)
    DA = delta_matrix(la0, la1)
    DH = delta_matrix(lfm, lf0)
    M = vstack([
        hstack([T, DA]),
        hstack([DH.neg(), Mat.zeros(ring, lfm.dim, la1.dim)]),
    ])
    target = alpha.compose(Fpi)
    rhs = Mat.from_rows(ring, [lf0.pack(target) + [ring.zero] * la1.dim], M.ncols)
    x, _ = solve_left(M, rhs)
    if x is None:
        return None
    coords = x.row(0)
    lifted = la0.unpack(coords[:la0.dim])
    homot = lfm.unpack(coords[la0.dim:])
    return lifted, homot


def lift_chain_map(F: BimoduleFunctor, X: ProjComplex, Y: ProjComplex,
                   alpha: GradedMap, generators: Sequence[ProjComplex] = (),
                   budget: SearchBudget = SearchBudget()) -> MapLiftReport:
    """Search for a lift of alpha: F(X) -> F(Y) across the functor."""
    _, FY = _check_problem(F, X, Y, alpha)
    _check_generators(F, generators)
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
        Fpi = F.apply_map(pi)
        got = _try_node(F, Xc, Y, FY, alpha, Fpi)
        if got is not None:
            lifted, homot = got
            Cpi, _, _ = cone(Fpi)
            ok, contraction = is_contractible(Cpi)
            if not ok:
                raise LiftError("internal error: replacement not invertible "
                                "under the functor")
            cert = MapLiftCertificate(Xc, pi, lifted, contraction, homot,
                                      depth, path)
            return MapLiftReport("found", cert, tried, depth_reached)
        if depth >= budget.max_depth or Xc.is_zero():
            continue
        for g_idx, K in enumerate(generators):
            for n in range(K.lo - Xc.hi, K.hi - Xc.lo + 1):
                SK = K.shift(n)
                H = HomSpace(Xc, SK)
                for b_idx, psi in enumerate(H.basis()):
                    C, _, proj = cone(psi)
                    Xn = C.shift(-1)
                    step = GradedMap(Xn, Xc, 0,
                                     proj.shift(-1).neg().components,
                                     name="step")
                    queue.append((Xn, pi.compose(step), depth + 1,
                                  path + ((g_idx, n, b_idx),)))
    return MapLiftReport("not_found", None, tried, depth_reached)


def verify_map_lift(F: BimoduleFunctor, X: ProjComplex, Y: ProjComplex,
                    alpha: GradedMap, cert: MapLiftCertificate) -> Tuple[bool, str]:
    """Re-check a lift certificate by direct arithmetic only."""
    pi, lifted = cert.to_source, cert.lifted
    if not same_complex(pi.source, cert.replacement) or not same_complex(pi.target, X):
        return False, "replacement map has wrong endpoints"
    if not same_complex(lifted.source, cert.replacement) or not same_complex(lifted.target, Y):
        return False, "lifted map has wrong endpoints"
    if not pi.is_chain_map():
        return False, "replacement map is not a chain map"
    if not lifted.is_chain_map():
        return False, "lifted map is not a chain map"
    Fpi = F.apply_map(pi)
    Cpi, _, _ = cone(Fpi)
    if not verify_contraction(Cpi, cert.replacement_contraction):
        return False, "contraction does not invert the replacement image"
    want = F.apply_map(lifted) - alpha.compose(Fpi)
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
    inner: List[MapLiftReport] = field(default_factory=list)


@dataclass
class ComplexLiftReport:
    verdict: str
    certificate: Optional[ComplexLiftCertificate]
    reason: str = ""


def _check_stalk_table(F: BimoduleFunctor, table: Dict[int, StalkLift]):
    from .homcat import single_summand_complex

    for j, sl in table.items():
        FL = F.apply_complex(sl.source)
        stalk = single_summand_complex(F.target_alg, j, 0)
        if not same_complex(sl.equivalence.source, FL):
            raise LiftError(f"stalk lift {j}: equivalence source is not the "
                            "functor image")
        if not same_complex(sl.equivalence.target, stalk):
            raise LiftError(f"stalk lift {j}: equivalence target is not the stalk")
        if not sl.equivalence.is_chain_map():
            raise LiftError(f"stalk lift {j}: equivalence is not a chain map")
        ok, _ = is_homotopy_equivalence(sl.equivalence)
        if not ok:
            raise LiftError(f"stalk lift {j}: map is not an equivalence")


def _sum_map(f: GradedMap, g: GradedMap, src: ProjComplex,
             tgt: ProjComplex) -> GradedMap:
    comps = {n: AlgMat.block(src.alg, [f.target.summands_at(n), g.target.summands_at(n)],
                             [f.source.summands_at(n), g.source.summands_at(n)],
                             [[f.components.get(n), None], [None, g.components.get(n)]])
             for n in src.degrees()}
    return GradedMap(src, tgt, 0, comps)


class _NotLiftable(Exception):
    pass


def _lift_stalk_layer(F, Y: ProjComplex, h: int, table) -> Tuple[ProjComplex, GradedMap]:
    parts = []
    for j in Y.summands_at(h):
        if j not in table:
            raise _NotLiftable(f"no stalk lift supplied for summand {j}")
        sl = table[j]
        parts.append((sl.source.shift(-h), sl.equivalence.shift(-h)))
    X, e = parts[0]
    FX = F.apply_complex(X)
    e = GradedMap(FX, e.target, 0, e.components)
    for Xi, ei in parts[1:]:
        X2 = direct_sum(X, Xi)
        FX2 = F.apply_complex(X2)
        tgt = direct_sum(e.target, ei.target)
        e = _sum_map(e, ei, FX2, tgt)
        X = X2
    # re-anchor the comparison map on the literal truncation of Y
    return X, chain_map(e.source, Y, e.components, name=f"stalks@{h}")


def lift_complex(F: BimoduleFunctor, Y: ProjComplex,
                 stalk_table: Dict[int, StalkLift],
                 generators: Sequence[ProjComplex] = (),
                 budget: SearchBudget = SearchBudget()) -> ComplexLiftReport:
    """Rebuild Y as the functor image of a source complex, with certificate."""
    if Y.alg != F.target_alg:
        raise LiftError("target complex lives over the wrong algebra")
    _check_stalk_table(F, stalk_table)
    _check_generators(F, generators)
    inner: List[MapLiftReport] = []
    try:
        X, e = _lift_rec(F, Y, stalk_table, generators, budget, inner)
    except _NotLiftable as stop:
        return ComplexLiftReport("not_found", None, str(stop))
    ok, contraction = is_homotopy_equivalence(e)
    if not ok:
        raise LiftError("internal error: assembled comparison map is not "
                        "an equivalence")
    cert = ComplexLiftCertificate(X, e, contraction, inner)
    return ComplexLiftReport("found", cert)


def _lift_rec(F, Y: ProjComplex, table, generators, budget,
              inner: List[MapLiftReport]) -> Tuple[ProjComplex, GradedMap]:
    if Y.is_zero():
        Z = zero_complex(F.source_alg)
        FZ = F.apply_complex(Z)
        return Z, GradedMap(FZ, Y, 0, {})
    degs = Y.degrees()
    h = degs[-1]
    if len(degs) == 1:
        return _lift_stalk_layer(F, Y, h, table)
    A = Y.hard_truncate_ge(h)
    B = Y.hard_truncate_le(h - 1)
    XA, eA = _lift_rec(F, A, table, generators, budget, inner)
    XB, eB = _lift_rec(F, B, table, generators, budget, inner)
    SB = B.shift(-1)
    dmap = chain_map(SB, A, {h: Y.diff_at(h - 1)}, name="attach")
    ok, cA = is_homotopy_equivalence(eA)
    if not ok:
        raise LiftError("internal error: stalk comparison not invertible")
    invA, _, _ = homotopy_inverse_from_contraction(eA, cA)
    XBs = XB.shift(-1)
    FXBs = F.apply_complex(XBs)
    eBs = GradedMap(FXBs, SB, 0, eB.shift(-1).components)
    m = invA.compose(dmap).compose(eBs)
    m = GradedMap(FXBs, eA.source, 0, m.components)
    rep = lift_chain_map(F, XBs, XA, m, generators, budget)
    inner.append(rep)
    if rep.verdict != "found":
        raise _NotLiftable(
            f"attaching map into degree {h} has no lift within the budget")
    cert = rep.certificate
    dhat = cert.lifted
    X, _, _ = cone(dhat)
    FX = F.apply_complex(X)
    Fd = F.apply_map(dhat)
    CFd, _, _ = cone(Fd)
    if not same_complex(FX, CFd):
        raise LiftError("internal error: functor image of the cone is not "
                        "the cone of the image")
    Fpi = F.apply_map(cert.to_source)
    p = eBs.compose(Fpi)
    q = eA
    g = q.compose(Fd) - dmap.compose(p)
    Hsp = HomSpace(p.source, A)
    ok, H = Hsp.is_nullhomotopic(GradedMap(p.source, A, 0, g.components))
    if not ok:
        raise LiftError("internal error: comparison square does not commute "
                        "up to homotopy")
    # [[p, 0], [H, q]]: F(XBs)^(n+1) (+) F(XA)^n -> SB^(n+1) (+) A^n
    comps = {n: AlgMat.block(Y.alg, [SB.summands_at(n + 1), A.summands_at(n)],
                             [p.source.summands_at(n + 1), q.source.summands_at(n)],
                             [[p.components.get(n + 1), None],
                              [H.components.get(n + 1), q.components.get(n)]])
             for n in FX.degrees()}
    e = chain_map(FX, Y, comps, name=f"compare@{h}")
    return X, e


def verify_complex_lift(F: BimoduleFunctor, Y: ProjComplex,
                        cert: ComplexLiftCertificate) -> Tuple[bool, str]:
    """Re-check a complex lift certificate by direct arithmetic only."""
    FX = F.apply_complex(cert.lift)
    e = cert.equivalence
    if not same_complex(e.source, FX):
        return False, "comparison map does not start at the functor image"
    if not same_complex(e.target, Y):
        return False, "comparison map does not end at the target"
    if not e.is_chain_map():
        return False, "comparison map is not a chain map"
    C, _, _ = cone(e)
    if not verify_contraction(C, cert.cone_contraction):
        return False, "contraction does not certify the equivalence"
    return True, ""
