"""JSON codecs for exact scalars, complexes, maps, and certificates.

Everything serializes to plain JSON types with deterministic content:
rationals as fraction strings, prime-field scalars as digit strings, and
Laurent polynomials as sorted term lists of [exponent-vector, coefficient].
Deserialization always revalidates through the normal constructors, so a
tampered payload fails loudly rather than round-tripping.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .homcat import AlgMat, GradedMap, ProjComplex, TriangleVerdict, cone
from .lifting import ComplexLiftCertificate, ComplexLiftProblem, MapLiftCertificate, MapLiftProblem
from .linalg import Mat


class SerializeError(ValueError):
    pass


# -- scalars ---------------------------------------------------------------------


def scalar_from_json(ring, payload):
    try:
        return ring.parse(payload)
    except Exception as exc:
        raise SerializeError(f"bad scalar {payload!r}: {exc}") from exc


def vec_to_json(ring, v) -> List:
    return [ring.fmt(c) for c in v]


def vec_from_json(ring, payload, length: Optional[int] = None):
    if not isinstance(payload, (list, tuple)):
        raise SerializeError(f"element vector must be a list, got {payload!r}")
    if length is not None and len(payload) != length:
        raise SerializeError(f"element vector has length {len(payload)}, "
                             f"expected {length}")
    return tuple(scalar_from_json(ring, c) for c in payload)


def mat_from_json(ring, payload, nrows: int, ncols: int) -> Mat:
    if not isinstance(payload, list) or len(payload) != nrows:
        raise SerializeError(f"matrix needs {nrows} rows")
    rows = []
    for r in payload:
        if not isinstance(r, list) or len(r) != ncols:
            raise SerializeError(f"matrix row needs {ncols} columns")
        rows.append([scalar_from_json(ring, c) for c in r])
    return Mat.from_rows(ring, rows, ncols)


# -- summand matrices and complexes ------------------------------------------------


def algmat_entries_to_json(m: AlgMat) -> List[List[List]]:
    ring, ents, zero = m.alg.ring, dict(m.nonzero_entries()), m.alg.zero_vec()
    return [[vec_to_json(ring, ents.get((r, c), zero)) for c in range(len(m.source_idems))]
            for r in range(len(m.target_idems))]


def algmat_entries_from_json(alg, target_idems, source_idems, payload) -> AlgMat:
    if not isinstance(payload, list) or len(payload) != len(target_idems):
        raise SerializeError(
            f"summand matrix needs {len(target_idems)} rows, got "
            f"{len(payload) if isinstance(payload, list) else payload!r}")
    entries = []
    for row in payload:
        if not isinstance(row, list) or len(row) != len(source_idems):
            raise SerializeError(
                f"summand matrix row needs {len(source_idems)} entries")
        entries.append([vec_from_json(alg.ring, e, alg.dim) for e in row])
    return AlgMat(alg, tuple(target_idems), tuple(source_idems), entries)


def complex_to_json(X: ProjComplex) -> Dict:
    return {
        "summands": {str(n): list(s) for n, s in sorted(X.summands.items())},
        "diff": {str(n): algmat_entries_to_json(d)
                 for n, d in sorted(X.diff.items())},
    }


def complex_from_json(alg, payload, name: str = "X") -> ProjComplex:
    if not isinstance(payload, dict):
        raise SerializeError(f"complex {name}: payload must be an object")
    for key in ("summands", "diff"):
        if not isinstance(payload.get(key, {}), dict):
            raise SerializeError(f"complex {name}: {key!r} must be an object")
    summands = {}
    n_idems = alg.n_idempotents()
    for k, s in payload.get("summands", {}).items():
        n = int_key(k, f"complex {name} degree")
        if not isinstance(s, (list, tuple)):
            raise SerializeError(f"complex {name} degree {n}: summands must be a list")
        for i in s:
            if type(i) is not int or not 0 <= i < n_idems:
                raise SerializeError(f"complex {name} degree {n}: summand index {i!r} "
                                     f"is not an idempotent index 0..{n_idems - 1}")
        summands[n] = tuple(s)
    diff = {}
    for k, d in payload.get("diff", {}).items():
        n = int_key(k, f"complex {name} differential degree")
        src = summands.get(n, ())
        tgt = summands.get(n + 1, ())
        diff[n] = algmat_entries_from_json(alg, tgt, src, d)
    return ProjComplex(alg, summands, diff, name=name)


def map_components_to_json(f: GradedMap) -> Dict:
    return {str(n): algmat_entries_to_json(m)
            for n, m in sorted(f.components.items())}


def map_from_json(source: ProjComplex, target: ProjComplex, degree: int,
                  payload, name: str = "f") -> GradedMap:
    comps = {}
    for k, m in (payload or {}).items():
        n = int_key(k, f"map {name} component degree")
        comps[n] = algmat_entries_from_json(
            source.alg, target.summands_at(n + degree), source.summands_at(n), m)
    return GradedMap(source, target, degree, comps, name=name)


def int_key(k, what: str) -> int:
    """The integer that a JSON key or value ``k`` names: an ``int`` (not a ``bool``) or
    the text ``str`` writes for one, so no two keys name one; else a ``SerializeError``."""
    if type(k) is int:
        return k
    try:
        if isinstance(k, str) and str(int(k)) == k:
            return int(k)
    except ValueError:
        pass
    raise SerializeError(f"{what}: {k!r} is not an integer")


# -- lift certificates --------------------------------------------------------------


def map_lift_cert_to_json(cert: MapLiftCertificate) -> Dict:
    return {
        "replacement": complex_to_json(cert.replacement),
        "to_source": map_components_to_json(cert.to_source),
        "lifted": map_components_to_json(cert.lifted),
        "replacement_contraction":
            map_components_to_json(cert.replacement_contraction),
        "defect_homotopy": map_components_to_json(cert.defect_homotopy),
        "depth": cert.depth,
        "path": [list(step) for step in cert.path],
    }


def _cert_fields(payload, kind: str, *keys: str) -> List[Dict]:
    """The objects under ``keys`` in a certificate payload, each checked present."""
    if not isinstance(payload, dict):
        raise SerializeError(f"{kind} certificate: payload must be an object")
    for key in keys:
        if key not in payload:
            raise SerializeError(f"{kind} certificate: payload has no {key!r}")
        if not isinstance(payload[key], dict):
            raise SerializeError(f"{kind} certificate: {key!r} must be an object")
    return [payload[key] for key in keys]


def map_lift_cert_from_json(problem: MapLiftProblem, payload) -> MapLiftCertificate:
    repl_js, pi_js, lifted_js, contraction_js, defect_js = _cert_fields(
        payload, "map-lift", "replacement", "to_source", "lifted",
        "replacement_contraction", "defect_homotopy")
    steps = payload.get("path", [])
    if not isinstance(steps, list) or not all(isinstance(st, list) for st in steps):
        raise SerializeError("map-lift certificate: 'path' must be a list of lists")
    path = tuple(tuple(int_key(x, "map-lift certificate 'path' step") for x in step)
                 for step in steps)
    depth = int_key(payload.get("depth", len(path)), "map-lift certificate 'depth'")
    F, alpha = problem.functor, problem.map
    repl = complex_from_json(problem.source.alg, repl_js, name="replacement")
    to_source = map_from_json(repl, problem.source, 0, pi_js, name="pi")
    lifted = map_from_json(repl, problem.target, 0, lifted_js, name="lift")
    Frepl = F.apply_complex(repl)
    Fpi = F.apply_map(to_source, Frepl, alpha.source)
    Cpi, _, _ = cone(Fpi)
    contraction = map_from_json(Cpi, Cpi, -1, contraction_js, name="contraction")
    defect = map_from_json(Frepl, alpha.target, -1, defect_js, name="defect")
    cert = MapLiftCertificate(repl, to_source, lifted, Fpi, defect, depth, path)
    cert.replacement_contraction = contraction     # read from the payload, not built
    return cert


def complex_lift_cert_to_json(cert: ComplexLiftCertificate) -> Dict:
    return {
        "lift": complex_to_json(cert.lift),
        "equivalence": map_components_to_json(cert.equivalence),
        "cone_contraction": map_components_to_json(cert.cone_contraction),
    }


def complex_lift_cert_from_json(problem: ComplexLiftProblem, payload) -> ComplexLiftCertificate:
    lift_js, equiv_js, contraction_js = _cert_fields(
        payload, "complex-lift", "lift", "equivalence", "cone_contraction")
    lift = complex_from_json(problem.functor.source_alg, lift_js, name="lift")
    Flift = problem.functor.apply_complex(lift)
    equiv = map_from_json(Flift, problem.target, 0, equiv_js, name="compare")
    C, _, _ = cone(equiv)
    contraction = map_from_json(C, C, -1, contraction_js, name="contraction")
    return ComplexLiftCertificate(lift, equiv, contraction)


# -- triangle certificates ------------------------------------------------------------


def triangle_cert_to_json(verdict) -> Optional[Dict]:
    # a not_exact verdict may carry a comparison map, but never a certificate
    if verdict.verdict != "exact":
        return None
    return {
        "rho": map_components_to_json(verdict.rho),
        "h_incl": map_components_to_json(verdict.h_incl),
        "h_proj": map_components_to_json(verdict.h_proj),
        "cone_contraction": map_components_to_json(verdict.cone_contraction),
    }


def triangle_cert_from_json(alpha: GradedMap, beta: GradedMap,
                            gamma: GradedMap, payload):
    rho_js, h_incl_js, h_proj_js, contraction_js = _cert_fields(
        payload, "triangle", "rho", "h_incl", "h_proj", "cone_contraction")
    C, _, _ = cone(alpha)
    Z = beta.target
    rho = map_from_json(C, Z, 0, rho_js, name="rho")
    h_incl = map_from_json(beta.source, Z, -1, h_incl_js, name="h_incl")
    h_proj = map_from_json(C, gamma.target, -1, h_proj_js, name="h_proj")
    Crho, _, _ = cone(rho)
    contraction = map_from_json(Crho, Crho, -1, contraction_js, name="contraction")
    return TriangleVerdict("exact", "replayed", rho, h_incl, h_proj, contraction)
