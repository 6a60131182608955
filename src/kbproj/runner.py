"""Task execution: dispatch fixture tasks to library calls, collect reports.

Tasks run one after another in the calling thread, in input order.  Each
is a small exact computation in Python, so under the interpreter lock a
thread pool could not overlap them and only added start, join and hand-off
costs.  Report JSON bodies carry no timing, so output is byte-identical
across runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from .algebra import AlgebraError
from .almost import (
    AlmostDerivedReport,
    AlmostQuotientReport,
    SerreAdjointReport,
    almost_derived_ideal,
    almost_quotient,
    contraction_defects,
    serre_adjoint_report,
)
from .derived import check_homological_epi
from .fixture import WINDOW_CAP, FixtureFile, checked_int
from .functors import FunctorError
from .homcat import recognize_triangle, verify_triangle_certificate
from .ideals import (
    HomIdeal,
    exact_ideal_report,
    ideal_closure,
    is_idempotent_ideal,
    telescope_report,
)
from .lifting import (
    SearchBudget,
    lift_chain_map,
    lift_complex,
    verify_complex_lift,
    verify_map_lift,
)
from .reports import Report
from .serialize import (
    complex_lift_cert_from_json,
    complex_lift_cert_to_json,
    map_lift_cert_from_json,
    map_lift_cert_to_json,
    triangle_cert_from_json,
    triangle_cert_to_json,
)

# far above any use (default 20, families 6): each step builds one more
# resolution degree, so an uncapped value can hang a run
MAX_DEGREE_CAP = 64


class TaskError(ValueError):
    """A task that cannot be executed (bad reference, bad arguments)."""


def _task_int(task: Dict, key: str, minimum: int, default: Optional[int] = None,
              maximum: Optional[int] = None) -> int:
    """The integer field ``key`` of a task (``default`` when absent), in [minimum, maximum]."""
    try:
        return checked_int(task.get(key, default), key, minimum, maximum)
    except ValueError as exc:
        raise TaskError(f"task {task.get('id')}: {exc}") from None


def _task_budget(task: Dict, budget: SearchBudget) -> SearchBudget:
    """A lift problem's search budget, with the task's ``depth`` if it gives one."""
    return (replace(budget, max_depth=_task_int(task, "depth", 0))
            if "depth" in task else budget)


def _pair_dims(I: HomIdeal) -> Dict[str, int]:
    return {f"{a} -> {b}": d for (a, b), d in I.dims().items()}


def _window_desc(name: Optional[str], subcat) -> Dict:
    return {"subcat": name, "objects": list(subcat.names())}


# -- certificates --------------------------------------------------------


class _CertKind(NamedTuple):
    section: str         # the fixture section that names its problems
    encode: Callable     # certificate -> JSON payload, None when there is none
    decode: Callable     # (entry, payload) -> certificate, ValueError if it does not fit
    replay: Callable     # (entry, certificate) -> (ok, the reason if not ok)


# The one home of each certificate kind: its producer replays through the
# entry, and verify-certificate decodes and replays through it.  A lift
# section's entry is the pair (checked problem, budget).  The lambdas
# read the codecs and verifiers from the module globals at call time, so a
# rebinding of those names (as bench/tracing.py wraps functions) reaches them.
_CERTS: Dict[str, _CertKind] = {
    "triangle": _CertKind(
        "triangles",
        lambda c: triangle_cert_to_json(c),
        lambda t, js: triangle_cert_from_json(t["alpha"], t["beta"], t["gamma"], js),
        lambda t, c: (verify_triangle_certificate(t["alpha"], t["beta"], t["gamma"], c),
                      "certificate arithmetic failed")),
    "map-lift": _CertKind(
        "lifts",
        lambda c: map_lift_cert_to_json(c),
        lambda p, js: map_lift_cert_from_json(p[0], js),
        lambda p, c: verify_map_lift(p[0], c)),
    "complex-lift": _CertKind(
        "complex_lifts",
        lambda c: complex_lift_cert_to_json(c),
        lambda p, js: complex_lift_cert_from_json(p[0], js),
        lambda p, c: verify_complex_lift(p[0], c)),
}


def _certify(evidence: Dict, kind: str, name: str, prob, cert) -> None:
    """Replay a produced certificate through its ``_CERTS`` entry, the one
    ``verify-certificate`` uses, then attach it to ``evidence`` as an envelope
    marked ``reverified``.  No certificate (no lift, a triangle that is not
    exact) attaches nothing."""
    entry = _CERTS[kind]
    payload = None if cert is None else entry.encode(cert)
    if payload is None:
        return
    ok, why = entry.replay(prob, cert)
    if not ok:
        raise TaskError(f"{kind} {name}: produced certificate failed "
                        f"re-verification: {why}")
    evidence["reverified"] = True
    evidence["certificate"] = {"kind": kind, "problem": name, "payload": payload}


# -- command handlers ----------------------------------------------------


def _run_check_hepi(fx: FixtureFile, task: Dict) -> Report:
    g = fx.lookup("ring_maps", task.get("map"), f"task {task['id']}")
    i_max = _task_int(task, "max_degree", 0, default=20, maximum=MAX_DEGREE_CAP)
    try:
        rep = check_homological_epi(g, i_max=i_max)
    except AlgebraError as exc:   # e.g. no radical over a small prime field
        raise TaskError(f"ring map {task['map']}: {exc}") from exc
    evidence = {
        "map": task.get("map"),
        "reason": rep.reason,
        "tensor_square_dim": rep.tensor_square_dim,
        "target_dim": rep.target_dim,
        "multiplication_is_iso": rep.mu_is_iso,
        "tor_dims": [rep.tor[i] for i in sorted(rep.tor)],
        "checked_up_to": rep.checked_up_to,
        "resolution_complete": rep.resolution_complete,
    }
    return Report(task["id"], "check-hepi", rep.verdict, evidence)


def _run_lift_map(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    posed = fx.lookup("lifts", name, f"task {task['id']}")     # (problem, budget)
    budget = _task_budget(task, posed[1])
    rep = lift_chain_map(posed[0], budget)
    evidence = {
        "problem": name,
        "candidates_tried": rep.candidates_tried,
        "depth_reached": rep.depth_reached,
        "max_depth": budget.max_depth,
    }
    _certify(evidence, "map-lift", name, posed, rep.certificate)
    return Report(task["id"], "lift-map", rep.verdict, evidence)


def _run_lift_complex(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    posed = fx.lookup("complex_lifts", name, f"task {task['id']}")     # (problem, budget)
    rep = lift_complex(posed[0], _task_budget(task, posed[1]))
    evidence = {"problem": name, "reason": rep.reason}
    _certify(evidence, "complex-lift", name, posed, rep.certificate)
    if rep.certificate is not None:
        evidence["lift_summands"] = {
            str(n): list(s) for n, s in rep.certificate.lift.summands.items()}
    return Report(task["id"], "lift-complex", rep.verdict, evidence)


def _run_recognize_triangle(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    tri = fx.lookup("triangles", name, f"task {task['id']}")
    verdict = recognize_triangle(tri["alpha"], tri["beta"], tri["gamma"])
    evidence = {"triangle": name, "reason": verdict.reason}
    _certify(evidence, "triangle", name, tri, verdict)
    return Report(task["id"], "recognize-triangle", verdict.verdict, evidence)


def _run_check_ideal(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    spec = fx.lookup("ideals", name, f"task {task['id']}")
    subcat = spec["subcat"]
    I = ideal_closure(subcat, {ab: subcat.hom(*ab).class_matrix(gs).rows()
                               for ab, gs in spec["generators"].items()})
    rep = exact_ideal_report(I, spec["triangles"])
    refuted = not rep.idempotent or not rep.shift_stable or rep.saturated is False
    verdict = "inconsistent" if refuted else "consistent"
    evidence = {
        "ideal": name,
        "window": _window_desc(spec["subcat_name"], subcat),
        "pair_dims": _pair_dims(I),
        "square_pair_dims": _pair_dims(rep.square),
        "idempotent": rep.idempotent,
        "shift_stable": rep.shift_stable,
        "shift_pairs_checked": [f"{a} -> {b}" for a, b in rep.shift_pairs_checked],
        "saturated": rep.saturated,
        "saturation_checks": [
            {"triangle": list(c.triangle), "target": c.target,
             "applicable": c.applicable, "holds": c.holds}
            for c in rep.saturation_checks
        ],
        "necessary_conditions_refuted": refuted,
    }
    return Report(task["id"], "check-ideal", verdict, evidence)


def _run_telescope(fx: FixtureFile, task: Dict) -> Report:
    F = fx.lookup("functors", task.get("functor"), f"task {task['id']}")
    sname = task.get("subcat")
    subcat = fx.lookup("subcategories", sname, f"task {task['id']}")
    try:
        rep = telescope_report(F, subcat)
    except FunctorError as exc:
        raise TaskError(f"task {task['id']}: functor {task.get('functor')} on "
                        f"subcategory {sname}: {exc}") from exc
    verdict = "consistent" if rep.consistent else "inconsistent"
    evidence = {
        "functor": task.get("functor"),
        "window": _window_desc(sname, subcat),
        "annihilator_pair_dims": _pair_dims(rep.annihilator),
        "annihilator_idempotent": is_idempotent_ideal(rep.annihilator),
        "kernel_objects": list(rep.kernel_names),
        "factor_ideal_pair_dims": _pair_dims(rep.factor_ideal),
        "mismatched_pairs": [f"{a} -> {b}" for a, b in rep.mismatches],
    }
    return Report(task["id"], "telescope-report", verdict, evidence)


def _serre_evidence(rep: SerreAdjointReport) -> Dict:
    ev = {
        "idempotent": rep.idempotent,
        "verdict": rep.verdict,
        "checks": [
            {"module": c.module, "perp_module": c.perp_module,
             "coreflection_dims": list(c.coreflection_dims),
             "reflection_dims": list(c.reflection_dims), "ok": c.ok}
            for c in rep.checks
        ],
    }
    if rep.witness is not None:
        w = rep.witness
        ev["witness"] = {
            "extension_dim": w.extension_dim, "sub_dim": w.sub_dim,
            "quotient_dim": w.quotient_dim, "sub_killed": w.sub_killed,
            "quotient_killed": w.quotient_killed,
            "extension_killed": w.extension_killed,
            "exhibits_failure": w.exhibits_failure,
        }
    return ev


def _quotient_evidence(rep: AlmostQuotientReport) -> Dict:
    return {
        "corner_dim": rep.corner.dim,
        "module_dims": dict(rep.module_dims),
        "exactness": [
            {"sequence": c.sequence, "sub_matches_kernel": c.sub_matches_kernel,
             "dims_additive": c.dims_additive}
            for c in rep.exactness
        ],
        "verdict": rep.verdict,
    }


def _derived_evidence(rep: AlmostDerivedReport) -> Dict:
    return {
        "cone_summands": {str(n): list(s)
                          for n, s in rep.cone.summands.items()},
        "ideal_pair_dims": _pair_dims(rep.ideal),
        "idempotent_on_window": rep.idempotent_on_window,
        "window": list(rep.window),
        "tensor_square_dim": rep.tensor_square_dim,
        "projective_right": rep.projective_right,
        "flatness_note": rep.flatness_note,
        "verdict": rep.verdict,
    }


_RANK = {"refuted": 0, "inconclusive": 1, "certified": 2}


def _run_almost(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    case = fx.lookup("almost_cases", name, f"task {task['id']}")
    evidence: Dict = {"case": name, "parts": list(case.include)}
    verdicts = []
    for part in case.include:     # an AlmostCase admits only these three
        if part == "serre":
            rep = serre_adjoint_report(case)
            ev = _serre_evidence(rep)
        elif part == "quotient":
            rep = almost_quotient(case)
            ev = _quotient_evidence(rep)
        else:
            window = None
            if task.get("window") is not None:
                w = _task_int(task, "window", 0, maximum=WINDOW_CAP)
                window = (-w, w)
            rep = almost_derived_ideal(case, window=window)
            ev = _derived_evidence(rep)
            ev["window_desc"] = _window_desc(case.subcat_name, case.subcat)
        evidence[part] = ev
        verdicts.append(rep.verdict)
    overall = min(verdicts, key=lambda v: _RANK[v]) if verdicts else "inconclusive"
    return Report(task["id"], "almost-report", overall, evidence)


def _run_verify_contraction(fx: FixtureFile, task: Dict) -> Report:
    name = task.get("name")
    fxt = fx.lookup("contractions", name, f"task {task['id']}")
    defects = contraction_defects(fxt)
    ok = not defects
    evidence = {
        "contraction": name,
        "dims": {str(n): d for n, d in sorted(fxt.dims.items())},
        "defect_degrees": sorted(defects),
    }
    return Report(task["id"], "verify-contraction",
                  "certified" if ok else "refuted", evidence)


def _run_verify_certificate(fx: FixtureFile, task: Dict) -> Report:
    path = task.get("certificate")
    if isinstance(path, dict):
        envelope = path
        label = "<inline>"
    else:
        if not isinstance(path, str) or not path:
            raise TaskError("verify-certificate needs a certificate file")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                envelope = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, not JSON
            raise TaskError(f"certificate {path}: {exc}") from exc
        label = path
    if not isinstance(envelope, dict):
        raise TaskError(f"certificate {label}: envelope must be an object")
    kind = envelope.get("kind")
    problem = envelope.get("problem")
    for key, value in (("kind", kind), ("problem", problem)):
        if not isinstance(value, str):
            raise TaskError(f"certificate {label}: {key!r} must be a string")
    payload = envelope.get("payload")
    evidence = {"certificate": label, "kind": kind, "problem": problem}
    entry = _CERTS.get(kind)
    if entry is None:
        raise TaskError(f"certificate kind {kind!r} is not recognized")
    # outside the try, which would take the FixtureError for a ValueError:
    # an unknown problem cannot be executed, it is not refuted
    prob = fx.lookup(entry.section, problem, f"certificate {label}")
    try:
        ok, why = entry.replay(prob, entry.decode(prob, payload))
    except ValueError as exc:
        # a certificate that cannot be rebuilt against the named problem
        # is refuted, not an execution failure
        ok, why = False, f"certificate does not fit the problem: {exc}"
    evidence["reason"] = "replayed" if ok else why
    return Report(task["id"], "verify-certificate",
                  "certified" if ok else "refuted", evidence)


_HANDLERS = {
    "check-hepi": _run_check_hepi,
    "lift-map": _run_lift_map,
    "lift-complex": _run_lift_complex,
    "recognize-triangle": _run_recognize_triangle,
    "check-ideal": _run_check_ideal,
    "telescope-report": _run_telescope,
    "almost-report": _run_almost,
    "verify-contraction": _run_verify_contraction,
    "verify-certificate": _run_verify_certificate,
}


def run_task(fx: FixtureFile, task: Dict) -> Report:
    command = task.get("command")
    if command not in _HANDLERS:
        raise TaskError(f"unknown command {command!r}")
    start = time.monotonic()
    report = _HANDLERS[command](fx, task)
    report.elapsed = time.monotonic() - start
    return report


def run_tasks(fx: FixtureFile, tasks: Optional[Sequence[Dict]] = None, *,
              workers: int = 1) -> List[Report]:
    """Run the tasks (default: all of the fixture's) in order in the calling thread.

    ``workers`` accepts only 1; the keyword stays for the benchmark's callers
    until its rewrite (ROADMAP item 2) drops it.
    """
    if workers != 1:
        raise TaskError(f"workers={workers!r}: tasks run in the calling thread, "
                        "so only workers=1 is accepted")
    if tasks is None:
        tasks = fx.tasks
    return [run_task(fx, t) for t in tasks]
