"""Opt-in spans and counters around the public functions of each layer.

Nothing here touches ``src/``: ``Tracer.install`` replaces functions and
methods of already imported ``kbproj`` modules with recording wrappers, and
``uninstall`` puts the originals back.  A module-level function is replaced
in every ``kbproj`` module that bound it (``from .linalg import solve``), so
calls between layers are seen too.  Only the traced run installs wrappers.

A span records its name, start, end, parent span and task id.  The parent
stack and the current task id are kept per thread, because ``run_tasks``
uses a thread pool.  Spans stay in memory and are written as JSON lines by
``write_jsonl`` when the run ends.  Functions called millions of times
(``AlgebraPresentation.mult``, ``AlgMat`` construction) get a counter only.

A span also records the CPU time of its thread at start and end
(``time.thread_time``).  A layer's self time is the sum over its spans of
the span's thread CPU time minus that of its direct child spans, which nest
inside it on the same thread.  Wall-clock durations would count a worker's
wait for the interpreter lock while another worker runs, and so the same
work twice when ``run_tasks`` uses two workers.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

# (span name, module, attribute path) for every wrapped function
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("fixture.load", "fixture", "load_fixture"),
    ("runner.task", "runner", "run_task"),
    ("reports.emit_json", "reports", "emit_json"),
    ("algebra.build", "algebra", "AlgebraPresentation.__init__"),
    ("algebra.module_tensor", "algebra", "module_tensor"),
    ("linalg.solve", "linalg", "solve"),
    ("linalg.rref", "linalg", "rref_rows"),
    ("homcat.operator_matrix", "homcat", "operator_matrix"),
    ("homcat.homspace", "homcat", "HomSpace.__init__"),
    ("homcat.contractible", "homcat", "is_contractible"),
    ("homcat.recognize", "homcat", "recognize_triangle"),
    ("homcat.verify_triangle", "homcat", "verify_triangle_certificate"),
    ("derived.resolution", "derived", "proj_resolution"),
    ("derived.tor", "derived", "tor_with_bimodule"),
    ("functors.apply", "functors", "BimoduleFunctor.apply_complex"),
    ("functors.apply", "functors", "BimoduleFunctor.apply_map"),
    ("functors.apply", "functors", "BimoduleFunctor.apply_algmat"),
    ("functors.subcat_hom", "functors", "FiniteSubcat.hom"),
    ("ideals.closure", "ideals", "ideal_closure"),
    ("ideals.annihilator", "ideals", "annihilator_ideal"),
    ("ideals.telescope", "ideals", "telescope_report"),
    ("almost.report", "almost", "serre_adjoint_report"),
    ("almost.report", "almost", "almost_quotient"),
    ("almost.report", "almost", "almost_derived_ideal"),
    ("lifting.lift_map", "lifting", "lift_chain_map"),
    ("lifting.lift_complex", "lifting", "lift_complex"),
    ("lifting.verify", "lifting", "verify_map_lift"),
    ("lifting.verify", "lifting", "verify_complex_lift"),
    ("serialize.encode", "serialize", "triangle_cert_to_json"),
    ("serialize.encode", "serialize", "map_lift_cert_to_json"),
    ("serialize.encode", "serialize", "complex_lift_cert_to_json"),
    ("serialize.decode", "serialize", "triangle_cert_from_json"),
    ("serialize.decode", "serialize", "map_lift_cert_from_json"),
    ("serialize.decode", "serialize", "complex_lift_cert_from_json"),
)

# (counter name, module, attribute path): counted, never spanned
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("algebra.mult.calls", "algebra", "AlgebraPresentation.mult"),
    ("homcat.algmat.built", "homcat", "AlgMat.__init__"),
)


def _cells(result) -> int:
    return result.nrows * result.ncols


def _on_operator(st, args, result):
    st.add("homcat.operator_matrix.cells", _cells(result))


def _on_solve(st, args, result):
    st.top("linalg.solve.max_cells", _cells(args[0]))


def _on_resolution(st, args, result):
    st.add("derived.resolution.length", result.length())


def _on_lift_map(st, args, result):
    st.add("lifting.candidates_tried", result.candidates_tried)
    st.add("lifting.attempted", 1)
    st.add("lifting.found", int(result.verdict == "found"))


def _on_lift_complex(st, args, result):
    st.add("lifting.attempted", 1)
    st.add("lifting.found", int(result.verdict == "found"))


_RESULT_HOOKS: Dict[str, Callable] = {
    "homcat.operator_matrix": _on_operator,
    "linalg.solve": _on_solve,
    "derived.resolution": _on_resolution,
    "lifting.lift_map": _on_lift_map,
    "lifting.lift_complex": _on_lift_complex,
}


class _ThreadState:
    __slots__ = ("stack", "task", "spans", "values")

    def __init__(self):
        self.stack: List[int] = []
        self.task: Optional[str] = None
        self.spans: List[Tuple] = []
        self.values: Dict[str, float] = {}

    def add(self, key: str, amount):
        self.values[key] = self.values.get(key, 0) + amount

    def top(self, key: str, value):
        if value > self.values.get(key, 0):
            self.values[key] = value


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def task(self, task_id: Optional[str]):
        """Set the task id that later spans on this thread carry."""
        self._state().task = task_id

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        hook = _RESULT_HOOKS.get(name)
        clock = time.perf_counter
        cpu = time.thread_time
        ids = self._ids
        state = self._state

        def wrapped(*args, **kwargs):
            st = state()
            sid = next(ids)
            parent = st.stack[-1] if st.stack else 0
            outer_task = st.task
            if name == "runner.task":
                st.task = f"{args[0].path}:{args[1].get('id')}"
            st.stack.append(sid)
            t0, c0 = clock(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), clock()
                st.stack.pop()
                st.spans.append((sid, name, t0, t1, c1 - c0, parent, st.task))
                st.task = outer_task
            if hook is not None:
                hook(st, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        state = self._state

        def wrapped(*args, **kwargs):
            values = state().values
            values[name] = values.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installing -----------------------------------------------------------

    def install(self):
        """Wrap every function in ``SPANS`` and ``COUNTERS``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sys.modules.items()
                   if (n == "kbproj" or n.startswith("kbproj."))
                   and m is not None]
        for name, mod, path in SPANS:
            self._patch(modules, f"kbproj.{mod}", path,
                        lambda fn, name=name: self._span_wrapper(name, fn))
        for name, mod, path in COUNTERS:
            self._patch(modules, f"kbproj.{mod}", path,
                        lambda fn, name=name: self._count_wrapper(name, fn))

    def _patch(self, modules, module_name: str, path: str, make):
        owner = sys.modules[module_name]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(owner, path)
        wrapped = make(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def spans(self) -> List[Tuple]:
        with self._lock:
            states = list(self._states)
        out = []
        for st in states:
            out.extend(st.spans)
        out.sort()
        return out

    def values(self) -> Dict[str, float]:
        with self._lock:
            states = list(self._states)
        total: Dict[str, float] = {}
        for st in states:
            for k, v in st.values.items():
                if k.endswith(".max_cells"):
                    total[k] = max(total.get(k, 0), v)
                else:
                    total[k] = total.get(k, 0) + v
        return total

    def layer_summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s`` (thread CPU
        time), plus ``homspace_under_subcat`` for HomSpace builds made by
        ``FiniteSubcat.hom``."""
        spans = self.spans()
        names = {span[0]: span[1] for span in spans}
        child_cpu: Dict[int, float] = {}
        for _, _, _, _, cpu_s, parent, _ in spans:
            if parent:
                child_cpu[parent] = child_cpu.get(parent, 0.0) + cpu_s
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, _, _, cpu_s, parent, _ in spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0,
                                        "homspace_under_subcat": 0})
            row["calls"] += 1
            row["total_s"] += cpu_s
            row["self_s"] += cpu_s - child_cpu.get(sid, 0.0)
            if name == "homcat.homspace" and names.get(parent) == "functors.subcat_hom":
                row["homspace_under_subcat"] += 1
        return out

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, cpu_s, parent, task in self.spans():
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "cpu_s": cpu_s,
                                     "parent": parent or None,
                                     "task": task}) + "\n")


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric == "trace.overhead":
        return "x"
    return "count"


def per_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Every per-layer metric of the benchmark, from one traced phase."""
    layers = tracer.layer_summary()
    values = tracer.values()

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    attempted = values.get("lifting.attempted", 0)
    found = values.get("lifting.found", 0)
    return {
        "homcat.operator_matrix.calls": calls("homcat.operator_matrix"),
        "homcat.operator_matrix.self_s": self_s("homcat.operator_matrix"),
        "homcat.operator_matrix.cells": values.get("homcat.operator_matrix.cells", 0),
        "homcat.algmat.built": values.get("homcat.algmat.built", 0),
        "homcat.homspace.builds": calls("homcat.homspace"),
        "homcat.homspace.self_s": self_s("homcat.homspace"),
        "homcat.contractible.self_s": self_s("homcat.contractible"),
        "homcat.recognize.self_s": self_s("homcat.recognize"),
        "homcat.verify_triangle.self_s": self_s("homcat.verify_triangle"),
        "serialize.decode.self_s": self_s("serialize.decode"),
        "serialize.encode.self_s": self_s("serialize.encode"),
        "lifting.verify.self_s": self_s("lifting.verify"),
        "linalg.solve.calls": calls("linalg.solve"),
        "linalg.solve.self_s": self_s("linalg.solve"),
        "linalg.solve.max_cells": values.get("linalg.solve.max_cells", 0),
        "linalg.rref.calls": calls("linalg.rref"),
        "linalg.rref.self_s": self_s("linalg.rref"),
        "algebra.build.self_s": self_s("algebra.build"),
        "algebra.mult.calls": values.get("algebra.mult.calls", 0),
        "algebra.module_tensor.calls": calls("algebra.module_tensor"),
        "algebra.module_tensor.self_s": self_s("algebra.module_tensor"),
        "derived.resolution.self_s": self_s("derived.resolution"),
        "derived.resolution.length": values.get("derived.resolution.length", 0),
        "derived.tor.self_s": self_s("derived.tor"),
        "functors.apply.self_s": self_s("functors.apply"),
        "functors.subcat_hom.builds":
            layers.get("homcat.homspace", {}).get("homspace_under_subcat", 0),
        "ideals.closure.self_s": self_s("ideals.closure"),
        "ideals.annihilator.self_s": self_s("ideals.annihilator"),
        "ideals.telescope.self_s": self_s("ideals.telescope"),
        "almost.report.self_s": self_s("almost.report"),
        "lifting.lift_map.self_s": self_s("lifting.lift_map"),
        "lifting.lift_complex.self_s": self_s("lifting.lift_complex"),
        "lifting.candidates_tried": values.get("lifting.candidates_tried", 0),
        "lifting.found_ratio": found / attempted if attempted else 0.0,
        "fixture.load.self_s": self_s("fixture.load"),
        "runner.task.calls": calls("runner.task"),
        "runner.task.self_s": self_s("runner.task"),
        "reports.emit_json.self_s": self_s("reports.emit_json"),
    }
