"""Task reports and their deterministic serialization.

Every task produces one ``Report`` with a verdict from a closed vocabulary
and a JSON-safe evidence dict.  JSON output is byte-identical across runs:
keys are sorted, separators are fixed, and nothing time- or
machine-dependent goes into the verdict body.  The text renderer
may add timing, which is why it is the only place timing appears.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

VERDICTS = frozenset({
    "certified", "refuted", "inconclusive",
    "found", "not_found",
    "exact", "not_exact",
    "consistent", "inconsistent",
})


class ReportError(ValueError):
    pass


@dataclass
class Report:
    task: str
    command: str
    verdict: str
    evidence: Dict = field(default_factory=dict)
    elapsed: Optional[float] = None  # text output only, never in JSON

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ReportError(f"verdict {self.verdict!r} is outside the "
                              f"fixed vocabulary")

    def body(self) -> Dict:
        return {"task": self.task, "command": self.command,
                "verdict": self.verdict, "evidence": self.evidence}


def emit_json(reports: List[Report]) -> str:
    payload = {"reports": [r.body() for r in reports]}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _render_evidence(ev, indent: int, lines: List[str]):
    pad = "  " * indent
    if isinstance(ev, dict):
        for k in sorted(ev, key=str):
            v = ev[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                _render_evidence(v, indent + 1, lines)
            else:
                lines.append(f"{pad}{k}: {_scalar(v)}")
    elif isinstance(ev, list):
        for v in ev:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                _render_evidence(v, indent + 1, lines)
            else:
                lines.append(f"{pad}- {_scalar(v)}")
    else:
        lines.append(f"{pad}{_scalar(ev)}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (dict, list)):
        return json.dumps(v, sort_keys=True)
    return str(v)


def emit_text(reports: List[Report]) -> str:
    lines: List[str] = []
    for r in reports:
        head = f"[{r.verdict}] {r.task} ({r.command})"
        if r.elapsed is not None:
            head += f"  {r.elapsed:.3f}s"
        lines.append(head)
        _render_evidence(r.evidence, 1, lines)
    return "\n".join(lines) + "\n"
