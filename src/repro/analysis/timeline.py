"""Executor activity timelines (Figure 7).

Figure 7 compares PageRank execution timelines across three scenarios,
marking when each executor starts being used (thin red bars) and when the
segue commences (blue bar). :func:`render_timeline` draws exactly that
from a run's spans (:func:`repro.observability.spans.run_spans`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

from repro.observability.spans import (
    ROLE_EXECUTOR,
    ROLE_SEGUE,
    ROLE_STAGE,
    ROLE_TASK,
    STATUS_OK,
    span_role,
)


def render_timeline(spans: Sequence[Mapping[str, Any]],
                    width: int = 72) -> str:
    """ASCII rendering: one row per executor span, '#' where its tasks
    ran and '+' at its registration if idle there.

    The '|' marks stage completions; 'S' on the axis marks the segue.
    """
    executors = []
    tasks: Dict[str, List[Mapping[str, Any]]] = {}
    boundaries = []
    segue = None
    end = 0.0
    for span in spans:
        role = span_role(span)
        if role == ROLE_EXECUTOR:
            executors.append(span)
        elif role == ROLE_TASK:
            tasks.setdefault(span["parent_span_id"], []).append(span)
            end = max(end, span["end_s"])
        elif role == ROLE_STAGE and span["status"] == STATUS_OK:
            boundaries.append(span["end_s"])
        elif role == ROLE_SEGUE:
            segue = span["start_s"]
    end = max(end, 1e-9)
    scale = width / end
    lines = [f"{'executor':>14s} |" + "-" * width + "|"]
    for executor in sorted(executors,
                           key=lambda e: (e["attrs"].get("kind", "vm"),
                                          e["start_s"])):
        row = [" "] * width
        for task in tasks.get(executor["span_id"], ()):
            lo = min(width - 1, int(task["start_s"] * scale))
            hi = min(width, max(lo + 1, int(task["end_s"] * scale)))
            for i in range(lo, hi):
                row[i] = "#"
        reg = min(width - 1, int(executor["start_s"] * scale))
        if row[reg] == " ":
            row[reg] = "+"
        lines.append(f"{executor['name']:>14s} |{''.join(row)}|")
    axis = [" "] * width
    for boundary in boundaries:
        axis[min(width - 1, int(boundary * scale))] = "|"
    if segue is not None:
        axis[min(width - 1, int(segue * scale))] = "S"
    lines.append(f"{'stages':>14s} |{''.join(axis)}|")
    lines.append(f"{'':>14s}  0{'':{width - 10}}{end:8.1f}s")
    return "\n".join(lines)
