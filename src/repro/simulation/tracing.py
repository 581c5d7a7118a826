"""Structured event tracing.

Components emit :class:`TraceRecord` rows (timestamp, category, event
name, free-form fields). The analysis layer consumes the trace to build
Figure 7-style executor timelines and per-scenario breakdowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One trace row.

    ``category`` groups related events ("vm", "lambda", "task", "shuffle",
    "segue", ...); ``name`` is the specific event ("launch", "register",
    "finish", ...); ``fields`` carries event-specific payload.
    """

    time: float
    category: str
    name: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class TraceRecorder:
    """Collects trace records and answers simple queries over them."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._records: List[TraceRecord] = []

    def record(self, time: float, category: str, name: str, **fields: Any) -> None:
        """Append one record (no-op when disabled)."""
        if self.enabled:
            self._records.append(TraceRecord(time, category, name, fields))

    def record_packed(self, time: float, category: str, name: str,
                      fields: Dict[str, Any]) -> None:
        """:meth:`record` taking the payload as an already-built dict
        (same contract as ``EventBus.record_packed``: the dict is handed
        over and must not be mutated by the caller afterwards)."""
        if self.enabled:
            self._records.append(TraceRecord(time, category, name, fields))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    @property
    def records(self) -> List[TraceRecord]:
        """All records in emission order (which is also time order)."""
        return list(self._records)

    def select(
        self,
        category: Optional[str] = None,
        name: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> List[TraceRecord]:
        """Filter records by category, name, and/or an arbitrary predicate."""
        out = []
        for rec in self._records:
            if category is not None and rec.category != category:
                continue
            if name is not None and rec.name != name:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out

    def clear(self) -> None:
        self._records.clear()
