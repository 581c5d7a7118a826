"""Named, deterministic run metrics: counters, gauges, histograms.

A :class:`MetricsRegistry` is created per run (sim-time based — nothing
here reads a wall clock), instrumented by the cloud layer and the
bus-driven :class:`~repro.observability.instrumentation.MetricsListener`,
and snapshotted into ``RunRecord.metrics`` under stable dotted names.

Naming scheme (see DESIGN.md, "Observability"):

- ``cloud.lambda.*`` / ``cloud.vm.*`` — provider-side counts and delays;
- ``executor.<kind>.*`` — per-resource-kind busy/idle/lifetime seconds;
- ``scheduler.tasks.*`` / ``dag.stages.*`` — task/stage outcomes;
- ``cost.*`` — dollar attribution (``cost.faas`` + ``cost.iaas`` +
  ``cost.storage.*`` == ``cost.total``);
- ``stage.<id>.*`` / ``kind.<kind>.*`` — TaskMetrics aggregates
  (added at snapshot time by the scenario driver).

Histograms snapshot as ``<name>.count/.sum/.min/.max/.mean`` — enough
for breakdown tables without carrying raw samples in every record.

:func:`nearest_rank` is the repo's one quantile rank rule, and
:func:`percentile` applies it to raw samples; the serve plane's
rolling windows apply it to bucket counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot inc by {amount}")
        self.value += amount


@dataclass
class Gauge:
    """A value that can be set or accumulated."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Streaming distribution summary (count/sum/min/max)."""

    name: str
    count: int = 0
    sum: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


Metric = Union[Counter, Gauge, Histogram]


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of quantile ``q`` among ``n`` ordered samples:
    ``ceil(q * n)``, clamped to ``[1, n]`` (no interpolation)."""
    return min(max(1, math.ceil(q * n)), n)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values``; NaN when empty."""
    if not values:
        return float("nan")
    return sorted(values)[nearest_rank(q, len(values)) - 1]


class MetricsRegistry:
    """Get-or-create registry of named metrics.

    A name is bound to one metric kind for the registry's lifetime;
    asking for the same name as a different kind raises (that is almost
    always an instrumentation typo).
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        #: Callables drained before any read-side view renders.
        #: Batching instrumentation (the bus MetricsListener buffers its
        #: per-task updates) registers here so observation points always
        #: see fully-applied values.
        self._flush_hooks: List[object] = []

    def add_flush_hook(self, hook) -> None:
        """Register ``hook()`` to run before reads (snapshot/names/
        metric). Hooks must be idempotent and cheap when empty."""
        self._flush_hooks.append(hook)

    def flush(self) -> None:
        """Drain every registered batching buffer into the metrics."""
        for hook in self._flush_hooks:
            hook()

    def _get_or_create(self, name: str, cls) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, requested {cls.__name__}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        if self._flush_hooks:
            self.flush()
        return sorted(self._metrics)

    def metric(self, name: str) -> Metric:
        """The metric bound to ``name`` (KeyError when absent) —
        read-only access for exporters that must not create families
        as a side effect (e.g. the Prometheus renderer)."""
        if self._flush_hooks:
            self.flush()
        return self._metrics[name]

    def snapshot(self, prefix: Optional[str] = None) -> Dict[str, float]:
        """Flat ``{dotted_name: value}`` view, sorted by name.

        Values are full-precision floats (ints for histogram counts) —
        rounding is strictly a render-time concern. ``prefix`` keeps
        only metrics whose name starts with it (e.g. ``"serve."`` for
        the control-plane slice of a shared registry).
        """
        if self._flush_hooks:
            self.flush()
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            if prefix is not None and not name.startswith(prefix):
                continue
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                out[f"{name}.count"] = metric.count
                out[f"{name}.sum"] = metric.sum
                if metric.count:
                    out[f"{name}.min"] = metric.min
                    out[f"{name}.max"] = metric.max
                    out[f"{name}.mean"] = metric.mean
            else:
                out[name] = metric.value
        return out
