"""Live observability for the ``repro serve`` control plane.

PR 3 gave single *runs* full observability (closed taxonomy, metrics,
Chrome traces); this module gives the long-lived serving process the
same treatment, as four composable pieces the
:class:`~repro.api.service.ServeRuntime` wires together:

- **Causal tracing** — :class:`ServeTracer` carries a deterministic
  ``trace_id``/``span_id``/``parent_span_id`` context on every
  serve-side job from JobRequest through admission, plan, retry
  attempts, breaker transitions, and journal ops. Every span boundary
  is also published as a ``CAT_TRACE`` event on the serve hub (so SSE
  clients and the dashboard see spans live), and the driver stamps
  active trace ids onto the sim's ``CAT_*`` events via the EventBus
  context (see :meth:`repro.observability.bus.EventBus.set_context`).
  Its spans are :class:`~repro.observability.spans.Span` records on
  the host clock; ``repro trace <job_id>`` renders the tree via
  :func:`~repro.observability.spans.render_span_tree`.
- **Live metrics exposition** — :class:`RollingHistogram` (a
  fixed-bucket, rolling-window aggregator with p50/p95/p99 readouts)
  and :func:`render_prometheus` /
  :func:`registry_families`, which project the deterministic
  :class:`~repro.observability.metrics.MetricsRegistry` plus live
  serve gauges into the Prometheus text exposition format behind
  ``GET /metrics``.
- **SLO tracking** — :class:`SLOTracker` computes per-window burn
  rates against configurable availability/latency objectives
  (burn rate = observed bad fraction / error budget; 1.0 = burning
  exactly the budget), surfaced in ``/readyz`` (``slo_burn_ok``) and
  as ``serve.slo.*`` metric families. Its good/bad windows are
  :class:`RollingHistogram` instances with one bound each.
- **Profiling hooks** — :class:`SamplingProfiler`, a statistical
  sampler (stdlib ``sys._current_frames``; off by default, enabled by
  ``repro serve --profile`` / ``repro run --profile``) that attributes
  samples to kernel/bus/scheduler/cloud/serve hot paths and exports
  top-N frames into RunRecord.metrics and ``/metrics``.

Wall-clock note: the serve plane measures real admission latency,
real SLO windows and real profiler samples, so this module is on the
replayability lint's wall-clock exemption list. Nothing here feeds
simulated behavior, and every identifier (trace ids, span ids) is
hash-derived — never drawn from ``random``.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.observability.categories import (
    CAT_TRACE,
    EV_SPAN_END,
    EV_SPAN_EVENT,
    EV_SPAN_START,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    nearest_rank,
)
from repro.observability.spans import (
    SPAN_HOST,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_RETRY,
    Span,
    orphan_spans,
    render_span_tree,
    span_tree,
    span_tree_fingerprint,
)

__all__ = [
    "ServeTracer", "trace_id_for_job",
    # The span record and its tree helpers live in
    # repro.observability.spans; re-exported for serve-side callers.
    "Span", "span_tree", "span_tree_fingerprint", "render_span_tree",
    "orphan_spans",
    "RollingHistogram", "DEFAULT_LATENCY_BUCKETS",
    "SLOConfig", "SLOTracker",
    "MetricSample", "MetricFamily", "prom_name", "render_prometheus",
    "registry_families", "rolling_histogram_families", "slo_families",
    "profiler_families", "deterministic_metric_lines",
    "NONDETERMINISTIC_MARKERS",
    "SamplingProfiler", "PROFILE_BUCKETS",
    "DASHBOARD_HTML",
]

def _short_hash(key: str) -> str:
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


def trace_id_for_job(job_id: str) -> str:
    """Deterministic trace id: same job id ⇒ same trace, across runs
    and across server restarts (recovered jobs continue their trace)."""
    return _short_hash(f"trace:{job_id}")


class ServeTracer:
    """Owns every serve-side trace and publishes span boundaries.

    One instance per :class:`~repro.api.service.ServeRuntime`. All
    methods are thread-safe (admission lock, worker threads, and the
    reaper all emit). ``hub`` is anything with the
    ``record(time, category, name, **fields)`` duck type (the serve
    EventHub); ``clock`` supplies the serve-relative wall clock.
    """

    def __init__(self, hub: Any = None,
                 clock: Callable[[], float] = time.monotonic,
                 max_traces: int = 4096) -> None:
        self._hub = hub
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: Dict[str, List[Span]] = {}       # trace_id -> spans
        self._trace_of_job: Dict[str, str] = {}
        self._open_roots: Dict[str, Span] = {}        # trace_id -> root
        self._open_by_name: Dict[Tuple[str, str], Span] = {}
        self._counters: Dict[str, int] = {}
        self._max_traces = max_traces

    # -- low-level span plumbing ------------------------------------------

    def _publish(self, event: str, span: Span) -> None:
        """Mirror one span boundary onto the hub as a CAT_TRACE event
        (``event`` must be an ``EV_SPAN_*`` registry constant — the
        taxonomy lint checks call sites of this helper)."""
        if self._hub is None:
            return
        fields: Dict[str, Any] = {
            "trace": span.trace_id, "span": span.span_id,
            "parent": span.parent_span_id, "span_name": span.name,
            "status": span.status,
        }
        self._hub.record(self._clock(), CAT_TRACE, event, **fields)

    def _new_span(self, trace_id: str, name: str,
                  parent_span_id: Optional[str], kind: str,
                  attrs: Dict[str, Any]) -> Span:
        index = self._counters.get(trace_id, 0)
        self._counters[trace_id] = index + 1
        span = Span(trace_id=trace_id,
                    span_id=_short_hash(f"{trace_id}:{index}"),
                    parent_span_id=parent_span_id, name=name, index=index,
                    kind=kind, start_s=self._clock(), attrs=attrs)
        bucket = self._spans.setdefault(trace_id, [])
        bucket.append(span)
        if len(self._spans) > self._max_traces:
            self._evict_locked()
        return span

    def _evict_locked(self) -> None:
        """Drop the oldest *closed* traces beyond the bound."""
        for trace_id in list(self._spans):
            if len(self._spans) <= self._max_traces:
                return
            if trace_id in self._open_roots:
                continue
            del self._spans[trace_id]
            self._counters.pop(trace_id, None)

    def _start(self, trace_id: str, name: str,
               parent_span_id: Optional[str],
               attrs: Dict[str, Any]) -> Span:
        span = self._new_span(trace_id, name, parent_span_id, SPAN_HOST,
                              attrs)
        self._open_by_name[(trace_id, name)] = span
        return span

    def _end(self, span: Optional[Span], status: str,
             attrs: Dict[str, Any]) -> Optional[Span]:
        if span is None:
            return None
        span.end_s = self._clock()
        span.status = status
        span.attrs.update(attrs)
        self._open_by_name.pop((span.trace_id, span.name), None)
        return span

    def _event(self, trace_id: str, name: str,
               parent_span_id: Optional[str],
               attrs: Dict[str, Any]) -> Span:
        span = self._new_span(trace_id, name, parent_span_id, SPAN_HOST,
                              attrs)
        span.end_s = span.start_s
        span.status = STATUS_OK
        return span

    # -- job lifecycle -----------------------------------------------------

    def begin_job(self, job_id: str, workload: str, mode: str,
                  recovered: bool = False,
                  prior_attempts: int = 0) -> str:
        """Open the root + admission spans at submit (or recovery)."""
        trace_id = trace_id_for_job(job_id)
        with self._lock:
            attrs: Dict[str, Any] = {"job": job_id, "workload": workload,
                                     "mode": mode}
            if recovered:
                attrs["recovered"] = True
                attrs["prior_attempts"] = prior_attempts
            root = self._start(trace_id, "job", None, attrs)
            self._trace_of_job[job_id] = trace_id
            self._open_roots[trace_id] = root
            admission = self._start(trace_id, "admission", root.span_id, {})
        self._publish(EV_SPAN_START, root)
        self._publish(EV_SPAN_START, admission)
        return trace_id

    def job_started(self, job_id: str, attempt: int) -> None:
        """Close the wait span (admission or retry-wait) and open the
        attempt span."""
        closed: List[Span] = []
        with self._lock:
            trace_id = self._trace_of_job.get(job_id)
            if trace_id is None:
                return
            root = self._open_roots.get(trace_id)
            if attempt <= 1:
                wait = self._open_by_name.get((trace_id, "admission"))
            else:
                wait = self._open_by_name.get(
                    (trace_id, f"retry-wait-{attempt - 1}"))
            ended = self._end(wait, STATUS_OK, {})
            if ended is not None:
                closed.append(ended)
            span = self._start(
                trace_id, f"attempt-{attempt}",
                root.span_id if root is not None else None,
                {"attempt": attempt})
        for span_ in closed:
            self._publish(EV_SPAN_END, span_)
        self._publish(EV_SPAN_START, span)

    def job_retrying(self, job_id: str, attempt: int, backoff_s: float,
                     error: str) -> None:
        """Close attempt ``attempt`` as a retry and open the backoff
        wait span the next attempt will close."""
        closed: List[Span] = []
        with self._lock:
            trace_id = self._trace_of_job.get(job_id)
            if trace_id is None:
                return
            root = self._open_roots.get(trace_id)
            ended = self._end(
                self._open_by_name.get((trace_id, f"attempt-{attempt}")),
                STATUS_RETRY, {"error": error})
            if ended is not None:
                closed.append(ended)
            wait = self._start(
                trace_id, f"retry-wait-{attempt}",
                root.span_id if root is not None else None,
                {"backoff_s": round(backoff_s, 6)})
        for span_ in closed:
            self._publish(EV_SPAN_END, span_)
        self._publish(EV_SPAN_START, wait)

    def job_finished(self, job_id: str, state: str, attempts: int,
                     error: Optional[str] = None) -> None:
        """Terminal transition: close any open attempt/wait span and
        the root."""
        status = STATUS_OK if error is None else STATUS_ERROR
        closed: List[Span] = []
        with self._lock:
            trace_id = self._trace_of_job.get(job_id)
            if trace_id is None:
                return
            attrs: Dict[str, Any] = {"error": error} if error else {}
            for name in ("admission", f"attempt-{attempts}",
                         f"retry-wait-{attempts}"):
                ended = self._end(
                    self._open_by_name.get((trace_id, name)), status,
                    dict(attrs))
                if ended is not None:
                    closed.append(ended)
            root = self._open_roots.pop(trace_id, None)
            ended = self._end(root, status,
                              {"state": state, "attempts": attempts,
                               **attrs})
            if ended is not None:
                closed.append(ended)
        for span_ in closed:
            self._publish(EV_SPAN_END, span_)

    # -- annotations -------------------------------------------------------

    def annotate_job(self, job_id: str, name: str,
                     **attrs: Any) -> None:
        """A zero-length span event under the job's root (plan
        decisions, journal ops, chaos marks)."""
        with self._lock:
            trace_id = self._trace_of_job.get(job_id)
            if trace_id is None:
                return
            root = self._open_roots.get(trace_id)
            parent = root.span_id if root is not None else None
            span = self._event(trace_id, name, parent, dict(attrs))
        self._publish(EV_SPAN_EVENT, span)

    def annotate_active(self, name: str, **attrs: Any) -> int:
        """Attach one span event to *every* in-flight trace (breaker
        transitions affect all running jobs); returns how many traces
        were annotated."""
        spans: List[Span] = []
        with self._lock:
            for trace_id, root in self._open_roots.items():
                spans.append(self._event(trace_id, name, root.span_id,
                                         dict(attrs)))
        for span in spans:
            self._publish(EV_SPAN_EVENT, span)
        return len(spans)

    # -- queries -----------------------------------------------------------

    def trace_id(self, job_id: str) -> Optional[str]:
        with self._lock:
            return self._trace_of_job.get(job_id)

    def spans(self, job_id: str) -> List[Dict[str, Any]]:
        """All spans of the job's trace, birth order, as dicts."""
        with self._lock:
            trace_id = self._trace_of_job.get(job_id)
            if trace_id is None:
                return []
            return [s.to_dict() for s in self._spans.get(trace_id, [])]


# ---------------------------------------------------------------------------
# Rolling-window histogram
# ---------------------------------------------------------------------------

#: Log-spaced latency buckets (seconds), 100 µs — 10 s. The final +Inf
#: bucket is implicit.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class RollingHistogram:
    """Fixed-bucket histogram over a rolling wall-clock window.

    The window is ``slices`` ring segments of ``window_s / slices``
    each; observations land in the current segment and a whole segment
    expires at a time (standard coarse rolling window — cheap, O(1)
    per observation, bounded memory). Quantiles are read from the
    merged window buckets (upper-bound estimate, the Prometheus
    convention). Lifetime ``total_count``/``total_sum`` never reset.
    """

    def __init__(self, window_s: float = 60.0, slices: int = 6,
                 buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if window_s <= 0 or slices < 1:
            raise ValueError("window_s must be > 0 and slices >= 1")
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("need at least one bucket bound")
        self.window_s = float(window_s)
        self._slice_s = self.window_s / slices
        self._clock = clock
        self._lock = threading.Lock()
        n = len(self.bounds) + 1  # + overflow bucket
        self._slices = [[0] * n for _ in range(slices)]
        self._slice_sums = [0.0] * slices
        self._slice_counts = [0] * slices
        self._current = 0
        self._current_started = clock()
        self.total_count = 0
        self.total_sum = 0.0

    def _advance_locked(self, now: float) -> None:
        elapsed = now - self._current_started
        if elapsed < self._slice_s:
            return
        steps = min(len(self._slices), int(elapsed / self._slice_s))
        for _ in range(steps):
            self._current = (self._current + 1) % len(self._slices)
            self._slices[self._current] = [0] * (len(self.bounds) + 1)
            self._slice_sums[self._current] = 0.0
            self._slice_counts[self._current] = 0
        self._current_started = now

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect_left(self.bounds, value)
        with self._lock:
            self._advance_locked(self._clock())
            self._slices[self._current][idx] += 1
            self._slice_sums[self._current] += value
            self._slice_counts[self._current] += 1
            self.total_count += 1
            self.total_sum += value

    def _merged_locked(self) -> List[int]:
        merged = [0] * (len(self.bounds) + 1)
        for counts in self._slices:
            for i, c in enumerate(counts):
                merged[i] += c
        return merged

    def window_counts(self) -> Tuple[List[int], int, float]:
        """(per-bucket counts, count, sum) over the current window."""
        with self._lock:
            self._advance_locked(self._clock())
            return (self._merged_locked(), sum(self._slice_counts),
                    sum(self._slice_sums))

    def quantile(self, q: float) -> float:
        """Upper-bound quantile estimate over the window: the bound of
        the bucket holding the nearest-rank sample (0 when empty; the
        top bound when that sample lands in overflow)."""
        counts, total, _ = self.window_counts()
        if total == 0:
            return 0.0
        rank = nearest_rank(q, total)
        running = 0
        for i, c in enumerate(counts):
            running += c
            if running >= rank:
                return (self.bounds[i] if i < len(self.bounds)
                        else self.bounds[-1])
        return self.bounds[-1]

    def snapshot(self) -> Dict[str, float]:
        counts, total, total_sum = self.window_counts()
        return {
            "count": total, "sum": total_sum,
            "p50": self.quantile(0.50), "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


# ---------------------------------------------------------------------------
# SLO burn rate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SLOConfig:
    """Objectives the serve plane is scored against.

    ``availability_target`` — fraction of submissions that must be
    accepted (not shed) and of finished jobs that must not fail.
    ``latency_p99_s`` — admission-latency objective: an admission
    slower than this is a "bad" latency event. ``max_burn_rate`` — the
    readiness gate: ``/readyz`` trips when either burn rate exceeds it
    (14.4 = the classic 1-hour fast-burn page threshold for a 30-day
    window).
    """

    window_s: float = 60.0
    availability_target: float = 0.99
    latency_p99_s: float = 0.25
    max_burn_rate: float = 14.4

    def __post_init__(self) -> None:
        if not 0.0 < self.availability_target < 1.0:
            raise ValueError("availability_target must be in (0, 1)")
        if self.latency_p99_s <= 0:
            raise ValueError("latency_p99_s must be positive")
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.max_burn_rate <= 0:
            raise ValueError("max_burn_rate must be positive")


class SLOTracker:
    """Per-window burn rates against the configured objectives.

    Burn rate = (bad fraction in the window) / (error budget), the
    standard multiwindow-burn-rate formulation: 1.0 means errors arrive
    exactly at the budgeted rate; ``max_burn_rate`` (e.g. 14.4) means
    the monthly budget would be gone in ~2 days. No events ⇒ burn 0.
    """

    def __init__(self, config: Optional[SLOConfig] = None,
                 slices: int = 6,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or SLOConfig()
        # Each window is a one-bound RollingHistogram: bucket 0 counts
        # the good events (value <= bound), the overflow bucket the bad.
        # Availability observes 0.0 (good) or 1.0 (bad) against 0.0.
        self._availability = RollingHistogram(
            self.config.window_s, slices, buckets=(0.0,), clock=clock)
        self._latency = RollingHistogram(
            self.config.window_s, slices,
            buckets=(self.config.latency_p99_s,), clock=clock)

    # -- feeds -------------------------------------------------------------

    def record_admission(self, accepted: bool, latency_s: float) -> None:
        self._availability.observe(0.0 if accepted else 1.0)
        if accepted:
            self._latency.observe(latency_s)

    def record_job_outcome(self, ok: bool) -> None:
        self._availability.observe(0.0 if ok else 1.0)

    # -- reads -------------------------------------------------------------

    @staticmethod
    def _good_bad(window: RollingHistogram) -> Tuple[int, int]:
        counts, _, _ = window.window_counts()
        return counts[0], counts[1]

    @staticmethod
    def _burn(good: int, bad: int, target: float) -> float:
        total = good + bad
        if total == 0:
            return 0.0
        return (bad / total) / (1.0 - target)

    def burn_rates(self) -> Dict[str, float]:
        a_good, a_bad = self._good_bad(self._availability)
        l_good, l_bad = self._good_bad(self._latency)
        cfg = self.config
        return {
            "availability": self._burn(a_good, a_bad,
                                       cfg.availability_target),
            # The latency objective shares the availability budget
            # fraction: an admission past the target burns like an
            # error against the same (1 - target) budget.
            "latency": self._burn(l_good, l_bad,
                                  cfg.availability_target),
        }

    def healthy(self) -> bool:
        return max(self.burn_rates().values(),
                   default=0.0) <= self.config.max_burn_rate

    def snapshot(self) -> Dict[str, Any]:
        a_good, a_bad = self._good_bad(self._availability)
        l_good, l_bad = self._good_bad(self._latency)
        burns = self.burn_rates()
        return {
            "window_s": self.config.window_s,
            "availability_target": self.config.availability_target,
            "latency_p99_s": self.config.latency_p99_s,
            "max_burn_rate": self.config.max_burn_rate,
            "good_events": a_good + l_good,
            "bad_events": a_bad + l_bad,
            "availability_burn_rate": round(burns["availability"], 6),
            "latency_burn_rate": round(burns["latency"], 6),
            "healthy": self.healthy(),
        }


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSample:
    """One exposition line: optional labels + value (+ name suffix for
    ``_bucket``/``_count``/``_sum`` children)."""

    value: float
    labels: Tuple[Tuple[str, str], ...] = ()
    suffix: str = ""


@dataclass
class MetricFamily:
    """One ``# TYPE`` block of the exposition."""

    name: str
    type: str          # "counter" | "gauge" | "histogram" | "summary"
    help: str
    samples: List[MetricSample] = field(default_factory=list)


_PROM_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def prom_name(dotted: str, prefix: str = "repro_") -> str:
    """Sanitize a dotted metric name into the Prometheus grammar."""
    import re
    name = prefix + re.sub(r"[^a-zA-Z0-9_]", "_", dotted)
    if not re.match(r"^[a-zA-Z_]", name):
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(families: Iterable[MetricFamily]) -> str:
    """The Prometheus text exposition (format 0.0.4) of the families,
    sorted by family name so equal inputs render byte-identically."""
    out: List[str] = []
    for fam in sorted(families, key=lambda f: f.name):
        if fam.type not in _PROM_TYPES:
            raise ValueError(f"unknown family type {fam.type!r}")
        help_text = fam.help.replace("\\", r"\\").replace("\n", r"\n")
        out.append(f"# HELP {fam.name} {help_text}")
        out.append(f"# TYPE {fam.name} {fam.type}")
        for sample in fam.samples:
            label_text = ""
            if sample.labels:
                pairs = ",".join(
                    '{}="{}"'.format(
                        k, v.replace("\\", r"\\").replace('"', r"\"")
                        .replace("\n", r"\n"))
                    for k, v in sample.labels)
                label_text = "{" + pairs + "}"
            out.append(f"{fam.name}{sample.suffix}{label_text} "
                       f"{_format_value(sample.value)}")
    return "\n".join(out) + "\n"


def registry_families(registry: MetricsRegistry,
                      help_prefix: str = "repro metric "
                      ) -> List[MetricFamily]:
    """Project a MetricsRegistry onto exposition families: Counter →
    counter (``_total``), Gauge → gauge, Histogram → summary
    (``_count``/``_sum``) plus a ``_mean`` gauge."""
    families: List[MetricFamily] = []
    for name in registry.names():
        metric = registry.metric(name)
        if isinstance(metric, Counter):
            families.append(MetricFamily(
                name=prom_name(name) + "_total", type="counter",
                help=help_prefix + name,
                samples=[MetricSample(metric.value)]))
        elif isinstance(metric, Gauge):
            families.append(MetricFamily(
                name=prom_name(name), type="gauge",
                help=help_prefix + name,
                samples=[MetricSample(metric.value)]))
        elif isinstance(metric, Histogram):
            families.append(MetricFamily(
                name=prom_name(name), type="summary",
                help=help_prefix + name,
                samples=[MetricSample(metric.count, suffix="_count"),
                         MetricSample(metric.sum, suffix="_sum")]))
            if metric.count:
                families.append(MetricFamily(
                    name=prom_name(name) + "_mean", type="gauge",
                    help=help_prefix + name + " (mean)",
                    samples=[MetricSample(metric.mean)]))
    return families


def rolling_histogram_families(name: str, hist: RollingHistogram,
                               help_text: str) -> List[MetricFamily]:
    """One rolling histogram as a Prometheus histogram family
    (cumulative ``_bucket{le=...}`` + ``_count``/``_sum`` over the
    window) plus p50/p95/p99 gauges."""
    counts, total, total_sum = hist.window_counts()
    samples: List[MetricSample] = []
    running = 0
    for bound, count in zip(hist.bounds, counts):
        running += count
        samples.append(MetricSample(
            running, labels=(("le", _format_value(bound)),),
            suffix="_bucket"))
    samples.append(MetricSample(
        total, labels=(("le", "+Inf"),), suffix="_bucket"))
    samples.append(MetricSample(total, suffix="_count"))
    samples.append(MetricSample(total_sum, suffix="_sum"))
    families = [MetricFamily(name=name, type="histogram", help=help_text,
                             samples=samples)]
    for q, label in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
        families.append(MetricFamily(
            name=f"{name}_{label}", type="gauge",
            help=f"{help_text} ({label} over the window)",
            samples=[MetricSample(hist.quantile(q))]))
    return families


def slo_families(tracker: SLOTracker) -> List[MetricFamily]:
    snap = tracker.snapshot()
    fams = []
    for key, type_ in (("availability_burn_rate", "gauge"),
                       ("latency_burn_rate", "gauge"),
                       ("good_events", "gauge"),
                       ("bad_events", "gauge")):
        fams.append(MetricFamily(
            name=prom_name(f"serve.slo.{key}"), type=type_,
            help=f"serve SLO {key.replace('_', ' ')} "
                 f"(window {snap['window_s']:g}s)",
            samples=[MetricSample(float(snap[key]))]))
    fams.append(MetricFamily(
        name=prom_name("serve.slo.healthy"), type="gauge",
        help="1 when every burn rate is under max_burn_rate",
        samples=[MetricSample(1.0 if snap["healthy"] else 0.0)]))
    return fams


def profiler_families(profiler: "SamplingProfiler"
                      ) -> List[MetricFamily]:
    """Top-N frames and subsystem buckets as labeled gauge families."""
    frames = profiler.top_frames()
    buckets = profiler.bucket_fractions()
    fams = [MetricFamily(
        name=prom_name("serve.profile.samples") + "_total",
        type="counter", help="profiler samples collected",
        samples=[MetricSample(float(profiler.sample_count))])]
    if buckets:
        fams.append(MetricFamily(
            name=prom_name("serve.profile.bucket_fraction"), type="gauge",
            help="fraction of samples per subsystem bucket",
            samples=[MetricSample(frac, labels=(("bucket", name),))
                     for name, frac in sorted(buckets.items())]))
    if frames:
        total = max(1, profiler.sample_count)
        fams.append(MetricFamily(
            name=prom_name("serve.profile.frame_fraction"), type="gauge",
            help="fraction of samples per hottest frame (top-N)",
            samples=[MetricSample(count / total,
                                  labels=(("frame", label),))
                     for label, count in frames]))
    return fams


#: Family-name substrings that mark wall-clock-fed (nondeterministic)
#: metrics. The determinism tests strip matching families before
#: byte-comparing two servers' ``/metrics`` output.
NONDETERMINISTIC_MARKERS: Tuple[str, ...] = (
    "seconds", "uptime", "burn_rate", "slo", "profile", "latency",
    "wall", "_s_",
)


def deterministic_metric_lines(text: str) -> List[str]:
    """Sample lines of an exposition whose family name carries no
    wall-clock marker — the byte-identity surface of ``/metrics``."""
    keep = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if any(marker in name for marker in NONDETERMINISTIC_MARKERS):
            continue
        keep.append(line)
    return keep


# ---------------------------------------------------------------------------
# Sampled profiler
# ---------------------------------------------------------------------------

#: filename fragment -> subsystem bucket, first match wins (checked
#: innermost frame outward). The names follow the perf ROADMAP item:
#: kernel (discrete-event loop + heap), bus (EventBus publish/validate
#: + trace recording), scheduler (DAG/task scheduling + pools), cloud
#: (provider/launch paths), serve (the control plane itself).
PROFILE_BUCKETS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("kernel", ("repro/simulation/kernel", "repro/simulation/events",
                "repro/simulation/rng")),
    ("bus", ("repro/observability/bus", "repro/observability/metrics",
             "repro/observability/instrumentation",
             "repro/simulation/tracing")),
    ("scheduler", ("repro/spark/", "repro/cluster/")),
    ("cloud", ("repro/cloud/", "repro/core/", "repro/storage/")),
    ("serve", ("repro/api/", "repro/observability/serve_obs")),
)


def _bucket_for(filename: str) -> Optional[str]:
    path = filename.replace("\\", "/")
    for bucket, fragments in PROFILE_BUCKETS:
        if any(frag in path for frag in fragments):
            return bucket
    if "/repro/" in path:
        return "other"
    return None


class SamplingProfiler:
    """Statistical profiler for one target thread (off by default).

    A sampler thread wakes every ``interval_s``, grabs the target's
    stack via ``sys._current_frames()``, and attributes the sample to
    the innermost frame inside ``src/repro`` — labeled
    ``<bucket>:<function>`` (plus the stdlib leaf when the target is
    blocked inside one, e.g. ``serve:_drive/wait``). Sampling touches
    no locks of the profiled code and costs one dict lookup per tick,
    which is what keeps the enabled overhead inside the <10% admission
    p99 budget (measured by ``bench_serve_load``).
    """

    #: Frames :meth:`top_frames` returns by default.
    TOP_N = 15

    def __init__(self, interval_s: float = 0.005) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.interval_s = interval_s
        self.sample_count = 0
        self._counts: Dict[str, int] = {}
        self._bucket_counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._target_id: Optional[int] = None
        self._saved_switch_interval: Optional[float] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, thread_id: Optional[int] = None) -> "SamplingProfiler":
        """Begin sampling ``thread_id`` (default: the calling thread)."""
        if self._thread is not None:
            return self
        self._target_id = (thread_id if thread_id is not None
                           else threading.get_ident())
        # Shrink the GIL switch interval while sampling. With the
        # default 5ms interval the sampler's pending GIL request is
        # granted at the target's next *voluntary* release — which is
        # disproportionately a C-extension call boundary (numpy), so
        # samples pile onto whichever Python frame issues those calls
        # (observed 30%+ over-attribution to the RNG refill). A 0.5ms
        # interval makes preemption at arbitrary bytecodes dominate the
        # handoff distribution, flattening the bias to profiler noise.
        self._saved_switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(min(self._saved_switch_interval, 0.0005))
        self._stop.clear()
        self._thread = threading.Thread(target=self._sample_loop,
                                        name="repro-profiler",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        if self._saved_switch_interval is not None:
            sys.setswitchinterval(self._saved_switch_interval)
            self._saved_switch_interval = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling ----------------------------------------------------------

    def _sample_loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            frame = sys._current_frames().get(self._target_id)
            if frame is None:
                continue
            self._attribute(frame)

    def _attribute(self, frame: Any) -> None:
        leaf_name = frame.f_code.co_name
        label = None
        bucket = None
        walker = frame
        while walker is not None:
            b = _bucket_for(walker.f_code.co_filename)
            if b is not None:
                bucket = b
                func = walker.f_code.co_name
                label = (f"{b}:{func}" if walker is frame
                         else f"{b}:{func}/{leaf_name}")
                break
            walker = walker.f_back
        if label is None:
            bucket = "external"
            label = f"external:{leaf_name}"
        with self._lock:
            self.sample_count += 1
            self._counts[label] = self._counts.get(label, 0) + 1
            self._bucket_counts[bucket] = \
                self._bucket_counts.get(bucket, 0) + 1

    # -- reads -------------------------------------------------------------

    def top_frames(self, n: Optional[int] = None
                   ) -> List[Tuple[str, int]]:
        """Hottest frames, ``(label, samples)``, count-descending (ties
        by label so the ordering is stable)."""
        with self._lock:
            items = sorted(self._counts.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        return items[:n or self.TOP_N]

    def bucket_fractions(self) -> Dict[str, float]:
        with self._lock:
            total = self.sample_count
            if not total:
                return {}
            return {bucket: count / total
                    for bucket, count in self._bucket_counts.items()}

    def metrics(self, prefix: str = "profile.") -> Dict[str, float]:
        """Flat dotted metrics for RunRecord.metrics: total samples,
        per-bucket fractions, and the top-N frame fractions under
        sanitized keys."""
        import re
        out: Dict[str, float] = {f"{prefix}samples": float(
            self.sample_count)}
        for bucket, frac in sorted(self.bucket_fractions().items()):
            out[f"{prefix}bucket.{bucket}"] = round(frac, 6)
        total = max(1, self.sample_count)
        for label, count in self.top_frames():
            key = re.sub(r"[^a-zA-Z0-9_.]", "_", label.replace(":", "."))
            out[f"{prefix}frame.{key}"] = round(count / total, 6)
        return out


# ---------------------------------------------------------------------------
# Dashboard (stdlib-only HTML, RackMind dc_sim/api style)
# ---------------------------------------------------------------------------

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro serve — live dashboard</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 1.5rem; background: #101418; color: #d7dde4; }
  h1 { font-size: 1.1rem; } h2 { font-size: 0.95rem; color: #8ab4f8; }
  .grid { display: grid; grid-template-columns: 1fr 1fr; gap: 1rem; }
  table { border-collapse: collapse; width: 100%; font-size: 0.8rem; }
  td, th { border-bottom: 1px solid #2a3138; padding: 2px 8px;
           text-align: left; white-space: nowrap; }
  th { color: #9aa6b2; font-weight: 600; }
  .num { text-align: right; font-variant-numeric: tabular-nums; }
  #events { max-height: 24rem; overflow-y: auto; }
  .cat { color: #8ab4f8; } .warn { color: #f28b82; }
  footer { margin-top: 1rem; color: #667; font-size: 0.75rem; }
</style>
</head>
<body>
<h1>repro serve — live observability</h1>
<div class="grid">
  <section>
    <h2>metrics (/metrics, refreshed every 2 s)</h2>
    <table id="metrics"><thead>
      <tr><th>metric</th><th class="num">value</th></tr>
    </thead><tbody></tbody></table>
  </section>
  <section>
    <h2>events (/events, live SSE)</h2>
    <div id="events"><table><thead>
      <tr><th>t</th><th>category</th><th>name</th><th>fields</th></tr>
    </thead><tbody id="eventrows"></tbody></table></div>
  </section>
</div>
<footer>stdlib-only dashboard — data: <code>GET /metrics</code>
(Prometheus text) + <code>GET /events</code> (SSE).
Traces: <code>repro trace &lt;job_id&gt;</code>.</footer>
<script>
const WATCH = ["repro_serve_jobs_running", "repro_serve_jobs_queued",
  "repro_serve_jobs_submitted_total", "repro_serve_jobs_rejected_total",
  "repro_serve_jobs_failed", "repro_serve_breaker_state",
  "repro_serve_admission_latency_seconds_p50",
  "repro_serve_admission_latency_seconds_p99",
  "repro_serve_slo_availability_burn_rate",
  "repro_serve_slo_latency_burn_rate", "repro_uptime_seconds"];
async function refreshMetrics() {
  try {
    const text = await (await fetch("/metrics")).text();
    const values = {};
    for (const line of text.split("\\n")) {
      if (!line || line.startsWith("#")) continue;
      const sp = line.lastIndexOf(" ");
      values[line.slice(0, sp)] = line.slice(sp + 1);
    }
    const body = document.querySelector("#metrics tbody");
    body.innerHTML = "";
    for (const name of WATCH) {
      if (!(name in values)) continue;
      const row = body.insertRow();
      row.insertCell().textContent = name;
      const cell = row.insertCell();
      cell.className = "num";
      cell.textContent = values[name];
    }
  } catch (err) { /* server restarting; retry on the next tick */ }
}
refreshMetrics();
setInterval(refreshMetrics, 2000);
const rows = document.getElementById("eventrows");
const source = new EventSource("/events?replay=50");
source.onmessage = onEvent;
for (const cat of ["serve", "trace", "cluster", "executor", "dag",
                   "scheduler", "fault", "planner", "lambda", "vm"])
  source.addEventListener(cat, onEvent);
function onEvent(msg) {
  const ev = JSON.parse(msg.data);
  const row = rows.insertRow(0);
  row.insertCell().textContent = Number(ev.time).toFixed(3);
  const cat = row.insertCell();
  cat.textContent = ev.category; cat.className = "cat";
  row.insertCell().textContent = ev.name;
  row.insertCell().textContent = JSON.stringify(ev.fields);
  while (rows.rows.length > 200) rows.deleteRow(-1);
}
</script>
</body>
</html>
"""
