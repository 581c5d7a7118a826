"""Full-stack telemetry: event taxonomy, bus, metrics, exporters.

The observability layer has four pieces:

- :mod:`~repro.observability.categories` — the closed event taxonomy
  (category/name constants) every emitter publishes under;
- :mod:`~repro.observability.bus` — the typed :class:`EventBus` the
  components publish to; the trace recorder is one subscriber;
- :mod:`~repro.observability.metrics` — the deterministic
  :class:`MetricsRegistry` of counters/gauges/histograms, fed by
  :class:`MetricsListener` and direct cloud-layer instrumentation;
- :mod:`~repro.observability.spans` — the one span record
  (:class:`Span`, on the host or the sim clock), :func:`run_spans`
  (a run's executor, task and stage spans and its segue and fault
  marks, derived once from its event rows) and the span-tree helpers;
- :mod:`~repro.observability.export` / ``report`` — JSONL event logs,
  the Chrome-trace (Perfetto) JSON of any spans, and the
  ``repro report`` renderer;
- :mod:`~repro.observability.serve_obs` — the live serve plane:
  causal spans (``ServeTracer``), rolling-window histograms, SLO burn
  rates, Prometheus text exposition, and the sampling profiler.
"""

from repro.observability.bus import EventBus, ListenerInterface
from repro.observability.categories import (
    EVENTS,
    known_categories,
    validate_event,
)
from repro.observability.export import (
    chrome_trace,
    event_log_dicts,
    load_event_log,
    save_chrome_trace,
    save_event_log,
)
from repro.observability.instrumentation import MetricsListener, attribute_costs
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.report import (
    render_event_log_report,
    render_report_file,
    render_run_report,
)
from repro.observability.serve_obs import (
    RollingHistogram,
    SamplingProfiler,
    ServeTracer,
    SLOConfig,
    SLOTracker,
    render_prometheus,
    trace_id_for_job,
)
from repro.observability.spans import (
    Span,
    render_span_tree,
    run_spans,
    span_tree_fingerprint,
)
from repro.observability.stage_metrics import (
    StageMetrics,
    dotted_stage_metrics,
    kind_metrics_from_job,
    stage_metrics_from_job,
)

__all__ = [
    "EventBus",
    "ListenerInterface",
    "EVENTS",
    "known_categories",
    "validate_event",
    "chrome_trace",
    "event_log_dicts",
    "load_event_log",
    "save_chrome_trace",
    "save_event_log",
    "RollingHistogram",
    "SamplingProfiler",
    "ServeTracer",
    "SLOConfig",
    "SLOTracker",
    "render_prometheus",
    "Span",
    "render_span_tree",
    "run_spans",
    "span_tree_fingerprint",
    "trace_id_for_job",
    "MetricsListener",
    "attribute_costs",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_event_log_report",
    "render_report_file",
    "render_run_report",
    "StageMetrics",
    "dotted_stage_metrics",
    "kind_metrics_from_job",
    "stage_metrics_from_job",
]
