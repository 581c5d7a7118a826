"""Analysis utilities: profiling sweeps, timelines, text reports.

- :mod:`~repro.analysis.profiling` — the §5.1 offline-profiling harness
  (execution time + cost vs degree of parallelism; Figure 4's U-curves);
- :mod:`~repro.analysis.timeline` — the Figure 7 per-executor activity
  timeline, drawn from a run's spans
  (:func:`repro.observability.spans.run_spans`);
- :mod:`~repro.analysis.reporting` — plain-text renderers the benches
  use to print the paper's tables/figures as aligned rows/series.
"""

from repro.analysis.profiling import profile_workload
from repro.analysis.reporting import (
    format_bar_chart,
    format_series,
    format_table,
)
from repro.analysis.stats import (
    SampleSummary,
    coefficient_of_variation,
    relative_change,
    summarize,
)
from repro.analysis.timeline import render_timeline

__all__ = [
    "SampleSummary",
    "format_bar_chart",
    "format_series",
    "format_table",
    "coefficient_of_variation",
    "profile_workload",
    "relative_change",
    "render_timeline",
    "summarize",
]
