"""Unit tests for the serve observability plane.

Everything here runs against the pure pieces — tracer, rolling
histogram, SLO tracker, Prometheus renderer, profiler — with injected
fake clocks, no ServeRuntime. The integration halves (live ``/metrics``
scrapes, end-to-end span trees with retries and breaker flips) live in
``tests/api/test_metrics_endpoint.py`` and ``tests/api/test_tracing.py``.
"""

import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.observability.metrics import percentile
from repro.observability.serve_obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricFamily,
    MetricSample,
    RollingHistogram,
    SamplingProfiler,
    ServeTracer,
    SLOConfig,
    SLOTracker,
    deterministic_metric_lines,
    orphan_spans,
    prom_name,
    render_prometheus,
    render_span_tree,
    rolling_histogram_families,
    span_tree,
    span_tree_fingerprint,
    trace_id_for_job,
)


class FakeClock:
    """Deterministic injectable clock."""

    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class FakeHub:
    """Duck-typed hub: just records (time, category, name, fields)."""

    def __init__(self) -> None:
        self.events = []

    def record(self, t, category, name, **fields):
        self.events.append((category, name, fields))


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

def test_trace_id_is_deterministic():
    assert trace_id_for_job("job-000001") == trace_id_for_job("job-000001")
    assert trace_id_for_job("job-000001") != trace_id_for_job("job-000002")
    assert len(trace_id_for_job("job-000001")) == 16


def _happy_path(tracer: ServeTracer, clock: FakeClock,
                job_id: str = "job-000001") -> str:
    tracer.begin_job(job_id, "sparkpi", "spec")
    clock.advance(0.5)
    tracer.job_started(job_id, attempt=1)
    clock.advance(2.0)
    tracer.job_finished(job_id, "completed", attempts=1)
    return tracer.trace_id(job_id)


def test_tracer_happy_path_tree():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    trace_id = _happy_path(tracer, clock)
    spans = tracer.spans("job-000001")
    assert [s["name"] for s in spans] == ["job", "admission", "attempt-1"]
    assert all(s["trace_id"] == trace_id for s in spans)
    assert orphan_spans(spans) == []
    root, admission, attempt = spans
    assert root["parent_span_id"] is None
    assert admission["parent_span_id"] == root["span_id"]
    assert attempt["parent_span_id"] == root["span_id"]
    assert all(s["status"] == "ok" for s in spans)
    # Admission closed at job start, attempt at finish, measured on the
    # injected clock.
    assert admission["end_s"] - admission["start_s"] == pytest.approx(0.5)
    assert attempt["end_s"] - attempt["start_s"] == pytest.approx(2.0)
    assert root["end_s"] - root["start_s"] == pytest.approx(2.5)


def test_tracer_retry_path_tree():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    tracer.begin_job("job-000007", "sparkpi", "spec")
    tracer.job_started("job-000007", attempt=1)
    clock.advance(1.0)
    tracer.job_retrying("job-000007", attempt=1, backoff_s=0.25,
                        error="worker crash")
    clock.advance(0.25)
    tracer.job_started("job-000007", attempt=2)
    clock.advance(1.0)
    tracer.job_finished("job-000007", "completed", attempts=2)
    spans = tracer.spans("job-000007")
    assert [s["name"] for s in spans] == [
        "job", "admission", "attempt-1", "retry-wait-1", "attempt-2"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["attempt-1"]["status"] == "retry"
    assert by_name["attempt-2"]["status"] == "ok"
    assert by_name["retry-wait-1"]["status"] == "ok"
    assert by_name["job"]["attrs"]["attempts"] == 2
    assert orphan_spans(spans) == []


def test_tracer_failed_job_status():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    tracer.begin_job("job-000009", "sparkpi", "spec")
    tracer.job_started("job-000009", attempt=1)
    tracer.job_finished("job-000009", "failed", attempts=1, error="boom")
    by_name = {s["name"]: s for s in tracer.spans("job-000009")}
    assert by_name["job"]["status"] == "error"
    assert by_name["job"]["attrs"]["error"] == "boom"
    assert by_name["attempt-1"]["status"] == "error"


def test_tracer_finish_is_idempotent():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    _happy_path(tracer, clock)
    before = tracer.spans("job-000001")
    tracer.job_finished("job-000001", "completed", attempts=1)
    assert tracer.spans("job-000001") == before


def test_tracer_annotations_and_active_traces():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    tracer.begin_job("job-000001", "sparkpi", "spec")
    tracer.begin_job("job-000002", "sparkpi", "spec")
    assert len(tracer.active_trace_ids()) == 2
    # annotate_active lands one zero-length event on *every* open trace
    assert tracer.annotate_active("breaker:closed->open",
                                  state="open") == 2
    tracer.annotate_job("job-000001", "journal:submitted")
    tracer.job_finished("job-000001", "completed", attempts=1)
    assert tracer.annotate_active("breaker:open->closed") == 1
    spans1 = {s["name"] for s in tracer.spans("job-000001")}
    spans2 = {s["name"] for s in tracer.spans("job-000002")}
    assert "breaker:closed->open" in spans1
    assert "journal:submitted" in spans1
    assert "breaker:open->closed" not in spans1  # closed before the flip
    assert "breaker:open->closed" in spans2
    # Span events are zero-length and parented under the root.
    event = next(s for s in tracer.spans("job-000001")
                 if s["name"] == "journal:submitted")
    assert event["start_s"] == event["end_s"]
    assert orphan_spans(tracer.spans("job-000001")) == []


def test_tracer_publishes_span_boundaries_to_hub():
    hub = FakeHub()
    tracer = ServeTracer(hub, clock=FakeClock())
    _happy_path(tracer, FakeClock())
    categories = {category for category, _, _ in hub.events}
    assert categories == {"trace"}
    names = [name for _, name, _ in hub.events]
    assert "span_start" in names and "span_end" in names
    for _, _, fields in hub.events:
        assert set(fields) >= {"trace", "span", "parent", "span_name",
                               "status"}


def test_tracer_evicts_only_closed_traces():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock, max_traces=2)
    for i in range(1, 5):
        job = f"job-{i:06d}"
        tracer.begin_job(job, "sparkpi", "spec")
        tracer.job_started(job, attempt=1)
        tracer.job_finished(job, "completed", attempts=1)
    tracer.begin_job("job-000099", "sparkpi", "spec")  # stays open
    assert tracer.spans("job-000099")
    # The open trace survives, old closed ones were evicted.
    assert tracer.spans("job-000001") == []


def test_span_tree_fingerprint_ignores_timing_but_not_structure():
    fast, slow = FakeClock(), FakeClock()
    t1 = ServeTracer(clock=fast)
    t2 = ServeTracer(clock=slow)
    _happy_path(t1, fast)
    slow.advance(1000.0)  # same structure, very different wall clock
    _happy_path(t2, slow)
    assert (span_tree_fingerprint(t1.spans("job-000001"))
            == span_tree_fingerprint(t2.spans("job-000001")))
    t3 = ServeTracer(clock=FakeClock())
    t3.begin_job("job-000001", "sparkpi", "spec")
    t3.job_started("job-000001", attempt=1)
    t3.job_retrying("job-000001", attempt=1, backoff_s=0.1, error="x")
    t3.job_started("job-000001", attempt=2)
    t3.job_finished("job-000001", "completed", attempts=2)
    assert (span_tree_fingerprint(t1.spans("job-000001"))
            != span_tree_fingerprint(t3.spans("job-000001")))


def test_render_span_tree_rejects_orphans():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    _happy_path(tracer, clock)
    spans = tracer.spans("job-000001")
    out = render_span_tree(spans)
    assert "trace " in out and "job" in out and "attempt-1" in out
    broken = [dict(s) for s in spans]
    broken[1]["parent_span_id"] = "deadbeefdeadbeef"
    assert orphan_spans(broken)
    with pytest.raises(ValueError):
        render_span_tree(broken)


def test_span_tree_nests_children():
    clock = FakeClock()
    tracer = ServeTracer(clock=clock)
    _happy_path(tracer, clock)
    roots = span_tree(tracer.spans("job-000001"))
    assert len(roots) == 1
    assert [c["name"] for c in roots[0]["children"]] == [
        "admission", "attempt-1"]


# ---------------------------------------------------------------------------
# Rolling histogram
# ---------------------------------------------------------------------------

def test_rolling_histogram_quantiles():
    clock = FakeClock()
    hist = RollingHistogram(window_s=60.0, slices=6, clock=clock)
    for ms in (1, 2, 3, 4, 5, 6, 7, 8, 9, 100):
        hist.observe(ms / 1e3)
    counts, total, total_sum = hist.window_counts()
    assert total == 10
    assert total_sum == pytest.approx(0.145)
    assert sum(counts) == 10
    # Upper-bound estimates land on bucket bounds.
    assert hist.quantile(0.50) in DEFAULT_LATENCY_BUCKETS
    assert hist.quantile(0.50) <= 0.01
    assert hist.quantile(0.99) >= 0.1


def test_rolling_histogram_window_expiry():
    clock = FakeClock()
    hist = RollingHistogram(window_s=6.0, slices=6, clock=clock)
    hist.observe(0.005)
    clock.advance(3.0)
    hist.observe(0.005)
    _, total, _ = hist.window_counts()
    assert total == 2
    clock.advance(4.0)  # first observation's slice has rolled out
    _, total, _ = hist.window_counts()
    assert total == 1
    clock.advance(60.0)  # whole window expires; lifetime totals stay
    _, total, _ = hist.window_counts()
    assert total == 0
    assert hist.total_count == 2
    assert hist.quantile(0.99) == 0.0  # empty window


@given(samples=st.lists(st.sampled_from(DEFAULT_LATENCY_BUCKETS),
                        min_size=1, max_size=400))
@settings(max_examples=200, deadline=None)
def test_rolling_histogram_quantile_is_nearest_rank(samples):
    # Samples on the bucket bounds make the bucketed upper-bound
    # estimate exact, so it must pick the same rank as percentile().
    hist = RollingHistogram(window_s=60.0, clock=FakeClock())
    for value in samples:
        hist.observe(value)
    for q in (0.50, 0.95, 0.99):
        assert hist.quantile(q) == percentile(samples, q)


def test_rolling_histogram_validates_config():
    with pytest.raises(ValueError):
        RollingHistogram(window_s=0.0)
    with pytest.raises(ValueError):
        RollingHistogram(slices=0)


# ---------------------------------------------------------------------------
# SLO tracker
# ---------------------------------------------------------------------------

def test_slo_config_validates():
    with pytest.raises(ValueError):
        SLOConfig(availability_target=1.5)
    with pytest.raises(ValueError):
        SLOConfig(window_s=-1.0)
    with pytest.raises(ValueError):
        SLOConfig(latency_p99_s=0.0)


def test_slo_burn_rates_from_rejections():
    clock = FakeClock()
    tracker = SLOTracker(SLOConfig(window_s=60.0,
                                   availability_target=0.99,
                                   latency_p99_s=0.25,
                                   max_burn_rate=14.4), clock=clock)
    assert tracker.burn_rates() == {"availability": 0.0, "latency": 0.0}
    assert tracker.healthy()
    for _ in range(98):
        tracker.record_admission(True, 0.001)
    tracker.record_admission(False, 0.0)
    tracker.record_admission(False, 0.0)
    burns = tracker.burn_rates()
    # 2 bad of 100 against a 1% budget: burning 2x the budget rate.
    assert burns["availability"] == pytest.approx(2.0)
    assert burns["latency"] == 0.0
    assert tracker.healthy()  # 2x is under the 14.4x page threshold
    for _ in range(30):
        tracker.record_admission(False, 0.0)
    assert not tracker.healthy()


def test_slo_latency_objective_burns_independently():
    clock = FakeClock()
    tracker = SLOTracker(SLOConfig(window_s=60.0,
                                   availability_target=0.99,
                                   latency_p99_s=0.25,
                                   max_burn_rate=14.4), clock=clock)
    for _ in range(99):
        tracker.record_admission(True, 0.001)
    tracker.record_admission(True, 5.0)  # accepted but over the bound
    burns = tracker.burn_rates()
    assert burns["availability"] == 0.0
    assert burns["latency"] == pytest.approx(1.0)
    snap = tracker.snapshot()
    # good/bad sum both objective windows: 100 accepted + 99 on-time.
    assert snap["good_events"] == 199
    assert snap["bad_events"] == 1  # the one slow admission
    assert snap["healthy"] is True


def test_slo_job_outcomes_burn_availability():
    clock = FakeClock()
    tracker = SLOTracker(clock=clock)
    tracker.record_job_outcome(True)
    tracker.record_job_outcome(False)
    assert tracker.burn_rates()["availability"] > 0.0
    clock.advance(120.0)  # outside the window: budget recovers
    assert tracker.burn_rates()["availability"] == 0.0


# ---------------------------------------------------------------------------
# Prometheus rendering
# ---------------------------------------------------------------------------

def test_prom_name_sanitizes():
    assert prom_name("serve.jobs.running") == "repro_serve_jobs_running"
    assert prom_name("a-b c") == "repro_a_b_c"


def test_render_prometheus_formats_and_sorts():
    fams = [
        MetricFamily(name="repro_z", type="gauge", help="zee",
                     samples=[MetricSample(1.5)]),
        MetricFamily(name="repro_a_total", type="counter",
                     help='with "quotes"\nand newline',
                     samples=[MetricSample(3.0,
                                           labels=(("k", 'v"x'),))]),
    ]
    text = render_prometheus(fams)
    lines = text.splitlines()
    # Families are sorted by name; each gets HELP + TYPE + samples.
    assert lines[0] == '# HELP repro_a_total with "quotes"\\nand newline'
    assert lines[1] == "# TYPE repro_a_total counter"
    assert lines[2] == 'repro_a_total{k="v\\"x"} 3'
    assert lines[3] == "# HELP repro_z zee"
    assert lines[5] == "repro_z 1.5"
    assert text.endswith("\n")
    with pytest.raises(ValueError):
        render_prometheus([MetricFamily(name="x", type="wat", help="",
                                        samples=[])])


def test_rolling_histogram_families_are_cumulative():
    clock = FakeClock()
    hist = RollingHistogram(window_s=60.0, clock=clock)
    for v in (0.001, 0.002, 0.5):
        hist.observe(v)
    fams = rolling_histogram_families("repro_x_seconds", hist, "help")
    hist_fam = fams[0]
    assert hist_fam.type == "histogram"
    bucket_samples = [s for s in hist_fam.samples
                      if s.suffix == "_bucket"]
    values = [s.value for s in bucket_samples]
    assert values == sorted(values)  # cumulative counts
    assert bucket_samples[-1].labels == (("le", "+Inf"),)
    assert bucket_samples[-1].value == 3
    names = [f.name for f in fams]
    assert names == ["repro_x_seconds", "repro_x_seconds_p50",
                     "repro_x_seconds_p95", "repro_x_seconds_p99"]


def test_deterministic_metric_lines_filters_wall_clock_families():
    text = ("# HELP repro_serve_jobs_submitted_total x\n"
            "# TYPE repro_serve_jobs_submitted_total counter\n"
            "repro_serve_jobs_submitted_total 2\n"
            "repro_uptime_seconds 1.5\n"
            "repro_serve_slo_healthy 1\n"
            "repro_serve_admission_latency_seconds_p99 0.1\n")
    assert deterministic_metric_lines(text) == [
        "repro_serve_jobs_submitted_total 2"]


# ---------------------------------------------------------------------------
# Sampling profiler
# ---------------------------------------------------------------------------

def test_profiler_samples_a_busy_thread():
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(100))

    worker = threading.Thread(target=spin, daemon=True)
    worker.start()
    profiler = SamplingProfiler(interval_s=0.001)
    try:
        profiler.start(worker.ident)
        deadline = time.monotonic() + 5.0
        while profiler.sample_count < 20 and time.monotonic() < deadline:
            time.sleep(0.01)
    finally:
        profiler.stop()
        stop.set()
        worker.join(timeout=2.0)
    assert profiler.sample_count >= 20
    frames = profiler.top_frames()
    assert frames and frames[0][1] >= 1
    # This test module is outside src/repro: everything is external.
    assert set(profiler.bucket_fractions()) == {"external"}
    metrics = profiler.metrics()
    assert metrics["profile.samples"] == profiler.sample_count
    assert any(k.startswith("profile.bucket.") for k in metrics)
    assert any(k.startswith("profile.frame.") for k in metrics)


def test_profiler_stop_is_idempotent_and_validates():
    profiler = SamplingProfiler(interval_s=0.001)
    profiler.stop()  # never started: no-op
    with SamplingProfiler(interval_s=0.001):
        pass
    with pytest.raises(ValueError):
        SamplingProfiler(interval_s=0.0)
