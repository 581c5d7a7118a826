"""Tests for the inter-job autoscaler and diurnal traces (Figure 2)."""

import pytest

from repro.cloud import instance_type
from repro.core.autoscaler import (
    AutoscaleReport,
    DemandPoint,
    InterJobAutoscaler,
    ProvisioningPolicy,
)
from repro.workloads.traces import DiurnalTrace


def flat_trace(n=10, mean=10.0, sigma=1.0, actual=None):
    actual = actual if actual is not None else mean
    return [DemandPoint(time_s=i * 60.0, mean=mean, sigma=sigma,
                        actual=actual) for i in range(n)]


def test_policy_cores_at():
    policy = ProvisioningPolicy(k=2.0)
    point = DemandPoint(0.0, mean=10.0, sigma=2.0, actual=10.0)
    assert policy.cores_at(point) == 14


def test_policy_label():
    assert ProvisioningPolicy(k=0).label == "m(t)"
    assert "2" in ProvisioningPolicy(k=2.0).label
    assert ProvisioningPolicy(k=1, name="custom").label == "custom"


def test_replay_requires_two_samples():
    scaler = InterJobAutoscaler()
    with pytest.raises(ValueError):
        scaler.replay(flat_trace(1), ProvisioningPolicy(k=2))


def test_replay_no_shortfall_when_overprovisioned():
    scaler = InterJobAutoscaler()
    report = scaler.replay(flat_trace(actual=5.0), ProvisioningPolicy(k=2))
    assert report.shortfall_events == 0
    assert report.idle_core_hours > 0


def test_replay_shortfall_when_demand_spikes():
    trace = flat_trace(actual=20.0)  # demand double the prediction
    scaler = InterJobAutoscaler()
    report = scaler.replay(trace, ProvisioningPolicy(k=2))
    assert report.shortfall_events == len(trace)
    assert report.shortfall_core_hours > 0


def test_conservative_policy_provisions_more():
    trace = flat_trace()
    scaler = InterJobAutoscaler()
    lean = scaler.replay(trace, ProvisioningPolicy(k=0))
    conservative = scaler.replay(trace, ProvisioningPolicy(k=2))
    assert conservative.vm_core_hours > lean.vm_core_hours


def test_lean_policy_plus_lambdas_can_be_cheaper():
    """The paper's §4.1 argument: SplitServe lets the tenant provision at
    m(t) and bridge excursions with Lambdas, beating m(t)+2sigma."""
    trace = DiurnalTrace(seed=7).generate()
    scaler = InterJobAutoscaler()
    itype = instance_type("m4.4xlarge")
    lean = scaler.replay(trace, ProvisioningPolicy(k=0))
    conservative = scaler.replay(trace, ProvisioningPolicy(k=2))
    assert lean.total_cost(itype) < conservative.total_cost(itype)
    # But the lean policy relies on Lambda bridging actually happening.
    assert lean.shortfall_events > conservative.shortfall_events


# ---------------------------------------------------------------------------
# DiurnalTrace
# ---------------------------------------------------------------------------

def test_trace_deterministic_for_seed():
    a = DiurnalTrace(seed=1).generate()
    b = DiurnalTrace(seed=1).generate()
    assert [p.actual for p in a] == [p.actual for p in b]


def test_trace_differs_across_seeds():
    a = DiurnalTrace(seed=1).generate()
    b = DiurnalTrace(seed=2).generate()
    assert [p.actual for p in a] != [p.actual for p in b]


def test_trace_peaks_during_business_hours():
    trace = DiurnalTrace()
    assert trace.mean_at(10.5) > trace.mean_at(3.0)
    assert trace.mean_at(15.5) > trace.mean_at(22.0)


def test_trace_has_figure2_excursions():
    """Figure 2 needs both a t1 (shortfall) and a t2 (idle) moment."""
    trace = DiurnalTrace(seed=42)
    points = trace.generate()
    assert trace.shortfall_sample_exists(points)
    assert trace.idle_sample_exists(points)


def test_trace_rejects_nonpositive_hours():
    with pytest.raises(ValueError):
        DiurnalTrace().generate(hours=0)


def test_trace_sample_spacing():
    points = DiurnalTrace(sample_minutes=5.0).generate(hours=1.0)
    assert len(points) == 12
    assert points[1].time_s - points[0].time_s == pytest.approx(300.0)


# ---------------------------------------------------------------------------
# Edge cases: degenerate traces the replay must handle sensibly
# ---------------------------------------------------------------------------

def test_zero_sigma_trace_makes_every_policy_coincide():
    """With sigma(t)=0 the k knob is inert: m(t)+k*0 = m(t), so a lean
    and a very conservative policy provision identically."""
    trace = flat_trace(sigma=0.0)
    scaler = InterJobAutoscaler()
    lean = scaler.replay(trace, ProvisioningPolicy(k=0))
    conservative = scaler.replay(trace, ProvisioningPolicy(k=3))
    assert conservative.provisioned == lean.provisioned
    assert conservative.vm_core_hours == lean.vm_core_hours
    assert conservative.shortfall == lean.shortfall


def test_zero_sigma_trace_still_bridges_real_excursions():
    """Zero predicted variance does not mean zero shortfall — if the
    actual demand runs above the mean, every sample is a t1 moment."""
    trace = flat_trace(sigma=0.0, actual=12.0)  # mean stays 10.0
    report = InterJobAutoscaler().replay(trace, ProvisioningPolicy(k=2))
    assert report.shortfall_events == len(trace)
    assert report.idle_core_hours == 0.0


def test_demand_permanently_above_capacity():
    """A trace whose demand never fits under the provisioned line:
    every sample is a shortfall, nothing idles, and the Lambda bridge
    carries the whole gap."""
    trace = flat_trace(mean=10.0, sigma=1.0, actual=100.0)
    report = InterJobAutoscaler().replay(trace, ProvisioningPolicy(k=3))
    assert report.shortfall_events == len(trace)
    assert all(s > 0 for s in report.shortfall)
    assert report.idle_core_hours == 0.0
    # 9 intervals of 1 minute at a constant gap of 100-13=87 cores.
    assert report.shortfall_core_hours == pytest.approx(87.0 * 9 / 60.0)
    assert report.lambda_bridge_cost() > 0


def test_single_sample_trace_is_rejected():
    """One sample has no duration to integrate over; the replay refuses
    rather than silently reporting zero core-hours."""
    with pytest.raises(ValueError, match="two samples"):
        InterJobAutoscaler().replay(flat_trace(n=1),
                                    ProvisioningPolicy(k=1))
    with pytest.raises(ValueError, match="two samples"):
        InterJobAutoscaler().replay([], ProvisioningPolicy(k=1))
