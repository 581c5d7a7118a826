"""Ablation: bridging a core shortfall — Lambdas vs standby burstables.

§2 discusses BurScale as complementary: it keeps *standby burstable VMs*
to absorb overload while regular VMs boot. This ablation runs the same
under-provisioned job three ways:

- ``splitserve`` — bridge the shortfall with warm Lambdas (this paper);
- ``burscale-flush`` — standby t2 burstables with healthy CPU credits;
- ``burscale-broke`` — the same standbys after earlier spikes drained
  their credits (BurScale's "managing token state" risk, §2);

and adds the standing cost of keeping the standbys up around the clock,
which Lambdas do not pay.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cloud.burstable import BURSTABLE_CATALOGUE, BurstableVM
from repro.cluster.runtime import ClusterRuntime
from repro.core import SplitServe
from repro.workloads import SyntheticWorkload
from benchmarks.conftest import run_once

#: 16-core job, 4 cores free; 12 must be bridged.
WORKLOAD = dict(stages=4, core_seconds_per_stage=320.0,
                shuffle_bytes_per_boundary=150 * 1024 * 1024,
                required_cores=16, available_cores=4)
#: Standby pool: six 2-core t2.large.
STANDBY_COUNT = 6


def _base_cluster(seed=0):
    runtime = ClusterRuntime(seed)
    provider = runtime.provider
    master = provider.request_vm("m4.xlarge", name="master",
                                 already_running=True)
    master.allocate_cores(master.itype.vcpus)
    ss = SplitServe(runtime.env, provider, runtime.rng, master_vm=master)
    worker = provider.request_vm("m4.4xlarge", already_running=True)
    worker.allocate_cores(worker.itype.vcpus - 4)
    return runtime, ss


def run_splitserve(seed=0):
    runtime, ss = _base_cluster(seed)
    workload = SyntheticWorkload(**WORKLOAD)
    result = ss.run_job(workload.build(runtime.lineage, 16),
                        required_cores=16, max_vm_cores=4)
    return result.duration, runtime.meter.breakdown().get("lambda", 0.0)


def run_burscale(credits, seed=0):
    runtime, ss = _base_cluster(seed)
    for i in range(STANDBY_COUNT):
        vm = BurstableVM.launch(runtime.env, f"standby-{i}", "t2.large",
                                runtime.rng, already_running=True,
                                initial_credits=credits)
        runtime.provider.vms.append(vm)
    workload = SyntheticWorkload(**WORKLOAD)
    # The launching facility naturally picks up the standby cores — no
    # Lambdas needed (max_vm_cores unrestricted).
    result = ss.run_job(workload.build(runtime.lineage, 16),
                        required_cores=16)
    # Standby economics: the pool exists around the clock; amortize one
    # hour of standby against this job.
    itype, _spec = BURSTABLE_CATALOGUE["t2.large"]
    standby_cost = STANDBY_COUNT * itype.price_per_hour
    return result.duration, standby_cost


def run_all():
    ss_time, ss_lambda_cost = run_splitserve()
    flush_time, standby_cost = run_burscale(credits=60)
    broke_time, _ = run_burscale(credits=0)
    return {
        "splitserve (12 Lambdas)": (ss_time, ss_lambda_cost),
        "burscale, credits flush": (flush_time, standby_cost),
        "burscale, credits drained": (broke_time, standby_cost),
    }


@pytest.mark.smoke
def test_ablation_burstable_bridging(benchmark, emit):
    results = run_once(benchmark, run_all)
    rows = [[name, f"{t:.1f}", f"${c:.4f}"]
            for name, (t, c) in results.items()]
    emit("Ablation — bridging 12 missing cores: Lambdas vs standby "
         "burstables",
         format_table(["bridge", "time (s)", "bridge cost (job/hour)"],
                      rows))

    ss_time, ss_cost = results["splitserve (12 Lambdas)"]
    flush_time, standby_cost = results["burscale, credits flush"]
    broke_time, _ = results["burscale, credits drained"]
    # With credits, standby burstables are a fine bridge (the paper calls
    # the approaches complementary).
    assert flush_time < 1.4 * ss_time
    # Without credits they collapse toward the 30% baseline.
    assert broke_time > 1.5 * flush_time
    # And the standing pool costs more per hour than this job's Lambdas.
    assert standby_cost > ss_cost
