"""Ablation: executor-local vs external shuffle under spot revocations.

§2 frames TR-Spark's problem — transient resources vanishing mid-job —
as the extreme form of what killing Lambda executors does: every lost
host takes its local shuffle files, triggering lineage rollback. The
same SplitServe design decision that makes segueing cheap (shuffle on
shared HDFS, §4.3) also immunizes jobs against revocation.

We run a two-stage job on a half-spot cluster, sweep the revocation
moment across the job's lifetime, and compare total time and re-run map
tasks for local vs HDFS shuffle.
"""

import pytest

from repro.analysis.reporting import format_table
from repro.cloud.spot import SpotVM
from repro.cluster.runtime import ClusterRuntime
from repro.spark import LocalShuffleBackend, SparkConf, SparkDriver
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS
from repro.workloads.generators import SyntheticWorkload
from benchmarks.conftest import run_once

#: Revocation moments across the job (maps finish ~20s, job ~41s).
REVOKE_AT_SWEEP = (10.0, 25.0, 35.0)


def run_one(backend: str, revoke_at: float, seed: int = 2):
    runtime = ClusterRuntime(seed)
    env, rng, provider = runtime.env, runtime.rng, runtime.provider
    if backend == "local":
        shuffle = LocalShuffleBackend()
    else:
        hdfs_vm = provider.request_vm("m4.xlarge", already_running=True,
                                      name="hdfs-node")
        shuffle = ExternalShuffleBackend(
            HDFS(env, hdfs_vm, rng, runtime.meter),
            per_pair_objects=False)
    # Task times without jitter, so the sweep isolates the revocation.
    conf = SparkConf().set("spark.sim.task.jitter", 0.0)
    driver = SparkDriver(env, conf, rng, shuffle, trace=runtime.trace)
    stable = provider.request_vm("m4.xlarge", already_running=True)
    for _ in range(2):
        driver.add_vm_executor(stable)
    spot = SpotVM(env, "spot-0", "m4.xlarge", rng,
                  revocation_at_s=revoke_at, already_running=True)
    provider.vms.append(spot)
    for _ in range(2):
        driver.add_vm_executor(spot)
    workload = SyntheticWorkload(
        stages=2, core_seconds_per_stage=80.0,
        shuffle_bytes_per_boundary=64 * 1024 * 1024,
        required_cores=4, available_cores=4)
    job = driver.submit(workload.build(runtime.lineage, 4))
    env.run(until=job.done)
    map_runs = sum(1 for a in job.task_attempts if a.spec.is_shuffle_map)
    return job.duration, map_runs


def run_sweep():
    out = {}
    for revoke_at in REVOKE_AT_SWEEP:
        out[revoke_at] = {backend: run_one(backend, revoke_at)
                          for backend in ("local", "hdfs")}
    return out


@pytest.mark.smoke
def test_ablation_spot_revocation(benchmark, emit):
    results = run_once(benchmark, run_sweep)
    rows = []
    for revoke_at, by_backend in results.items():
        local_t, local_maps = by_backend["local"]
        hdfs_t, hdfs_maps = by_backend["hdfs"]
        rows.append([f"t={revoke_at:.0f}s",
                     f"{local_t:.1f}s ({local_maps} map runs)",
                     f"{hdfs_t:.1f}s ({hdfs_maps} map runs)"])
    emit("Ablation — spot revocation: executor-local vs HDFS shuffle",
         format_table(["revoked at", "local shuffle (vanilla)",
                       "HDFS shuffle (SplitServe)"], rows))

    # Post-map-stage revocations force recomputation only under local
    # shuffle; the HDFS variant never re-runs a map.
    for revoke_at in (25.0, 35.0):
        local_t, local_maps = results[revoke_at]["local"]
        hdfs_t, hdfs_maps = results[revoke_at]["hdfs"]
        assert local_maps > 4
        assert hdfs_maps == 4
        assert hdfs_t <= local_t
