"""Micro-batch stream processing under SplitServe (§7's Flink direction).

The paper closes with "we will also devise SplitServe versions of other
popular application frameworks, e.g., Flink". The closest structure our
batch engine expresses is micro-batch streaming (Spark Streaming's
model, and what a Flink job with aligned windows amounts to): every
``batch_interval_s`` the records that arrived in the window become a
two-stage job (parse/map, then a windowed aggregation shuffle) that must
finish before the *next* batch lands, or the pipeline falls behind.

:class:`MicroBatchSimulator` runs a rate trace through that loop on a
fixed VM allotment, optionally bridging per-batch core shortfalls with
Lambdas — SplitServe's launching facility applied at streaming cadence,
where the 100 ms warm start matters every interval, not once per job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster.pool import invoke_lambda_executors
from repro.cluster.runtime import ClusterRuntime
from repro.spark.application import SparkDriver
from repro.spark.config import SparkConf
from repro.spark.rdd import RDD
from repro.spark.shuffle import ExternalShuffleBackend
from repro.storage import HDFS

#: Reference-core seconds to parse + transform one record.
SECONDS_PER_RECORD = 2.0e-5
#: Shuffle bytes per record for the windowed aggregation.
SHUFFLE_BYTES_PER_RECORD = 64.0


@dataclass
class BatchRecord:
    """One micro-batch's outcome."""

    index: int
    scheduled_at: float
    records: int
    required_cores: int
    vm_cores: int
    lambda_cores: int
    started_at: float = 0.0
    finished_at: Optional[float] = None

    def lateness(self, interval_s: float) -> Optional[float]:
        """Seconds past the deadline (the next batch's arrival)."""
        if self.finished_at is None:
            return None
        return max(0.0, self.finished_at - (self.scheduled_at + interval_s))


@dataclass
class StreamOutcome:
    """Aggregate over one simulated stream."""

    interval_s: float
    batches: List[BatchRecord] = field(default_factory=list)
    lambda_cost: float = 0.0

    @property
    def completed(self) -> List[BatchRecord]:
        return [b for b in self.batches if b.finished_at is not None]

    @property
    def on_time_fraction(self) -> float:
        done = self.completed
        if not done:
            return float("nan")
        on_time = sum(1 for b in done if b.lateness(self.interval_s) == 0)
        return on_time / len(done)

    @property
    def max_lateness_s(self) -> float:
        done = self.completed
        if not done:
            return float("nan")
        return max(b.lateness(self.interval_s) for b in done)

    @property
    def bridged_batches(self) -> int:
        return sum(1 for b in self.batches if b.lambda_cores > 0)


class MicroBatchSimulator:
    """Runs a rate trace as sequential micro-batches on a fixed fleet."""

    def __init__(
        self,
        rate_fn: Callable[[float], float],
        vm_cores: int = 8,
        batch_interval_s: float = 10.0,
        bridge: str = "lambda",
        seed: int = 0,
        worker_itype: str = "m4.4xlarge",
    ) -> None:
        if bridge not in ("lambda", "none"):
            raise ValueError(f"bridge must be 'lambda' or 'none', got {bridge!r}")
        if vm_cores <= 0 or batch_interval_s <= 0:
            raise ValueError("vm_cores and batch_interval_s must be positive")
        self.rate_fn = rate_fn
        self.vm_cores = vm_cores
        self.batch_interval_s = batch_interval_s
        self.bridge = bridge

        runtime = self._runtime = ClusterRuntime(seed)
        self.env, self.rng = runtime.env, runtime.rng
        self.meter, self.provider = runtime.meter, runtime.provider
        master = self.provider.request_vm("m4.xlarge", name="master",
                                          already_running=True)
        master.allocate_cores(master.itype.vcpus)
        self._hdfs = HDFS(self.env, master, self.rng, self.meter)
        self._worker = self.provider.request_vm(worker_itype,
                                                already_running=True)
        surplus = self._worker.itype.vcpus - vm_cores
        if surplus > 0:
            self._worker.allocate_cores(surplus)

    # ------------------------------------------------------------------

    def _batch_rdd(self, records: int, partitions: int) -> RDD:
        b = self._runtime.lineage
        ingest = b.source(
            "mb-ingest", partitions=partitions,
            compute_seconds=records * SECONDS_PER_RECORD / partitions)
        return b.shuffle(
            ingest, "mb-window", partitions=partitions,
            shuffle_bytes=records * SHUFFLE_BYTES_PER_RECORD,
            compute_seconds=records * SECONDS_PER_RECORD * 0.3 / partitions)

    def required_cores(self, records: int) -> int:
        """Cores needed to finish the batch inside one interval, with a
        1.4x headroom factor for shuffle + scheduling overhead."""
        work = records * SECONDS_PER_RECORD * 1.3
        return max(1, math.ceil(1.4 * work / self.batch_interval_s))

    def _run_stream(self, horizon_s: float, outcome: StreamOutcome):
        conf = SparkConf()
        index = 0
        while True:
            scheduled_at = index * self.batch_interval_s
            if scheduled_at >= horizon_s:
                return
            if self.env.now < scheduled_at:
                yield self.env.timeout(scheduled_at - self.env.now)
            records = int(self.rate_fn(scheduled_at) * self.batch_interval_s)
            required = self.required_cores(records)
            vm_share = min(required, self.vm_cores)
            lambda_share = (required - vm_share if self.bridge == "lambda"
                            else 0)
            record = BatchRecord(index=index, scheduled_at=scheduled_at,
                                 records=records, required_cores=required,
                                 vm_cores=vm_share,
                                 lambda_cores=lambda_share,
                                 started_at=self.env.now)
            outcome.batches.append(record)

            driver = SparkDriver(self.env, conf, self.rng,
                                 ExternalShuffleBackend(self._hdfs))
            for _ in range(vm_share):
                driver.add_vm_executor(self._worker)
            lambdas = []
            invoke_lambda_executors(self._runtime, driver, lambda_share,
                                    lambdas)

            job = driver.submit(self._batch_rdd(records, required))
            yield job.done
            record.finished_at = self.env.now
            for _ in range(vm_share):
                self._worker.release_cores(1)
            for fn in lambdas:
                fn.finish()
            index += 1

    def run(self, horizon_s: float) -> StreamOutcome:
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        outcome = StreamOutcome(interval_s=self.batch_interval_s)
        done = self.env.process(self._run_stream(horizon_s, outcome))
        self.env.run(until=done)
        outcome.lambda_cost = self.meter.breakdown().get("lambda", 0.0)
        return outcome
