"""The shuffle layer: map-output tracking and pluggable data paths.

Two backends reproduce the paper's design space:

- :class:`LocalShuffleBackend` — vanilla Spark with dynamic allocation:
  map outputs land on the *worker's own disk* and the worker serves them
  to reducers over the network. Outputs die with the host (or with a
  killed executor's container), which is what makes scale-down and
  executor kills trigger "execution rollback" (§2, §4.3).
- :class:`ExternalShuffleBackend` — shuffle through a shared
  :class:`~repro.storage.base.StorageService`. SplitServe instantiates it
  with HDFS (consolidated per-map files, §4.3); Qubole's Spark-on-Lambda
  with S3 (one object per map-reduce pair — the request explosion §2
  describes). Outputs survive executor loss.

:class:`MapOutputTracker` mirrors Spark's class of the same name: which
map partition of which shuffle is stored where.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.spark.executor import Executor
    from repro.storage.base import StorageService

#: Requests an executor keeps in flight against a shuffle storage service
#: (in the spirit of ``spark.reducer.maxReqsInFlight``).
FETCH_PARALLELISM = 5


class FetchFailedError(RuntimeError):
    """A reducer could not fetch a map output (source lost).

    Carries the shuffle id and map partition whose output is gone; the
    DAG scheduler reacts by re-running the owning map stage — the
    cascading recomputation SplitServe's graceful drain avoids.
    """

    def __init__(self, shuffle_id: int, map_partition: int, reason: str) -> None:
        super().__init__(
            f"fetch failed: shuffle {shuffle_id} map {map_partition}: {reason}")
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition


@dataclass
class MapStatus:
    """Location and size of one map partition's output."""

    shuffle_id: int
    map_partition: int
    executor_id: str
    nbytes: float


_executor_id = attrgetter("executor_id")


class MapOutputTracker:
    """Registry of completed map outputs per shuffle."""

    def __init__(self) -> None:
        #: shuffle -> map partition -> status, in registration order (an
        #: overwritten partition keeps its place).
        self._outputs: Dict[int, Dict[int, MapStatus]] = {}
        self._num_maps: Dict[int, int] = {}
        #: executor -> outputs it held for retired shuffles.
        self._retired: Counter[str] = Counter()

    def register_shuffle(self, shuffle_id: int, num_maps: int) -> None:
        """Declare a shuffle's expected map-partition count (the DAG
        scheduler does this at stage-construction time)."""
        self._num_maps[shuffle_id] = num_maps
        self._outputs.setdefault(shuffle_id, {})

    _EMPTY: Dict[int, MapStatus] = {}

    def first_missing_partition(self, shuffle_id: int) -> Optional[int]:
        """The lowest unregistered map partition, or None if complete."""
        expected = self._num_maps.get(shuffle_id)
        if expected is None:
            return None
        have = self._outputs[shuffle_id]
        # Registrations outside [0, expected) are rejected, so a full
        # count means complete; the scan runs only on the failure path.
        if len(have) == expected:
            return None
        for p in range(expected):
            if p not in have:
                return p
        return None

    def register(self, status: MapStatus) -> None:
        shuffle_id = status.shuffle_id
        partition = status.map_partition
        if not 0 <= partition < self._num_maps.get(shuffle_id, 0):
            raise ValueError(f"map partition {partition} is outside "
                             f"shuffle {shuffle_id}'s declared maps")
        self._outputs[shuffle_id][partition] = status

    def statuses(self, shuffle_id: int) -> List[MapStatus]:
        return list(self._outputs.get(shuffle_id, self._EMPTY).values())

    def outputs(self, shuffle_id: int) -> Iterable[MapStatus]:
        """The statuses of ``shuffle_id`` in registration order, as a live
        view of the tracker's own dict (read, don't keep)."""
        return self._outputs.get(shuffle_id, self._EMPTY).values()

    def output_count(self, shuffle_id: int) -> int:
        """Registered map outputs of ``shuffle_id``."""
        return len(self._outputs.get(shuffle_id, self._EMPTY))

    def missing_partitions(self, shuffle_id: int, num_maps: int) -> List[int]:
        have = self._outputs.get(shuffle_id, self._EMPTY)
        return [p for p in range(num_maps) if p not in have]

    def is_complete(self, shuffle_id: int, num_maps: int) -> bool:
        return self.output_count(shuffle_id) >= num_maps

    def retire_shuffles(self, shuffle_ids: Iterable[int]) -> None:
        """Forget shuffles nothing will read or write again (a finished
        pooled application's), keeping only how many outputs each
        executor held for them: the count a later loss of that executor
        reports."""
        for shuffle_id in shuffle_ids:
            self._num_maps.pop(shuffle_id, None)
            self._retired.update(map(_executor_id, self._outputs.pop(
                shuffle_id, self._EMPTY).values()))

    def remove_outputs_on_executor(self, executor_id: str) -> int:
        """Drop every output registered by ``executor_id`` (its storage is
        gone), retired ones included; returns how many were dropped."""
        removed = self._retired.pop(executor_id, 0)
        for per_shuffle in self._outputs.values():
            for partition in list(per_shuffle):
                if per_shuffle[partition].executor_id == executor_id:
                    del per_shuffle[partition]
                    removed += 1
        return removed


class ShuffleBackend:
    """Interface: how map outputs are written and fetched."""

    #: Whether outputs survive the death of the executor that wrote them.
    outputs_survive_executor_loss = False

    def write(self, executor: "Executor", shuffle_id: int, map_partition: int,
              nbytes: float, num_reducers: int):
        """Generator: persist one map task's output."""
        raise NotImplementedError

    def fetch(self, executor: "Executor", shuffle_id: int,
              reduce_partition: int, total_bytes: float,
              num_reducers: int, tracker: MapOutputTracker,
              executors: Dict[str, "Executor"]):
        """Generator: pull this reducer's ``total_bytes`` — one slice of
        every map output ``tracker`` holds for ``shuffle_id``.

        Raises :class:`FetchFailedError` if any slice is unreachable.
        """
        raise NotImplementedError

    def on_executor_lost(self, executor_id: str) -> None:
        """Hook for backend-side cleanup when an executor dies."""


class LocalShuffleBackend(ShuffleBackend):
    """Worker-local shuffle files served peer-to-peer (vanilla Spark)."""

    outputs_survive_executor_loss = False

    def write(self, executor, shuffle_id, map_partition, nbytes, num_reducers):
        # Spill the consolidated map output to the host's local disk.
        for link in executor.disk_links():
            yield link.transfer(nbytes)

    def fetch(self, executor, shuffle_id, reduce_partition, total_bytes,
              num_reducers, tracker, executors):
        from repro.cloud.network import transfer_via

        env = executor.env
        statuses = tracker.outputs(shuffle_id)
        slice_bytes = total_bytes / max(1, len(statuses))
        # Spark batches block fetches by source host: one fused transfer
        # per host carries all of that host's slices. Each executor's
        # liveness is probed once, at its first status; later statuses
        # reuse its host entry.
        per_host: Dict[str, list] = {}
        per_executor: Dict[str, list] = {}
        executors_get = executors.get
        for status in statuses:
            executor_id = status.executor_id
            entry = per_executor.get(executor_id)
            if entry is None:
                source = executors_get(executor_id)
                if source is None or not source.host_alive:
                    raise FetchFailedError(shuffle_id, status.map_partition,
                                           f"executor {executor_id} lost")
                entry = per_host.setdefault(source.host_name, [source, 0.0])
                per_executor[executor_id] = entry
            entry[1] += slice_bytes
        events = []
        for source, nbytes in per_host.values():
            if source is executor or source.same_host(executor):
                # Local or intra-host blocks: disk only, no NIC crossing.
                links = source.disk_links()
            else:
                # Remote blocks: off the source's disk, across both NICs;
                # the fair-share links model the resulting contention.
                links = [*source.disk_links(), *source.net_links(),
                         *executor.net_links()]
            events.append(transfer_via(env, links, nbytes))
        for event in events:
            yield event


class ExternalShuffleBackend(ShuffleBackend):
    """Shuffle through a shared storage service.

    ``per_pair_objects=False`` (SplitServe/HDFS, §4.3): each map task
    writes **one consolidated file**; reducers issue one ranged read per
    map file. Requests per shuffle: M writes + M·R reads.

    ``per_pair_objects=True`` (Qubole/PyWren on S3): each map task writes
    **one object per reducer** — M·R objects per shuffle, the
    request-count explosion that drives S3 throttling and request costs
    (§2). Requests per shuffle: M·R writes + M·R reads.

    Request counts, throttle admission, and billing go through the
    storage service's batch API; payload bytes move as fused streams, so
    contention is modelled without simulating every object individually.
    Existence checks go through the :class:`MapOutputTracker` (an output
    is fetchable iff its map status is registered), which the executor
    validates before calling :meth:`fetch`.
    """

    outputs_survive_executor_loss = True

    def __init__(self, storage: "StorageService",
                 per_pair_objects: bool = False) -> None:
        self.storage = storage
        self.per_pair_objects = per_pair_objects

    def write(self, executor, shuffle_id, map_partition, nbytes, num_reducers):
        links = executor.net_links()
        count = max(1, num_reducers) if self.per_pair_objects else 1
        yield self.storage.batch_write(
            count, nbytes, via_links=links,
            parallelism=FETCH_PARALLELISM,
            key_prefix=f"shuffle{shuffle_id}/map{map_partition}")

    def fetch(self, executor, shuffle_id, reduce_partition, total_bytes,
              num_reducers, tracker, executors):
        outputs = tracker.output_count(shuffle_id)
        if not outputs:
            return
        links = executor.net_links()
        # One request per map output (a ranged read of the consolidated
        # file, or a GET of this reducer's pair object).
        yield self.storage.batch_read(
            outputs, total_bytes, via_links=links,
            parallelism=FETCH_PARALLELISM)


class QuboleS3ShuffleBackend(ExternalShuffleBackend):
    """Qubole Spark-on-Lambda's shuffle: per-pair objects on S3 plus the
    eventual-consistency polling its reducers had to do.

    On 2019-era S3 (before strong read-after-write), a reducer could not
    assume its input objects were listable/readable the moment the map
    side returned; the PyWren/Qubole line of systems handled this with
    LIST + poll + exponential backoff. The modelled delay grows with the
    square root of the number of objects being awaited (pagination plus
    the longest-straggler effect), calibrated at ``consistency_mean_s``
    for a 256-object shuffle and capped at ``consistency_cap_s``.
    """

    #: Object count at which the consistency delay equals the mean knob.
    CONSISTENCY_REFERENCE_OBJECTS = 256

    def __init__(self, storage: "StorageService",
                 consistency_mean_s: float = 6.0,
                 consistency_cap_s: float = 25.0) -> None:
        super().__init__(storage, per_pair_objects=True)
        self.consistency_mean_s = consistency_mean_s
        self.consistency_cap_s = consistency_cap_s

    def _consistency_delay(self, executor, n_objects: int) -> float:
        if self.consistency_mean_s <= 0 or n_objects <= 0:
            return 0.0
        scale = (n_objects / self.CONSISTENCY_REFERENCE_OBJECTS) ** 0.5
        mean = min(self.consistency_cap_s, self.consistency_mean_s * scale)
        return executor.rng.lognormal_around("qubole.s3.consistency",
                                             mean, 0.3)

    def fetch(self, executor, shuffle_id, reduce_partition, total_bytes,
              num_reducers, tracker, executors):
        outputs = tracker.output_count(shuffle_id)
        if not outputs:
            return
        # The reducer awaits M objects of its own out of an M x R flood;
        # the poll-until-visible time tracks the flood size.
        n_awaited = outputs * max(1, num_reducers)
        delay = self._consistency_delay(executor, n_awaited)
        if delay > 0:
            yield executor.env.timeout(delay)
        links = executor.net_links()
        yield self.storage.batch_read(
            outputs, total_bytes, via_links=links,
            parallelism=FETCH_PARALLELISM)
