"""RDD lineage: the dependency graph the DAG scheduler cuts into stages.

An :class:`RDD` here is a *descriptor* — it records partitioning, the
cost model of computing each partition, how much data it emits, and its
dependencies — not actual data. Narrow dependencies pipeline inside a
stage; :class:`ShuffleDependency` marks a stage boundary where the full
output is materialized through the shuffle layer (§3 "Spark creates
stages at state transfer boundaries").
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence, Union


class Dependency:
    """Base class of RDD dependencies."""

    def __init__(self, parent: "RDD") -> None:
        self.parent = parent


class NarrowDependency(Dependency):
    """One-to-one (map/filter/...) dependency: pipelined within a stage."""


class ShuffleDependency(Dependency):
    """All-to-all dependency: cuts a stage boundary.

    ``total_bytes`` is the full shuffle volume: each of the parent's M map
    partitions writes ``total_bytes / M``; each of the child's R reduce
    partitions fetches ``total_bytes / R``.
    """

    def __init__(self, shuffle_id: int, parent: "RDD",
                 total_bytes: float) -> None:
        super().__init__(parent)
        if total_bytes < 0:
            raise ValueError(f"total_bytes must be non-negative, got {total_bytes}")
        self.total_bytes = float(total_bytes)
        self.shuffle_id = shuffle_id

    @property
    def bytes_per_map(self) -> float:
        return self.total_bytes / self.parent.num_partitions


#: Per-partition compute cost: either a constant (seconds on one reference
#: vCPU) or a callable partition_index -> seconds.
ComputeModel = Union[float, Callable[[int], float]]


class RDD:
    """One node of the lineage graph.

    Parameters
    ----------
    rdd_id:
        Minted by the world's :class:`RDDBuilder`.
    name:
        Human-readable label (shows up in traces and timelines).
    num_partitions:
        Parallelism of this dataset.
    compute_seconds:
        CPU seconds to compute one partition *of this RDD alone* (its
        parents' costs are accounted on the parent RDDs) on a reference
        1-vCPU core.
    deps:
        Dependencies on parent RDDs.
    working_set_bytes:
        Peak per-partition memory while computing — drives the GC model.
    cache:
        Whether Spark would persist this RDD (``.cache()``); cached
        partitions make subsequent stages prefer the executor holding
        them and skip recomputation there.
    """

    def __init__(
        self,
        rdd_id: int,
        name: str,
        num_partitions: int,
        compute_seconds: ComputeModel = 0.0,
        deps: Sequence[Dependency] = (),
        working_set_bytes: float = 0.0,
        cache: bool = False,
        input_bytes: float = 0.0,
        kind_preference=None,
    ) -> None:
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        if working_set_bytes < 0:
            raise ValueError(
                f"working_set_bytes must be non-negative, got {working_set_bytes}")
        self.rdd_id = rdd_id
        self.name = name
        self.num_partitions = num_partitions
        self._compute = compute_seconds
        self.deps: List[Dependency] = list(deps)
        self.working_set_bytes = float(working_set_bytes)
        self.cached = cache
        if input_bytes < 0:
            raise ValueError(f"input_bytes must be non-negative, got {input_bytes}")
        #: Bytes this RDD reads from the cluster's input store, total
        #: across partitions (source RDDs scanning HDFS/S3 input).
        self.input_bytes = float(input_bytes)
        #: Optional heterogeneity-aware sizing hook (the paper's §7
        #: future work): partition -> "vm" | "lambda" | None. Partitions
        #: sized for a kind are preferentially scheduled on it.
        self.kind_preference = kind_preference

    # ------------------------------------------------------------------

    def compute_seconds(self, partition: int) -> float:
        """Reference-core CPU seconds for ``partition``."""
        if callable(self._compute):
            value = self._compute(partition)
        else:
            value = self._compute
        if value < 0:
            raise ValueError(
                f"{self.name}: negative compute time {value} for partition {partition}")
        return float(value)

    @property
    def shuffle_deps(self) -> List[ShuffleDependency]:
        return [d for d in self.deps if isinstance(d, ShuffleDependency)]

    def narrow_ancestry(self) -> List["RDD"]:
        """This RDD plus everything reachable through narrow deps only,
        in upstream-to-downstream (topological) order — the pipeline a
        single stage executes.

        Lineage is immutable after construction, so the walk is memoized
        (the DAG scheduler re-asks once per task otherwise). Callers get
        a fresh list; the cached tuple is never exposed for mutation.
        """
        cached = getattr(self, "_narrow_ancestry", None)
        if cached is None:
            seen = []
            seen_ids = set()

            def visit(rdd: "RDD") -> None:
                if rdd.rdd_id in seen_ids:
                    return
                for dep in rdd.deps:
                    if isinstance(dep, NarrowDependency):
                        visit(dep.parent)
                seen_ids.add(rdd.rdd_id)
                seen.append(rdd)

            visit(self)
            cached = self._narrow_ancestry = tuple(seen)
        return list(cached)

    def __repr__(self) -> str:
        return f"<RDD {self.rdd_id} {self.name} p={self.num_partitions}>"


class RDDBuilder:
    """Mints every RDD and shuffle id of one world's lineage graphs.

    A :class:`~repro.cluster.runtime.ClusterRuntime` holds one as
    ``runtime.lineage`` and workloads build through it. The world owns
    the counters, not each application: apps in a pooled world share
    one task scheduler, whose map-output tracker and executor caches
    key on these ids, so they must stay distinct across those apps.

    Example (two-stage map/reduce)::

        b = runtime.lineage
        source = b.source("input", partitions=16, compute_seconds=2.0)
        mapped = b.map(source, "mapped", compute_seconds=1.0)
        reduced = b.shuffle(mapped, "reduced", partitions=16,
                            shuffle_bytes=1e9, compute_seconds=0.5)
    """

    def __init__(self) -> None:
        self._rdd_counter = itertools.count()
        self._shuffle_counter = itertools.count()

    def _shuffle_dep(self, parent: RDD, nbytes: float) -> ShuffleDependency:
        return ShuffleDependency(next(self._shuffle_counter), parent, nbytes)

    def source(self, name: str, partitions: int, compute_seconds: ComputeModel,
               working_set_bytes: float = 0.0, cache: bool = False,
               input_bytes: float = 0.0, kind_preference=None) -> RDD:
        """A root RDD (reads ``input_bytes`` from the data source)."""
        return RDD(next(self._rdd_counter), name, partitions, compute_seconds,
                   working_set_bytes=working_set_bytes, cache=cache,
                   input_bytes=input_bytes, kind_preference=kind_preference)

    def map(self, parents: Union[RDD, Sequence[RDD]], name: str,
            compute_seconds: ComputeModel = 0.0,
            working_set_bytes: float = 0.0, cache: bool = False) -> RDD:
        """A narrow (pipelined) transformation of one parent, or of
        several co-partitioned ones (partition count from the first)."""
        if isinstance(parents, RDD):
            parents = [parents]
        return RDD(next(self._rdd_counter), name, parents[0].num_partitions,
                   compute_seconds, [NarrowDependency(p) for p in parents],
                   working_set_bytes=working_set_bytes, cache=cache)

    def shuffle(self, parent: RDD, name: str, partitions: int,
                shuffle_bytes: float, compute_seconds: ComputeModel = 0.0,
                working_set_bytes: float = 0.0, cache: bool = False) -> RDD:
        """A wide transformation: a stage boundary moving ``shuffle_bytes``."""
        return RDD(next(self._rdd_counter), name, partitions, compute_seconds,
                   [self._shuffle_dep(parent, shuffle_bytes)],
                   working_set_bytes=working_set_bytes, cache=cache)

    def join(self, left: RDD, right: RDD, name: str, partitions: int,
             left_bytes: float, right_bytes: float,
             compute_seconds: ComputeModel = 0.0,
             working_set_bytes: float = 0.0) -> RDD:
        """A two-parent wide transformation (shuffled join)."""
        return RDD(next(self._rdd_counter), name, partitions, compute_seconds,
                   [self._shuffle_dep(left, left_bytes),
                    self._shuffle_dep(right, right_bytes)],
                   working_set_bytes=working_set_bytes)
