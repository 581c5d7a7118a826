"""A from-scratch Spark-like execution engine on the simulation kernel.

This package reproduces, at simulation fidelity, the Spark internals that
SplitServe modifies (§4.3 of the paper names the real classes):

- RDD lineage and partitioning (:mod:`repro.spark.rdd`);
- the DAG scheduler: stage construction at shuffle boundaries, map-output
  tracking, fetch-failure-driven stage resubmission — the "execution
  rollback" the segueing facility is designed to avoid
  (:mod:`repro.spark.dag_scheduler`);
- the task scheduler with delay scheduling / cache locality
  (:mod:`repro.spark.task_scheduler` — Spark's ``TaskScheduler`` +
  ``TaskSetManager``);
- executors with a JVM memory/GC pressure model
  (:mod:`repro.spark.executor`, :mod:`repro.spark.memory`);
- the shuffle layer with pluggable backends: executor-local disk
  (vanilla Spark) or an external storage service (SplitServe's HDFS,
  Qubole's S3, ...) (:mod:`repro.spark.shuffle`);
- the driver/application wrapper (:mod:`repro.spark.application`).

Executors scale out through :mod:`repro.cluster.pool`
(``scale_out_after``), not through Spark's dynamic allocation.
"""

from repro.spark.application import JobResult, SparkDriver
from repro.spark.config import SparkConf
from repro.spark.dag_scheduler import DAGScheduler, Job
from repro.spark.executor import Executor, ExecutorState, HostKind
from repro.spark.rdd import RDD, NarrowDependency, RDDBuilder, ShuffleDependency
from repro.spark.shuffle import (
    ExternalShuffleBackend,
    FetchFailedError,
    LocalShuffleBackend,
    MapOutputTracker,
)
from repro.spark.task import TaskAttempt, TaskSpec, TaskState
from repro.spark.task_scheduler import TaskScheduler, TaskSet

__all__ = [
    "DAGScheduler",
    "Executor",
    "ExecutorState",
    "ExternalShuffleBackend",
    "FetchFailedError",
    "HostKind",
    "Job",
    "JobResult",
    "LocalShuffleBackend",
    "MapOutputTracker",
    "NarrowDependency",
    "RDD",
    "RDDBuilder",
    "ShuffleDependency",
    "SparkConf",
    "SparkDriver",
    "TaskAttempt",
    "TaskScheduler",
    "TaskSet",
    "TaskSpec",
    "TaskState",
]
