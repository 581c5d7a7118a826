"""Spark-style configuration.

A string-keyed configuration object mirroring ``SparkConf``, including the
knob SplitServe adds: ``spark.lambda.executor.timeout`` (§4.3 — the
threshold after which no new tasks are directed to a Lambda-based
executor, triggering its graceful decommission).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Tuple

#: Defaults mirror Spark 2.1 where a matching setting exists.
DEFAULTS: Dict[str, Any] = {
    # Scheduling.
    "spark.task.maxFailures": 4,
    "spark.locality.wait": 3.0,  # seconds; Spark default "3s"
    "spark.stage.maxConsecutiveAttempts": 4,
    # SplitServe's knob (§4.3): Lambda executors running longer than this
    # stop receiving new tasks and drain. None disables segueing.
    "spark.lambda.executor.timeout": None,
    # Blacklisting (Spark's bad-node defence): an executor accumulating
    # this many task failures stops receiving tasks.
    "spark.blacklist.enabled": False,
    "spark.blacklist.maxFailedTasksPerExecutor": 2,
    # Speculative execution (Spark's straggler mitigation): once the
    # quantile of a stage's tasks has finished, re-launch copies of tasks
    # running longer than the multiplier times the median duration.
    "spark.speculation": False,
    "spark.speculation.quantile": 0.75,
    "spark.speculation.multiplier": 1.5,
    "spark.speculation.interval": 1.0,
    # Simulation-model knobs.
    "spark.sim.task.jitter": 0.05,  # +/-5% uniform service-time jitter
}


class SparkConf:
    """A copy-on-write view over :data:`DEFAULTS` plus user overrides."""

    def __init__(self, overrides: Dict[str, Any] = None) -> None:
        self._overrides: Dict[str, Any] = dict(overrides or {})
        unknown = set(self._overrides) - set(DEFAULTS)
        if unknown:
            raise KeyError(f"unknown configuration keys: {sorted(unknown)}")

    def get(self, key: str) -> Any:
        if key in self._overrides:
            return self._overrides[key]
        try:
            return DEFAULTS[key]
        except KeyError:
            raise KeyError(f"unknown configuration key {key!r}") from None

    def set(self, key: str, value: Any) -> "SparkConf":
        """Return a new conf with ``key`` overridden (conf is immutable)."""
        if key not in DEFAULTS:
            raise KeyError(f"unknown configuration key {key!r}")
        merged = dict(self._overrides)
        merged[key] = value
        return SparkConf(merged)

    def items(self) -> Iterator[Tuple[str, Any]]:
        for key in DEFAULTS:
            yield key, self.get(key)

    def __contains__(self, key: str) -> bool:
        return key in DEFAULTS

    def __repr__(self) -> str:
        return f"SparkConf({self._overrides!r})"
