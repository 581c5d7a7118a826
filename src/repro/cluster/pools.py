"""The FIFO or FAIR scheduler pool over a shared task scheduler.

Mirrors Spark's fair scheduler (``FairSchedulingAlgorithm`` /
``FIFOSchedulingAlgorithm``) for the one pool a pooled cluster builds,
whose applications all have weight 1 and minShare 0:

- a FIFO pool orders its applications by admission;
- a FAIR pool orders them by running tasks, fewest first, with ties
  broken on ``(app_id, index, registration number)``: Spark's fair
  comparator at weight 1 and minShare 0;
- within an application, task sets keep submission (stage) order.

:class:`PooledTaskScheduler` plugs this ordering into the base
:class:`~repro.spark.task_scheduler.TaskScheduler` via its
``_schedulable_tasksets`` hook and turns on per-launch re-sorting, so
running-task counts feed back into the ordering after every single
launch: shares rebalance at task grain.

The order is kept incrementally rather than rebuilt per launch: the
scheduler reports each task set going live or leaving and every slot an
attempt takes or frees (:meth:`SchedulerPools.add_taskset`,
:meth:`~SchedulerPools.drop_taskset`, :meth:`~SchedulerPools.occupy`),
so each application's occupied-slot count and the pool's total are
always current, and a FAIR pool keeps its applications sorted by key,
moving one by bisect when its count changes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.spark.task_scheduler import TaskScheduler, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulation.kernel import Environment
    from repro.simulation.rng import RandomStreams
    from repro.simulation.tracing import TraceRecorder
    from repro.spark.config import SparkConf
    from repro.spark.shuffle import ShuffleBackend

FIFO = "fifo"
FAIR = "fair"
POOL_MODES = (FIFO, FAIR)
#: The name of a pooled cluster's one pool, as ``cluster.app_submitted``
#: events, served ``JobRequest.pool`` and ``GET /pools`` give it.
DEFAULT_POOL = "default"


class _AppShare:
    """One application's live task sets and the slots they occupy."""

    __slots__ = ("app", "tasksets", "running", "registered", "tiebreak",
                 "key")

    def __init__(self, app) -> None:
        self.app = app
        #: Live task sets, in submission order.
        self.tasksets: List[TaskSet] = []
        #: Running plus speculative attempts over ``tasksets``.
        self.running = 0
        #: True while the app is in the pool's order.
        self.registered = False
        #: Set at registration: the FAIR tiebreak ``(app_id, index,
        #: registration number)`` and the app's key in the pool: the
        #: registration number in a FIFO pool, ``(running, tiebreak)``
        #: in a FAIR one.
        self.tiebreak: Tuple = ()
        self.key: object = None


_share_key = attrgetter("key")
_share_tasksets = attrgetter("tasksets")


class SchedulerPools:
    """The pool of one shared scheduler: its registered applications in
    ``mode`` order, kept informed by the scheduler of the live task sets
    and their occupied slots (see the module docstring)."""

    def __init__(self, mode: str) -> None:
        if mode not in POOL_MODES:
            raise ValueError(f"pool mode must be one of {POOL_MODES}, "
                             f"got {mode!r}")
        self.mode = mode
        self._fair = mode == FAIR
        #: Registered applications in ascending key order.
        self._apps: List[_AppShare] = []
        #: Running plus speculative attempts of the registered apps.
        self.running = 0
        #: id(app) -> share, for every app registered or holding live
        #: task sets (the share keeps the app alive, so ids stay unique).
        self._shares: Dict[int, _AppShare] = {}
        self._registrations = itertools.count()

    def register(self, app) -> None:
        """Place an admitted application in the order."""
        share = self._share(app)
        if share.registered:
            raise ValueError(f"app {app.app_id!r} is already registered")
        share.registered = True
        self.running += share.running
        # The registration number makes every key unique; in a FAIR pool
        # it breaks ties between apps sharing (app_id, index) in
        # admission order.
        number = next(self._registrations)
        share.tiebreak = (app.app_id, app.index, number)
        share.key = number
        self._place(share)

    def unregister(self, app) -> None:
        """Drop a finished application from the order."""
        share = self._shares.get(id(app))
        if share is None or not share.registered:
            return
        self.running -= share.running
        self._unplace(share)
        share.registered = False
        if not share.tasksets:
            del self._shares[id(app)]

    def _share(self, app) -> _AppShare:
        share = self._shares.get(id(app))
        if share is None:
            share = self._shares[id(app)] = _AppShare(app)
        return share

    def _place(self, share: _AppShare) -> None:
        """Insert ``share`` at its key, refreshing a FAIR key first."""
        if self._fair:
            share.key = (share.running, share.tiebreak)
        insort(self._apps, share, key=_share_key)

    def _unplace(self, share: _AppShare) -> None:
        """Remove ``share`` (keys are unique, so bisect lands on it)."""
        del self._apps[bisect_left(self._apps, share.key, key=_share_key)]

    # ------------------------------------------------------------------
    # Scheduler-driven bookkeeping
    # ------------------------------------------------------------------

    def add_taskset(self, taskset: TaskSet) -> None:
        """A newly submitted ``taskset`` (no attempts yet) joined the
        scheduler's live list."""
        app = taskset.schedulable
        if app is None:
            raise ValueError(f"pooled task set {taskset.name} belongs to "
                             f"no application")
        self._share(app).tasksets.append(taskset)

    def drop_taskset(self, taskset: TaskSet) -> None:
        """``taskset`` left the scheduler's live list (completed, failed
        or withdrawn); its attempts stop counting toward the share."""
        occupied = len(taskset.running) + len(taskset.speculative)
        if occupied:
            self.occupy(taskset, -occupied)
        key = id(taskset.schedulable)
        share = self._shares[key]
        share.tasksets.remove(taskset)
        if not share.registered and not share.tasksets:
            del self._shares[key]

    def occupy(self, taskset: TaskSet, delta: int) -> None:
        """A live task set's attempts took (``delta`` > 0) or freed
        (``delta`` < 0) executor slots. Speculative copies occupy slots
        too, so they count toward the share like primary attempts."""
        share = self._shares[id(taskset.schedulable)]
        share.running += delta
        if share.registered:
            self.running += delta
            if self._fair:
                self._unplace(share)
                self._place(share)

    # ------------------------------------------------------------------

    def ordered_tasksets(self) -> Iterable[TaskSet]:
        """All live task sets of registered applications, in offer
        order. The order is a lazy walk over the kept list, valid until
        the next slot count changes (the scheduler asks again after
        every launch)."""
        return itertools.chain.from_iterable(
            map(_share_tasksets, self._apps))

    def stats(self) -> List[Dict[str, object]]:
        """The pool's live stats: registered apps and running tasks
        (running plus speculative attempts). Serves ``GET /pools``."""
        return [{"name": DEFAULT_POOL, "mode": self.mode,
                 "apps": len(self._apps), "running_tasks": self.running}]


class PooledTaskScheduler(TaskScheduler):
    """A task scheduler shared by many applications, offering slots in pool
    order and re-sorting after every launch so shares stay balanced."""

    def __init__(
        self,
        env: "Environment",
        conf: "SparkConf",
        rng: "RandomStreams",
        shuffle_backend: "ShuffleBackend",
        pools: SchedulerPools,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        super().__init__(env, conf, rng, shuffle_backend, trace=trace)
        self.scheduler_pools = pools
        self._resort_each_launch = True

    def _schedulable_tasksets(self) -> Iterable[TaskSet]:
        return self.scheduler_pools.ordered_tasksets()
