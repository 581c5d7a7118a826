"""FIFO/FAIR scheduler pools over a shared task scheduler.

Mirrors Spark's fair scheduler (``FairSchedulingAlgorithm`` /
``FIFOSchedulingAlgorithm``) at the level that matters for slot sharing:

- the root level is FAIR across named pools, each with a ``weight`` and
  ``min_share`` (a pool below its minimum share is *needy* and always
  sorts ahead of satisfied pools);
- within a pool, applications are ordered FIFO (admission order) or
  FAIR (per-application minShare + weight);
- within an application, task sets keep submission (stage) order.

:class:`PooledTaskScheduler` plugs this ordering into the base
:class:`~repro.spark.task_scheduler.TaskScheduler` via its
``_schedulable_tasksets`` hook and turns on per-launch re-sorting, so
running-task counts feed back into the ordering after every single
launch — shares rebalance at task grain, which is what makes the
starvation guarantee (a needy pool eventually schedules under a
saturating competitor) hold.

The order is kept incrementally rather than rebuilt per launch: the
scheduler reports each task set going live or leaving and every slot an
attempt takes or frees (:meth:`SchedulerPools.add_taskset`,
:meth:`~SchedulerPools.drop_taskset`, :meth:`~SchedulerPools.occupy`),
so each application's occupied-slot count and each pool's total are
always current, and a FAIR pool keeps its applications sorted by
:func:`fair_sort_key`, moving one by bisect when its count changes.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
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


@dataclass(frozen=True)
class PoolConfig:
    """One named scheduler pool (Spark's ``fairscheduler.xml`` entry)."""

    name: str
    #: Ordering of the applications inside this pool.
    mode: str = FAIR
    #: Relative share of executor slots versus sibling pools.
    weight: int = 1
    #: Slots this pool is entitled to before weights apply at all.
    min_share: int = 0

    def __post_init__(self) -> None:
        if self.mode not in POOL_MODES:
            raise ValueError(f"pool mode must be one of {POOL_MODES}, "
                             f"got {self.mode!r}")
        if self.weight <= 0:
            raise ValueError("pool weight must be positive")
        if self.min_share < 0:
            raise ValueError("pool min_share cannot be negative")


def fair_sort_key(running: int, min_share: int, weight: int,
                  tiebreak: Tuple) -> Tuple:
    """Spark's fair comparator as a stable sort key.

    A schedulable below its minimum share is needy and precedes every
    satisfied one; needy entries compare by ``running / minShare``
    (closest to starvation first), satisfied ones by ``running / weight``
    (furthest below their weighted share first); ties break on the
    deterministic ``tiebreak`` tuple.
    """
    needy = running < min_share
    if needy:
        ratio = running / max(min_share, 1)
    else:
        ratio = running / max(weight, 1)
    return (0 if needy else 1, ratio, tiebreak)


class _AppShare:
    """One application's live task sets and the slots they occupy."""

    __slots__ = ("app", "tasksets", "running", "pool", "tiebreak", "key")

    def __init__(self, app) -> None:
        self.app = app
        #: Live task sets, in submission order.
        self.tasksets: List[TaskSet] = []
        #: Running plus speculative attempts over ``tasksets``.
        self.running = 0
        #: The pool the app is registered in; None while unregistered.
        self.pool: Optional[_Pool] = None
        #: Set at registration: the fair-key tiebreak ``(app_id, index,
        #: registration number)`` and the app's key in its pool — the
        #: registration number alone in a FIFO pool, the current
        #: :func:`fair_sort_key` in a FAIR one.
        self.tiebreak: Tuple = ()
        self.key: Tuple = ()


_share_key = attrgetter("key")
_share_tasksets = attrgetter("tasksets")
_pool_apps = attrgetter("apps")


class _Pool:
    """One pool's registered applications and their total slots."""

    __slots__ = ("config", "fair", "apps", "running")

    def __init__(self, config: PoolConfig) -> None:
        self.config = config
        self.fair = config.mode == FAIR
        #: Registered applications in ascending key order.
        self.apps: List[_AppShare] = []
        self.running = 0

    def sort_key(self) -> Tuple:
        config = self.config
        return fair_sort_key(self.running, config.min_share, config.weight,
                             (config.name,))

    def place(self, share: _AppShare) -> None:
        """Insert ``share`` at its key, refreshing a fair key first."""
        if self.fair:
            app = share.app
            share.key = fair_sort_key(share.running, app.min_share,
                                      app.weight, share.tiebreak)
        insort(self.apps, share, key=_share_key)

    def unplace(self, share: _AppShare) -> None:
        """Remove ``share`` (keys are unique, so bisect lands on it)."""
        del self.apps[bisect_left(self.apps, share.key, key=_share_key)]


class SchedulerPools:
    """The pool tree: named pools, each holding admitted applications.

    One instance serves one scheduler, which keeps it informed of the
    live task sets and their occupied slots (see the module docstring).
    """

    def __init__(self, pools: Iterable[PoolConfig]) -> None:
        self.pools: Dict[str, PoolConfig] = {}
        for pool in pools:
            if pool.name in self.pools:
                raise ValueError(f"duplicate pool name {pool.name!r}")
            self.pools[pool.name] = pool
        if not self.pools:
            raise ValueError("at least one pool is required")
        self._tree: Dict[str, _Pool] = {
            name: _Pool(config) for name, config in self.pools.items()}
        #: id(app) -> share, for every app registered or holding live
        #: task sets (the share keeps the app alive, so ids stay unique).
        self._shares: Dict[int, _AppShare] = {}
        #: Live task sets with no schedulable, in submission order.
        self._orphans: List[TaskSet] = []
        self._registrations = itertools.count()

    def register(self, app) -> None:
        """Place an admitted application (``app.pool`` names the pool)."""
        name = getattr(app, "pool", None)
        if name not in self.pools:
            raise ValueError(
                f"unknown pool {name!r} for app "
                f"{getattr(app, 'app_id', app)!r}; "
                f"known: {sorted(self.pools)}")
        share = self._share(app)
        if share.pool is not None:
            raise ValueError(f"app {getattr(app, 'app_id', app)!r} is "
                             f"already registered")
        pool = share.pool = self._tree[name]
        pool.running += share.running
        # The registration number makes every key unique; in a FAIR pool
        # it breaks ties between apps sharing (app_id, index) in
        # admission order.
        number = next(self._registrations)
        share.tiebreak = (app.app_id, app.index, number)
        share.key = (number,)
        pool.place(share)

    def unregister(self, app) -> None:
        """Drop a finished application from its pool."""
        share = self._shares.get(id(app))
        if share is None or share.pool is None:
            return
        share.pool.running -= share.running
        share.pool.unplace(share)
        share.pool = None
        if not share.tasksets:
            del self._shares[id(app)]

    def _share(self, app) -> _AppShare:
        share = self._shares.get(id(app))
        if share is None:
            share = self._shares[id(app)] = _AppShare(app)
        return share

    # ------------------------------------------------------------------
    # Scheduler-driven bookkeeping
    # ------------------------------------------------------------------

    def add_taskset(self, taskset: TaskSet) -> None:
        """A newly submitted ``taskset`` (no attempts yet) joined the
        scheduler's live list."""
        app = taskset.schedulable
        if app is None:
            self._orphans.append(taskset)
        else:
            self._share(app).tasksets.append(taskset)

    def drop_taskset(self, taskset: TaskSet) -> None:
        """``taskset`` left the scheduler's live list (completed, failed
        or withdrawn); its attempts stop counting toward the share."""
        app = taskset.schedulable
        if app is None:
            self._orphans.remove(taskset)
            return
        occupied = len(taskset.running) + len(taskset.speculative)
        if occupied:
            self.occupy(taskset, -occupied)
        share = self._shares[id(app)]
        share.tasksets.remove(taskset)
        if share.pool is None and not share.tasksets:
            del self._shares[id(app)]

    def occupy(self, taskset: TaskSet, delta: int) -> None:
        """A live task set's attempts took (``delta`` > 0) or freed
        (``delta`` < 0) executor slots. Speculative copies occupy slots
        too, so they count toward the share like primary attempts."""
        app = taskset.schedulable
        if app is None:
            return
        share = self._shares[id(app)]
        share.running += delta
        pool = share.pool
        if pool is not None:
            pool.running += delta
            if pool.fair:
                pool.unplace(share)
                pool.place(share)

    # ------------------------------------------------------------------

    def ordered_tasksets(self) -> Iterable[TaskSet]:
        """All live task sets, in cross-pool offer order.

        Task sets without a schedulable handle (direct submissions to
        the shared scheduler, e.g. from tests) keep strict FIFO order
        ahead of the pools, preserving base-scheduler behaviour. Task
        sets of an unregistered application are not offered. The order
        is a lazy walk over the kept lists, valid until the next slot
        count changes (the scheduler asks again after every launch).
        """
        pools = sorted(self._tree.values(), key=_Pool.sort_key)
        shares = itertools.chain.from_iterable(map(_pool_apps, pools))
        return itertools.chain(
            self._orphans,
            itertools.chain.from_iterable(map(_share_tasksets, shares)))

    def stats(self) -> List[Dict[str, object]]:
        """Per-pool live stats: registered apps and running tasks
        (running plus speculative attempts). Serves ``GET /pools``."""
        out = []
        for name in sorted(self.pools):
            pool = self._tree[name]
            config = pool.config
            out.append({
                "name": config.name,
                "mode": config.mode,
                "weight": config.weight,
                "min_share": config.min_share,
                "apps": len(pool.apps),
                "running_tasks": pool.running,
            })
        return out


class PooledTaskScheduler(TaskScheduler):
    """A task scheduler shared by many drivers, offering slots in pool
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
