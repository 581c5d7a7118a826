"""Per-layer host time and work counts for the traced runs.

The benchmark times the ``repro`` subpackages from outside the program:
a ``cProfile`` profiler per thread (the main thread's is enabled
directly, every thread started while tracing gets its own through
``threading.setprofile``) records self time and exact call counts per
function. Nothing under ``src/`` is edited or wrapped for timing.

Attribution rules:

- A function defined in ``src/repro/<pkg>/`` belongs to layer ``<pkg>``
  (``analysis``, ``baselines`` and top-level modules fold into
  ``other``); a function defined in this directory belongs to the
  harness.
- Time in any other function (stdlib, numpy, builtins) is charged to the
  layer of its nearest owned caller, split by the exact per-caller
  times the profiler keeps. Two levels up the split is proportional.
- Time a thread spends blocked (lock waits, ``sleep``) is waiting, not
  work, and is charged to no layer.
- ``unattributed = traced wall - sum(layer self times)``, so the layers
  plus unattributed time sum to the traced wall by construction. It
  holds the harness, profiler bookkeeping outside any frame and, for the
  serve workload, idle time.

Counts come from the profiler's call counts. Generator functions report
one profiler call per resumption, so the few generator entry points
(shuffle ``fetch``) are counted by a thin wrapper installed only while
tracing.
"""

from __future__ import annotations

import cProfile
import functools
import os
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional

#: The ``repro`` subpackages reported as layers, in report order.
LAYERS = ("simulation", "observability", "spark", "cluster", "cloud",
          "storage", "planner", "experiments", "api", "core", "workloads",
          "other")
HARNESS = "harness"
WAIT = "wait"

#: Builtins that block the calling thread; their time is waiting.
BLOCKING = frozenset({
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
})

_HERE = os.path.dirname(os.path.abspath(__file__))


class LayerMap:
    """Maps code objects to the layer that owns them."""

    def __init__(self, src_root: str) -> None:
        self._pkg_root = os.path.join(os.path.abspath(src_root), "repro")
        self._cache: Dict[object, Optional[str]] = {}

    def owner(self, code) -> Optional[str]:
        """Layer name, ``harness``, ``wait``, or None for foreign code."""
        try:
            return self._cache[code]
        except KeyError:
            pass
        owner = self._classify(code)
        self._cache[code] = owner
        return owner

    def _classify(self, code) -> Optional[str]:
        if isinstance(code, str):
            return WAIT if code in BLOCKING else None
        path = os.path.abspath(code.co_filename)
        if path.startswith(_HERE + os.sep):
            return HARNESS
        if not path.startswith(self._pkg_root + os.sep):
            return None
        rel = path[len(self._pkg_root) + 1:]
        head = rel.split(os.sep, 1)[0]
        return head if head in LAYERS else "other"


class Tracer:
    """Per-thread profilers for one traced interval.

    ``cpu_time`` times each thread by its own CPU clock instead of the
    wall clock. Use it when several threads share the interpreter lock:
    a wall-clock profile charges a thread's wait for the lock to the
    function it was running, so concurrent threads would be counted
    twice.
    """

    def __init__(self, cpu_time: bool = False) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._main: Optional[cProfile.Profile] = None
        self._timer = (time.thread_time_ns, 1e-9) if cpu_time else ()

    def _new_profile(self) -> cProfile.Profile:
        profile = cProfile.Profile(*self._timer)
        with self._lock:
            self._profiles.append(profile)
        return profile

    def _bootstrap(self, frame, event, arg) -> None:
        # First profile event in a new thread: swap this Python hook for
        # a C profiler owned by the thread.
        sys.setprofile(None)
        self._new_profile().enable()

    def start(self) -> None:
        threading.setprofile(self._bootstrap)
        self._main = self._new_profile()
        self._main.enable()

    def stop(self) -> None:
        """Stop tracing. Threads started while tracing must have ended."""
        self._main.disable()
        threading.setprofile(None)

    def entries(self) -> list:
        out = []
        for profile in self._profiles:
            out.extend(profile.getstats())
        return out


class Stats:
    """Self time per layer plus call counts and inclusive times."""

    def __init__(self, entries: Iterable, layer_map: LayerMap) -> None:
        self.calls: Dict[object, int] = {}
        self.inclusive: Dict[object, float] = {}
        inline: Dict[object, float] = {}
        #: callee -> caller -> (inline time, inclusive time) under it.
        under: Dict[object, Dict[object, List[float]]] = {}
        for entry in entries:
            code = entry.code
            self.calls[code] = self.calls.get(code, 0) + entry.callcount
            self.inclusive[code] = (self.inclusive.get(code, 0.0)
                                    + entry.totaltime)
            inline[code] = inline.get(code, 0.0) + entry.inlinetime
            for sub in entry.calls or ():
                slot = under.setdefault(sub.code, {}).setdefault(
                    code, [0.0, 0.0])
                slot[0] += sub.inlinetime
                slot[1] += sub.totaltime
        self._map = layer_map
        self._under = under
        self._shares: Dict[object, Dict[str, float]] = {}
        self.self_time: Dict[str, float] = {}
        for code, seconds in inline.items():
            owner = layer_map.owner(code)
            if owner is not None:
                self._charge(owner, seconds)
                continue
            callers = under.get(code, {})
            charged = 0.0
            for caller, (caller_inline, _) in callers.items():
                charged += caller_inline
                for layer, share in self._caller_shares(caller).items():
                    self._charge(layer, caller_inline * share)
            # Calls the profiler saw no caller for (a thread's root).
            self._charge(HARNESS, max(0.0, seconds - charged))

    def _charge(self, layer: str, seconds: float) -> None:
        self.self_time[layer] = self.self_time.get(layer, 0.0) + seconds

    def _caller_shares(self, code, seen=()) -> Dict[str, float]:
        """How time charged to ``code`` splits across owned layers."""
        owner = self._map.owner(code)
        if owner is not None and owner != WAIT:
            return {owner: 1.0}
        cached = self._shares.get(code)
        if cached is not None:
            return cached
        callers = self._under.get(code)
        if not callers or code in seen:
            return {HARNESS: 1.0}
        total = sum(incl for _, incl in callers.values())
        shares: Dict[str, float] = {}
        for caller, (_, incl) in callers.items():
            weight = incl / total if total > 0 else 1.0 / len(callers)
            for layer, share in self._caller_shares(
                    caller, seen + (code,)).items():
                shares[layer] = shares.get(layer, 0.0) + weight * share
        self._shares[code] = shares
        return shares

    @staticmethod
    def _codes(owner, names: Iterable[str]) -> list:
        # An entry point a later change renames or removes reads 0.
        functions = (getattr(owner, name, None) for name in names)
        return [fn.__code__ for fn in functions if fn is not None]

    def count(self, owner, *names: str) -> int:
        """Calls of ``owner.<name>`` summed over ``names``."""
        return sum(self.calls.get(code, 0)
                   for code in self._codes(owner, names))

    def inclusive_s(self, owner, *names: str) -> float:
        """Inclusive seconds of ``owner.<name>`` summed over ``names``."""
        return sum(self.inclusive.get(code, 0.0)
                   for code in self._codes(owner, names))

    def layer_s(self, layer: str) -> float:
        return self.self_time.get(layer, 0.0)


class CallCounter:
    """Counts invocations of generator methods while tracing."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._undo: List[tuple] = []

    def wrap(self, cls: type, name: str, key: str) -> None:
        original = cls.__dict__[name]
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        setattr(cls, name, counted)
        self._undo.append((cls, name, original))

    def restore(self) -> None:
        for cls, name, original in reversed(self._undo):
            setattr(cls, name, original)
        self._undo.clear()
