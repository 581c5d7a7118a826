"""Discrete-event simulation kernel.

A compact, dependency-free process-based DES kernel in the style of SimPy.
Every higher layer of the reproduction (cloud substrate, storage services,
the Spark-like engine, SplitServe itself) runs on this kernel.

Public surface:

- :class:`~repro.simulation.kernel.Environment` — simulation clock and
  event loop.
- :class:`~repro.simulation.events.Event`, :class:`Timeout`,
  :class:`Process`, :class:`AllOf`, :class:`Interrupt` — the event
  vocabulary.
- :class:`~repro.simulation.rng.RandomStreams` — reproducible named RNG
  streams.
- :class:`~repro.simulation.tracing.TraceRecorder` — structured event
  trace used by the analysis layer.
- :class:`~repro.simulation.faults.FaultSpec`, :class:`FaultPlan`,
  :class:`FaultInjector`, :class:`RecoveryAccounting` — the seeded
  fault-injection harness (loaded lazily: the injector drives the upper
  layers, so importing it eagerly here would be circular).
"""

from repro.simulation.events import (
    AllOf,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.simulation.kernel import Environment, SimulationError
from repro.simulation.rng import RandomStreams
from repro.simulation.tracing import TraceRecord, TraceRecorder

_LAZY_FAULT_EXPORTS = (
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "RecoveryAccounting",
)

__all__ = [
    "AllOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "SimulationError",
    "Timeout",
    "TraceRecord",
    "TraceRecorder",
    *_LAZY_FAULT_EXPORTS,
]


def __getattr__(name: str):
    if name in _LAZY_FAULT_EXPORTS:
        from repro.simulation import faults

        return getattr(faults, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
