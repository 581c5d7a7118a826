"""Reproducible named random-number streams.

Every stochastic component of the simulation (VM boot times, Lambda warm
starts, task service-time jitter, arrival processes, ...) draws from its
own named stream so that changing one component's draw count does not
perturb any other component — a standard variance-reduction / repeatability
technique in discrete-event simulation.

The helper methods (:meth:`RandomStreams.uniform_jitter`,
:meth:`~RandomStreams.exponential`, :meth:`~RandomStreams.lognormal_around`)
dispense from per-stream buffers of *standard* draws refilled in numpy
batches, because a numpy scalar draw costs ~15µs of wrapper overhead while
a batched draw costs nanoseconds. Buffering is bit-identical to per-call
scalar draws on two grounds, both locked in by
``tests/simulation/test_rng_batching.py``:

- a batched ``random(n)`` / ``standard_exponential(n)`` /
  ``standard_normal(n)`` consumes the generator bitstream exactly like n
  scalar calls;
- numpy's parameterized samplers are affine maps over the standard draw
  (``uniform(l, h) = l + (h-l)·u``, ``exponential(m) = m·e``,
  ``lognormal(µ, σ) = exp(µ + σ·z)``), so applying the same map in Python
  per dispensed draw reproduces the scalar result bit for bit — which is
  also what makes buffering safe for *varying* parameters (the buffered
  standard draws are parameter-free).

The one unsafe mix is using the same stream name through a helper *and*
via direct :meth:`~RandomStreams.stream` access (or through helpers of
different distributions): the buffer runs ahead of the dispensed count, so
interleaved direct draws would come from a shifted bitstream position.
Both mixes raise instead of silently diverging.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List

import numpy as np

#: Standard draws fetched per buffer refill. Large enough to amortize the
#: per-call numpy overhead across a stage's worth of task jitters, small
#: enough that an abandoned stream strands a trivial number of doubles.
BATCH_DRAWS = 128


class RandomStreams:
    """A factory of independent, deterministically seeded RNG streams.

    Streams are keyed by name. The same ``(seed, name)`` pair always
    yields an identical stream, independent of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        #: name -> [distribution kind, pending standard draws]. The draws
        #: list is kept reversed so ``pop()`` dispenses in bitstream order.
        self._buffers: Dict[str, list] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the stream for ``name``.

        Raises if ``name`` is dispensed through a batched helper: the
        helper's buffer runs ahead of the dispensed draw count, so direct
        generator access would read from a shifted bitstream position and
        silently diverge from scalar draw order. Use a distinct stream
        name for direct access.
        """
        if name in self._buffers:
            raise RuntimeError(
                f"stream {name!r} is dispensed through a batched helper; "
                f"direct stream() access would read past its "
                f"{len(self._buffers[name][1])} pending buffered draws — "
                f"use a distinct stream name")
        return self._generator(name)

    def _generator(self, name: str) -> np.random.Generator:
        generator = self._streams.get(name)
        if generator is None:
            # Derive a child seed from the master seed and the stream name.
            child = zlib.crc32(name.encode("utf-8"))
            generator = np.random.default_rng(np.random.SeedSequence([self._seed, child]))
            self._streams[name] = generator
        return generator

    def _standard_draw(self, name: str, kind: str) -> float:
        """Next standard draw for ``name``, refilled in numpy batches."""
        entry = self._buffers.get(name)
        if entry is None:
            entry = self._buffers[name] = [kind, []]
        elif entry[0] != kind:
            if entry[1]:
                raise RuntimeError(
                    f"stream {name!r}: helper distribution changed from "
                    f"{entry[0]!r} to {kind!r} with {len(entry[1])} "
                    f"buffered draws pending; use a distinct stream name "
                    f"per distribution")
            entry[0] = kind
        buf: List[float] = entry[1]
        if not buf:
            gen = self._generator(name)
            if kind == "uniform":
                draws = gen.random(BATCH_DRAWS)
            elif kind == "exponential":
                draws = gen.standard_exponential(BATCH_DRAWS)
            else:
                draws = gen.standard_normal(BATCH_DRAWS)
            buf = draws.tolist()
            buf.reverse()
            entry[1] = buf
        return buf.pop()

    def lognormal_around(self, name: str, mean: float, cv: float) -> float:
        """Draw a lognormal sample with the given mean and coefficient of
        variation — the workhorse distribution for latencies in this
        reproduction (strictly positive, right-skewed).
        """
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        if cv < 0:
            raise ValueError(f"cv must be non-negative, got {cv}")
        if cv == 0:
            return mean
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return math.exp(mu + math.sqrt(sigma2)
                        * self._standard_draw(name, "normal"))

    def uniform_jitter(self, name: str, value: float, fraction: float) -> float:
        """Return ``value`` multiplied by U(1-fraction, 1+fraction)."""
        if not 0 <= fraction < 1:
            raise ValueError(f"fraction must be in [0, 1), got {fraction}")
        low, high = 1.0 - fraction, 1.0 + fraction
        return value * (low + (high - low)
                        * self._standard_draw(name, "uniform"))

    def exponential(self, name: str, mean: float) -> float:
        """Draw an exponential inter-arrival sample with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return mean * self._standard_draw(name, "exponential")
