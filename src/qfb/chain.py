"""Classical signal path between detector and controller.

The raw readout is smoothed by a single-pole low-pass filter (exponential
moving average with time constant ``Ts``) and then buffered through a
fixed-length delay line of duration ``Td``, modeling the finite bandwidth
and latency of real feedback circuitry.  With ``Ts = 0`` and ``Td = 0``
the chain is an identity map and the feedback is Markovian.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .model import ModelParams

__all__ = ["FeedbackLaw", "FeedbackChain", "validate_law"]


@dataclass(frozen=True)
class FeedbackLaw:
    """Controller constants and signal-chain settings.

    The drive frequency applied during a step is
    ``delta0 + delta1 * r_fed`` where ``r_fed`` is the filtered, delayed
    readout.  ``Ts`` is the filter time constant (0 means infinite
    bandwidth / passthrough) and ``Td`` the feedback delay; both in us.
    The delay is realized as ``n_delay(dt)`` whole steps, so exact
    divisibility of ``Td`` by ``dt`` is recommended.
    """

    delta0: float
    delta1: float
    Ts: float = 0.0
    Td: float = 0.0

    def __post_init__(self) -> None:
        for name in ("delta0", "delta1", "Ts", "Td"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name}: must be finite, got {value}")
            if name in ("Ts", "Td") and value < 0.0:
                raise ValueError(f"{name}: must be non-negative, got {value}")

    def n_delay(self, dt: float) -> int:
        """Delay length in whole steps, round(Td/dt); |n*dt - Td| <= dt/2."""
        return int(round(self.Td / dt))

    def filter_alpha(self, dt: float) -> float:
        """Per-step filter gain 1 - exp(-dt/Ts); 1.0 for a passthrough filter."""
        if self.Ts == 0.0:
            return 1.0
        return 1.0 - math.exp(-dt / self.Ts)


def validate_law(law: FeedbackLaw, params: ModelParams) -> None:
    """Check a law against the step size; warns on an oversized delta1.

    Typical readouts reach ~5 sqrt(tau_m/dt), so the per-step rotation
    angle stays small only when delta1 < 1/(5 sqrt(dt tau_m)).
    """
    bound = 1.0 / (5.0 * math.sqrt(params.dt * params.tau_m))
    if abs(law.delta1) >= bound:
        warnings.warn(
            f"delta1 = {law.delta1} reaches the practical bound "
            f"1/(5*sqrt(dt*tau_m)) = {bound:.6g}; per-step feedback rotations "
            "will not be small",
            stacklevel=2,
        )


class FeedbackChain:
    """One ring of (P, batch) slots for a batch of trajectories.

    ``laws`` holds P >= 1 laws (operating points): row ``p`` of every slot
    follows law ``p``.  The rows advance in lockstep and must be pushed
    sequentially.

    The ring is one slot deeper than the longest ``n_delay``.  Its newest
    slot is the filter accumulator, which starts at 0 (the unconditioned
    mean readout for an unbiased initial state); the slots behind it hold
    the filtered values of the pushes before, so a row with delay d
    outputs 0 until d values have been pushed.
    """

    def __init__(self, laws: Sequence[FeedbackLaw], params: ModelParams, batch: int) -> None:
        alpha = np.array([l.filter_alpha(params.dt) for l in laws])
        # full (P, batch) arrays: an input broadcast into a (P, batch) out=
        # makes numpy allocate a transient buffer on every call
        self._alpha = np.repeat(alpha[:, None], batch, axis=1)
        self._passthrough = self._alpha == 1.0  # rows whose filter outputs its input
        n_delay = np.array([l.n_delay(params.dt) for l in laws])
        self.ring = np.zeros((n_delay.max() + 1, len(laws), batch))
        depth, n_points = self.ring.shape[:2]
        self._markovian = depth == 1 and bool(self._passthrough.all())
        # row of the flattened ring each point reads while slot k is the newest
        self._read = (np.arange(depth)[:, None] - n_delay) % depth * n_points + np.arange(n_points)
        self._flat = self.ring.reshape(-1, batch)
        self._diff = np.empty(self.ring.shape[1:])  # r - acc, for every push
        self._out = np.empty_like(self._diff)
        self._newest = 0

    def push(self, r):
        """Filter readouts ``r`` into the next slot, which becomes the newest;
        returns the (P, batch) values the controller sees this step: each
        row's filtered value from its point's ``n_delay`` pushes ago.

        Recursion: new = acc + alpha * (r - acc); rows with alpha = 1
        (Ts = 0) copy their input exactly.  The result is a buffer the next
        push overwrites: the ring's one slot for a chain with no delay, or
        ``r`` itself for a chain with no filter and no delay either.
        """
        if self._markovian:
            return r
        acc = self.ring[self._newest]
        self._newest = (self._newest + 1) % len(self.ring)
        new = self.ring[self._newest]  # acc itself in a ring of one slot
        diff = np.subtract(r, acc, out=self._diff)
        diff *= self._alpha
        np.add(acc, diff, out=new)
        np.copyto(new, r, where=self._passthrough)  # acc + (r - acc) would round
        if len(self.ring) == 1:
            return new
        # mode="raise" would buffer out, allocating once per push
        return np.take(self._flat, self._read[self._newest], axis=0, out=self._out, mode="clip")
