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
                raise ValueError(f"{name} must be finite, got {value}")
        if self.Ts < 0.0 or self.Td < 0.0:
            raise ValueError("Ts and Td must be non-negative")

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
    """Filter accumulators plus one delay ring for a batch of trajectories.

    ``laws`` holds P >= 1 laws (operating points).  The chain carries
    (P, batch) arrays: row ``p`` follows law ``p``.  The rows advance in
    lockstep and must be pushed sequentially.

    The filter accumulator starts at 0 (the unconditioned mean readout
    for an unbiased initial state).  The delay is one ring as deep as the
    longest ``n_delay``, read at a per-point offset before each write, so
    a row with delay d outputs 0 until d values have been pushed.
    """

    def __init__(self, laws: Sequence[FeedbackLaw], params: ModelParams, batch: int) -> None:
        alpha = np.array([l.filter_alpha(params.dt) for l in laws])
        self.alpha = alpha[:, None]
        # points whose rows pass through the filter / the delay unchanged
        self._passthrough = np.flatnonzero(alpha == 1.0)
        self.n_delay = np.array([l.n_delay(params.dt) for l in laws])
        self._no_delay = np.flatnonzero(self.n_delay == 0)
        depth = int(self.n_delay.max())
        # ring slot each point reads at each cursor position
        self._read = (np.arange(depth)[:, None] - self.n_delay) % depth
        self._points = np.arange(len(laws))
        self.filter_acc = np.zeros((len(laws), batch))
        self._diff = np.empty_like(self.filter_acc)  # r - acc, for every push
        self.delay_ring = np.zeros((depth,) + self.filter_acc.shape)
        self._cursor = 0

    def filter_push(self, r):
        """Advance the low-pass filters with raw readouts ``r``; returns the filtered rows.

        Recursion: acc += alpha * (r - acc), in place, so the returned
        accumulator is overwritten by the next push.  Rows with alpha = 1
        (Ts = 0) output their input exactly.
        """
        r = np.reshape(r, self.filter_acc.shape)
        # passthrough rows copy r: acc + (r - acc) would round
        if len(self._passthrough) == len(r):
            self.filter_acc = r
            return r
        diff = np.subtract(r, self.filter_acc, out=self._diff)
        diff *= self.alpha
        self.filter_acc += diff
        if len(self._passthrough):
            self.filter_acc[self._passthrough] = r[self._passthrough]
        return self.filter_acc

    def delay_pop_push(self, filtered):
        """Push ``filtered`` into the delay ring; returns each row's value from
        its point's ``n_delay`` pushes ago (0 before that many pushes).

        Rows with n_delay = 0 pass straight through.
        """
        if not len(self.delay_ring):
            return filtered
        # read before write: the slot n_delay back holds the oldest value a
        # row needs, and slot _cursor (n_delay = depth) is overwritten next
        out = self.delay_ring[self._read[self._cursor], self._points]
        if len(self._no_delay):
            out[self._no_delay] = filtered[self._no_delay]
        self.delay_ring[self._cursor] = filtered
        self._cursor = (self._cursor + 1) % len(self.delay_ring)
        return out

    def push(self, r):
        """Filter then delay: the (P, batch) values the controller sees this step."""
        return self.delay_pop_push(self.filter_push(r))
