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
    """Filter accumulator plus delay ring buffer for one trajectory (or a batch).

    With ``batch=None`` the chain carries scalars; with ``batch=n`` it
    carries length-n arrays so a vectorized engine can advance n
    independent trajectories in lockstep.  Each chain instance is owned
    by a single trajectory stream and must be pushed sequentially.

    The filter accumulator starts at 0 (the unconditioned mean readout
    for an unbiased initial state) and the delay line outputs 0 until
    ``n_delay`` values have been pushed.
    """

    def __init__(
        self,
        law: FeedbackLaw,
        params: ModelParams,
        batch: int | None = None,
    ) -> None:
        self.alpha = law.filter_alpha(params.dt)
        self.n_delay = law.n_delay(params.dt)
        shape = () if batch is None else (batch,)
        self.filter_acc = np.zeros(shape)
        self.delay_ring = np.zeros((self.n_delay,) + shape)
        self._cursor = 0

    def filter_push(self, r):
        """Advance the low-pass filter with raw readout ``r``; returns the filtered value.

        Recursion: acc += alpha * (r - acc).  For alpha = 1 (Ts = 0) the
        output equals the input exactly.
        """
        if self.alpha == 1.0:
            # exact passthrough; acc + (r - acc) would round
            self.filter_acc = np.add(r, np.zeros_like(self.filter_acc))
        else:
            self.filter_acc = self.filter_acc + self.alpha * (r - self.filter_acc)
        return self.filter_acc

    def delay_pop_push(self, filtered):
        """Push ``filtered`` into the delay line; returns the value from n_delay pushes ago.

        Returns 0 until the line is full; with n_delay = 0 the input
        passes straight through.
        """
        if self.n_delay == 0:
            return filtered
        # the ring starts zeroed, so the first n_delay pops return 0
        out = self.delay_ring[self._cursor].copy()
        self.delay_ring[self._cursor] = filtered
        self._cursor = (self._cursor + 1) % self.n_delay
        return out

    def push(self, r):
        """Filter then delay: the value the controller sees this step."""
        return self.delay_pop_push(self.filter_push(r))
