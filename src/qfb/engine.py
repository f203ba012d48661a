"""Stochastic trajectory engine: ensembles reduced on the fly, steady-state sampling.

Each trajectory owns a counter-based random stream keyed by
``(master seed, trajectory index)``, so ensembles are bit-reproducible
for any chunk schedule.  Trajectories advance in fixed-size chunks as
vectorized numpy operations, one chunk after another in index order on
the calling thread.  Each chunk adds its mean sums into the run's
buffer and writes its steady-state samples into the run's sample array,
so the floating-point sums have one fixed order.

A Philox stream is fully set by its key and a zero counter, so when a
run fits in one noise block (at most ``BLOCK_STEPS`` steps) each chunk
re-keys a single Generator before each trajectory's one draw instead of
constructing one per trajectory.  Longer runs keep one Generator per
trajectory, because each stream carries its position from block to
block.  Both paths draw the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import FeedbackChain, FeedbackLaw, validate_law
from .model import (
    BlochState,
    ModelParams,
    backaction_update,
    dissipation_update,
    rotation_update,
)

__all__ = [
    "TrajectoryConfig",
    "SteadySampling",
    "EnsembleResult",
    "BayesStepper",
    "run_ensemble",
    "trajectory_rng",
]

#: Trajectories per vectorized chunk.  Fixed, so that the summation order of
#: the mean curve, and therefore every output bit, is a pure function of
#: (seed, n_traj).
CHUNK_SIZE = 4096

#: Steps of noise generated per inner block; bounds the noise buffer to
#: CHUNK_SIZE * BLOCK_STEPS doubles.  Runs of at most this many steps draw
#: all their noise in one block and share one re-keyed Generator per chunk.
BLOCK_STEPS = 512


def trajectory_rng(
    seed: int, index: int, reuse: np.random.Generator | None = None
) -> np.random.Generator:
    """Independent stream for one trajectory, keyed by (seed, index).

    With ``reuse`` (a Philox Generator), that Generator is re-keyed in
    place and returned: key (seed, index), counter 0 and an empty buffer,
    the state of a freshly constructed stream, for a fraction of the cost.
    """
    if reuse is None:
        key = np.array([seed, index], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    reuse.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (seed, index)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return reuse


def _steps_for(total_time: float, dt: float) -> int:
    n = int(round(total_time / dt))
    if n < 1 or abs(n * dt - total_time) > 1e-9 * max(total_time, dt):
        raise ValueError(
            f"total_time = {total_time} is not a whole number of steps of dt = {dt}"
        )
    return n


@dataclass(frozen=True)
class TrajectoryConfig:
    """What to simulate: initial state, duration, recording grid, master seed."""

    initial: BlochState
    total_time: float
    record_stride: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        self.initial.require_physical()
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def n_steps(self, params: ModelParams) -> int:
        n = _steps_for(self.total_time, params.dt)
        if n % self.record_stride != 0:
            raise ValueError(
                f"record_stride = {self.record_stride} does not divide "
                f"the {n} total steps; recorded times would be non-uniform"
            )
        return n


@dataclass(frozen=True)
class SteadySampling:
    """Steady-state sampling protocol: burn-in, then sparse periodic samples.

    States before ``burn_in`` are discarded; afterwards (y, z) is
    collected every ``stride`` of time, which for stride ~ tau_m gives
    weakly correlated samples.
    """

    burn_in: float
    stride: float

    @classmethod
    def default(cls, params: ModelParams) -> "SteadySampling":
        return cls(burn_in=10.0 * params.tau_m, stride=params.tau_m)

    def step_indices(self, n_steps: int, dt: float) -> np.ndarray:
        burn = int(round(self.burn_in / dt))
        stride = int(round(self.stride / dt))
        if stride < 1:
            raise ValueError(
                f"sampling stride = {self.stride} rounds to no whole step "
                f"of dt = {dt}"
            )
        if not 0 <= burn <= n_steps:
            raise ValueError(
                f"burn_in = {self.burn_in} lies outside the simulated time "
                f"span [0, {n_steps * dt:.9g}]"
            )
        return np.arange(burn, n_steps + 1, stride)


@dataclass
class EnsembleResult:
    """Streamed reduction of an ensemble run.

    ``mean_xyz`` is the per-time arithmetic mean over trajectories.
    ``steady_yz`` pools the steady-state (y, z) samples of every
    trajectory (trajectory-major order) when a sampling protocol was
    requested.  A one-trajectory ensemble's ``mean_xyz`` is that
    trajectory itself.
    """

    times: np.ndarray
    mean_xyz: np.ndarray
    renorm_count: int = 0
    excursion_count: int = 0
    steady_yz: np.ndarray | None = None


class BayesStepper:
    """Vectorized one-step update: readout, feedback chain, conditioned evolution.

    Owns the feedback chain state for a batch of trajectories and the
    running count of sphere renormalizations.
    """

    def __init__(self, params: ModelParams, law: FeedbackLaw, batch: int) -> None:
        self.chain = FeedbackChain(law, params, batch=batch)
        self._sigma = params.readout_sigma
        self._s_scale = params.dt / params.tau_m
        self._dt = params.dt
        self._delta0 = law.delta0
        self._delta1 = law.delta1
        self._ft = params.transverse_decay
        self._e1 = params.t1_decay
        self._lossless = self._ft == 1.0 and self._e1 == 1.0
        self.renorms = 0
        self.excursions = 0

    def step(self, x, y, z, n01):
        rbar = z + self._sigma * n01
        fed = self.chain.push(rbar)
        x, y, z = backaction_update(x, y, z, rbar * self._s_scale)
        y, z = rotation_update(y, z, self._dt * (self._delta0 + self._delta1 * fed))
        if not self._lossless:
            x, y, z = dissipation_update(x, y, z, self._ft, self._e1)
        r2 = x * x + y * y + z * z
        outside = r2 > 1.0
        n_out = int(np.count_nonzero(outside))
        if n_out:
            self.renorms += n_out
            scale = np.where(outside, 1.0 / np.sqrt(np.where(outside, r2, 1.0)), 1.0)
            x = x * scale
            y = y * scale
            z = z * scale
        return x, y, z


def _run_chunk(
    lo: int,
    hi: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    stepper_factory,
    rec_steps: np.ndarray,
    steady_steps: np.ndarray | None,
    rec_sums: np.ndarray,
    steady_out: np.ndarray | None,
) -> tuple[int, int]:
    """Advance trajectories ``lo:hi``, adding their sums into ``rec_sums`` and
    writing their samples into ``steady_out[lo:hi]``; returns (renorms, excursions)."""
    n = hi - lo
    n_steps = cfg.n_steps(params)
    stepper = stepper_factory(n)
    x = np.full(n, cfg.initial.x)
    y = np.full(n, cfg.initial.y)
    z = np.full(n, cfg.initial.z)
    if n_steps <= BLOCK_STEPS:
        # One draw per trajectory: re-key one Generator right before each.
        shared = trajectory_rng(cfg.seed, lo)
        streams = lambda: (trajectory_rng(cfg.seed, i, reuse=shared) for i in range(lo, hi))
    else:
        # Each stream resumes where the previous block left it.
        gens = [trajectory_rng(cfg.seed, i) for i in range(lo, hi)]
        streams = lambda: gens

    # state index -> slot in the mean-sum / steady-sample buffers
    rec_slot = {int(step): k for k, step in enumerate(rec_steps)}
    steady_slot = {} if steady_out is None else {int(s): k for k, s in enumerate(steady_steps)}
    steady = None if steady_out is None else steady_out[lo:hi]

    noise = np.empty((n, min(BLOCK_STEPS, n_steps)))
    for i in range(n_steps + 1):
        slot = rec_slot.get(i)
        if slot is not None:
            rec_sums[slot, 0] += x.sum()
            rec_sums[slot, 1] += y.sum()
            rec_sums[slot, 2] += z.sum()
        slot = steady_slot.get(i)
        if slot is not None:
            steady[:, slot, 0] = y
            steady[:, slot, 1] = z
        if i == n_steps:
            break
        k = i % BLOCK_STEPS
        if k == 0:
            block = min(BLOCK_STEPS, n_steps - i)
            for j, g in enumerate(streams()):
                g.standard_normal(out=noise[j, :block])
        x, y, z = stepper.step(x, y, z, noise[:, k])
    return stepper.renorms, stepper.excursions


def run_ensemble(
    n_traj: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    law: FeedbackLaw,
    *,
    steady: SteadySampling | None = None,
    stepper_factory=None,
) -> EnsembleResult:
    """Simulate ``n_traj`` trajectories and reduce them on the fly.

    Trajectory i draws from the stream keyed (cfg.seed, i); chunks run in
    index order.  ``steady`` enables pooled steady-state (y, z) sampling
    for histograms.  ``stepper_factory`` (batch size -> stepper) swaps
    the physics kernel; the default is the quantum Bayesian update with
    the feedback chain.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    validate_law(law, params)
    n_steps = cfg.n_steps(params)
    rec_steps = np.arange(0, n_steps + 1, cfg.record_stride)
    steady_steps = None if steady is None else steady.step_indices(n_steps, params.dt)
    if stepper_factory is None:
        stepper_factory = lambda batch: BayesStepper(params, law, batch)

    # Chunk index order fixes the float sums: 0 + chunk 0 + chunk 1 + ...
    rec_sums = np.zeros((len(rec_steps), 3))
    steady_out = None if steady_steps is None else np.empty((n_traj, len(steady_steps), 2))
    renorms = 0
    excursions = 0
    for lo in range(0, n_traj, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, n_traj)
        chunk_renorms, chunk_excursions = _run_chunk(
            lo, hi, cfg, params, stepper_factory, rec_steps, steady_steps,
            rec_sums, steady_out,
        )
        renorms += chunk_renorms
        excursions += chunk_excursions
    return EnsembleResult(
        times=rec_steps * params.dt,
        mean_xyz=rec_sums / n_traj,
        renorm_count=renorms,
        excursion_count=excursions,
        steady_yz=None if steady_out is None else steady_out.reshape(-1, 2),
    )
