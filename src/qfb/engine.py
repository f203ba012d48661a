"""Stochastic trajectory engine: ensembles reduced on the fly, steady-state sampling.

Each trajectory owns a counter-based random stream keyed by
``(master seed, trajectory index)``, so ensembles are bit-reproducible
for any chunk schedule.  Trajectories advance in fixed-size chunks as
vectorized numpy operations.  The work is a list of tasks, one call of
``_run_chunk`` per (chunk, group of points): each task writes its chunk's
mean sums, its renormalization counts and its steady-state samples into
its own slots of buffers allocated before any task runs, and the run
then adds the per-chunk sums in chunk order, so the floating-point sums
have one fixed order and every output bit is independent of how tasks
are scheduled.
With ``workers = 1`` (the default) the tasks run one after another in
the calling process and no process is started; with more, they run in
that many forked worker processes that write into anonymous shared
memory, and only task numbers cross a pipe.

A Philox stream is fully set by its key and a zero counter, so when a
run fits in one noise block (at most ``BLOCK_STEPS`` steps) each chunk
re-keys a single Generator before each trajectory's one draw instead of
constructing one per trajectory.  Longer runs keep one Generator per
trajectory, because each stream carries its position from block to
block.  Both paths draw the same numbers.

A run may take P feedback laws (operating points) at once.  Each row of
the batch is then a (point, trajectory) pair, point-major; trajectory i
draws its noise once from stream (seed, i) and every point reuses it
(common random numbers), so each point gets the bits it would get if run
alone, with P times fewer streams, noise fills and step calls.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from .chain import FeedbackChain, FeedbackLaw, as_laws, validate_law
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
    "WorkerError",
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
    """What to simulate: initial state, duration, recording grid, master seed.

    ``initial`` is one state, or one state per law of a multi-point run.
    """

    initial: BlochState | Sequence[BlochState]
    total_time: float
    record_stride: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        single = isinstance(self.initial, BlochState)
        for state in (self.initial,) if single else self.initial:
            state.require_physical()
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")

    def initial_states(self, n_points: int) -> tuple[BlochState, ...]:
        """The initial state of each of ``n_points`` points; a single state
        serves them all."""
        if isinstance(self.initial, BlochState):
            return (self.initial,) * n_points
        states = tuple(self.initial)
        if len(states) != n_points:
            raise ValueError(f"{len(states)} initial states for {n_points} laws")
        return states

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
    steady_yz: np.ndarray | None = None


class BayesStepper:
    """Vectorized one-step update: readout, feedback chain, conditioned evolution.

    ``law`` is one law or P laws; the state holds ``P * batch`` rows,
    point-major (see :class:`FeedbackChain`), and each step's noise holds
    one value per trajectory, shared by its P rows.  Owns the feedback
    chain state and counts sphere renormalizations per point.
    """

    def __init__(
        self, params: ModelParams, law: FeedbackLaw | Sequence[FeedbackLaw], batch: int
    ) -> None:
        laws = as_laws(law)
        self.chain = FeedbackChain(laws, params, batch)
        self._shape = (len(laws), batch)
        self._sigma = params.readout_sigma
        self._s_scale = params.dt / params.tau_m
        self._dt = params.dt
        self._delta0 = np.array([l.delta0 for l in laws])[:, None]
        self._delta1 = np.array([l.delta1 for l in laws])[:, None]
        self._ft = params.transverse_decay
        self._e1 = params.t1_decay
        self.point_renorms = np.zeros(len(laws), dtype=np.int64)

    @property
    def renorms(self) -> int:
        """Renormalizations summed over the points."""
        return int(self.point_renorms.sum())

    def step(self, x, y, z, n01):
        rbar = (z.reshape(self._shape) + self._sigma * n01).reshape(-1)
        fed = self.chain.push(rbar).reshape(self._shape)
        x, y, z = backaction_update(x, y, z, rbar * self._s_scale)
        angle = self._dt * (self._delta0 + self._delta1 * fed)
        y, z = rotation_update(y, z, angle.reshape(-1))
        x, y, z = dissipation_update(x, y, z, self._ft, self._e1)
        r2 = x * x + y * y + z * z
        outside = r2 > 1.0
        if np.count_nonzero(outside):
            self.point_renorms += np.count_nonzero(outside.reshape(self._shape), axis=1)
            scale = np.where(outside, 1.0 / np.sqrt(np.where(outside, r2, 1.0)), 1.0)
            x = x * scale
            y = y * scale
            z = z * scale
        return x, y, z


class WorkerError(RuntimeError):
    """A worker process of a multi-process run died before finishing its task."""


def _shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory: worker processes forked
    after it is made write into the pages the calling process reads."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_SHARED)
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _run_chunk(
    lo: int,
    hi: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    stepper_factory,
    laws: tuple[FeedbackLaw, ...],
    initials: tuple[BlochState, ...],
    rec_steps: np.ndarray,
    steady_steps: np.ndarray | None,
    rec_sums: np.ndarray,
    renorms: np.ndarray,
    steady_out: list[np.ndarray] | None,
) -> None:
    """Advance trajectories ``lo:hi`` at every point of ``laws``, adding point
    p's sums into ``rec_sums[p]``, writing its renormalizations into
    ``renorms[p]`` and its samples into ``steady_out[p][lo:hi]``."""
    n = hi - lo
    n_steps = cfg.n_steps(params)
    stepper = stepper_factory(laws, n)
    x = np.repeat([s.x for s in initials], n)
    y = np.repeat([s.y for s in initials], n)
    z = np.repeat([s.z for s in initials], n)
    # point p's rows of the point-major state
    rows = [slice(p * n, (p + 1) * n) for p in range(len(initials))]
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
    steady = [] if steady_out is None else [out[lo:hi] for out in steady_out]

    noise = np.empty((n, min(BLOCK_STEPS, n_steps)))
    for i in range(n_steps + 1):
        slot = rec_slot.get(i)
        if slot is not None:
            for sums, r in zip(rec_sums, rows):
                sums[slot] += (x[r].sum(), y[r].sum(), z[r].sum())
        slot = steady_slot.get(i)
        if slot is not None:
            for out, r in zip(steady, rows):
                out[:, slot, 0] = y[r]
                out[:, slot, 1] = z[r]
        if i == n_steps:
            break
        k = i % BLOCK_STEPS
        if k == 0:
            block = min(BLOCK_STEPS, n_steps - i)
            for j, g in enumerate(streams()):
                g.standard_normal(out=noise[j, :block])
        x, y, z = stepper.step(x, y, z, noise[:, k])
    renorms[:] = stepper.point_renorms


#: The tasks of a worker process, set when the worker starts.
_TASKS: list = []


def _adopt(tasks: list) -> None:
    global _TASKS
    _TASKS = tasks


def _run_adopted(task: int) -> None:
    _TASKS[task]()


def _run_tasks(tasks: list, workers: int) -> None:
    """Call every task: in this process when one worker suffices, otherwise
    in ``workers`` forked processes, all of them shut down and reaped
    before this returns.  A task's exception re-raises here."""
    workers = min(workers, len(tasks))
    if workers == 1:
        for task in tasks:
            task()
        return
    import multiprocessing
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    # a forked worker inherits the tasks (and the shared buffers) unpickled
    pool = ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt, initargs=(tasks,),
    )
    try:
        for _ in pool.map(_run_adopted, range(len(tasks))):
            pass
    except BrokenExecutor as exc:
        raise WorkerError(f"a worker process died: {exc}") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def run_ensemble(
    n_traj: int,
    cfg: TrajectoryConfig,
    params: ModelParams,
    law: FeedbackLaw | Sequence[FeedbackLaw],
    *,
    steady: SteadySampling | None = None,
    stepper_factory=None,
    workers: int = 1,
) -> EnsembleResult | list[EnsembleResult]:
    """Simulate ``n_traj`` trajectories and reduce them on the fly.

    Trajectory i draws from the stream keyed (cfg.seed, i).  ``steady``
    enables pooled steady-state (y, z) sampling for histograms.
    ``stepper_factory`` (laws, batch size -> stepper) swaps the physics
    kernel; the default is the quantum Bayesian update with the feedback
    chain.  A stepper advances ``len(laws) * batch`` rows, point-major,
    with one noise value per trajectory, and counts its renormalizations
    per point in ``point_renorms``.

    A sequence of laws runs as that many points in one batch and returns
    one result per law, each bit-identical to running that law alone;
    ``cfg.initial`` then gives one state per law, or one for all.

    ``workers`` is the number of processes that run the tasks.  With C
    chunks, P points and N workers, each chunk's points split into
    ``min(P, ceil(N / C))`` contiguous groups, one task per chunk and
    group, so a sweep that fits in one chunk still keeps N workers busy.
    ``workers = 1`` starts no process.  Every result bit is the same for
    any ``workers``; a worker that dies raises :class:`WorkerError`.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    laws = as_laws(law)
    for one in laws:
        validate_law(one, params)
    initials = cfg.initial_states(len(laws))
    n_steps = cfg.n_steps(params)
    rec_steps = np.arange(0, n_steps + 1, cfg.record_stride)
    steady_steps = None if steady is None else steady.step_indices(n_steps, params.dt)
    if stepper_factory is None:
        stepper_factory = partial(BayesStepper, params)

    n_points = len(laws)
    chunks = [(lo, min(lo + CHUNK_SIZE, n_traj)) for lo in range(0, n_traj, CHUNK_SIZE)]
    n_groups = min(n_points, -(-workers // len(chunks)))
    groups = [slice(g * n_points // n_groups, (g + 1) * n_points // n_groups)
              for g in range(n_groups)]
    # (chunk, point, record, xyz) mean sums; (chunk, point) renormalizations;
    # per point, (trajectory, sample, yz) steady-state samples
    chunk_sums = _shared((len(chunks), n_points, len(rec_steps), 3))
    chunk_renorms = _shared((len(chunks), n_points), np.int64)
    steady_out = None if steady_steps is None else [
        _shared((n_traj, len(steady_steps), 2)) for _ in laws
    ]
    # task (c, g) runs chunk c at the points of group g and writes only its
    # own slots of the buffers
    tasks = [
        partial(
            _run_chunk, lo, hi, cfg, params, stepper_factory, laws[g], initials[g],
            rec_steps, steady_steps, chunk_sums[c, g], chunk_renorms[c, g],
            None if steady_out is None else steady_out[g],
        )
        for c, (lo, hi) in enumerate(chunks)
        for g in groups
    ]
    _run_tasks(tasks, workers)

    # Chunk index order fixes the float sums: 0 + chunk 0 + chunk 1 + ...
    rec_sums = np.zeros((n_points, len(rec_steps), 3))
    for sums in chunk_sums:
        rec_sums += sums
    renorms = chunk_renorms.sum(axis=0)
    results = [
        EnsembleResult(
            times=rec_steps * params.dt,
            mean_xyz=rec_sums[p] / n_traj,
            renorm_count=int(renorms[p]),
            steady_yz=None if steady_out is None else steady_out[p].reshape(-1, 2),
        )
        for p in range(n_points)
    ]
    return results[0] if isinstance(law, FeedbackLaw) else results
