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

A run, ``run_ensemble(laws, initials, params, **run)`` like
:func:`qfb.stats.steady_state`, takes P >= 1 feedback laws (operating
points), each started from its own initial state.  The batch is held
as (P, batch) arrays, one row per point; trajectory i draws its noise
once from stream (seed, i) and every point reuses it (common random
numbers), so each point gets the bits it would get if run alone, with
P times fewer streams, noise fills and step calls.
"""

from __future__ import annotations

import math
import mmap
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

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


def _whole_steps(time: float, dt: float) -> float:
    """``time / dt`` rounded half to even, like ``round``; inf or nan where
    that overflows, so a caller refuses it by comparison."""
    return float(np.rint(time / dt))


def _steps_for(total_time: float, dt: float) -> int:
    n = _whole_steps(total_time, dt)
    if not 1 <= n < math.inf or abs(n * dt - total_time) > 1e-9 * max(total_time, dt):
        raise ValueError(
            f"total_time: {total_time} is not a whole, finite number of steps of dt = {dt}"
        )
    return int(n)


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
        burn, stride = _whole_steps(self.burn_in, dt), _whole_steps(self.stride, dt)
        if not 1 <= stride < math.inf:
            raise ValueError(
                f"stride: the sampling stride {self.stride} must round to at least one, "
                f"and finitely many, steps of dt = {dt}"
            )
        if not 0 <= burn <= n_steps:
            raise ValueError(
                f"burn_in: the burn-in {self.burn_in} lies outside the simulated time "
                f"span [0, {n_steps * dt:.9g}]"
            )
        return np.arange(int(burn), n_steps + 1, int(stride))


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

    Owns its batch: the coordinates ``x``, ``y``, ``z`` as (P, batch) arrays,
    row p following ``laws[p]`` from ``initials[p]``, the feedback chain and
    the per-point renormalization counts.  ``step`` takes one noise value
    per trajectory, shared by its P rows.
    """

    def __init__(
        self, params: ModelParams, laws: Sequence[FeedbackLaw],
        initials: Sequence[BlochState], batch: int,
    ) -> None:
        self.chain = FeedbackChain(laws, params, batch)
        xyz = np.transpose([[s.x, s.y, s.z] for s in initials])  # (3, P)
        self.x, self.y, self.z = np.repeat(xyz[:, :, None], batch, axis=2)
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

    def step(self, n01) -> None:
        rbar = self.z + self._sigma * n01
        fed = self.chain.push(rbar)
        x, y, z = backaction_update(self.x, self.y, self.z, rbar * self._s_scale)
        y, z = rotation_update(y, z, self._dt * (self._delta0 + self._delta1 * fed))
        x, y, z = dissipation_update(x, y, z, self._ft, self._e1)
        r2 = x * x + y * y + z * z
        outside = r2 > 1.0
        if np.count_nonzero(outside):
            self.point_renorms += np.count_nonzero(outside, axis=1)
            scale = np.where(outside, 1.0 / np.sqrt(np.where(outside, r2, 1.0)), 1.0)
            x = x * scale
            y = y * scale
            z = z * scale
        self.x, self.y, self.z = x, y, z


class WorkerError(RuntimeError):
    """A worker process of a multi-process run died before finishing its task."""


def _shared(shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
    """A zeroed array in anonymous shared memory: worker processes forked
    after it is made write into the pages the calling process reads."""
    dtype = np.dtype(dtype)
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * dtype.itemsize, 1), flags=mmap.MAP_SHARED)
    return np.frombuffer(buf, dtype, count).reshape(shape)


# an overflowing law goes non-finite, and run_ensemble refuses its result
@np.errstate(over="ignore", invalid="ignore")
def _run_chunk(
    lo: int,
    hi: int,
    seed: int,
    stepper_factory,
    laws: Sequence[FeedbackLaw],
    initials: Sequence[BlochState],
    rec_steps: np.ndarray,
    steady_steps: np.ndarray | None,
    rec_sums: np.ndarray,
    renorms: np.ndarray,
    steady_out: list[np.ndarray] | None,
) -> None:
    """Advance trajectories ``lo:hi`` at every point of ``laws``, adding point
    p's sums into ``rec_sums[p]``, writing its renormalizations into
    ``renorms[p]`` and its samples into ``steady_out[p][lo:hi]``.  The run
    lasts until its last record, ``rec_steps[-1]``."""
    n = hi - lo
    n_steps = int(rec_steps[-1])
    batch = stepper_factory(laws, initials, n)
    if n_steps <= BLOCK_STEPS:
        # One draw per trajectory: re-key one Generator right before each.
        shared = trajectory_rng(seed, lo)
        streams = lambda: (trajectory_rng(seed, i, reuse=shared) for i in range(lo, hi))
    else:
        # Each stream resumes where the previous block left it.
        gens = [trajectory_rng(seed, i) for i in range(lo, hi)]
        streams = lambda: gens

    # state index -> slot in the mean-sum / steady-sample buffers
    rec_slot = {int(step): k for k, step in enumerate(rec_steps)}
    steady_slot = {} if steady_out is None else {int(s): k for k, s in enumerate(steady_steps)}
    steady = [] if steady_out is None else [out[lo:hi] for out in steady_out]

    noise = np.empty((n, min(BLOCK_STEPS, n_steps)))
    for i in range(n_steps + 1):
        slot = rec_slot.get(i)
        if slot is not None:
            for c, coord in enumerate((batch.x, batch.y, batch.z)):
                rec_sums[:, slot, c] += coord.sum(axis=1)
        slot = steady_slot.get(i)
        if slot is not None:
            for out, y, z in zip(steady, batch.y, batch.z):
                out[:, slot, 0], out[:, slot, 1] = y, z
        if i == n_steps:
            break
        k = i % BLOCK_STEPS
        if k == 0:
            block = min(BLOCK_STEPS, n_steps - i)
            for j, g in enumerate(streams()):
                g.standard_normal(out=noise[j, :block])
        batch.step(noise[:, k])
    renorms[:] = batch.point_renorms


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
    laws: Sequence[FeedbackLaw],
    initials: Sequence[BlochState],
    params: ModelParams,
    *,
    n_traj: int,
    total_time: float,
    record_stride: int = 1,
    seed: int = 0,
    steady: SteadySampling | None = None,
    stepper_factory=None,
    workers: int = 1,
) -> list[EnsembleResult]:
    """Simulate ``n_traj`` trajectories under each of ``laws`` for
    ``total_time``, law p started from ``initials[p]``, and reduce them on
    the fly; returns one result per law.

    ``total_time`` must be a whole number of steps of ``params.dt``, and
    the mean curve is recorded every ``record_stride`` of them.
    Trajectory i draws from the stream keyed (seed, i), ``seed`` an
    unsigned 64-bit integer.  ``steady`` enables pooled steady-state
    (y, z) sampling for histograms.  ``stepper_factory`` (laws, initial
    states, batch size -> stepper) swaps the physics kernel; the default
    is :class:`BayesStepper`.  A stepper owns (len(laws), batch) arrays
    ``x``, ``y``, ``z`` started from the initial states, advances them by
    ``step(n01)`` on one noise value per trajectory, and counts its
    renormalizations per law in ``point_renorms``.

    The laws run as that many points in one batch, and each result is
    bit-identical to running that law alone.  A law whose state goes
    non-finite raises ValueError; a non-finite state never recovers, so
    only the last record is checked.  Every other argument, including
    each law's delay ``Td`` (at most ``total_time``), is checked before
    any buffer, worker or ``delta1`` warning exists.  A refusal is a
    ValueError reading ``<argument>: <reason>``, with ``stride`` and
    ``burn_in`` for the fields of ``steady`` and ``Td`` for a delay.

    ``workers`` is the number of processes that run the tasks.  With C
    chunks, P points and N workers, each chunk's points split into
    ``min(P, ceil(N / C))`` contiguous groups, one task per chunk and
    group, so a sweep that fits in one chunk still keeps N workers busy.
    ``workers = 1`` starts no process.  Every result bit is the same for
    any ``workers``; a worker that dies raises :class:`WorkerError`.
    """
    if isinstance(initials, BlochState):
        raise ValueError(f"initials: expected a sequence of states, one per law, got {initials!r}")
    if not len(initials) == len(laws) >= 1:
        raise ValueError(f"initials: {len(initials)} initial states for {len(laws)} laws")
    try:
        for state in initials:
            state.require_physical()
    except ValueError as exc:
        raise ValueError(f"initials: {exc}") from exc
    if n_traj < 1:
        raise ValueError(f"n_traj: must be >= 1, got {n_traj}")
    if workers < 1:
        raise ValueError(f"workers: must be >= 1, got {workers}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed: must fit in an unsigned 64-bit integer, got {seed}")
    n_steps = _steps_for(total_time, params.dt)
    if record_stride < 1 or n_steps % record_stride:
        raise ValueError(
            f"record_stride: {record_stride} must be >= 1 and divide the {n_steps} "
            "total steps; recorded times would be non-uniform"
        )
    rec_steps = np.arange(0, n_steps + 1, record_stride)
    steady_steps = None if steady is None else steady.step_indices(n_steps, params.dt)
    delay = max(law.Td for law in laws)
    if delay > total_time:  # it would never feed back, yet it sizes the delay ring
        raise ValueError(f"Td: the delay {delay} exceeds total_time = {total_time}")
    for law in laws:  # warnings only once every argument has passed
        validate_law(law, params)
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
            _run_chunk, lo, hi, seed, stepper_factory, laws[g], initials[g],
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
    for law, sums in zip(laws, rec_sums):
        if not np.isfinite(sums[-1]).all():
            raise ValueError(f"delta0/delta1: the state went non-finite under {law}")
    renorms = chunk_renorms.sum(axis=0)
    return [
        EnsembleResult(
            times=rec_steps * params.dt,
            mean_xyz=rec_sums[p] / n_traj,
            renorm_count=int(renorms[p]),
            steady_yz=None if steady_out is None else steady_out[p].reshape(-1, 2),
        )
        for p in range(n_points)
    ]
