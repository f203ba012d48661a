"""Stochastic trajectory engine: ensembles reduced on the fly, steady-state sampling.

Each trajectory owns a counter-based random stream keyed by
``(master seed, trajectory index)``, so ensembles are bit-reproducible
for any chunk schedule.  Trajectories advance in fixed-size chunks as
vectorized numpy operations.  The work is a list of tasks, one call of
``_run_chunk`` per range of trajectories, run at every point: the
chunks, except that while whole chunks would leave a worker idle, a
chunk (or a piece of one) is cut in two where numpy's pairwise sum
splits it.  Each task writes its range's mean sums, its renormalization
counts and its steady-state statistics into its own slots of buffers
allocated before any task runs.  The run adds the two pieces of every
cut as numpy adds the two halves of its sum, which gives each chunk's
sum the bits of one task over the whole chunk, and then adds the chunk
sums in chunk order, so the floating-point sums have one fixed order
and every output bit is independent of the worker count and of how
tasks are scheduled.  A steady-state sample is binned where it is taken:
the task writes its int32 histogram bin (:func:`bin_index`) and adds
(y, z) to its trajectory's running sum, 4 bytes per sample and 16 per
trajectory, and no sample itself is kept.
With ``workers = 1`` (the default) the tasks run one after another in
the calling process and no process is started; with more, they run in
that many forked worker processes that write into anonymous shared
memory, and only task numbers cross a pipe.

A Philox stream is fully set by its key and a zero counter, so when a
run fits in one noise block (at most ``BLOCK_STEPS`` steps) each chunk
re-keys a single Generator before each trajectory's one draw instead of
constructing one per trajectory.  Longer runs keep one Generator per
trajectory, because each stream carries its position from block to
block.  Both paths draw the same numbers, and since each stream is read
strictly in order, the block length sets only the noise buffer's size
and the number of draw calls, never which numbers are drawn: 256 steps
is the shortest power-of-two block on which the shipped 200-step
histogram runs still draw once per trajectory.

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
    "bin_index",
    "bin_centers",
    "steps_for",
    "trajectory_rng",
    "WorkerError",
]

#: Trajectories per vectorized chunk.  Fixed, so that the summation order of
#: the mean curve, and therefore every output bit, is a pure function of
#: (seed, n_traj).
CHUNK_SIZE = 4096

#: numpy sums a contiguous run of more than this many float64 values
#: pairwise, as the sum of its two halves split at :func:`_pairwise_split`.
PAIRWISE_BLOCK = 128

#: Steps of noise generated per inner block; bounds the noise buffer to
#: CHUNK_SIZE * BLOCK_STEPS doubles (8.7 MB with each row's padding).  Runs of at most this many steps
#: draw all their noise in one block and share one re-keyed Generator per
#: chunk.  256 is the smallest power of two that keeps the 200-step histogram
#: runs on that path; a smaller block would also add a draw call per stream
#: for every block of a longer run.
BLOCK_STEPS = 256

#: Most worker processes a run may start.
MAX_WORKERS = 64

#: Default histogram resolution: 100 x 100 bins over [-1, 1]^2 (width 0.02),
#: matching the two-decimal precision of reported peak positions.
DEFAULT_BINS = 100

#: Largest histogram resolution: n_bins^2 int64 counters, 8 MB; every flat
#: bin index below n_bins^2 fits the int32 the tasks write.
MAX_BINS = 1000


def _pairwise_split(n: int) -> int:
    """Where numpy's pairwise sum splits n > ``PAIRWISE_BLOCK`` values:
    ``a.sum() == a[:m].sum() + a[m:].sum()`` bit for bit."""
    return n // 2 - (n // 2) % 8


def _task_ranges(chunks: list[tuple[int, int]], workers: int) -> list[tuple[int, int]]:
    """The trajectory ranges of a run's tasks, in order: its chunks, the
    smallest range of more than ``PAIRWISE_BLOCK`` trajectories cut at its
    pairwise split for as long as the task count is not a multiple of
    ``workers``, so that no worker idles while another runs a last task."""
    ranges = list(chunks)
    while len(ranges) % workers:
        cuttable = [r for r in ranges if r[1] - r[0] > PAIRWISE_BLOCK]
        if not cuttable:
            break
        lo, hi = min(cuttable, key=lambda r: r[1] - r[0])
        i = ranges.index((lo, hi))
        mid = lo + _pairwise_split(hi - lo)
        ranges[i:i + 1] = [(lo, mid), (mid, hi)]
    return ranges


def _range_sum(lo: int, hi: int, sums: dict) -> np.ndarray:
    """The sum over trajectories ``lo:hi`` from ``sums``, keyed by task range.
    A range cut into two tasks adds its halves' sums as numpy's pairwise
    sum adds them, so the result has the bits of one task over ``lo:hi``."""
    if (lo, hi) in sums:
        return sums[lo, hi]
    mid = lo + _pairwise_split(hi - lo)
    return _range_sum(lo, mid, sums) + _range_sum(mid, hi, sums)


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


def steps_for(total_time: float, dt: float) -> int:
    """The number of ``dt`` steps in ``total_time``; refuses a time off the grid
    and a count of 2**53 or more, beyond which a float skips whole numbers."""
    n = _whole_steps(total_time, dt)
    if not 1 <= n < 2**53 or abs(n * dt - total_time) > 1e-9 * max(total_time, dt):
        raise ValueError(
            f"total_time: {total_time} is not a whole number of steps of dt = {dt} "
            "below 2**53"
        )
    return int(n)


def _bin_edges(n_bins: int) -> np.ndarray:
    return np.linspace(-1.0, 1.0, n_bins + 1)


def bin_centers(n_bins: int) -> np.ndarray:
    """Centre of each bin of :func:`bin_index`'s grid along either axis."""
    edges = _bin_edges(n_bins)
    return 0.5 * (edges[:-1] + edges[1:])


def bin_index(y: np.ndarray, z: np.ndarray, n_bins: int) -> np.ndarray:
    """Flat bin ``iy * n_bins + iz`` of each (y, z) on the uniform
    ``n_bins`` x ``n_bins`` grid over [-1, 1]^2, as an intp array of y's shape.

    Values are clipped onto the square before binning (only relevant for
    integrators that can leak slightly outside the sphere), so every
    sample lands in a bin; NaN goes to the last bin, and a run whose state
    went non-finite is refused by its last record.  Bins are half-open,
    ``edges[i] <= v < edges[i+1]``, except that the last one also holds
    ``v = 1``: the binning of ``np.histogram2d``.  Each coordinate's bin is
    estimated arithmetically and then corrected against the edges, which
    moves it by at most one.
    """
    edges = _bin_edges(n_bins)
    flat = 0
    for v in (y, z):
        v = np.fmax(np.fmin(v, 1.0), -1.0)  # fmin and fmax drop a NaN for the bound
        i = np.minimum(((v + 1.0) * (0.5 * n_bins)).astype(np.intp), n_bins - 1)
        i -= v < edges[i]
        i += (v >= edges[i + 1]) & (i < n_bins - 1)
        flat = flat * n_bins + i
    return flat


@dataclass(frozen=True)
class SteadySampling:
    """Steady-state sampling protocol: burn-in, then sparse periodic samples.

    States before ``burn_in`` are discarded; afterwards (y, z) is
    sampled every ``stride`` of time and binned on the ``n_bins`` x
    ``n_bins`` grid of :func:`bin_index`.  At stride tau_m a trajectory's
    successive polar angles correlate by about 0.25 at a 0.3 pi target but
    0.56 at 0.1 pi, where they count as far fewer independent draws.
    """

    burn_in: float
    stride: float
    n_bins: int = DEFAULT_BINS

    def step_indices(self, n_steps: int, dt: float) -> np.ndarray:
        """The sampled state indices of an ``n_steps`` run; refuses a stride,
        burn-in or bin count that the run cannot take."""
        if not 2 <= self.n_bins <= MAX_BINS:
            raise ValueError(f"n_bins: must lie in [2, {MAX_BINS}], got {self.n_bins}")
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

    ``mean_xyz`` is the per-time arithmetic mean over trajectories.  A
    one-trajectory ensemble's ``mean_xyz`` is that trajectory itself.
    When a sampling protocol was requested, ``steady_bins[i, k]`` is the
    int32 flat bin (:func:`bin_index` on the ``n_bins`` grid) of
    trajectory i's k-th steady-state sample, and ``steady_sums[i]`` is
    the sum of its (y, z) samples, added in time order.
    """

    times: np.ndarray
    mean_xyz: np.ndarray
    renorm_count: int = 0
    steady_bins: np.ndarray | None = None
    steady_sums: np.ndarray | None = None
    n_bins: int | None = None


class BayesStepper:
    """Vectorized one-step update: readout, feedback chain, conditioned evolution.

    Owns its batch: the coordinates ``y`` and ``z`` as (P, batch) arrays,
    row p following ``laws[p]`` from ``initials[p]``, the feedback chain and
    the per-point renormalization counts.  x is not held: every start lies
    in the yz-plane, where x stays exactly 0 (see :mod:`qfb.model`).
    ``step`` takes one noise value per trajectory, shared by its P rows,
    and updates the coordinates in place through work arrays of the same
    shape, so it allocates no array of the batch's size.
    """

    def __init__(
        self, params: ModelParams, laws: Sequence[FeedbackLaw],
        initials: Sequence[BlochState], batch: int,
    ) -> None:
        self.chain = FeedbackChain(laws, params, batch)

        def rows(values):
            # a full row per point: a (P, 1) column broadcast into a (P, batch)
            # out= makes numpy allocate a transient buffer on every call
            return np.repeat(np.array(values, dtype=np.float64)[:, None], batch, axis=1)

        self.y, self.z = rows([s.y for s in initials]), rows([s.z for s in initials])
        # the readout, the rotation angle and four kernel work arrays
        self._work = np.empty((6,) + self.y.shape)
        self._noise = np.empty(batch)
        self._outside = np.empty(self.y.shape, dtype=bool)
        self._sigma = params.readout_sigma
        self._s_scale = params.dt / params.tau_m
        self._dt = params.dt
        self._delta0 = rows([l.delta0 for l in laws])
        self._delta1 = rows([l.delta1 for l in laws])
        self._ft = params.transverse_decay
        self._e1 = params.t1_decay
        self.point_renorms = np.zeros(len(laws), dtype=np.int64)

    @property
    def renorms(self) -> int:
        """Renormalizations summed over the points."""
        return int(self.point_renorms.sum())

    def step(self, n01) -> None:
        y, z = self.y, self.z
        rbar, angle, *work = self._work
        # one contiguous row of noise, the same product in every element
        np.add(z, np.multiply(n01, self._sigma, out=self._noise), out=rbar)
        fed = self.chain.push(rbar)  # rbar itself for a Markovian chain, else the chain's buffer
        np.add(self._delta0, np.multiply(self._delta1, fed, out=angle), out=angle)
        angle *= self._dt
        s = np.multiply(rbar, self._s_scale, out=rbar)  # rbar is spent once the angle is formed
        backaction_update(y, z, s, out=(y, z, *work[:3]))
        rotation_update(y, z, angle, out=(y, z, *work))
        dissipation_update(y, z, self._ft, self._e1, out=(y, z))
        r2, sq = work[:2]
        np.multiply(y, y, out=r2)
        r2 += np.multiply(z, z, out=sq)
        outside = np.greater(r2, 1.0, out=self._outside)
        if np.count_nonzero(outside):
            self.point_renorms += np.count_nonzero(outside, axis=1)
            # 1/sqrt(1) = 1 exactly, so the rows inside (and NaN, which fmax
            # drops) are multiplied by exactly 1
            scale = np.divide(1.0, np.sqrt(np.fmax(r2, 1.0, out=r2), out=r2), out=r2)
            y *= scale
            z *= scale


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
    n_bins: int | None,
    rec_sums: np.ndarray,
    renorms: np.ndarray,
    steady_out: list[tuple[np.ndarray, np.ndarray]] | None,
) -> None:
    """Advance trajectories ``lo:hi`` at every point of ``laws``, adding point
    p's (y, z) sums into ``rec_sums[p]`` (its x column stays 0), writing
    its renormalizations into ``renorms[p]``, and, with
    ``steady_out[p] = (bins, sums)``, each sample's bin into
    ``bins[lo:hi]`` and its (y, z) into ``sums[lo:hi]``.  The run lasts
    until its last record, ``rec_steps[-1]``."""
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

    # state index -> slot in the mean-sum / steady-bin buffers
    rec_slot = {int(step): k for k, step in enumerate(rec_steps)}
    steady_slot = {} if steady_out is None else {int(s): k for k, s in enumerate(steady_steps)}
    steady = [] if steady_out is None else [(b[lo:hi], s[lo:hi]) for b, s in steady_out]

    # rows of an odd number of 64-byte lines, so that the column noise[:, k]
    # a step reads spreads over every cache set: with 256-double rows (32
    # lines) it falls on a few sets and is evicted before the next steps
    width = min(BLOCK_STEPS, n_steps)
    noise = np.empty((n, 8 * (-(-width // 8) | 1)))[:, :width]
    for i in range(n_steps + 1):
        slot = rec_slot.get(i)
        if slot is not None:
            rec_sums[:, slot, 1] += batch.y.sum(axis=1)
            rec_sums[:, slot, 2] += batch.z.sum(axis=1)
        slot = steady_slot.get(i)
        if slot is not None:
            flat = bin_index(batch.y, batch.z, n_bins)
            for (bins, sums), f, y, z in zip(steady, flat, batch.y, batch.z):
                bins[:, slot] = f
                sums[:, 0] += y
                sums[:, 1] += z
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

    Every initial state must lie in the yz-plane (x = 0), where x stays
    exactly 0: each result's mean x is 0.  ``total_time`` must be a
    whole number of steps of ``params.dt``, and the mean curve is
    recorded every ``record_stride`` of them.
    Trajectory i draws from the stream keyed (seed, i), ``seed`` an
    unsigned 64-bit integer.  ``steady`` enables steady-state sampling
    for histograms: each result then carries every sample's bin and each
    trajectory's (y, z) sum.  ``stepper_factory`` (laws, initial
    states, batch size -> stepper) swaps the physics kernel; the default
    is :class:`BayesStepper`.  A stepper owns (len(laws), batch) arrays
    ``y``, ``z`` started from the initial states, advances them by
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

    ``workers`` is the number of processes that run the tasks, 1 to
    ``MAX_WORKERS``; more than 1 needs the ``fork`` start method.  Each
    task runs a range of trajectories at every point.  The ranges are the
    ``CHUNK_SIZE`` chunks, and while their count is not a multiple of N
    workers, the smallest range of more than ``PAIRWISE_BLOCK``
    trajectories is cut in two at its pairwise split, so a sweep that
    fits in one chunk, or a run whose last chunk is short, still keeps N
    workers busy.  ``workers = 1`` cuts nothing and starts no process.
    Every result bit is the same for any ``workers``; a worker that dies
    raises :class:`WorkerError`.
    """
    if isinstance(initials, BlochState):
        raise ValueError(f"initials: expected a sequence of states, one per law, got {initials!r}")
    if not len(initials) == len(laws) >= 1:
        raise ValueError(f"initials: {len(initials)} initial states for {len(laws)} laws")
    try:
        for state in initials:
            state.require_physical()
            if state.x != 0.0:
                raise ValueError(f"x: {state.x!r} is not 0; a run starts in the yz-plane")
    except ValueError as exc:
        raise ValueError(f"initials: {exc}") from exc
    if n_traj < 1:
        raise ValueError(f"n_traj: must be >= 1, got {n_traj}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers: must lie in [1, {MAX_WORKERS}], got {workers}")
    if workers > 1:
        import multiprocessing  # only runs with several workers pay for the import

        if "fork" not in multiprocessing.get_all_start_methods():
            raise ValueError("workers: more than 1 needs the fork start method")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed: must fit in an unsigned 64-bit integer, got {seed}")
    n_steps = steps_for(total_time, params.dt)
    if record_stride < 1 or n_steps % record_stride:
        raise ValueError(
            f"record_stride: {record_stride} must be >= 1 and divide the {n_steps} "
            "total steps; recorded times would be non-uniform"
        )
    rec_steps = np.arange(0, n_steps + 1, record_stride)
    steady_steps = None if steady is None else steady.step_indices(n_steps, params.dt)
    n_bins = None if steady is None else steady.n_bins
    delay = max(law.Td for law in laws)
    if delay > total_time:  # it would never feed back, yet it sizes the chain's ring
        raise ValueError(f"Td: the delay {delay} exceeds total_time = {total_time}")
    for law in laws:  # warnings only once every argument has passed
        validate_law(law, params)
    if stepper_factory is None:
        stepper_factory = partial(BayesStepper, params)

    n_points = len(laws)
    chunks = [(lo, min(lo + CHUNK_SIZE, n_traj)) for lo in range(0, n_traj, CHUNK_SIZE)]
    ranges = _task_ranges(chunks, workers)
    # (task, point, record, xyz) mean sums; (task, point) renormalizations;
    # per point, (trajectory, sample) bins and (trajectory, yz) sample sums
    task_sums = _shared((len(ranges), n_points, len(rec_steps), 3))
    task_renorms = _shared((len(ranges), n_points), np.int64)
    steady_out = None if steady_steps is None else [
        (_shared((n_traj, len(steady_steps)), np.int32), _shared((n_traj, 2))) for _ in laws
    ]
    # task k runs range k at every point and writes only its own slots of
    # the buffers
    tasks = [
        partial(
            _run_chunk, lo, hi, seed, stepper_factory, laws, initials, rec_steps,
            steady_steps, n_bins, task_sums[k], task_renorms[k], steady_out,
        )
        for k, (lo, hi) in enumerate(ranges)
    ]
    _run_tasks(tasks, workers)

    # Chunk order fixes the float sums: 0 + chunk 0 + chunk 1 + ..., each
    # chunk's sum rebuilt from its tasks' along numpy's own pairwise tree
    by_range = dict(zip(ranges, task_sums))
    rec_sums = np.zeros((n_points, len(rec_steps), 3))
    for lo, hi in chunks:
        rec_sums += _range_sum(lo, hi, by_range)
    for law, sums in zip(laws, rec_sums):
        if not np.isfinite(sums[-1]).all():
            raise ValueError(f"delta0/delta1: the state went non-finite under {law}")
    renorms = task_renorms.sum(axis=0)
    return [
        EnsembleResult(
            times=rec_steps * params.dt,
            mean_xyz=rec_sums[p] / n_traj,
            renorm_count=int(renorms[p]),
            steady_bins=bins,
            steady_sums=sums,
            n_bins=n_bins,
        )
        for p, (bins, sums) in enumerate(steady_out or [(None, None)] * n_points)
    ]
