"""Ensemble statistics: mean curves, yz-plane histograms, peaks and lobes.

Steady-state trajectory distributions are summarized by a uniform 2D
histogram over the yz unit square, its dominant peak (converted to polar
form), the spread of the samples around that peak, the connected
high-density lobes and the mean radius.  The engine's tasks bin each
sample where it is taken, so a summary counts the bins with
``np.bincount`` and reads the mean radius from each trajectory's (y, z)
sums.  :func:`steady_state` is the one steady-state path: it runs one or
more laws as one batched ensemble, discards the burn-in and summarizes
each law's samples.  Histogram mode runs it with one law, the sweeps
with one law per operating point.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .chain import FeedbackLaw
from .engine import (
    DEFAULT_BINS,
    MAX_BINS,
    EnsembleResult,
    SteadySampling,
    run_ensemble,
    steps_for,
)
from .model import BlochState, ModelParams

__all__ = [
    "HistogramGrid",
    "PeakReport",
    "Lobe",
    "EnsembleSummary",
    "find_peak",
    "label_components",
    "summarize",
    "steady_state",
    "DEFAULT_BINS",
    "MAX_BINS",
    "LOBE_THRESHOLD",
    "MIN_LOBE_MASS",
]

#: Bins holding at least this fraction of the peak count are lobe candidates.
#: The secondary lobe of a near-pole bifurcation peaks at only ~10% of the
#: dominant bin, so the cut must sit well below that.
LOBE_THRESHOLD = 0.05

#: Connected components below this total mass fraction are Poisson specks,
#: not lobes.
MIN_LOBE_MASS = 0.005


@dataclass(frozen=True)
class HistogramGrid:
    """Uniform 2D histogram of (y, z) samples over [-1, 1] x [-1, 1].

    ``edges`` bins both axes; ``counts[iy, iz]`` counts the samples in
    y-bin ``iy`` and z-bin ``iz`` and totals ``n_samples``.
    """

    edges: np.ndarray
    counts: np.ndarray
    n_samples: int

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


@dataclass(frozen=True)
class Lobe:
    """One connected high-density region: count-weighted centroid and mass."""

    y: float
    z: float
    mass_fraction: float

    @property
    def theta(self) -> float:
        return math.atan2(self.y, self.z)

    @property
    def radius(self) -> float:
        return math.hypot(self.y, self.z)


@dataclass(frozen=True)
class PeakReport:
    """Dominant-peak summary of a steady-state histogram.

    ``theta_p``/``r_p`` locate the center of the maximal-count bin in
    polar form.

    Deviation conventions (these definitions feed the acceptance suite,
    so they are spelled out here): ``sigma`` is the standard deviation
    of the Euclidean distance in the yz-plane between the samples and
    the peak bin center, i.e. the spread of the distribution *around*
    the peak with the mean offset removed.  ``sigma_rms`` is the raw RMS
    of that same distance; it exceeds ``sigma`` whenever the peak sits
    away from the distribution's center of mass, as it does for the
    purified near-pole peaks.

    ``lobes`` lists 8-connected components of bins above the threshold
    fraction of the peak count, excluding components lighter than the
    minimum mass fraction (single-bin Poisson specks), ordered by
    decreasing mass.  ``tie_bins`` is non-empty when several bins share
    the maximal count ("flag and report all"); the first in row-major
    order is the one summarized.
    """

    theta_p: float
    r_p: float
    sigma: float
    sigma_rms: float
    lobes: tuple[Lobe, ...]
    tie_bins: tuple[tuple[int, int], ...] = ()


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected components of a 2D boolean mask.

    Returns ``(labels, count)``: cells off the mask get 0, and components
    are numbered 1..count in raster order of their first cell, the
    numbering of ``scipy.ndimage.label`` with a full 3 x 3 structure.

    Every mask cell starts labelled with its own flat index; each pass
    takes the minimum over the 3 x 3 neighbourhood, then jumps each label
    to the label of the cell it names.  A label always names a cell of the
    same component, so the fixed point gives every cell its component's
    first index.
    """
    rows, cols = mask.shape
    on = mask.ravel()
    off = rows * cols  # larger than any cell index
    labels = np.where(on, np.arange(off), off)
    padded = np.full((rows + 2, cols + 2), off)
    while True:
        padded[1:-1, 1:-1] = labels.reshape(rows, cols)
        low = labels.reshape(rows, cols).copy()
        for dy in range(3):
            for dx in range(3):
                np.minimum(low, padded[dy:dy + rows, dx:dx + cols], out=low)
        low = low.ravel()
        low[on] = low[low[on]]
        low[~on] = off
        if np.array_equal(low, labels):
            break
        labels = low
    first, number = np.unique(labels[on], return_inverse=True)
    out = np.zeros(rows * cols, dtype=np.int64)
    out[on] = number + 1
    return out.reshape(rows, cols), len(first)


def find_peak(grid: HistogramGrid) -> PeakReport:
    """Locate the dominant histogram peak and the high-density lobes."""
    if grid.n_samples == 0:
        raise ValueError("grid: empty histogram")
    iys, izs = np.nonzero(grid.counts == grid.counts.max())
    maxima = list(zip(iys.tolist(), izs.tolist()))
    iy, iz = maxima[0]
    centers = grid.centers
    yc, zc = centers[iy], centers[iz]

    dy = centers[:, None] - yc
    dz = centers[None, :] - zc
    dist = np.sqrt(dy * dy + dz * dz)
    mean_d = float((grid.counts * dist).sum()) / grid.n_samples
    mean_d2 = float((grid.counts * dist * dist).sum()) / grid.n_samples
    sigma_rms = math.sqrt(mean_d2)
    sigma = math.sqrt(max(mean_d2 - mean_d * mean_d, 0.0))

    mask = grid.counts >= LOBE_THRESHOLD * grid.counts[iy, iz]
    labels, n_lobes = label_components(mask)
    lobes = []
    yy = np.broadcast_to(centers[:, None], grid.counts.shape)
    zz = np.broadcast_to(centers[None, :], grid.counts.shape)
    for lab in range(1, n_lobes + 1):
        sel = labels == lab
        mass = float(grid.counts[sel].sum())
        if mass < MIN_LOBE_MASS * grid.n_samples:
            continue
        lobes.append(
            Lobe(
                y=float((grid.counts[sel] * yy[sel]).sum() / mass),
                z=float((grid.counts[sel] * zz[sel]).sum() / mass),
                mass_fraction=mass / grid.n_samples,
            )
        )
    lobes.sort(key=lambda l: l.mass_fraction, reverse=True)
    return PeakReport(
        theta_p=math.atan2(yc, zc),
        r_p=math.hypot(yc, zc),
        sigma=sigma,
        sigma_rms=sigma_rms,
        lobes=tuple(lobes),
        tie_bins=tuple(maxima) if len(maxima) > 1 else (),
    )


@dataclass(frozen=True)
class EnsembleSummary:
    """Steady-state view of an ensemble run: histogram, peak report, mean radius
    ``r_mean`` = |<(y, z)>| of the pooled samples, renormalization count."""

    histogram: HistogramGrid
    peak: PeakReport
    r_mean: float
    renorm_count: int


def summarize(result: EnsembleResult) -> EnsembleSummary:
    """Histogram + peak + mean-radius summary of an ensemble's steady samples."""
    bins, n_bins = result.steady_bins, result.n_bins
    if bins is None or bins.size == 0:
        raise ValueError("result: no steady-state samples were collected")
    counts = np.bincount(bins.ravel(), minlength=n_bins * n_bins)
    grid = HistogramGrid(np.linspace(-1.0, 1.0, n_bins + 1), counts.reshape(n_bins, n_bins),
                         bins.size)
    my, mz = result.steady_sums.sum(axis=0) / bins.size
    return EnsembleSummary(grid, find_peak(grid), math.hypot(my, mz), result.renorm_count)


def steady_state(
    laws: Sequence[FeedbackLaw],
    initials: Sequence[BlochState],
    params: ModelParams,
    *,
    n_traj: int,
    total_time: float,
    steady: SteadySampling,
    seed: int = 0,
    workers: int = 1,
) -> Iterator[EnsembleSummary]:
    """Summaries of the steady-state samples ``steady`` selects from
    ``n_traj`` trajectories under each law, started at that law's initial
    state, in law order.

    All laws run as one batched ensemble of :func:`run_ensemble`, which
    takes the same arguments, with the same master seed (common random
    numbers), so each summary equals that law's run alone and summaries
    differ by physics rather than by noise realization.  The run writes
    no mean curve, so it records only the two endpoints.  It runs, and
    checks every argument, at the call; the iterator then summarizes one
    law per ``next`` and frees its bins, so no two summaries need be held
    at once.
    """
    stride = steps_for(total_time, params.dt)
    results = run_ensemble(laws, initials, params, n_traj=n_traj, total_time=total_time,
                           record_stride=stride, seed=seed, steady=steady, workers=workers)
    return (summarize(results.pop(0)) for _ in range(len(results)))
