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
from .engine import EnsembleResult, SteadySampling, bin_centers, run_ensemble, steps_for
from .model import BlochState, ModelParams

__all__ = [
    "PeakReport",
    "Lobe",
    "EnsembleSummary",
    "find_peak",
    "label_components",
    "summarize",
    "steady_state",
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
class Lobe:
    """One connected high-density region: count-weighted centroid and mass."""

    y: float
    z: float
    mass_fraction: float


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

    A union-find over the links between neighbouring mask cells: each
    round hooks the larger root of every link under the smaller, then
    jumps each cell to its root.  No cell's parent lies after it, so once
    no link joins two roots, each root is its component's first cell.
    """
    rows, cols = mask.shape
    width = cols + 1
    on = np.pad(mask, ((0, 1), (0, 1))).ravel()  # an off column ends each row: no link wraps
    cells = np.flatnonzero(on)
    ends = cells[:, None] + [1, width - 1, width, width + 1]  # E, SW, S and SE neighbours
    i, k = np.nonzero(on[ends])
    a, b = cells[i], ends[i, k]
    parent = np.arange(on.size)
    while a.size:
        ra, rb = parent[a], parent[b]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped
        a, b = a[ra != rb], b[ra != rb]
    number = np.cumsum(on & (parent == np.arange(on.size)))
    labels = np.where(on, number[parent], 0).reshape(rows + 1, width)
    return labels[:rows, :cols], int(number[-1])


def find_peak(counts: np.ndarray) -> PeakReport:
    """Locate the dominant peak and the high-density lobes of an
    ``(n_bins, n_bins)`` histogram of bin counts, whose bins lie at
    :func:`qfb.engine.bin_centers`.

    :func:`label_components`, a union-find, labels the lobe candidates and
    one weighted ``bincount`` weighs every component (exactly: its integer sums stay
    below 2**53); only the components heavy enough to be lobes get a
    centroid.
    """
    n_samples = int(counts.sum())
    if n_samples == 0:
        raise ValueError("counts: empty histogram")
    iys, izs = np.nonzero(counts == counts.max())
    maxima = list(zip(iys.tolist(), izs.tolist()))
    iy, iz = maxima[0]
    centers = bin_centers(len(counts))
    yc, zc = centers[iy], centers[iz]

    dy = centers[:, None] - yc
    dz = centers[None, :] - zc
    dist = np.sqrt(dy * dy + dz * dz)
    mean_d = float((counts * dist).sum()) / n_samples
    mean_d2 = float((counts * dist * dist).sum()) / n_samples
    sigma_rms = math.sqrt(mean_d2)
    sigma = math.sqrt(max(mean_d2 - mean_d * mean_d, 0.0))

    labels, _ = label_components(counts >= LOBE_THRESHOLD * counts[iy, iz])
    masses = np.bincount(labels.ravel(), weights=counts.ravel())
    lobes = []
    yy = np.broadcast_to(centers[:, None], counts.shape)
    zz = np.broadcast_to(centers[None, :], counts.shape)
    for lab in np.flatnonzero(masses[1:] >= MIN_LOBE_MASS * n_samples) + 1:
        sel = labels == lab
        mass = float(masses[lab])
        lobes.append(
            Lobe(
                y=float((counts[sel] * yy[sel]).sum() / mass),
                z=float((counts[sel] * zz[sel]).sum() / mass),
                mass_fraction=mass / n_samples,
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
    """Steady-state view of an ensemble run: ``histogram``, the int64
    ``(n_bins, n_bins)`` counts of its samples on the bins of
    :func:`qfb.engine.bin_index`; peak report; mean radius ``r_mean`` =
    |<(y, z)>| of the pooled samples; renormalization count."""

    histogram: np.ndarray
    peak: PeakReport
    r_mean: float
    renorm_count: int


def summarize(result: EnsembleResult) -> EnsembleSummary:
    """Histogram + peak + mean-radius summary of an ensemble's steady samples."""
    bins, n_bins = result.steady_bins, result.n_bins
    if bins is None or bins.size == 0:
        raise ValueError("result: no steady-state samples were collected")
    counts = np.bincount(bins.ravel(), minlength=n_bins * n_bins).reshape(n_bins, n_bins)
    my, mz = result.steady_sums.sum(axis=0) / bins.size
    return EnsembleSummary(counts, find_peak(counts), math.hypot(my, mz), result.renorm_count)


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
