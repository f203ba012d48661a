"""Ensemble statistics: mean curves, yz-plane histograms, peaks and lobes.

Steady-state trajectory distributions are summarized by a uniform 2D
histogram over the yz unit square, its dominant peak (converted to polar
form), the spread of the samples around that peak, the connected
high-density lobes and the mean radius.  :func:`steady_state` is the one
steady-state path: it runs an ensemble from a given state, discards the
burn-in, pools the (y, z) samples and summarizes them.  Histogram mode
and every point of the angle and filter/delay sweeps go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .chain import FeedbackLaw
from .design import design_nonideal
from .engine import EnsembleResult, SteadySampling, TrajectoryConfig, _steps_for, run_ensemble
from .model import BlochState, ModelParams

__all__ = [
    "HistogramGrid",
    "PeakReport",
    "Lobe",
    "EnsembleSummary",
    "build_histogram",
    "find_peak",
    "summarize",
    "steady_state",
    "sweep_targets",
    "sweep_chain",
    "SweepRow",
    "DEFAULT_BINS",
    "LOBE_THRESHOLD",
    "MIN_LOBE_MASS",
]

#: Default histogram resolution: 100 x 100 bins over [-1, 1]^2 (width 0.02),
#: matching the two-decimal precision of reported peak positions.
DEFAULT_BINS = 100

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


def build_histogram(samples: np.ndarray, n_bins: int = DEFAULT_BINS) -> HistogramGrid:
    """Histogram an (n, 2) array of steady-state (y, z) samples.

    Samples are clipped onto the square before binning (only relevant
    for integrators that can leak slightly outside the sphere), so every
    sample is counted.
    """
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    y, z = np.clip(np.asarray(samples, dtype=float), edges[0], edges[-1]).T
    counts, _, _ = np.histogram2d(y, z, bins=[edges, edges])
    return HistogramGrid(edges, counts.astype(np.int64), len(y))


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


def find_peak(grid: HistogramGrid) -> PeakReport:
    """Locate the dominant histogram peak and the high-density lobes."""
    if grid.n_samples == 0:
        raise ValueError("empty histogram")
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
    labels, n_lobes = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
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


def summarize(result: EnsembleResult, n_bins: int = DEFAULT_BINS) -> EnsembleSummary:
    """Histogram + peak + mean-radius summary of an ensemble's steady samples."""
    yz = result.steady_yz
    if yz is None or len(yz) == 0:
        raise ValueError("no steady-state samples were collected")
    grid = build_histogram(yz, n_bins=n_bins)
    my, mz = yz.mean(axis=0)
    return EnsembleSummary(grid, find_peak(grid), math.hypot(my, mz), result.renorm_count)


def steady_state(
    law: FeedbackLaw,
    initial: BlochState,
    params: ModelParams,
    *,
    n_traj: int,
    total_time: float,
    sampling: SteadySampling,
    seed: int = 0,
    n_bins: int = DEFAULT_BINS,
) -> EnsembleSummary:
    """Summary of the steady-state samples ``sampling`` selects from ``n_traj``
    trajectories started at ``initial`` under ``law``.

    The run writes no mean curve, so it records only the two endpoints.
    """
    cfg = TrajectoryConfig(initial, total_time, _steps_for(total_time, params.dt), seed)
    return summarize(run_ensemble(n_traj, cfg, params, law, steady=sampling), n_bins=n_bins)


@dataclass(frozen=True)
class SweepRow:
    """One swept operating point and its stabilization summary."""

    value: float
    theta_s: float
    r_target: float
    delta0: float
    delta1: float
    theta_p: float
    r_p: float
    r_e: float
    sigma: float
    n_lobes: int


def _sweep_rows(points, params: ModelParams, **run) -> list[SweepRow]:
    """One row per ``(value, theta_s, law, r_target)`` point, each run from its
    target state.  Each summary is a temporary: none outlives its row."""
    return [
        _row(value, theta_s, law, r_target, steady_state(
            law, BlochState.from_polar(theta_s, r_target), params, **run
        ))
        for value, theta_s, law, r_target in points
    ]


def _row(value, theta_s, law, r_target, summary: EnsembleSummary) -> SweepRow:
    return SweepRow(
        value=value,
        theta_s=theta_s,
        r_target=r_target,
        delta0=law.delta0,
        delta1=law.delta1,
        theta_p=summary.peak.theta_p,
        r_p=summary.peak.r_p,
        r_e=summary.r_mean,
        sigma=summary.peak.sigma,
        n_lobes=len(summary.peak.lobes),
    )


def sweep_targets(
    thetas,
    params: ModelParams,
    *,
    n_traj: int,
    total_time: float,
    sampling: SteadySampling,
    seed: int = 0,
    n_bins: int = DEFAULT_BINS,
) -> list[SweepRow]:
    """Stabilization summary across target angles (row value = theta_s).

    Each point runs the nonideal design at maximum radius and pools the
    steady-state samples ``sampling`` selects.  The same master seed is
    reused at every point so that rows differ by physics rather than by
    noise realization.
    """
    points = ((theta, theta, *design_nonideal(theta, params)) for theta in thetas)
    return _sweep_rows(
        points, params, n_traj=n_traj, total_time=total_time, sampling=sampling,
        seed=seed, n_bins=n_bins,
    )


def sweep_chain(
    theta_target: float,
    values,
    which: str,
    params: ModelParams,
    *,
    n_traj: int,
    total_time: float,
    sampling: SteadySampling,
    seed: int = 0,
    n_bins: int = DEFAULT_BINS,
) -> list[SweepRow]:
    """Degradation sweep over filter constant or delay (values in us).

    The controller constants are designed once, for the Markovian limit
    at ``theta_target``; each row then runs the same law with the chain
    setting (``which`` in {"Ts", "Td"}) overridden, and pools the
    steady-state samples ``sampling`` selects.  The same master seed is
    shared across rows (common random numbers).
    """
    if which not in ("Ts", "Td"):
        raise ValueError("which must be 'Ts' or 'Td'")
    base, r_target = design_nonideal(theta_target, params)
    points = (
        (float(v), theta_target, replace(base, **{which: float(v)}), r_target)
        for v in values
    )
    return _sweep_rows(
        points, params, n_traj=n_traj, total_time=total_time, sampling=sampling,
        seed=seed, n_bins=n_bins,
    )
