"""Ensemble statistics: mean curves, yz-plane histograms, peaks and lobes.

Steady-state trajectory distributions are summarized by a uniform 2D
histogram over the yz unit square, its dominant peak (converted to polar
form), the spread of the samples around that peak, and the connected
high-density lobes.  The ensemble mean curve itself is reduced by the
engine (:func:`qfb.engine.run_ensemble`); this module summarizes its
result and runs the angle and filter/delay sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import ndimage

from .design import design_nonideal
from .engine import EnsembleResult, SteadySampling, TrajectoryConfig, run_ensemble
from .model import BlochState, ModelParams

__all__ = [
    "HistogramGrid",
    "PeakReport",
    "Lobe",
    "EnsembleSummary",
    "build_histogram",
    "find_peak",
    "summarize",
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


@dataclass
class HistogramGrid:
    """Uniform 2D histogram of (y, z) samples over [-1, 1] x [-1, 1].

    Samples are clipped onto the square before binning (only relevant
    for integrators that can leak slightly outside the sphere), so the
    counts always total ``n_samples``.
    """

    y_edges: np.ndarray
    z_edges: np.ndarray
    counts: np.ndarray
    n_samples: int = 0

    @classmethod
    def empty(cls, n_bins: int = DEFAULT_BINS) -> "HistogramGrid":
        edges = np.linspace(-1.0, 1.0, n_bins + 1)
        return cls(
            y_edges=edges,
            z_edges=edges.copy(),
            counts=np.zeros((n_bins, n_bins), dtype=np.int64),
        )

    @property
    def y_centers(self) -> np.ndarray:
        return 0.5 * (self.y_edges[:-1] + self.y_edges[1:])

    @property
    def z_centers(self) -> np.ndarray:
        return 0.5 * (self.z_edges[:-1] + self.z_edges[1:])

    def fill(self, yz: np.ndarray) -> "HistogramGrid":
        """Bin an (n, 2) array of samples; returns self."""
        yz = np.asarray(yz, dtype=float)
        y = np.clip(yz[:, 0], self.y_edges[0], self.y_edges[-1])
        z = np.clip(yz[:, 1], self.z_edges[0], self.z_edges[-1])
        add, _, _ = np.histogram2d(y, z, bins=[self.y_edges, self.z_edges])
        self.counts += add.astype(np.int64)
        self.n_samples += len(yz)
        return self

    def peak_bins(self) -> list[tuple[int, int]]:
        """All bins sharing the maximal count, row-major order."""
        peak = self.counts.max()
        iy, iz = np.nonzero(self.counts == peak)
        return list(zip(iy.tolist(), iz.tolist()))


def build_histogram(samples: np.ndarray, n_bins: int = DEFAULT_BINS) -> HistogramGrid:
    """Histogram an (n, 2) array of steady-state (y, z) samples."""
    return HistogramGrid.empty(n_bins).fill(samples)


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
    maxima = grid.peak_bins()
    iy, iz = maxima[0]
    yc = grid.y_centers[iy]
    zc = grid.z_centers[iz]

    dy = grid.y_centers[:, None] - yc
    dz = grid.z_centers[None, :] - zc
    dist = np.sqrt(dy * dy + dz * dz)
    mean_d = float((grid.counts * dist).sum()) / grid.n_samples
    mean_d2 = float((grid.counts * dist * dist).sum()) / grid.n_samples
    sigma_rms = math.sqrt(mean_d2)
    sigma = math.sqrt(max(mean_d2 - mean_d * mean_d, 0.0))

    mask = grid.counts >= LOBE_THRESHOLD * grid.counts[iy, iz]
    labels, n_lobes = ndimage.label(mask, structure=np.ones((3, 3), dtype=int))
    lobes = []
    yy = np.broadcast_to(grid.y_centers[:, None], grid.counts.shape)
    zz = np.broadcast_to(grid.z_centers[None, :], grid.counts.shape)
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


@dataclass
class EnsembleSummary:
    """Aggregate view of an ensemble run: mean curve, histogram, peak report."""

    times: np.ndarray
    mean_xyz: np.ndarray
    n_traj: int
    histogram: HistogramGrid | None = None
    peak: PeakReport | None = None
    r_mean: float | None = None
    n_steady_samples: int = 0
    renorm_count: int = 0


def summarize(result: EnsembleResult, n_bins: int = DEFAULT_BINS) -> EnsembleSummary:
    """Histogram + peak + mean-radius summary of an ensemble result."""
    summary = EnsembleSummary(
        times=result.times,
        mean_xyz=result.mean_xyz,
        n_traj=result.n_traj,
        renorm_count=result.renorm_count,
    )
    if result.steady_yz is not None and len(result.steady_yz):
        grid = build_histogram(result.steady_yz, n_bins=n_bins)
        summary.histogram = grid
        summary.peak = find_peak(grid)
        summary.r_mean = result.steady_mean_radius()
        summary.n_steady_samples = grid.n_samples
    return summary


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


def _run_point(
    law, r_target, theta_s, value, params,
    n_traj, total_time, sampling, seed, threads, n_bins,
) -> SweepRow:
    initial = BlochState(0.0, r_target * math.sin(theta_s), r_target * math.cos(theta_s))
    cfg = TrajectoryConfig(
        initial=initial,
        total_time=total_time,
        record_stride=max(1, int(round(params.tau_m / params.dt))),
        seed=seed,
    )
    result = run_ensemble(
        n_traj, cfg, params, law, threads=threads, steady=sampling
    )
    summary = summarize(result, n_bins=n_bins)
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
    threads: int = 1,
    n_bins: int = DEFAULT_BINS,
) -> list[SweepRow]:
    """Stabilization summary across target angles (row value = theta_s).

    Each point runs the nonideal design at maximum radius and pools the
    steady-state samples ``sampling`` selects.  The same master seed is
    reused at every point so that rows differ by physics rather than by
    noise realization.
    """
    rows = []
    for theta in thetas:
        law, r_target = design_nonideal(theta, params)
        rows.append(
            _run_point(
                law, r_target, theta, theta, params,
                n_traj, total_time, sampling, seed, threads, n_bins,
            )
        )
    return rows


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
    threads: int = 1,
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
    rows = []
    for v in values:
        law = replace(base, **{which: float(v)})
        rows.append(
            _run_point(
                law, r_target, theta_target, float(v), params,
                n_traj, total_time, sampling, seed, threads, n_bins,
            )
        )
    return rows
