"""Histograms, peak/lobe detection, summaries, batched steady states."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest

from qfb import (
    BlochState,
    Lobe,
    ModelParams,
    SteadySampling,
    design_ideal,
    design_nonideal,
    find_peak,
    run_ensemble,
    steady_state,
    summarize,
)
from qfb.engine import MAX_BINS, bin_centers, bin_index
from qfb.stats import LOBE_THRESHOLD, MIN_LOBE_MASS, label_components
from oracle import build_histogram, flood_fill_labels, polar_angle

NONIDEAL_COARSE = ModelParams(tau_m=0.2, dt=0.01, T1=60.0, T2=40.0, eta=0.41)


def gaussian_cloud(center, spread, n, seed=0):
    rng = np.random.default_rng(seed)
    pts = center + spread * rng.standard_normal((n, 2))
    r = np.linalg.norm(pts, axis=1)
    scale = np.where(r > 1.0, 0.999 / r, 1.0)
    return pts * scale[:, None]


class TestHistogramGrid:
    """The histogram is its (n_bins, n_bins) int64 bin counts."""

    def test_counts_total_and_coverage(self):
        samples = gaussian_cloud((0.3, 0.2), 0.2, 5000, seed=1)
        counts = build_histogram(samples)
        assert counts.shape == (100, 100) and counts.dtype == np.int64
        assert counts.sum() == 5000

    def test_single_point_single_bin(self):
        samples = np.tile([[0.515, 0.375]], (100, 1))
        counts = build_histogram(samples)
        assert (counts > 0).sum() == 1
        assert counts.max() == 100

    def test_clipping_keeps_all_samples(self):
        # integrators that leak slightly outside the square still land in edge bins
        samples = np.array([[1.02, 0.0], [-1.5, 0.3], [0.0, 1.001]])
        counts = build_histogram(samples)
        assert counts.sum() == 3

    @pytest.mark.parametrize("n_bins", [2, 3, 7, 100, 333, 999, 1000])
    def test_bins_match_histogram2d(self, n_bins):
        # every edge, one ulp either side of it, and samples outside the
        # square, which are clipped onto its border
        rng = np.random.default_rng(n_bins)
        edges = np.linspace(-1.0, 1.0, n_bins + 1)
        values = np.concatenate([
            edges, np.nextafter(edges, 2.0), np.nextafter(edges, -2.0),
            rng.uniform(-1.3, 1.3, 3000), [-1.0000001, 1.0000001, -5.0, 5.0],
        ])
        samples = np.stack([rng.permutation(values), rng.permutation(values)], axis=1)
        flat = bin_index(samples[:, 0], samples[:, 1], n_bins)
        counts = np.bincount(flat, minlength=n_bins * n_bins).reshape(n_bins, n_bins)
        clipped = np.clip(samples, -1.0, 1.0)
        expected, _, _ = np.histogram2d(*clipped.T, bins=[edges, edges])
        assert counts.dtype == np.int64
        assert np.array_equal(counts, expected.astype(np.int64))
        assert counts.sum() == len(samples)

    @pytest.mark.parametrize("n_bins", [2, 3, 7, 100, 1000])
    def test_each_value_lands_in_its_half_open_bin(self, n_bins):
        """An interior edge opens its bin, 1 closes the last one, values beyond
        the square are clipped onto it, and a non-finite value still gets a
        bin inside the grid."""
        edges = np.linspace(-1.0, 1.0, n_bins + 1)
        inner = np.arange(1, n_bins)
        cases = [
            (edges[1:-1], inner), (np.nextafter(edges[1:-1], -2.0), inner - 1),
            (np.array([-1.0, 1.0]), [0, n_bins - 1]),
            (np.array([-1.5, -np.inf, 1.5, np.inf, np.nan]), [0, 0] + [n_bins - 1] * 3),
        ]
        for values, want in cases:
            want = np.asarray(want)
            for other, j in ((-1.0, 0), (1.0, n_bins - 1)):
                fixed = np.full_like(values, other)
                assert np.array_equal(bin_index(values, fixed, n_bins), want * n_bins + j)
                assert np.array_equal(bin_index(fixed, values, n_bins), j * n_bins + want)

    def test_the_largest_grid_indexes_in_int32(self):
        assert MAX_BINS**2 <= np.iinfo(np.int32).max

    def test_a_nan_sample_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            build_histogram(np.array([[0.1, 0.2], [np.nan, 0.0]]))

    def test_uniform_chi_square_sanity(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(-1, 1, size=(200000, 2))
        counts = build_histogram(samples, n_bins=20)
        expected = 200000 / 400.0
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # dof = 399, sd = sqrt(2*399) ~ 28; allow 5 sigma
        assert abs(chi2 - 399) < 5 * math.sqrt(2 * 399)


class TestFindPeak:
    def test_delta_distribution(self):
        samples = np.tile([[0.515, 0.375]], (2000, 1))
        pk = find_peak(build_histogram(samples))
        assert pk.sigma == 0.0
        assert pk.sigma_rms == 0.0
        assert len(pk.lobes) == 1
        assert pk.lobes[0].mass_fraction == pytest.approx(1.0)
        assert pk.theta_p == pytest.approx(math.atan2(0.515, 0.375), abs=0.03)
        assert pk.r_p == pytest.approx(math.hypot(0.515, 0.375), abs=0.03)

    def test_sigma_definitions_on_offset_cloud(self):
        # peak at the cloud center: sigma_rms ~ sqrt(E d^2) of a Rayleigh;
        # sigma = std(d) is strictly smaller
        samples = gaussian_cloud((0.4, 0.1), 0.08, 300000, seed=5)
        pk = find_peak(build_histogram(samples))
        s = 0.08
        assert pk.sigma_rms == pytest.approx(s * math.sqrt(2.0), rel=0.05)
        assert pk.sigma == pytest.approx(s * math.sqrt(2.0 - math.pi / 2.0), rel=0.08)
        assert pk.sigma < pk.sigma_rms

    def test_two_lobes_detected_and_ordered(self):
        a = gaussian_cloud((0.23, 0.93), 0.04, 60000, seed=6)
        b = gaussian_cloud((0.55, -0.55), 0.06, 40000, seed=7)
        pk = find_peak(build_histogram(np.vstack([a, b])))
        assert len(pk.lobes) == 2
        assert pk.lobes[0].mass_fraction > pk.lobes[1].mass_fraction
        assert polar_angle(pk.lobes[0]) < 0.5  # dominant lobe near the upper pole
        assert sum(l.mass_fraction for l in pk.lobes) <= 1.0

    def test_speck_suppression(self):
        bulk = gaussian_cloud((0.0, 0.5), 0.05, 100000, seed=9)
        specks = np.array([[-0.9, -0.9]] * 300)  # 0.3% of mass, isolated
        pk = find_peak(build_histogram(np.vstack([bulk, specks])))
        assert len(pk.lobes) == 1

    def test_tie_reporting(self):
        samples = np.array([[0.105, 0.105]] * 7 + [[-0.305, 0.505]] * 7)
        pk = find_peak(build_histogram(samples))
        assert len(pk.tie_bins) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            find_peak(build_histogram(np.empty((0, 2))))

    def test_lobes_match_each_flood_filled_component_on_the_finest_grid(self):
        """On a MAX_BINS grid whose lobe mask has thousands of components,
        the lobes are, bit for bit, the count-weighted centroids and masses
        of the flood-filled components at or above the minimum mass,
        heaviest first; one cloud sits just below that mass, one just above."""
        counts = build_histogram(np.vstack([
            gaussian_cloud((0.3, 0.5), 0.05, 150000, seed=1),
            gaussian_cloud((-0.4, 0.2), 0.03, 40000, seed=2),
            gaussian_cloud((0.1, -0.6), 0.01, 3200, seed=3),
            gaussian_cloud((-0.5, -0.5), 0.01, 2000, seed=4),
            np.random.default_rng(5).uniform(-1, 1, (300000, 2)),
        ]), n_bins=MAX_BINS)
        n = int(counts.sum())
        labels, count = flood_fill_labels(counts >= LOBE_THRESHOLD * counts.max())
        assert count > 3000
        members = [[] for _ in range(count)]
        for i, lab in zip(np.flatnonzero(labels).tolist(), labels[labels > 0].tolist()):
            members[lab - 1].append(i)  # each component's cells in raster order
        yy, zz = (a.ravel() for a in np.meshgrid(bin_centers(MAX_BINS), bin_centers(MAX_BINS),
                                                 indexing="ij"))
        want = []
        for cells in members:
            c = counts.ravel()[cells]
            mass = float(c.sum())
            if mass >= MIN_LOBE_MASS * n:
                want.append(Lobe(float((c * yy[cells]).sum() / mass),
                                 float((c * zz[cells]).sum() / mass), mass / n))
        want.sort(key=lambda l: l.mass_fraction, reverse=True)
        assert len(want) == 3
        assert find_peak(counts).lobes == tuple(want)


class TestLabelComponents:
    def test_matches_flood_fill_on_random_masks(self):
        rng = np.random.default_rng(12)
        masks = []
        for _ in range(60):
            shape = tuple(rng.integers(1, 40, size=2))
            masks.append(rng.random(shape) < rng.uniform(0.02, 0.6))
        # large masks: thousands of specks, clusters near percolation, and
        # serpentines (nested, mirrored and transposed) among specks
        masks += [rng.random((300, 320)) < p for p in (0.1, 0.35)]
        snake = np.zeros((101, 100), dtype=bool)
        snake[::2] = True
        snake[1::4, -1] = True
        snake[3::4, 0] = True
        snakes = np.zeros((306, 304), dtype=bool)
        snakes[:101, :100] = snake
        snakes[:101, 102:202] = snake[::-1, ::-1]
        snakes[103:203, :101] = snake.T
        snakes[205:306, 204:] = snake[:, ::-1]
        masks.append(snakes | (rng.random(snakes.shape) < 0.04))
        for mask in masks:
            labels, count = label_components(mask)
            want, want_count = flood_fill_labels(mask)
            assert count == want_count
            assert np.array_equal(labels, want)

    def test_winding_component_is_one_label(self):
        # a serpentine path: each row joins the next at alternating ends
        mask = np.zeros((41, 30), dtype=bool)
        mask[::2] = True
        mask[1::4, -1] = True
        mask[3::4, 0] = True
        labels, count = label_components(mask)
        assert count == 1
        assert np.array_equal(labels, mask.astype(np.int64))


class TestSummaryAndSweeps:
    def test_summarize_includes_peak_and_radius(self):
        law, r_s = design_nonideal(0.3 * math.pi, NONIDEAL_COARSE)
        init = BlochState.from_polar(0.3 * math.pi, r_s)
        (res,) = run_ensemble(
            [law], [init], NONIDEAL_COARSE, n_traj=400, total_time=9.8, record_stride=20,
            seed=14, steady=SteadySampling(2.0, 0.2),
        )
        summary = summarize(res)
        assert summary.histogram.shape == (100, 100)
        assert summary.histogram.sum() == res.steady_bins.size
        assert 0.5 < summary.r_mean < 0.7
        assert summary.renorm_count == res.renorm_count

    def test_summarize_rejects_a_run_without_samples(self):
        law, r_s = design_nonideal(0.3 * math.pi, NONIDEAL_COARSE)
        (res,) = run_ensemble(
            [law], [BlochState.from_polar(0.3 * math.pi, r_s)], NONIDEAL_COARSE,
            n_traj=5, total_time=0.2, seed=1,
        )
        with pytest.raises(ValueError, match="no steady-state samples"):
            summarize(res)

    def test_sweep_chain_common_seed_and_values(self):
        theta = 0.3 * math.pi
        base, r_s = design_nonideal(theta, NONIDEAL_COARSE)
        laws = [replace(base, Td=td) for td in (0.0, 0.04, 0.0)]
        none, delayed, again = steady_state(
            laws,
            [BlochState.from_polar(theta, r_s)] * 3,
            NONIDEAL_COARSE,
            n_traj=300,
            total_time=9.8,
            steady=SteadySampling(2.0, 0.2),
            seed=3,
        )
        # every law draws the same noise: equal laws give equal summaries
        assert np.array_equal(none.histogram, again.histogram)
        assert (none.peak, none.r_mean) == (again.peak, again.r_mean)
        assert delayed.r_mean < none.r_mean  # delay degrades the mean radius

    def test_sweep_sums_the_renormalizations_of_its_points(self):
        # pure states sit on the sphere, where the step renormalizes often
        ideal = ModelParams(tau_m=0.2, dt=0.01, T1=math.inf, T2=math.inf, eta=1.0)
        theta = 0.3 * math.pi
        law = design_ideal(theta, ideal.tau_m)
        start = BlochState.from_polar(theta, 1.0)
        run = dict(n_traj=50, total_time=3.0, steady=SteadySampling(2.0, 0.2), seed=3)
        (alone,) = steady_state([law], [start], ideal, **run)
        first, second = steady_state([law] * 2, [start] * 2, ideal, **run)
        assert alone.renorm_count > 0
        assert first.renorm_count == second.renorm_count == alone.renorm_count

    def test_no_laws_are_refused_before_any_worker_starts(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        run = dict(n_traj=5, total_time=3.0, steady=SteadySampling(2.0, 0.2), workers=2)
        with pytest.raises(ValueError, match="0 initial states for 0 laws"):
            list(steady_state([], [], NONIDEAL_COARSE, **run))

    @pytest.mark.parametrize("block_steps", [512, 64])  # one noise block; several
    def test_batched_sweep_equals_each_point_alone(self, monkeypatch, block_steps):
        """One batched run gives every law the summary it gets alone, bit for
        bit, across several chunks, with filters, unequal delays and angles
        mixed."""
        import qfb.engine as eng

        monkeypatch.setattr(eng, "CHUNK_SIZE", 16)  # 40 trajectories: three chunks
        monkeypatch.setattr(eng, "BLOCK_STEPS", block_steps)
        # pure states sit on the sphere, where the step renormalizes often
        ideal = ModelParams(tau_m=0.2, dt=0.01, T1=math.inf, T2=math.inf, eta=1.0)
        run = dict(n_traj=40, total_time=3.0, steady=SteadySampling(1.0, 0.2), seed=5)
        laws, starts = [], []
        for theta, ts, td in [
            (0.3, 0.0, 0.0),
            (0.3, 0.02, 0.0),
            (0.3, 0.0, 0.03),
            (0.2, 0.02, 0.07),
            (0.45, 0.0, 0.0),
        ]:
            laws.append(replace(design_ideal(theta * math.pi, ideal.tau_m), Ts=ts, Td=td))
            starts.append(BlochState.from_polar(theta * math.pi, 1.0))
        batched = list(steady_state(laws, starts, ideal, **run))
        assert len(batched) == len(laws)
        for s, law, start in zip(batched, laws, starts):
            (alone,) = steady_state([law], [start], ideal, **run)
            assert np.array_equal(s.histogram, alone.histogram)
            assert (s.peak, s.r_mean, s.renorm_count) == (
                alone.peak, alone.r_mean, alone.renorm_count,
            )
        assert len({s.renorm_count for s in batched}) > 1  # the laws renormalize differently

    def test_angular_drift_toward_pole_at_full_chain_lag(self):
        """Filter or delay at tau_m shifts the mean angle ~pi/10 pole-ward."""
        p = NONIDEAL_COARSE
        theta = 0.3 * math.pi
        base, r_s = design_nonideal(theta, p)
        init = BlochState.from_polar(theta, r_s)
        for which in ("Ts", "Td"):
            law = replace(base, **{which: p.tau_m})
            (res,) = run_ensemble(
                [law], [init], p, n_traj=1250, total_time=17.8, record_stride=20, seed=44,
                steady=SteadySampling(2.0, 0.2),
            )
            my, mz = res.steady_sums.sum(axis=0) / res.steady_bins.size
            drift = math.atan2(my, mz) - theta
            # toward the excited pole (negative), magnitude ~pi/10
            assert -0.13 * math.pi < drift < -0.05 * math.pi, (which, drift)

    def test_equator_instability_under_delay(self):
        """Angular spread: narrowest at the equator without delay, fastest to
        degrade once delay is added (growth ratio >= 2x that at 0.3 pi)."""
        p = NONIDEAL_COARSE

        def ang_std(theta_frac, td):
            theta = theta_frac * math.pi
            law, r_s = design_nonideal(theta, p)
            law = type(law)(law.delta0, law.delta1, Ts=0.0, Td=td)
            init = BlochState.from_polar(theta, r_s)
            (res,) = run_ensemble(
                [law], [init], p, n_traj=500, total_time=9.8, record_stride=20, seed=13,
                steady=SteadySampling(2.0, 0.2, n_bins=MAX_BINS),
            )
            # each sample at the center of its bin, within 0.001 on each axis
            centers = bin_centers(MAX_BINS)
            iy, iz = np.divmod(res.steady_bins.ravel(), MAX_BINS)
            return float(np.std(np.arctan2(centers[iy], centers[iz]) - theta))

        eq0, eq1 = ang_std(0.5, 0.0), ang_std(0.5, 0.02)
        g0, g1 = ang_std(0.3, 0.0), ang_std(0.3, 0.02)
        assert eq0 < g0  # equator is the tightest without delay
        assert (eq1 / eq0) >= 2.0 * (g1 / g0)  # and degrades fastest with it
