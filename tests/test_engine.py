"""Trajectory engine: determinism, chunk-schedule invariance, ensemble physics."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qfb import (
    BlochState,
    FeedbackLaw,
    ModelParams,
    SteadySampling,
    design_ideal,
    design_nonideal,
    max_radius,
    run_ensemble,
    steady_state,
    trajectory_rng,
)
from qfb.engine import BayesStepper, bin_index
from oracle import ReadoutSample, composite_step, integrate_mean_ode

IDEAL = ModelParams(tau_m=0.2, dt=0.0005)


def ideal_setup(seed=7, total_time=2.0, stride=40):
    """A designed ideal law, its start state and the run's keywords."""
    law = design_ideal(0.3 * math.pi, 0.2)
    start = BlochState.from_polar(0.1 * math.pi)
    return law, start, dict(total_time=total_time, record_stride=stride, seed=seed)


def final_states(n_traj, law, start, params, run):
    """(y, z) of every trajectory at the end of the run, in index order: its
    one steady sample, so its sample sum."""
    at_end = SteadySampling(burn_in=run["total_time"], stride=run["total_time"])
    (res,) = run_ensemble([law], [start], params, n_traj=n_traj, steady=at_end, **run)
    return res.steady_sums


POLE = BlochState(0, 0, 1)
FREE = FeedbackLaw(0.0, 0.0)


class TestConfigValidation:
    def test_non_integer_steps_rejected(self):
        with pytest.raises(ValueError):
            run_ensemble([FREE], [POLE], IDEAL, n_traj=1, total_time=1.00037)

    def test_stride_must_divide(self):
        with pytest.raises(ValueError):
            run_ensemble([FREE], [POLE], IDEAL, n_traj=1, total_time=1.0, record_stride=3)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            run_ensemble([FREE], [POLE], IDEAL, n_traj=1, total_time=1.0, seed=-1)

    def test_unphysical_initial(self):
        with pytest.raises(ValueError):
            run_ensemble([FREE], [BlochState(1.0, 1.0, 1.0)], IDEAL, n_traj=1, total_time=1.0)


class TestStreams:
    def test_streams_differ_by_index(self):
        a = trajectory_rng(5, 0).standard_normal(8)
        b = trajectory_rng(5, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_streams_depend_on_seed(self):
        a = trajectory_rng(5, 0).standard_normal(8)
        b = trajectory_rng(6, 0).standard_normal(8)
        assert not np.allclose(a, b)

    def test_streams_reproducible(self):
        assert np.array_equal(
            trajectory_rng(123, 45).standard_normal(16),
            trajectory_rng(123, 45).standard_normal(16),
        )

    def test_rekeyed_stream_matches_fresh(self):
        used = trajectory_rng(5, 0)
        used.standard_normal(37)
        used.integers(0, 10, dtype=np.uint32)  # leaves half a word buffered
        assert used.bit_generator.state["has_uint32"] == 1
        rekeyed = trajectory_rng(123, 45, reuse=used)
        fresh = trajectory_rng(123, 45)
        assert rekeyed is used
        # 600 normals run through many buffer refills
        assert np.array_equal(rekeyed.standard_normal(600), fresh.standard_normal(600))
        assert np.array_equal(
            rekeyed.integers(0, 2**32, 5, dtype=np.uint32),
            fresh.integers(0, 2**32, 5, dtype=np.uint32),
        )


class TestRunTrajectory:
    """One trajectory is an ensemble of one: its mean curve is the trajectory."""

    def test_pole_without_feedback_is_constant(self):
        (res,) = run_ensemble(
            [FREE], [POLE], IDEAL, n_traj=1, total_time=0.5, record_stride=10, seed=3
        )
        xyz = res.mean_xyz
        assert np.all(xyz[:, 2] == 1.0)
        assert np.all(xyz[:, :2] == 0.0)

    def test_same_seed_bit_identical(self):
        law, start, run = ideal_setup(seed=11)
        (a,) = run_ensemble([law], [start], IDEAL, n_traj=1, **run)
        (b,) = run_ensemble([law], [start], IDEAL, n_traj=1, **run)
        assert np.array_equal(a.mean_xyz, b.mean_xyz)
        assert np.array_equal(a.times, b.times)
        assert a.renorm_count == b.renorm_count

    def test_record_grid_includes_endpoints(self):
        law, start, run = ideal_setup(seed=2, total_time=1.0, stride=100)
        (res,) = run_ensemble([law], [start], IDEAL, n_traj=1, **run)
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(np.diff(res.times), 100 * IDEAL.dt)
        assert len(res.mean_xyz) == len(res.times)

    def test_readout_recording(self):
        # readouts rebuilt from the trajectory's own stream drive the scalar
        # reference step to the same states as the engine
        law = design_ideal(0.3 * math.pi, 0.2)  # Markovian: r_fed = r
        s = BlochState(0.0, 0.5, 0.4)  # a mixed yz-plane start
        (res,) = run_ensemble([law], [s], IDEAL, n_traj=1, total_time=0.05, seed=5)
        xyz = res.mean_xyz
        n_steps = round(0.05 / IDEAL.dt)
        noise = trajectory_rng(5, 0).standard_normal(n_steps)
        for k in range(n_steps):
            r = s.z + IDEAL.readout_sigma * noise[k]
            s = composite_step(s, ReadoutSample(r), r, law, IDEAL)
            assert (s.x, s.y, s.z) == pytest.approx(tuple(xyz[k + 1]), abs=1e-12)
        # the reference keeps x at exactly 0, the engine's column is exactly 0
        assert s.x == 0.0 and np.all(xyz[:, 0] == 0.0)
        assert abs(s.y - 0.5) > 0.01 and abs(s.z - 0.4) > 0.01

    def test_ideal_stabilization_fraction_over_seeds(self):
        # >= 80% of single trajectories end within 0.15 of the target state
        # (x starts at 0 and stays exactly 0 in the ideal model)
        law, start, run = ideal_setup(seed=1000, total_time=2.0, stride=4000)
        finals = final_states(1000, law, start, IDEAL, run)
        target = np.array([math.sin(0.3 * math.pi), math.cos(0.3 * math.pi)])
        dist = np.linalg.norm(finals - target, axis=1)
        assert (dist < 0.15).mean() >= 0.80


class TestRunEnsemble:
    def test_single_trajectory_matches_trajectory_zero(self):
        # trajectory 0 follows the same path alone and inside a larger ensemble
        law, start, run = ideal_setup(seed=21)
        (alone,) = run_ensemble([law], [start], IDEAL, n_traj=1, **run)
        every_record = SteadySampling(burn_in=0.0, stride=run["record_stride"] * IDEAL.dt)
        (many,) = run_ensemble([law], [start], IDEAL, n_traj=5, steady=every_record, **run)
        n_rec = len(alone.times)
        assert many.steady_bins.shape == (5, n_rec)
        yz = alone.mean_xyz[:, 1:]
        assert np.array_equal(many.steady_bins[0], bin_index(yz[:, 0], yz[:, 1], many.n_bins))
        # the sum of its samples, added in time order
        assert np.array_equal(many.steady_sums[0], np.cumsum(yz, axis=0)[-1])

    @staticmethod
    def _lossy_run(monkeypatch, block_steps, chunk_size=64):
        """300 trajectories of 100 lossy steps in chunks of ``chunk_size``,
        noise in blocks of ``block_steps``."""
        import qfb.engine as eng

        p = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            law, _ = design_nonideal(0.3 * math.pi, p)
        monkeypatch.setattr(eng, "CHUNK_SIZE", chunk_size)
        monkeypatch.setattr(eng, "BLOCK_STEPS", block_steps)
        (res,) = run_ensemble(
            [law], [BlochState.from_polar(0.1 * math.pi)], p, n_traj=300, total_time=0.2,
            record_stride=10, seed=9, steady=SteadySampling(burn_in=0.1, stride=0.02),
        )
        return res

    def test_chunk_schedule_does_not_change_bits(self, monkeypatch):
        import qfb.engine as eng

        # one noise block (re-keyed shared stream), then seven (a stream each)
        for block_steps in (eng.BLOCK_STEPS, 16):
            five = self._lossy_run(monkeypatch, block_steps, chunk_size=64)
            again = self._lossy_run(monkeypatch, block_steps, chunk_size=64)
            one = self._lossy_run(monkeypatch, block_steps, chunk_size=4096)
            for a, b in ((five, again), (five, one)):
                assert np.array_equal(a.steady_bins, b.steady_bins)
                assert np.array_equal(a.steady_sums, b.steady_sums)
                assert a.renorm_count == b.renorm_count
            assert np.array_equal(five.mean_xyz, again.mean_xyz)
            # five partial sums against one: the summation order alone differs
            assert np.abs(five.mean_xyz - one.mean_xyz).max() <= 1e-15

    def test_noise_block_size_does_not_change_bits(self, monkeypatch):
        import qfb.engine as eng

        one = self._lossy_run(monkeypatch, eng.BLOCK_STEPS)
        several = self._lossy_run(monkeypatch, 16)
        assert np.array_equal(one.mean_xyz, several.mean_xyz)
        assert np.array_equal(one.steady_bins, several.steady_bins)
        assert np.array_equal(one.steady_sums, several.steady_sums)
        assert one.renorm_count == several.renorm_count

    def test_one_block_run_builds_one_stream_per_chunk(self, monkeypatch):
        import qfb.engine as eng

        built = []
        philox = np.random.Philox

        def counting_philox(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting_philox)
        monkeypatch.setattr(eng, "CHUNK_SIZE", 16)
        law, start, run = ideal_setup(seed=3, total_time=0.1, stride=20)  # 200 steps
        run_ensemble([law], [start], IDEAL, n_traj=50, **run)
        assert len(built) == 4  # chunks of 16, 16, 16 and 2 trajectories
        monkeypatch.setattr(eng, "BLOCK_STEPS", 16)  # several blocks: one per trajectory
        built.clear()
        run_ensemble([law], [start], IDEAL, n_traj=50, **run)
        assert len(built) == 50

    @pytest.mark.parametrize("n_steps", [200, 800])  # one noise block; several
    def test_peak_memory_is_one_chunk(self, monkeypatch, n_steps):
        """Each chunk's noise buffer and streams are freed before the next chunk
        allocates, so three chunks peak no higher than one."""
        import tracemalloc

        import qfb.engine as eng

        monkeypatch.setattr(eng, "CHUNK_SIZE", 512)
        law, start, run = ideal_setup(total_time=n_steps * IDEAL.dt, stride=n_steps)
        peaks = []
        for n_traj in (512, 1536):
            tracemalloc.start()
            try:
                run_ensemble([law], [start], IDEAL, n_traj=n_traj, **run)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks

    def test_ensemble_mean_tracks_ode(self):
        law, start, run = ideal_setup(seed=7)
        (res,) = run_ensemble([law], [start], IDEAL, n_traj=2000, **run)
        ode = integrate_mean_ode(
            start, law, IDEAL, run["total_time"], IDEAL.dt / 10.0, record_stride=400
        )
        assert np.allclose(res.times, ode.times)
        assert np.abs(res.mean_xyz - ode.xyz).max() <= 0.02

    def test_qnd_mean_z_preserved_without_feedback(self):
        # feedback off, ideal params: mean z stays at z(0) within 5 SE
        p = ModelParams(tau_m=0.2, dt=0.002)
        z0 = 0.3
        y0 = math.sqrt(1 - z0 * z0)
        run = dict(total_time=2.0, record_stride=100, seed=33)
        n = 3000
        finals_z = final_states(n, FREE, BlochState(0.0, y0, z0), p, run)[:, 1]
        se = finals_z.std(ddof=1) / math.sqrt(n)
        assert abs(finals_z.mean() - z0) < 5 * se

    def test_standard_error_scales_inverse_sqrt_n(self):
        law, start, run = ideal_setup(seed=15, total_time=1.0, stride=2000)
        finals_y = final_states(4096, law, start, IDEAL, run)[:, 0]
        small = finals_y.reshape(64, 64).mean(axis=1)  # batches of 64
        big = finals_y.reshape(4, 1024).mean(axis=1)  # batches of 1024
        ratio = small.std(ddof=1) / big.std(ddof=1)
        assert 4.0 / 1.8 < ratio < 4.0 * 1.8  # ~sqrt(1024/64) = 4

    def test_steady_sampling_grid(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        sampling = SteadySampling(burn_in=10 * p.tau_m, stride=p.tau_m)
        idx = sampling.step_indices(2000, p.dt)
        assert idx[0] == 1000  # t = 10 tau_m
        assert np.all(np.diff(idx) == 100)
        assert idx[-1] <= 2000

    def test_steady_samples_pooled_per_trajectory(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        sampling = SteadySampling(burn_in=2.0, stride=0.2)
        (res,) = run_ensemble(
            [FREE], [POLE], p, n_traj=7, total_time=4.0, record_stride=200, seed=2,
            steady=sampling,
        )
        per = len(sampling.step_indices(2000, p.dt))
        assert res.steady_bins.shape == (7, per)
        assert res.steady_sums.shape == (7, 2)
        # pole start + no feedback: all steady samples are exactly (0, 1)
        assert np.all(res.steady_sums[:, 1] == per)
        assert np.all(res.steady_bins == bin_index(np.zeros(1), np.ones(1), res.n_bins))

    def test_each_law_shares_int32_bins_and_float64_sums(self, monkeypatch):
        """A sweep's steady buffers are, per law, 4 bytes per sample and 16 per
        trajectory: no sample crosses from the tasks to the caller."""
        import qfb.engine as eng

        made = []
        shared = eng._shared

        def recording(shape, dtype=np.float64):
            made.append((shape, np.dtype(dtype)))
            return shared(shape, dtype)

        monkeypatch.setattr(eng, "_shared", recording)
        laws, r_s = _lossy_laws()
        sampling = SteadySampling(burn_in=0.1, stride=0.02)
        summaries = steady_state(laws, [BlochState.from_polar(0.3 * math.pi, r_s)] * 3, LOSSY,
                                 n_traj=12, total_time=0.2, steady=sampling, seed=1)
        assert len(list(summaries)) == 3
        per = len(sampling.step_indices(100, LOSSY.dt))
        # one chunk's mean sums (two records) and renormalizations, then the laws'
        assert made == [
            ((1, 3, 2, 3), np.dtype(np.float64)), ((1, 3), np.dtype(np.int64)),
        ] + [((12, per), np.dtype(np.int32)), ((12, 2), np.dtype(np.float64))] * 3

    def test_burn_in_doubling_insensitive(self):
        # steady-state summaries do not depend on burn-in beyond 10 tau_m
        p = ModelParams(tau_m=0.2, dt=0.01, T1=60.0, T2=40.0, eta=0.41)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            law, r_s = design_nonideal(0.3 * math.pi, p)
        init = BlochState(0.0, r_s * math.sin(0.3 * math.pi), r_s * math.cos(0.3 * math.pi))
        means = []
        for burn in (2.0, 4.0):
            (res,) = run_ensemble(
                [law], [init], p, n_traj=800, total_time=26.0, record_stride=100, seed=6,
                steady=SteadySampling(burn_in=burn, stride=0.2),
            )
            my, mz = res.steady_sums.sum(axis=0) / res.steady_bins.size
            means.append((my, mz, math.hypot(my, mz)))
        assert means[0][2] == pytest.approx(means[1][2], abs=0.01)
        assert means[0][0] == pytest.approx(means[1][0], abs=0.01)
        assert means[0][1] == pytest.approx(means[1][1], abs=0.01)

    def test_renorms_counted_for_pure_states(self):
        law, start, run = ideal_setup(seed=4, total_time=0.2, stride=400)
        (res,) = run_ensemble([law], [start], IDEAL, n_traj=50, **run)
        assert res.renorm_count > 0  # float drift off the sphere is corrected

    def test_several_laws_give_each_law_its_own_run(self, monkeypatch):
        import qfb.engine as eng

        monkeypatch.setattr(eng, "CHUNK_SIZE", 16)
        base, _, run = ideal_setup(seed=4, total_time=0.2, stride=40)
        laws = [base, FeedbackLaw(base.delta0, base.delta1, Ts=0.002, Td=0.003),
                FeedbackLaw(0.0, 0.0, Td=0.001)]
        starts = [BlochState.from_polar(t * math.pi) for t in (0.1, 0.3, 0.5)]
        run.update(n_traj=40, steady=SteadySampling(burn_in=0.1, stride=0.02))
        batched = run_ensemble(laws, starts, IDEAL, **run)
        assert len(batched) == len(laws)
        for res, law, start in zip(batched, laws, starts):
            (alone,) = run_ensemble([law], [start], IDEAL, **run)
            assert np.array_equal(res.mean_xyz, alone.mean_xyz)
            assert np.array_equal(res.steady_bins, alone.steady_bins)
            assert np.array_equal(res.steady_sums, alone.steady_sums)
            assert res.renorm_count == alone.renorm_count > 0

    def test_one_initial_state_per_law(self):
        law, start, run = ideal_setup()
        with pytest.raises(ValueError, match="2 initial states for 3 laws"):
            run_ensemble([law] * 3, [start] * 2, IDEAL, n_traj=1, **run)

    def test_a_single_initial_state_is_refused_by_key(self):
        with pytest.raises(ValueError, match=r"^initials: .*one per law"):
            run_ensemble([FREE], POLE, IDEAL, n_traj=1, total_time=1.0)

    def test_no_laws_are_refused_before_any_worker_starts(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        for workers in (1, 2):
            with pytest.raises(ValueError, match="0 initial states for 0 laws"):
                run_ensemble([], [], IDEAL, n_traj=5, total_time=3.0, record_stride=300,
                             workers=workers)

    def test_a_law_that_drives_the_state_non_finite_is_refused(self):
        law, start, run = ideal_setup(total_time=0.1, stride=20)
        # the rotation angle dt * (delta0 + delta1 * r) overflows to inf
        huge = FeedbackLaw(0.0, 1e307)
        with pytest.raises(ValueError, match=r"delta0/delta1: .*delta1=1e\+307"):
            run_ensemble([law, huge], [start] * 2, IDEAL, n_traj=5, **run)

    def test_invalid_n_traj(self):
        law, start, run = ideal_setup()
        with pytest.raises(ValueError):
            run_ensemble([law], [start], IDEAL, n_traj=0, **run)

    def test_invalid_workers(self):
        law, start, run = ideal_setup()
        with pytest.raises(ValueError, match="workers"):
            run_ensemble([law], [start], IDEAL, n_traj=1, workers=0, **run)


@pytest.mark.parametrize("argument, call", [
    ("n_traj", dict(n_traj=0)),
    ("workers", dict(workers=0)),
    ("seed", dict(seed=-1)),
    ("initials", dict(initials=[BlochState(1.0, 1.0, 1.0)])),
    ("total_time", dict(total_time=1.00037)),
    ("record_stride", dict(record_stride=3)),
    ("stride", dict(steady=SteadySampling(burn_in=0.0, stride=1e-5))),
    ("burn_in", dict(steady=SteadySampling(burn_in=2.0, stride=0.1))),
    # a delay whose step count overflows an int, far beyond the run
    ("Td", dict(laws=[FeedbackLaw(0, 0, Td=1e308)], params=ModelParams(dt=0.0005),
                total_time=0.01)),
    # more steps than a float counts
    ("total_time", dict(params=ModelParams(tau_m=1e-290, dt=1e-300), total_time=0.2)),
    # a NaN fails every comparison, so the sphere test must not ask "> 1"
    ("initials", dict(initials=[BlochState(0.0, math.nan, 0.0)])),
    ("n_bins", dict(steady=SteadySampling(burn_in=0.0, stride=0.1, n_bins=1))),
    # a start off the yz-plane, where x would not stay 0
    ("initials", dict(initials=[BlochState(0.6, 0.0, 0.8)])),
])
def test_each_refusal_names_its_argument_before_any_task(argument, call, monkeypatch):
    def no_task(*task):
        raise AssertionError("a task ran")

    monkeypatch.setattr("qfb.engine._run_chunk", no_task)
    run = dict(laws=[FREE], initials=[POLE], params=IDEAL, n_traj=1, total_time=1.0)
    with pytest.raises(ValueError, match=f"^{argument}: "):
        run_ensemble(**{**run, **call})


_RUN = dict(n_traj=1, total_time=1.0)


def _binned(n_bins):
    return dict(_RUN, steady=SteadySampling(burn_in=0.0, stride=0.1, n_bins=n_bins))


@pytest.mark.parametrize("prefix, call, start_methods", [
    ("tau_m: must be positive and finite", lambda: ModelParams(tau_m=math.inf), None),
    ("dt: must be positive and finite", lambda: ModelParams(dt=math.inf), None),
    ("dt: ", lambda: ModelParams(dt=math.nan), None),
    ("delta0: must be finite", lambda: FeedbackLaw(math.nan, 0.0), None),
    ("Ts: must be finite", lambda: FeedbackLaw(0.0, 0.0, Ts=math.inf), None),
    ("tau_m: ", lambda: design_ideal(0.3, 0.0), None),
    ("tau_m: ", lambda: design_ideal(0.3, math.nan), None),
    ("theta: ", lambda: max_radius(0.0, IDEAL), None),
    ("theta_s: must be finite", lambda: design_nonideal(math.nan, IDEAL), None),
    ("workers: ", lambda: run_ensemble([FREE], [POLE], IDEAL, workers=65, **_RUN), None),
    ("workers: ", lambda: run_ensemble([FREE], [POLE], IDEAL, workers=2, **_RUN), ["spawn"]),
    ("n_bins: ", lambda: steady_state([FREE], [POLE], IDEAL, **_binned(1)), None),
    ("n_bins: ", lambda: steady_state([FREE], [POLE], IDEAL, **_binned(1001)), None),
], ids=["tau_m=inf", "dt=inf", "dt=nan", "delta0=nan", "Ts=inf",
        "ideal tau_m=0", "ideal tau_m=nan", "radius at a pole", "nan target", "workers=65", "workers without fork",
        "n_bins=1", "n_bins=1001"])
def test_each_owner_refusal_names_its_argument(prefix, call, start_methods, monkeypatch):
    """The model, the law, the design and both runners open each refusal
    with the argument at fault; the runners refuse before any task runs."""
    import multiprocessing

    def no_task(*task):
        raise AssertionError("a task ran")

    monkeypatch.setattr("qfb.engine._run_chunk", no_task)
    if start_methods is not None:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: start_methods)
    with pytest.raises(ValueError, match=f"^{prefix}"):
        call()


LOSSY = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)


def _lossy_laws():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        law, r_s = design_nonideal(0.3 * math.pi, LOSSY)
    return [law, FeedbackLaw(law.delta0, law.delta1, Ts=0.004),
            FeedbackLaw(law.delta0, law.delta1, Td=0.006)], r_s


@pytest.mark.parametrize("chain", ["markovian", "filter", "delay", "mixed"])
def test_step_allocates_no_array_per_step(chain):
    """The step updates its batch in place: after a warm-up step, 20 steps of
    three lossy laws at batch 4096, with no filter or delay, a filter, a
    delay, or one law of each kind, allocate less, at their peak, than one
    (3, 4096) array."""
    import tracemalloc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        laws = [design_nonideal(a * math.pi, LOSSY)[0] for a in (0.2, 0.3, 0.5)]
    kinds = {
        "markovian": [{}] * 3,
        "filter": [dict(Ts=0.004)] * 3,
        "delay": [dict(Td=0.006)] * 3,
        "mixed": [{}, dict(Ts=0.004), dict(Ts=0.004, Td=0.006)],
    }[chain]
    laws = [replace(law, **kind) for law, kind in zip(laws, kinds)]
    stepper = BayesStepper(LOSSY, laws, [BlochState.from_polar(0.1 * math.pi)] * 3, 4096)
    noise = trajectory_rng(1, 0).standard_normal((21, 4096))
    stepper.step(noise[0])
    tracemalloc.start()
    try:
        for n01 in noise[1:]:
            stepper.step(n01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.empty((3, 4096)).nbytes, peak


class TestWorkers:
    """The tasks (trajectory ranges) write the same bits for any worker count."""

    @staticmethod
    def _runs(monkeypatch, n_traj, params, laws, initials, block_steps, chunk_size=16,
              workers=(1, 3)):
        """One run per worker count; returns the runs and each run's task ranges."""
        import multiprocessing

        import qfb.engine as eng

        monkeypatch.setattr(eng, "CHUNK_SIZE", chunk_size)
        monkeypatch.setattr(eng, "BLOCK_STEPS", block_steps)
        ranges = []
        task_ranges = eng._task_ranges

        def recording(chunks, n):
            ranges.append(task_ranges(chunks, n))
            return ranges[-1]

        monkeypatch.setattr(eng, "_task_ranges", recording)
        sampling = SteadySampling(burn_in=0.1, stride=0.02)
        runs = [
            run_ensemble(laws, initials, params, n_traj=n_traj, total_time=0.2,
                         record_stride=10, seed=9, steady=sampling, workers=n)
            for n in workers
        ]
        assert multiprocessing.active_children() == []
        return runs, ranges

    @staticmethod
    def _assert_same(one, three):
        assert np.array_equal(one.mean_xyz, three.mean_xyz)
        assert np.array_equal(one.steady_bins, three.steady_bins)
        assert np.array_equal(one.steady_sums, three.steady_sums)
        assert one.renorm_count == three.renorm_count

    @pytest.mark.parametrize("block_steps", [512, 16])  # one noise block; several
    def test_one_law_over_several_chunks(self, monkeypatch, block_steps):
        laws, _ = _lossy_laws()
        start = BlochState.from_polar(0.1 * math.pi)
        # four chunks of 16, 16, 16 and 2 trajectories on three workers
        ((one,), (three,)), _ = self._runs(monkeypatch, 50, LOSSY, laws[:1], (start,),
                                           block_steps)
        self._assert_same(one, three)

    @pytest.mark.parametrize("block_steps", [512, 16])
    def test_points_share_each_cut_of_one_chunk(self, monkeypatch, block_steps):
        laws, r_s = _lossy_laws()
        start = BlochState.from_polar(0.3 * math.pi, r_s)
        # one chunk of 300 trajectories at three points, cut at numpy's
        # pairwise split into 144 + 156, then 72 + 72 + 156, and then the
        # right half too, whose sum the left half's must not absorb
        runs, ranges = self._runs(monkeypatch, 300, LOSSY, laws, (start,) * 3, block_steps,
                                  chunk_size=512, workers=(1, 2, 3, 4))
        assert ranges == [[(0, 300)], [(0, 144), (144, 300)],
                          [(0, 72), (72, 144), (144, 300)],
                          [(0, 72), (72, 144), (144, 216), (216, 300)]]
        for one, *more in zip(*runs):
            for other in more:
                self._assert_same(one, other)

    def test_a_short_last_chunk_is_cut(self, monkeypatch):
        laws, _ = _lossy_laws()
        start = BlochState.from_polar(0.1 * math.pi)
        # chunks of 512, 512 and 300: at two workers the last one is halved
        runs, ranges = self._runs(monkeypatch, 1324, LOSSY, laws[2:], (start,), 512,
                                  chunk_size=512, workers=(1, 2, 3))
        assert ranges == [
            [(0, 512), (512, 1024), (1024, 1324)],
            [(0, 512), (512, 1024), (1024, 1168), (1168, 1324)],
            [(0, 512), (512, 1024), (1024, 1324)],
        ]
        (one,), *more = runs
        for (other,) in more:
            self._assert_same(one, other)

    def test_lossless_renormalizing_run(self, monkeypatch):
        law = design_ideal(0.3 * math.pi, 0.2)
        laws = [law, FeedbackLaw(law.delta0, law.delta1, Ts=0.004)]
        start = BlochState.from_polar(0.1 * math.pi)
        # two chunks of 16 and 4 trajectories at two points on three workers
        (one, three), _ = self._runs(monkeypatch, 20, ModelParams(tau_m=0.2, dt=0.002), laws,
                                     (start,) * 2, 512)
        for a, b in zip(one, three):
            self._assert_same(a, b)
            assert a.renorm_count > 0


def test_tasks_cut_chunks_only_to_keep_every_worker_busy():
    """A chunk is cut, at numpy's pairwise split, only while the task count
    is not a multiple of the worker count, smallest cuttable range first."""
    from qfb.engine import CHUNK_SIZE, _task_ranges

    def chunks(n_traj):
        return [(lo, min(lo + CHUNK_SIZE, n_traj)) for lo in range(0, n_traj, CHUNK_SIZE)]

    fig4 = chunks(10_000)  # 4096, 4096 and 1808 trajectories
    assert _task_ranges(fig4, 1) == _task_ranges(fig4, 3) == fig4
    assert _task_ranges(fig4, 2) == fig4[:2] + [(8192, 9096), (9096, 10_000)]
    assert _task_ranges(chunks(1250), 2) == [(0, 624), (624, 1250)]
    assert _task_ranges(chunks(1250), 3) == [(0, 312), (312, 624), (624, 1250)]
    # ranges of at most 128 trajectories are summed unsplit: never cut
    assert _task_ranges(chunks(128), 2) == [(0, 128)]
    assert _task_ranges(chunks(200), 4) == [(0, 96), (96, 200)]


@pytest.mark.parametrize("copy", [False, True], ids=["view", "contiguous"])
def test_numpy_sums_a_row_as_its_two_halves(copy):
    """Every chunk's sum rebuilt from its tasks' has the bits of one task
    over the chunk only while numpy sums a (P, n) array along axis 1 as
    the sum of its halves split at ``_pairwise_split``."""
    from qfb.engine import CHUNK_SIZE, PAIRWISE_BLOCK, _pairwise_split

    rng = np.random.default_rng(27)
    # mixed magnitudes, so that a different order of additions rounds differently
    a = rng.standard_normal((3, CHUNK_SIZE)) * np.exp(rng.uniform(-20, 20, (3, CHUNK_SIZE)))
    for n in range(PAIRWISE_BLOCK + 1, CHUNK_SIZE + 1):
        m = _pairwise_split(n)
        whole, left, right = a[:, :n], a[:, :m], a[:, m:n]
        if copy:
            whole, left, right = whole.copy(), left.copy(), right.copy()
        assert np.array_equal(whole.sum(axis=1), left.sum(axis=1) + right.sum(axis=1)), n


_CHAINS = pytest.mark.parametrize(
    "chain", [{}, dict(Ts=0.02), dict(Td=0.01)], ids=["plain", "filter", "delay"]
)


def _symmetry_case(chain):
    """The lossy 0.3 pi design with ``chain``, its target state, and a
    300-trajectory, 2 us run that samples from 1 us on."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        law, r_s = design_nonideal(0.3 * math.pi, LOSSY)
    run = dict(n_traj=300, total_time=2.0, record_stride=10, seed=3)
    return replace(law, **chain), BlochState.from_polar(0.3 * math.pi, r_s), run


@_CHAINS
def test_the_y_mirror_is_exact(chain):
    """The laws (-delta0, -delta1) from (0, -y, z), on the same noise as
    (delta0, delta1) from (0, y, z), give exactly -y, the same z and the
    same renormalizations: the model is symmetric under y -> -y."""
    law, start, run = _symmetry_case(chain)
    mirror = replace(law, delta0=-law.delta0, delta1=-law.delta1)
    res, mir = run_ensemble([law, mirror], [start, replace(start, y=-start.y)], LOSSY,
                            steady=SteadySampling(1.0, 0.2), **run)
    assert np.array_equal(mir.mean_xyz * [1, -1, 1], res.mean_xyz)
    assert np.array_equal(mir.steady_sums * [-1, 1], res.steady_sums)
    assert mir.renorm_count == res.renorm_count


@_CHAINS
def test_doubling_every_time_and_halving_every_rate_is_exact(chain):
    """tau_m, dt, T1, T2, Ts, Td and the run's times doubled, delta0 and
    delta1 halved: every step is the same map, so a run depends on its
    times only through their ratios to tau_m."""
    law, start, run = _symmetry_case(chain)
    slow = replace(LOSSY, tau_m=2 * LOSSY.tau_m, dt=2 * LOSSY.dt, T1=2 * LOSSY.T1,
                   T2=2 * LOSSY.T2)
    slow_law = FeedbackLaw(law.delta0 / 2, law.delta1 / 2, Ts=2 * law.Ts, Td=2 * law.Td)
    (res,) = run_ensemble([law], [start], LOSSY, steady=SteadySampling(1.0, 0.2), **run)
    (doubled,) = run_ensemble([slow_law], [start], slow, steady=SteadySampling(2.0, 0.4),
                              **dict(run, total_time=2 * run["total_time"]))
    assert np.array_equal(doubled.times, 2 * res.times)
    assert np.array_equal(doubled.mean_xyz, res.mean_xyz)
    assert np.array_equal(doubled.steady_bins, res.steady_bins)
    assert np.array_equal(doubled.steady_sums, res.steady_sums)
    assert doubled.renorm_count == res.renorm_count
