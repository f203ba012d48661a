"""Closed-form design, stationary states, disturbance optimum, mean-field models."""

import math
import warnings

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
)
from qfb.design import POLE_MARGIN
from qfb.engine import MAX_BINS, bin_centers
from oracle import (
    TargetSpec,
    disturbance,
    integrate_mean_ode,
    integrate_sme_trajectory,
    minimize_golden,
    optimal_delta1,
    run_sme_ensemble,
    stationary_delta1_roots,
    stationary_state,
)

NONIDEAL = ModelParams(tau_m=0.2, dt=0.0005, T1=60.0, T2=40.0, eta=0.41)
IDEAL = ModelParams(tau_m=0.2, dt=0.0005)


class TestDesignIdeal:
    def test_equator(self):
        law = design_ideal(math.pi / 2, 0.2)
        assert law.delta0 == pytest.approx(0.0, abs=1e-15)
        assert law.delta1 == pytest.approx(5.0, rel=1e-14)

    def test_pole_warns_and_vanishes(self):
        with pytest.warns(UserWarning):
            law = design_ideal(0.0, 0.2)
        assert law.delta0 == 0.0 and law.delta1 == 0.0

    def test_three_tenths_pi_frozen(self):
        # mpmath (50 digits): -sin(0.6 pi)/0.8 and sin(0.3 pi)/0.2
        law = design_ideal(0.3 * math.pi, 0.2)
        assert law.delta0 == pytest.approx(-1.1888206453689420, rel=1e-14)
        assert law.delta1 == pytest.approx(4.0450849718747371, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            design_ideal(0.3, -0.2)
        with pytest.raises(ValueError):
            design_ideal(-0.1, 0.2)


class TestMaxRadius:
    def test_fig1_caption_value(self):
        # 1/sqrt(1/0.41 + 0.4/40) = 0.639003... ~ 0.64
        p = ModelParams(tau_m=0.2, dt=0.0005, T2=40.0, eta=0.41)
        for theta in (0.1 * math.pi, 0.5 * math.pi, 0.77 * math.pi):
            assert max_radius(theta, p) == pytest.approx(0.63900380590241646, rel=1e-12)
        assert max_radius(0.5 * math.pi, p) == pytest.approx(0.64, abs=0.005)

    def test_ideal_limit_is_unity(self):
        assert max_radius(0.3, IDEAL) == pytest.approx(1.0, rel=1e-12)
        assert max_radius(2.8, IDEAL) == pytest.approx(1.0, rel=1e-12)

    def test_equator_with_finite_t1_frozen(self):
        # 1/sqrt(2 tau_m Gamma), Gamma = 1/120 + 1/40 + 1/0.164 (mpmath)
        assert max_radius(math.pi / 2, NONIDEAL) == pytest.approx(
            0.63856937968560582, rel=1e-12
        )

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            max_radius(0.0, NONIDEAL)
        with pytest.raises(ValueError):
            max_radius(math.pi, NONIDEAL)

    def test_t1_window_scan(self):
        # T1 corrections matter only within ~arcsin(sqrt(2 tau_m/T1)) of a pole
        d_th = math.asin(math.sqrt(2 * NONIDEAL.tau_m / NONIDEAL.T1))
        mid = max_radius(math.pi / 2, NONIDEAL)
        for theta in np.linspace(3 * d_th, math.pi - 3 * d_th, 41):
            assert abs(max_radius(theta, NONIDEAL) - mid) < 0.05
        # excited pole compromised, ground pole enhanced
        assert max_radius(0.5 * d_th, NONIDEAL) < mid - 0.15
        assert max_radius(math.pi - 0.5 * d_th, NONIDEAL) > mid + 0.15


class TestDesignNonideal:
    def test_reduces_to_ideal_in_ideal_limit(self):
        p = ModelParams(tau_m=0.2, dt=0.0005, eta=1.0 - 1e-9)
        theta = 0.37 * math.pi
        law, r_s = design_nonideal(theta, p)
        ref = design_ideal(theta, 0.2)
        assert r_s == pytest.approx(1.0, abs=1e-9)
        assert law.delta0 == pytest.approx(ref.delta0, rel=1e-8)
        assert law.delta1 == pytest.approx(ref.delta1, rel=1e-8)

    def test_t1inf_frozen_values(self):
        # mpmath: delta1 = sin(0.3 pi)/(R tau_m), R = 0.639003805902416
        p = ModelParams(tau_m=0.2, dt=0.0005, T2=40.0, eta=0.41)
        law, r_s = design_nonideal(0.3 * math.pi, p)
        assert r_s == pytest.approx(0.63900380590241646, rel=1e-12)
        assert law.delta1 == pytest.approx(6.3302987157676962, rel=1e-12)
        assert law.delta0 == pytest.approx(-2.9114507561340357, rel=1e-12)

    def test_closed_form_t1inf_identity(self):
        # delta0 = -(sin 2th/4tau)(1/eta + 2tau/T2); delta1 = (sin th/tau) sqrt(...)
        p = ModelParams(tau_m=0.2, dt=0.0005, T2=40.0, eta=0.41)
        for theta in np.linspace(0.05 * math.pi, 0.95 * math.pi, 19):
            law, _ = design_nonideal(theta, p)
            scale = 1.0 / p.eta + 2.0 * p.tau_m / p.T2
            assert law.delta0 == pytest.approx(
                -(math.sin(2 * theta) / (4 * p.tau_m)) * scale, rel=1e-10, abs=1e-10
            )
            assert law.delta1 == pytest.approx(
                (math.sin(theta) / p.tau_m) * math.sqrt(scale), rel=1e-10
            )

    def test_pole_margin_rejected(self):
        with pytest.raises(ValueError):
            design_nonideal(0.5 * POLE_MARGIN, NONIDEAL)
        with pytest.raises(ValueError):
            design_nonideal(math.pi - 0.5 * POLE_MARGIN, NONIDEAL)

    def test_fig1_dashed_curves_scale_with_rmax(self):
        # nonideal curves are the ideal ones scaled by 1/R^2 (delta0) and 1/R (delta1)
        p = ModelParams(tau_m=0.2, dt=0.0005, T2=40.0, eta=0.41)
        r = 0.63900380590241646
        for theta in np.linspace(0.1 * math.pi, 0.9 * math.pi, 9):
            law, _ = design_nonideal(theta, p)
            ref = design_ideal(theta, 0.2)
            assert law.delta0 == pytest.approx(ref.delta0 / r**2, rel=1e-10, abs=1e-12)
            assert law.delta1 == pytest.approx(ref.delta1 / r, rel=1e-10)


class TestStationaryState:
    def test_round_trip_many_angles(self):
        # design -> stationary returns (theta_s, R_max) to 1e-10
        for theta in np.linspace(0.02 * math.pi, 0.98 * math.pi, 100):
            law, r_s = design_nonideal(theta, NONIDEAL)
            st = stationary_state(law, NONIDEAL)
            assert st.theta == pytest.approx(theta, abs=1e-10)
            assert st.radius == pytest.approx(r_s, abs=1e-10)

    def test_ideal_law_gives_pure_target(self):
        for theta in (0.2 * math.pi, 0.5 * math.pi, 0.71 * math.pi):
            law = design_ideal(theta, 0.2)
            st = stationary_state(law, IDEAL)
            assert st.y == pytest.approx(math.sin(theta), rel=1e-12)
            assert st.z == pytest.approx(math.cos(theta), rel=1e-12, abs=1e-12)

    def test_no_feedback_decay_dominated_fixed_point(self):
        # delta1 = 0, delta0 != 0, finite T1:
        # y_s = -d0/(T1 D), z_s = -Gamma/(T1 D), D = d0^2 + Gamma/T1  (hand-derived)
        p = NONIDEAL
        d0 = 1.3
        law = FeedbackLaw(d0, 0.0)
        st = stationary_state(law, p)
        g = p.gamma_total
        det = d0**2 + g / p.T1
        assert st.y == pytest.approx(-d0 / (p.T1 * det), rel=1e-12)
        assert st.z == pytest.approx(-g / (p.T1 * det), rel=1e-12)
        assert st.z < 0.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            stationary_state(FeedbackLaw(0.0, 0.0), IDEAL)


class TestDelta1Roots:
    def test_discriminant_vanishes_at_max_radius(self):
        p = NONIDEAL
        for theta in np.linspace(0.05 * math.pi, 0.95 * math.pi, 25):
            r_max = max_radius(theta, p)
            y_s = r_max * math.sin(theta)
            z_s = r_max * math.cos(theta)
            disc = 1.0 - 2.0 * p.tau_m * r_max**2 * (
                p.gamma_total + (1.0 + z_s) * z_s / (p.T1 * y_s * y_s)
            )
            assert abs(disc) < 1e-10
            hi, lo = stationary_delta1_roots(TargetSpec(theta, r_max), p)
            assert hi == pytest.approx(lo, abs=1e-4)  # sqrt amplifies the residual
            assert hi == pytest.approx(
                math.sin(theta) / (r_max * p.tau_m), rel=1e-7
            )

    def test_roots_bracket_optimum_below_max_radius(self):
        theta = 0.3 * math.pi
        r = 0.5
        hi, lo = stationary_delta1_roots(TargetSpec(theta, r), NONIDEAL)
        center = optimal_delta1(TargetSpec(theta, r), NONIDEAL.tau_m)
        assert lo < center < hi
        assert hi - center == pytest.approx(center - lo, rel=1e-10)
        # both roots really are stationary laws for radius r at angle theta
        for d1 in (hi, lo):
            y_s, z_s = r * math.sin(theta), r * math.cos(theta)
            d0 = (
                -0.5 * NONIDEAL.tau_m * d1 * d1 * (z_s / y_s)
                - (1.0 + z_s) / (NONIDEAL.T1 * y_s)
            )
            st = stationary_state(FeedbackLaw(d0, d1), NONIDEAL)
            assert st.radius == pytest.approx(r, abs=1e-10)
            assert st.theta == pytest.approx(theta, abs=1e-10)

    def test_unreachable_radius_rejected(self):
        with pytest.raises(ValueError):
            stationary_delta1_roots(TargetSpec(0.3 * math.pi, 0.9), NONIDEAL)


class TestDisturbance:
    def test_pure_target_vanishes_at_ideal_gain(self):
        t = TargetSpec(0.3 * math.pi, 1.0)
        rep = disturbance(t, t.y_s / 0.2, 0.2)
        assert rep.delta_y == pytest.approx(0.0, abs=1e-15)
        assert rep.delta_z == pytest.approx(0.0, abs=1e-15)
        assert rep.cost == pytest.approx(0.0, abs=1e-30)

    def test_mixed_target_leaves_z_disturbance(self):
        t = TargetSpec(0.3 * math.pi, 0.64)
        rep = disturbance(t, t.y_s / 0.2, 0.2)
        assert rep.delta_y == pytest.approx(0.0, abs=1e-15)
        assert rep.delta_z == pytest.approx(1.0 - 0.64**2, rel=1e-12)

    def test_optimum_matches_numerical_minimizer(self):
        # bracketing search to localize, then one exact parabolic-vertex step
        # (the cost is quadratic in the gain, so the vertex fit is the
        # appropriate machine-precision numerical minimizer)
        rng = np.random.default_rng(21)
        for _ in range(25):
            t = TargetSpec(rng.uniform(0.05, 0.95) * math.pi, rng.uniform(0.2, 1.0))
            cost = lambda d1: disturbance(t, d1, 0.2).cost
            closed = optimal_delta1(t, 0.2)
            x_min = minimize_golden(cost, closed - 2.0, closed + 2.0)
            assert x_min == pytest.approx(closed, rel=1e-4)
            a = x_min - 1.0
            fa, fb, fc = cost(a), cost(a + 1.0), cost(a + 2.0)
            denom = fa - 2.0 * fb + fc
            assert denom > 0.0  # convex: a minimum, not a maximum
            vertex = a + 1.0 + 0.5 * (fa - fc) / denom
            assert vertex == pytest.approx(closed, rel=1e-8)


class TestMeanOde:
    def test_converges_to_stationary_point(self):
        law, r_s = design_nonideal(0.3 * math.pi, NONIDEAL)
        st = stationary_state(law, NONIDEAL)
        rec = integrate_mean_ode(
            BlochState.from_polar(0.1 * math.pi), law, NONIDEAL, 4.0, 0.0005
        )
        final = rec.xyz[-1]
        resid = math.hypot(final[1] - st.y, final[2] - st.z)
        assert resid < 1e-8

    def test_order_four_convergence(self):
        law = design_ideal(0.3 * math.pi, 0.2)
        init = BlochState.from_polar(0.1 * math.pi)
        a = integrate_mean_ode(init, law, IDEAL, 2.0, 0.0005, record_stride=4000)
        b = integrate_mean_ode(init, law, IDEAL, 2.0, 0.00025, record_stride=8000)
        assert np.abs(a.xyz - b.xyz).max() < 1e-9

    def test_x_decays_at_gamma(self):
        law = FeedbackLaw(0.0, 0.0)
        init = BlochState(0.5, 0.0, 0.0)
        rec = integrate_mean_ode(init, law, NONIDEAL, 0.5, 0.0001)
        expected = 0.5 * math.exp(-NONIDEAL.gamma_total * 0.5)
        assert rec.xyz[-1][0] == pytest.approx(expected, rel=1e-10)

    def test_grid_validation(self):
        law = design_ideal(0.3 * math.pi, 0.2)
        with pytest.raises(ValueError):
            integrate_mean_ode(BlochState(0, 0, 1), law, IDEAL, 1.0, 0.0003)


class TestSmeModel:
    def test_markovian_only(self):
        law = FeedbackLaw(-1.0, 4.0, Ts=0.1)
        with pytest.raises(ValueError):
            integrate_sme_trajectory(law, BlochState(0, 0, 1), IDEAL, total_time=1.0, seed=1)

    def test_frozen_noise_reproduces_mean_ode(self):
        p = ModelParams(tau_m=0.2, dt=0.0002, T1=60.0, T2=40.0, eta=0.41)
        law, _ = design_nonideal(0.3 * math.pi, p)
        init = BlochState.from_polar(0.1 * math.pi)
        em = integrate_sme_trajectory(
            law, init, p, total_time=2.0, seed=4, record_stride=100, noise_scale=0.0
        )
        ode = integrate_mean_ode(init, law, p, 2.0, p.dt / 10.0, record_stride=1000)
        assert np.allclose(em.times, ode.times)
        # Euler is order 1: agreement at O(dt)
        assert np.abs(em.xyz - ode.xyz).max() < 5e-3

    def test_ensemble_mean_matches_ode(self):
        p = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)
        law, r_s = design_nonideal(0.3 * math.pi, p)
        init = BlochState.from_polar(0.1 * math.pi)
        res = run_sme_ensemble(law, init, p, n_traj=4000, total_time=2.0, record_stride=100,
                               seed=17)
        ode = integrate_mean_ode(init, law, p, 2.0, p.dt / 10.0, record_stride=1000)
        assert np.abs(res.mean_xyz - ode.xyz).max() < 0.03

    def test_excursions_flagged_not_corrected(self):
        """Near-equator target at coarse dt: Euler steps overshoot the sphere
        during the 20-step transient.  In separate runs of 10^5 trajectories,
        27% overshot R = 1.05 within those steps, so all 64 miss with
        probability 0.73^64 ~ 2e-9, and none went non-finite, which the
        engine would refuse (0.13% do within 100 steps)."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = ModelParams(tau_m=0.2, dt=0.01)
        law = design_ideal(0.45 * math.pi, 0.2)
        init = BlochState.from_polar(0.1 * math.pi)
        every_step = SteadySampling(burn_in=0.0, stride=p.dt, n_bins=MAX_BINS)
        res = run_sme_ensemble(law, init, p, n_traj=64, total_time=0.2, seed=12,
                               steady=every_step)
        assert res.excursion_count >= 1  # beyond 1.05 is flagged
        # not renormalized: a kept state lies well outside the sphere (a bin
        # centre is within 0.0015 of its samples)
        centres = bin_centers(MAX_BINS)
        iy, iz = np.divmod(res.steady_bins, MAX_BINS)
        assert np.hypot(centres[iy], centres[iz]).max() > 1.04
