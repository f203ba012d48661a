"""Single-step physics: readout statistics, backaction, rotation, dissipation."""

import math
import warnings

import numpy as np
import pytest

from oracle import (
    ReadoutSample,
    composite_step,
    dissipation_step,
    feedback_rotation,
    measurement_backaction,
    polar_angle,
    radius,
    sample_readout,
)
from qfb import BlochState, FeedbackLaw, ModelParams, design_ideal

IDEAL = ModelParams(tau_m=0.2, dt=0.002)


def bloch_from_rho(rho: np.ndarray) -> tuple[float, float, float]:
    """Bloch coordinates of a 2x2 density matrix in the (excited, ground) basis."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return tuple(float(np.trace(s @ rho).real) for s in (sx, sy, sz))


def rho_from_bloch(x: float, y: float, z: float) -> np.ndarray:
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return 0.5 * (np.eye(2) + x * sx + y * sy + z * sz)


def matrix_backaction(x, y, z, r_bar, dt, tau_m):
    """Independent oracle: conjugate rho by the diagonal measurement operator."""
    a = r_bar * dt / (2.0 * tau_m)
    m = np.diag([math.exp(a), math.exp(-a)]).astype(complex)  # (excited, ground)
    rho = rho_from_bloch(x, y, z)
    out = m @ rho @ m.conj().T
    out /= np.trace(out).real
    return bloch_from_rho(out)


class TestBlochState:
    def test_polar_round_trip(self):
        s = BlochState.from_polar(0.3 * math.pi, 0.64)
        assert s.x == 0.0
        assert radius(s) == pytest.approx(0.64, abs=1e-15)
        assert polar_angle(s) == pytest.approx(0.3 * math.pi, abs=1e-15)

    def test_outside_sphere_rejected(self):
        with pytest.raises(ValueError):
            BlochState(0.0, 0.8, 0.8).require_physical()


class TestModelParams:
    def test_derived_rates(self):
        p = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)
        assert p.gamma_ineff == pytest.approx((1 - 0.41) / (2 * 0.2 * 0.41), rel=1e-12)
        assert p.gamma_total == pytest.approx(
            1 / 120 + 1 / 40 + 1 / (2 * 0.2 * 0.41), rel=1e-12
        )

    def test_ideal_limits(self):
        p = IDEAL
        assert p.gamma_ineff == 0.0
        assert p.transverse_decay == 1.0
        assert p.t1_decay == 1.0

    def test_dt_rejected_above_half_tau(self):
        with pytest.raises(ValueError):
            ModelParams(tau_m=0.2, dt=0.11)

    def test_dt_warns_above_tenth_tau(self):
        with pytest.warns(UserWarning):
            ModelParams(tau_m=0.2, dt=0.03)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            ModelParams(tau_m=-1.0, dt=0.001)
        with pytest.raises(ValueError):
            ModelParams(tau_m=0.2, dt=0.001, eta=0.0)
        with pytest.raises(ValueError):
            ModelParams(tau_m=0.2, dt=0.001, T1=0.0)


class TestSampleReadout:
    def test_mean_at_z_with_zero_draw(self):
        # fixed normal draw 0 -> r_bar equals z exactly
        class ZeroRng:
            def standard_normal(self):
                return 0.0

        p = ModelParams(tau_m=0.2, dt=0.002)
        r = sample_readout(BlochState(0, 0, 0), p, ZeroRng())
        assert r.r_bar == 0.0

    def test_linear_transform_of_unit_draw(self):
        class OneRng:
            def standard_normal(self):
                return 1.0

        p = ModelParams(tau_m=0.2, dt=0.002)  # tau_m/dt = 100
        r = sample_readout(BlochState(0, 0, 1), p, OneRng())
        assert r.r_bar == pytest.approx(1.0 + 10.0, rel=1e-12)

    def test_moments_over_1e6_draws(self):
        # z=0.5, tau_m/dt = 400: mean 0.5 +- 0.06, variance 400 +- 2
        p = ModelParams(tau_m=0.2, dt=0.0005)
        rng = np.random.default_rng(1234)
        state = BlochState(0.0, math.sqrt(1 - 0.25), 0.5)
        draws = state.z + p.readout_sigma * rng.standard_normal(10**6)
        assert abs(draws.mean() - 0.5) < 0.06
        assert abs(draws.var() - 400.0) < 2.0

    def test_mean_variance_within_five_standard_errors(self):
        p = ModelParams(tau_m=0.2, dt=0.0005)
        rng = np.random.default_rng(7)
        z = -0.3
        n = 10**6
        draws = z + p.readout_sigma * rng.standard_normal(n)
        var = p.tau_m / p.dt
        se_mean = math.sqrt(var / n)
        se_var = var * math.sqrt(2.0 / (n - 1))
        assert abs(draws.mean() - z) < 5 * se_mean
        assert abs(draws.var() - var) < 5 * se_var


class TestMeasurementBackaction:
    def test_mixed_state_pulled_to_tanh(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        s = 0.37
        r = ReadoutSample(s * p.tau_m / p.dt)
        out = measurement_backaction(BlochState(0, 0, 0), r, p)
        assert out.z == pytest.approx(math.tanh(s), rel=1e-12)
        assert out.x == 0.0 and out.y == 0.0

    @pytest.mark.parametrize("r_bar", [-40.0, -1.0, 0.0, 2.5, 60.0])
    @pytest.mark.parametrize("pole", [1.0, -1.0])
    def test_poles_are_fixed_points(self, r_bar, pole):
        p = ModelParams(tau_m=0.2, dt=0.002)
        out = measurement_backaction(BlochState(0, 0, pole), ReadoutSample(r_bar), p)
        assert out.z == pytest.approx(pole, abs=1e-14)
        assert out.x == 0.0 and out.y == 0.0

    def test_against_matrix_oracle_single(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        r_bar = 0.01 * p.tau_m / p.dt  # s = 0.01
        out = measurement_backaction(BlochState(0.0, 0.6, 0.8), ReadoutSample(r_bar), p)
        ox, oy, oz = matrix_backaction(0.0, 0.6, 0.8, r_bar, p.dt, p.tau_m)
        assert out.x == pytest.approx(ox, abs=1e-12)
        assert out.y == pytest.approx(oy, abs=1e-12)
        assert out.z == pytest.approx(oz, abs=1e-12)

    def test_against_matrix_oracle_1000_random(self):
        # 1e-10 componentwise over random states and readouts
        rng = np.random.default_rng(2718)
        for _ in range(1000):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            x, y, z = v
            dt_over_tau = rng.uniform(1e-4, 0.1)
            p = ModelParams(tau_m=0.2, dt=0.2 * dt_over_tau)
            r_bar = z + p.readout_sigma * rng.standard_normal()
            out = measurement_backaction(BlochState(x, y, z), ReadoutSample(r_bar), p)
            ox, oy, oz = matrix_backaction(x, y, z, r_bar, p.dt, p.tau_m)
            assert abs(out.x - ox) < 1e-10
            assert abs(out.y - oy) < 1e-10
            assert abs(out.z - oz) < 1e-10

    def test_norm_never_grows_above_one(self):
        rng = np.random.default_rng(5)
        p = ModelParams(tau_m=0.2, dt=0.002)
        for _ in range(200):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            r = ReadoutSample(rng.normal(scale=p.readout_sigma))
            out = measurement_backaction(BlochState(*v), r, p)
            assert radius(out) <= max(np.linalg.norm(v), 1.0) + 1e-12

    def test_pure_state_stays_pure(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        s = BlochState.from_polar(1.1)
        out = measurement_backaction(s, ReadoutSample(3.3), p)
        assert radius(out) == pytest.approx(1.0, abs=1e-12)


class TestFeedbackRotation:
    def test_quarter_turn(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        out = feedback_rotation(BlochState(0, 0, 1), (math.pi / 2) / p.dt, p)
        assert out.y == pytest.approx(1.0, abs=1e-12)
        assert out.z == pytest.approx(0.0, abs=1e-12)

    def test_zero_rate_is_identity(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        s = BlochState(0.1, -0.4, 0.2)
        out = feedback_rotation(s, 0.0, p)
        assert (out.x, out.y, out.z) == (s.x, s.y, s.z)

    def test_small_rotation_sense_and_norm(self):
        # +z rotates toward +y; the (y, z) norm is preserved to 1e-12
        p = ModelParams(tau_m=0.2, dt=0.002)
        s = BlochState(0.0, 0.81, 0.59)
        out = feedback_rotation(s, 0.01 / p.dt, p)
        assert out.y > s.y
        assert math.hypot(out.y, out.z) == pytest.approx(
            math.hypot(s.y, s.z), abs=1e-12
        )

    def test_x_untouched(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        out = feedback_rotation(BlochState(0.3, 0.1, 0.2), 17.0, p)
        assert out.x == 0.3


class TestDissipationStep:
    def test_ideal_limit_is_identity(self):
        s = BlochState(0.1, 0.5, -0.4)
        out = dissipation_step(s, IDEAL)
        assert (out.x, out.y, out.z) == (s.x, s.y, s.z)

    def test_half_life_decay_to_zero(self):
        # dt/T1 = ln 2 from the excited pole: z -> 0.5 - 0.5 = 0
        p = ModelParams(tau_m=10.0, dt=1.0, T1=1.0 / math.log(2.0))
        out = dissipation_step(BlochState(0, 0, 1), p)
        assert out.z == pytest.approx(0.0, abs=1e-14)

    def test_ground_pole_fixed_point(self):
        p = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)
        out = dissipation_step(BlochState(0, 0, -1), p)
        assert out.z == pytest.approx(-1.0, abs=1e-14)

    def test_transverse_factor_high_precision(self):
        # frozen with mpmath (50 digits): exp(-(0.01/120 + 0.01/40 + 0.01*0.59/0.164))
        p = ModelParams(tau_m=0.2, dt=0.01, T1=60.0, T2=40.0, eta=0.41)
        expected_f = 0.96434232056137236
        out = dissipation_step(BlochState(0.0, 0.5, 0.5), p)
        assert out.y == pytest.approx(0.5 * expected_f, rel=1e-14)
        assert p.transverse_decay == pytest.approx(expected_f, rel=1e-14)


class TestCompositeStep:
    def test_feedback_off_reduces_to_backaction(self):
        p = IDEAL
        law = FeedbackLaw(0.0, 0.0)
        s = BlochState(0.0, 0.4, -0.3)
        r = ReadoutSample(1.7)
        got = composite_step(s, r, 0.0, law, p)
        want = measurement_backaction(s, r, p)
        assert (got.x, got.y, got.z) == (want.x, want.y, want.z)

    def test_equals_hand_chained_suboperations(self):
        p = ModelParams(tau_m=0.2, dt=0.0005, T1=60.0, T2=40.0, eta=0.41)
        law = FeedbackLaw(-2.9752277139276457, 6.351269298165177)
        s = BlochState(0.0, 0.309, 0.951)
        r = ReadoutSample(1.2)
        got = composite_step(s, r, 0.0, law, p)
        want = dissipation_step(
            feedback_rotation(measurement_backaction(s, r, p), law.delta0, p), p
        )
        assert got.x == pytest.approx(want.x, abs=1e-15)
        assert got.y == pytest.approx(want.y, abs=1e-15)
        assert got.z == pytest.approx(want.z, abs=1e-15)

    def test_result_inside_sphere_for_random_inputs(self):
        rng = np.random.default_rng(99)
        p = ModelParams(tau_m=0.2, dt=0.002, T1=60.0, T2=40.0, eta=0.41)
        law = FeedbackLaw(-3.0, 6.4)
        for _ in range(300):
            v = rng.normal(size=3)
            v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
            r = ReadoutSample(v[2] + p.readout_sigma * rng.standard_normal())
            fed = rng.normal(scale=p.readout_sigma)
            out = composite_step(BlochState(*v), r, fed, law, p)
            assert radius(out) <= 1.0 + 1e-12

    @staticmethod
    def _one_step_displacement(state, r_bar, law, params):
        out = composite_step(state, ReadoutSample(r_bar), r_bar, law, params)
        return math.hypot(out.y - state.y, out.z - state.z)

    def test_ideal_stationary_point_displacement_scalings(self):
        """At the designed stationary point the sqrt(dt) noise terms cancel.

        Pathwise (fixed unit draw) the one-step displacement scales ~dt
        there, against ~sqrt(dt) at a generic state; the readout-averaged
        displacement scales ~dt^2 (Gauss-Hermite quadrature oracle).
        """
        tau_m = 0.2
        theta = 0.3 * math.pi
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            law = design_ideal(theta, tau_m)
        target = BlochState.from_polar(theta)
        generic = BlochState.from_polar(0.12 * math.pi)
        nodes, weights = np.polynomial.hermite_e.hermegauss(80)
        weights = weights / math.sqrt(2.0 * math.pi)

        def pathwise(state, dt, nu=1.5):
            p = ModelParams(tau_m=tau_m, dt=dt)
            return self._one_step_displacement(
                state, state.z + p.readout_sigma * nu, law, p
            )

        def averaged(state, dt):
            p = ModelParams(tau_m=tau_m, dt=dt)
            dy = 0.0
            dz = 0.0
            for nu, w in zip(nodes, weights):
                r_bar = state.z + p.readout_sigma * nu
                out = composite_step(state, ReadoutSample(r_bar), r_bar, law, p)
                dy += w * (out.y - state.y)
                dz += w * (out.z - state.z)
            return math.hypot(dy, dz)

        d1, d2 = pathwise(target, 2e-4), pathwise(target, 5e-5)
        slope = math.log(d1 / d2) / math.log(4.0)
        assert slope > 0.9  # ~dt at the stationary point
        g1, g2 = pathwise(generic, 2e-4), pathwise(generic, 5e-5)
        slope_generic = math.log(g1 / g2) / math.log(4.0)
        assert slope_generic < 0.7  # ~sqrt(dt) elsewhere
        a1, a2 = averaged(target, 2e-4), averaged(target, 5e-5)
        assert math.log(a1 / a2) / math.log(4.0) > 1.8  # expected displacement ~dt^2

    def test_corrupted_state_rejected(self):
        p = ModelParams(tau_m=0.2, dt=0.002)
        with pytest.raises(ValueError):
            measurement_backaction(
                BlochState(0.0, 0.0, -1.5), ReadoutSample(100.0), p
            )
