"""Acceptance suite: one test per acceptance criterion, stated tolerances.

Each test prints a PASS line with the measured values (visible with
``pytest -s`` or ``-rA``); a failure carries the same detail in the
assertion message.  All stochastic runs are pinned to SEED so the suite
is deterministic.
"""

import math
import time
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
    find_peak,
    max_radius,
    run_ensemble,
    steady_state,
    summarize,
)
from qfb.engine import trajectory_rng
from oracle import (
    disturbance,
    integrate_mean_ode,
    optimal_delta1,
    run_sme_ensemble,
    stationary_state,
)

SEED = 2026

TAU_M = 0.2
THETA_TARGET = 0.3 * math.pi
THETA_INIT = 0.1 * math.pi
IDEAL_FINE = ModelParams(tau_m=TAU_M, dt=0.0005)
LOSSY_FINE = ModelParams(tau_m=TAU_M, dt=0.0005, T1=60.0, T2=40.0, eta=0.41)
LOSSY_COARSE = ModelParams(tau_m=TAU_M, dt=0.01, T1=60.0, T2=40.0, eta=0.41)
LOSSY_SWEEP = ModelParams(tau_m=TAU_M, dt=0.002, T1=60.0, T2=40.0, eta=0.41)

#: 10^5 pooled steady-state samples (1250 trajectories x 80): burn 10 tau_m,
#: then sample every tau_m.  Runs start at the target state.
STEADY = dict(
    n_traj=1250, total_time=17.8, seed=SEED,
    steady=SteadySampling(burn_in=10.0 * TAU_M, stride=TAU_M),
)


@pytest.mark.slow
def test_criterion_1_ideal_stabilization():
    """Ideal stabilization: 1e4 trajectories converge to (0.81, 0.59) +- 0.02 and
    track the deterministic oracle within 0.02 at every recorded time."""
    t0 = time.time()
    law = design_ideal(THETA_TARGET, TAU_M)
    start = BlochState.from_polar(THETA_INIT)
    (res,) = run_ensemble(
        [law], [start], IDEAL_FINE, n_traj=10_000, total_time=2.0, record_stride=40, seed=SEED
    )
    ode = integrate_mean_ode(
        start, law, IDEAL_FINE, 2.0, IDEAL_FINE.dt / 10.0, record_stride=400
    )
    elapsed = time.time() - t0

    late = res.times >= 5.0 * TAU_M
    dev_y = np.abs(res.mean_xyz[late, 1] - 0.81).max()
    dev_z = np.abs(res.mean_xyz[late, 2] - 0.59).max()
    assert dev_y <= 0.02 and dev_z <= 0.02, (dev_y, dev_z)

    ode_dev = np.abs(res.mean_xyz - ode.xyz).max()
    assert ode_dev <= 0.02, ode_dev
    assert elapsed < 120.0, elapsed
    print(
        f"\nACCEPTANCE 1: PASS - ideal ensemble at target within "
        f"({dev_y:.4f}, {dev_z:.4f}) <= 0.02 after 5 tau_m; "
        f"max |MC - ODE| = {ode_dev:.4f} <= 0.02; runtime {elapsed:.1f}s < 120s"
    )


@pytest.mark.slow
def test_criterion_2_nonideal_stabilization():
    """Lossy-qubit stabilization: the ensemble settles at (0.52, 0.37) +- 0.02; the maximum
    radius formula gives 0.64 +- 0.005."""
    law, r_s = design_nonideal(THETA_TARGET, LOSSY_FINE)
    (res,) = run_ensemble(
        [law], [BlochState.from_polar(THETA_INIT)], LOSSY_FINE,
        n_traj=10_000, total_time=2.0, record_stride=40, seed=SEED,
    )
    late = res.times >= 1.5
    mean_y = res.mean_xyz[late, 1].mean()
    mean_z = res.mean_xyz[late, 2].mean()
    assert abs(mean_y - 0.52) <= 0.02, mean_y
    assert abs(mean_z - 0.37) <= 0.02, mean_z

    r_caption = 1.0 / math.sqrt(1.0 / 0.41 + 2.0 * TAU_M / 40.0)  # T1->inf form
    assert abs(r_caption - 0.64) <= 0.005, r_caption
    assert abs(r_s - 0.64) <= 0.005, r_s  # full formula with T1 = 60 us
    print(
        f"\nACCEPTANCE 2: PASS - asymptotic mean ({mean_y:.4f}, {mean_z:.4f}) "
        f"within 0.02 of (0.52, 0.37); R_max {r_caption:.4f} (T1->inf) / "
        f"{r_s:.4f} (full) within 0.64 +- 0.005"
    )


def _check(results, name, value, ok):
    results.append((name, value, ok))
    return ok


def _report(criterion, results):
    """Print one PASS/FAIL line for the criterion, then assert."""
    failed = [f"{n}={v}" for n, v, ok in results if not ok]
    detail = ", ".join(f"{n}={v}" for n, v, _ in results)
    verdict = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {verdict} - {detail}")
    assert not failed, f"criterion {criterion} sub-checks failed: {failed}"


def test_criterion_3_histogram_peaks():
    """Steady-state histograms: 1e5 samples at dt = 10 ns; single lobe at the target
    angle for theta_s = 3pi/10, double lobe with a purified dominant peak
    for theta_s = pi/10."""
    checks = []
    law, r_s = design_nonideal(THETA_TARGET, LOSSY_COARSE)
    theta_lo = 0.1 * math.pi
    law2, r_s2 = design_nonideal(theta_lo, LOSSY_COARSE)
    top, bottom = steady_state(
        [law, law2],
        [BlochState.from_polar(THETA_TARGET, r_s), BlochState.from_polar(theta_lo, r_s2)],
        LOSSY_COARSE, **STEADY,
    )
    pk = top.peak
    assert top.histogram.sum() == 100_000
    _check(checks, "top_lobes", len(pk.lobes), len(pk.lobes) == 1)
    _check(
        checks,
        "top_theta_p",
        f"{pk.theta_p / math.pi:.4f}pi",
        abs(pk.theta_p - THETA_TARGET) <= 0.05,
    )
    _check(checks, "top_r_p", f"{pk.r_p:.3f}", abs(pk.r_p - 0.78) <= 0.05)
    _check(checks, "top_sigma", f"{pk.sigma:.3f}", abs(pk.sigma - 0.23) <= 0.05)

    pk2 = bottom.peak
    _check(checks, "bottom_lobes", len(pk2.lobes), len(pk2.lobes) == 2)
    _check(
        checks,
        "bottom_theta_p",
        f"{pk2.theta_p / math.pi:.4f}pi",
        abs(pk2.theta_p - 0.11 * math.pi) <= 0.02 * math.pi,
    )
    _check(checks, "bottom_r_p", f"{pk2.r_p:.3f}", abs(pk2.r_p - 0.96) <= 0.03)
    _check(checks, "bottom_sigma", f"{pk2.sigma:.3f}", abs(pk2.sigma - 0.54) <= 0.08)
    _report(3, checks)


@pytest.mark.slow
def test_criterion_4_filter_delay_degradation():
    """Chain degradation: filtering barely moves the mean radius up to 0.2 tau_m
    while delay degrades it monotonically to 0.15 +- 0.05 at tau_m; the
    degraded histogram peaks sit at the reported positions."""
    from dataclasses import replace

    base, r_s = design_nonideal(THETA_TARGET, LOSSY_COARSE)
    filter_fracs = (0.0, 0.1, 0.2)
    grid = [round(0.1 * k, 1) for k in range(11)]
    laws = [replace(base, Ts=round(frac * TAU_M, 6)) for frac in filter_fracs]
    laws += [replace(base, Td=round(frac * TAU_M, 6)) for frac in grid]
    # all 14 points run as one batch; each equals its run alone
    summaries = list(steady_state(
        laws, [BlochState.from_polar(THETA_TARGET, r_s)] * len(laws), LOSSY_COARSE, **STEADY
    ))

    checks = []
    # filter column
    r_e_filter = {}
    peaks_filter = {}
    for frac, s in zip(filter_fracs, summaries):
        r_e_filter[frac] = s.r_mean
        peaks_filter[frac] = s.peak
    _check(
        checks,
        "filter_r_e_flat",
        "/".join(f"{r_e_filter[f]:.3f}" for f in (0.0, 0.1, 0.2)),
        all(abs(r_e_filter[f] - r_e_filter[0.0]) <= 0.02 for f in (0.1, 0.2)),
    )
    pf = peaks_filter[0.2]
    _check(checks, "filter_r_p", f"{pf.r_p:.3f}", abs(pf.r_p - 0.85) <= 0.05)
    _check(
        checks,
        "filter_theta_p",
        f"{pf.theta_p / math.pi:.4f}pi",
        abs(pf.theta_p - 0.23 * math.pi) <= 0.02 * math.pi,
    )

    # delay column
    r_e_delay = []
    peak_delay = None
    for frac, s in zip(grid, summaries[len(filter_fracs):]):
        r_e_delay.append(s.r_mean)
        if frac == 0.2:
            peak_delay = s.peak
    _check(
        checks,
        "delay_monotone",
        f"{r_e_delay[0]:.3f}..{r_e_delay[-1]:.3f}",
        all(r_e_delay[i + 1] <= r_e_delay[i] for i in range(len(grid) - 1)),
    )
    _check(
        checks,
        "delay_terminal_r_e",
        f"{r_e_delay[-1]:.3f}",
        abs(r_e_delay[-1] - 0.15) <= 0.05,
    )
    _check(
        checks, "delay_r_p", f"{peak_delay.r_p:.3f}", abs(peak_delay.r_p - 0.83) <= 0.05
    )
    _check(
        checks,
        "delay_theta_p",
        f"{peak_delay.theta_p / math.pi:.4f}pi",
        abs(peak_delay.theta_p - 0.2 * math.pi) <= 0.02 * math.pi,
    )
    _report(4, checks)


@pytest.mark.slow
def test_criterion_5_angle_sweep():
    """Angle sweep: constant mean radius 0.64 +- 0.02 away from the poles, peak
    coincides with the mean only at the equator, and purifies near poles."""
    thetas = [k * math.pi / 10.0 for k in range(1, 10)]
    designs = [design_nonideal(theta, LOSSY_SWEEP) for theta in thetas]
    # all nine angles run as one batch; each equals its run alone
    summaries = steady_state(
        [law for law, _ in designs],
        [BlochState.from_polar(theta, r_t) for theta, (_, r_t) in zip(thetas, designs)],
        LOSSY_SWEEP, **STEADY,
    )
    rows = {round(k * 0.1, 1): s for k, s in zip(range(1, 10), summaries)}

    away_from_poles = [round(k * 0.1, 1) for k in range(2, 10)]
    r_e_all = {f: rows[f].r_mean for f in rows}
    for f in away_from_poles:
        assert abs(r_e_all[f] - 0.64) <= 0.02, (f, r_e_all[f])

    eq = rows[0.5]
    assert abs(eq.peak.theta_p - math.pi / 2) <= 0.05, eq.peak.theta_p
    assert abs(eq.peak.r_p - eq.r_mean) <= 0.05, (eq.peak.r_p, eq.r_mean)

    for f in (0.1, 0.2):
        gap = rows[f].peak.r_p - rows[f].r_mean
        assert gap > 0.1, (f, gap)
    print(
        "\nACCEPTANCE 5: PASS - R_E in [{:.3f}, {:.3f}] for theta_s in "
        "0.2pi..0.9pi (0.64 +- 0.02); equator peak ({:.4f}pi, {:.3f}) vs "
        "R_E {:.3f}; R_P - R_E = +{:.3f}/+{:.3f} at 0.1pi/0.2pi".format(
            min(r_e_all[f] for f in away_from_poles),
            max(r_e_all[f] for f in away_from_poles),
            eq.peak.theta_p / math.pi,
            eq.peak.r_p,
            eq.r_mean,
            rows[0.1].peak.r_p - rows[0.1].r_mean,
            rows[0.2].peak.r_p - rows[0.2].r_mean,
        )
    )


def test_criterion_6_property_suites():
    """Always-runnable property checks at their stated tolerances."""
    # (a) matrix-oracle equivalence of the Bloch backaction, 1e-10
    from oracle import ReadoutSample, measurement_backaction

    sz = np.diag([1.0, -1.0]).astype(complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    rng = trajectory_rng(SEED, 0)
    worst = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, 1.0) / np.linalg.norm(v)
        dt_over_tau = rng.uniform(1e-4, 0.1)
        p = ModelParams(tau_m=TAU_M, dt=TAU_M * dt_over_tau)
        r_bar = v[2] + p.readout_sigma * rng.standard_normal()
        got = measurement_backaction(BlochState(*v), ReadoutSample(r_bar), p)
        a = r_bar * p.dt / (2.0 * p.tau_m)
        m = np.diag([math.exp(a), math.exp(-a)]).astype(complex)
        rho = 0.5 * (np.eye(2) + v[0] * sx + v[1] * sy + v[2] * sz)
        out = m @ rho @ m.conj().T
        out /= np.trace(out).real
        ref = [float(np.trace(s @ out).real) for s in (sx, sy, sz)]
        worst = max(
            worst,
            abs(got.x - ref[0]),
            abs(got.y - ref[1]),
            abs(got.z - ref[2]),
        )
    assert worst < 1e-10, worst

    # (b) pure-state fixed point: both noise disturbances vanish under the
    # ideal design
    for theta in np.linspace(0.05, math.pi - 0.05, 21):
        from oracle import TargetSpec

        law = design_ideal(theta, TAU_M)
        rep = disturbance(TargetSpec(theta, 1.0), law.delta1, TAU_M)
        assert abs(rep.delta_y) < 1e-14 and abs(rep.delta_z) < 1e-14

    # (c) design/stationary round-trip, 1e-10
    for theta in np.linspace(0.02 * math.pi, 0.98 * math.pi, 100):
        law, r_t = design_nonideal(theta, LOSSY_FINE)
        st = stationary_state(law, LOSSY_FINE)
        assert abs(st.theta - theta) < 1e-10
        assert abs(st.radius - r_t) < 1e-10

    # (d) disturbance optimum vs numerical minimizer, 1e-8 relative
    from oracle import TargetSpec

    rng2 = trajectory_rng(SEED, 1)
    for _ in range(20):
        t = TargetSpec(rng2.uniform(0.05, 0.95) * math.pi, rng2.uniform(0.2, 1.0))
        closed = optimal_delta1(t, TAU_M)
        cost = lambda d1: disturbance(t, d1, TAU_M).cost
        a = closed - 1.37  # arbitrary off-center triplet
        fa, fb, fc = cost(a), cost(a + 1.0), cost(a + 2.0)
        vertex = a + 1.0 + 0.5 * (fa - fc) / (fa - 2.0 * fb + fc)
        assert abs(vertex - closed) / abs(closed) < 1e-8

    # (e) filter DC gain and linearity
    from qfb import FeedbackChain

    p = ModelParams(tau_m=TAU_M, dt=0.005)
    law_f = FeedbackLaw(0.0, 0.0, Ts=0.04)
    chain = FeedbackChain([law_f], p, batch=1)
    out = 0.0
    for _ in range(4000):
        out = chain.push(0.77)
    assert abs(out - 0.77) < 1e-9
    u = rng.normal(size=200)
    v = rng.normal(size=200)

    def run_filter(seq):
        c = FeedbackChain([law_f], p, batch=1)
        return np.array([c.push(r).item() for r in seq])

    assert np.max(
        np.abs(run_filter(2.0 * u - 3.0 * v) - (2.0 * run_filter(u) - 3.0 * run_filter(v)))
    ) < 1e-12

    # (f) delay shift-equality
    chain_d = FeedbackChain([FeedbackLaw(0.0, 0.0, Td=40 * p.dt)], p, batch=1)
    seq = rng.normal(size=300)
    outs = np.array([chain_d.push(r).item() for r in seq])
    assert np.array_equal(outs[40:], seq[:-40]) and np.all(outs[:40] == 0.0)

    # (g) deterministic integrator is order 4 (halving changes < 1e-9)
    law_i = design_ideal(THETA_TARGET, TAU_M)
    init = BlochState.from_polar(THETA_INIT)
    a4 = integrate_mean_ode(init, law_i, IDEAL_FINE, 2.0, 0.0005, record_stride=4000)
    b4 = integrate_mean_ode(init, law_i, IDEAL_FINE, 2.0, 0.00025, record_stride=8000)
    assert np.abs(a4.xyz - b4.xyz).max() < 1e-9

    print(
        "\nACCEPTANCE 6: PASS - matrix oracle (worst {:.2e} < 1e-10), pure "
        "fixed point, design round-trip (1e-10), disturbance optimum (1e-8), "
        "filter DC/linearity, delay shift, "
        "order-4 integrator".format(worst)
    )


@pytest.mark.slow
def test_criterion_7_cross_model_check():
    """Euler-Maruyama diffusive ensemble vs Bayesian ensemble, Markovian
    ideal scenario at dt = tau_m/400: steady means within 0.03 and
    histogram peaks within one bin."""
    params = ModelParams(tau_m=TAU_M, dt=TAU_M / 400.0)
    law = design_ideal(THETA_TARGET, TAU_M)
    start = BlochState.from_polar(THETA_INIT)
    run = dict(n_traj=1280, total_time=9.8, record_stride=400, seed=SEED,
               steady=SteadySampling(burn_in=2.0, stride=TAU_M))
    (bayes,) = run_ensemble([law], [start], params, **run)
    sme = run_sme_ensemble(law, start, params, **run)

    mb = bayes.steady_sums.sum(axis=0) / bayes.steady_bins.size
    ms = sme.steady_sums.sum(axis=0) / sme.steady_bins.size
    gap = np.abs(mb - ms).max()
    assert gap <= 0.03, (mb, ms)

    gb = summarize(bayes).histogram
    gs = summarize(sme).histogram
    ib = np.unravel_index(np.argmax(gb), gb.shape)
    isme = np.unravel_index(np.argmax(gs), gs.shape)
    assert abs(ib[0] - isme[0]) <= 1 and abs(ib[1] - isme[1]) <= 1, (ib, isme)
    print(
        f"\nACCEPTANCE 7: PASS - steady means agree to {gap:.5f} <= 0.03; "
        f"peak bins {ib} vs {isme} within one bin "
        f"({sme.excursion_count} flagged diffusive excursions)"
    )
