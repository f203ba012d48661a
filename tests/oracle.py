"""Reference models that the tests compare the vectorized qfb code against.

* The scalar single-step operations: one state, one readout, one step at
  a time.  They wrap the array kernels of :mod:`qfb.model` with the
  physical-state checks and the renormalization that the engine applies
  to whole batches.
* The analytic references of the closed-form design: the stationary
  state of arbitrary controller constants, the two stationary gains of a
  target state, and the residual per-noise disturbance with its optimal
  gain.
* The mean-field models of the same physics: a fixed-step fourth-order
  Runge-Kutta integrator of the deterministic ensemble-average equations,
  and an Euler-Maruyama stepper of the diffusive equations in the
  Markovian (no filter, no delay) limit.  The latter does not preserve
  positivity, so it only flags, rather than corrects, sphere excursions;
  it plugs into :func:`qfb.engine.run_ensemble` through
  ``stepper_factory``, owning its batch like the engine's own stepper,
  and so shares the engine's streams and reduction.  ``run_sme_ensemble``
  and ``integrate_sme_trajectory`` take ``(law, initial, params)`` and
  the engine's keywords.
* The engine's own stepper with a float64 rotation angle, the reference
  for the step's float32 angle; it plugs in through ``stepper_factory``.
* The definition of the engine's noise: trajectory i's draws, one per
  step, built from their own Philox stream.
* Plain numerical references: a per-row feedback chain (a filter
  accumulator and a ``deque`` delay line for each law), a histogram of
  given (y, z) samples on the engine's bins, a golden-section minimizer
  and a flood-fill connected-component labeller.

The package itself never calls them.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from qfb.chain import FeedbackLaw
from qfb.design import max_radius
from qfb.engine import DEFAULT_BINS, BayesStepper, EnsembleResult, bin_index, run_ensemble
from qfb.model import (
    BlochState,
    ModelParams,
    backaction_update,
    dissipation_update,
    rotation_update,
)


@dataclass
class Curve:
    """Recorded times and Bloch vectors (shape (len(times), 3)) of one run."""

    times: np.ndarray
    xyz: np.ndarray
    excursion_count: int = 0


@dataclass(frozen=True)
class ReadoutSample:
    """Coarse-grained readout averaged over one time step.

    ``r_bar`` has mean z and standard deviation sqrt(tau_m/dt); values
    beyond ~6 sigma indicate a broken sampler rather than physics.
    """

    r_bar: float


def _as_readout(r) -> float:
    return r.r_bar if isinstance(r, ReadoutSample) else float(r)


def sample_readout(
    state: BlochState, params: ModelParams, rng: np.random.Generator
) -> ReadoutSample:
    """Draw the readout for one step: Normal(mean=z, var=tau_m/dt)."""
    return ReadoutSample(state.z + params.readout_sigma * rng.standard_normal())


def measurement_backaction(
    state: BlochState, r, params: ModelParams
) -> BlochState:
    """Conditioned state update for readout ``r`` (partial collapse toward a pole).

    The poles (0, 0, +-1) are fixed points for every readout value, and
    the update never increases the Bloch radius beyond 1.
    """
    state.require_physical()
    s = _as_readout(r) * params.dt / params.tau_m
    p = math.cosh(s) + state.z * math.sinh(s)
    if p <= 0.0:
        raise ValueError(
            f"non-positive readout likelihood p = {p!r}; state is corrupted (|z| > 1?)"
        )
    y, z, p = backaction_update(state.y, state.z, s)
    return BlochState(state.x / float(p), float(y), float(z))


def feedback_rotation(
    state: BlochState, delta: float, params: ModelParams, angle_dtype=np.float64
) -> BlochState:
    """Coherent yz-plane rotation by dt*delta, the angle rounded to
    ``angle_dtype`` (``np.float32`` replays the engine's step); x and the
    norm are unchanged."""
    y, z = rotation_update(state.y, state.z, angle_dtype(params.dt * delta))
    return BlochState(state.x, float(y), float(z))


def dissipation_step(state: BlochState, params: ModelParams) -> BlochState:
    """One step of T1 relaxation, T2 dephasing, and inefficiency dephasing.

    x and y shrink by a common transverse factor; z relaxes toward the
    ground state at -1.  With T1 = T2 = inf and eta = 1 this is the
    identity.
    """
    y, z = dissipation_update(state.y, state.z, params.transverse_decay, params.t1_decay)
    return BlochState(state.x * params.transverse_decay, float(y), float(z))


def composite_step(
    state: BlochState,
    r,
    r_fed: float,
    law,
    params: ModelParams,
    angle_dtype=np.float64,
) -> BlochState:
    """Full update for one step: backaction, then feedback rotation, then dissipation.

    ``r`` is the readout sampled this step; ``r_fed`` is the filtered and
    delayed readout the controller actually sees (0 while the delay
    buffer is still filling).  The rotation rate is
    ``law.delta0 + law.delta1 * r_fed``, and the rotation angle is rounded
    to ``angle_dtype``: ``np.float32`` gives the engine's step.

    The result is renormalized onto the sphere if floating-point drift
    pushes it infinitesimally outside.
    """
    out = measurement_backaction(state, r, params)
    out = feedback_rotation(out, law.delta0 + law.delta1 * r_fed, params, angle_dtype)
    out = dissipation_step(out, params)
    r2 = out.x * out.x + out.y * out.y + out.z * out.z
    if r2 > 1.0:
        scale = 1.0 / math.sqrt(r2)
        out = BlochState(out.x * scale, out.y * scale, out.z * scale)
    return out


@dataclass(frozen=True)
class TargetSpec:
    """Target in-plane state: polar angle theta_s and radius R_s."""

    theta_s: float
    R_s: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta_s <= math.pi):
            raise ValueError(f"theta_s must lie in [0, pi], got {self.theta_s}")
        if not (0.0 < self.R_s <= 1.0):
            raise ValueError(f"R_s must lie in (0, 1], got {self.R_s}")

    @property
    def y_s(self) -> float:
        return self.R_s * math.sin(self.theta_s)

    @property
    def z_s(self) -> float:
        return self.R_s * math.cos(self.theta_s)


@dataclass(frozen=True)
class DisturbanceReport:
    """Residual per-unit-noise displacement at a stationary point."""

    delta_y: float
    delta_z: float

    @property
    def cost(self) -> float:
        return self.delta_y**2 + self.delta_z**2


def stationary_delta1_roots(
    target: TargetSpec, params: ModelParams
) -> tuple[float, float]:
    """Both feedback gains that make ``target`` stationary, (upper, lower).

    The two roots merge at R_s = max_radius(theta_s), where the
    discriminant vanishes; they sit symmetrically about the disturbance
    optimum y_s/(R_s^2 tau_m) and carry equal disturbance cost.  Raises
    if the requested radius exceeds the achievable bound.
    """
    y_s, z_s = target.y_s, target.z_s
    r2 = target.R_s**2
    disc = 1.0 - 2.0 * params.tau_m * r2 * (
        params.gamma_total + (1.0 + z_s) * z_s / (params.T1 * y_s * y_s)
    )
    if disc < -1e-12:
        raise ValueError(
            f"radius {target.R_s} exceeds the stabilizable bound "
            f"{max_radius(target.theta_s, params):.6g} at this angle"
        )
    root = math.sqrt(max(disc, 0.0))
    center = y_s / (r2 * params.tau_m)
    return center * (1.0 + root), center * (1.0 - root)


def stationary_state(law: FeedbackLaw, params: ModelParams) -> BlochState:
    """Stationary in-plane state of the ensemble-average dynamics for ``law``.

    Solves the zero-drift condition for (y, z); the polar form is
    available as ``.theta``/``.radius`` on the result.  Raises when the
    drift matrix is degenerate (vanishing determinant).
    """
    a = 0.5 * params.tau_m * law.delta1**2
    g = params.gamma_total
    inv_t1 = 1.0 / params.T1
    det = law.delta0**2 + (inv_t1 + a) * (g + a)
    scale = max(law.delta0**2, (inv_t1 + a) * (g + a), 1e-300)
    if abs(det) < 1e-12 * scale:
        raise ValueError("degenerate stationary condition: drift determinant ~ 0")
    y_s = (law.delta1 * a + (law.delta1 - law.delta0) * inv_t1) / det
    z_s = -(law.delta0 * law.delta1 + (g + a) * inv_t1) / det
    return BlochState(0.0, y_s, z_s)


def disturbance(target: TargetSpec, delta1: float, tau_m: float) -> DisturbanceReport:
    """Per-unit-noise displacement of ``target`` under feedback gain ``delta1``.

    delta_y = -y_s z_s + tau_m delta1 z_s and
    delta_z = (1 - z_s^2) - tau_m delta1 y_s.  Both vanish only for a
    pure target; otherwise some noise disturbance persists for every
    gain.
    """
    y_s, z_s = target.y_s, target.z_s
    dy = -y_s * z_s + tau_m * delta1 * z_s
    dz = (1.0 - z_s * z_s) - tau_m * delta1 * y_s
    return DisturbanceReport(delta_y=dy, delta_z=dz)


def optimal_delta1(target: TargetSpec, tau_m: float) -> float:
    """Gain minimizing the squared disturbance: y_s/(R_s^2 tau_m)."""
    return target.y_s / (target.R_s**2 * tau_m)


def _mean_drift(law: FeedbackLaw, params: ModelParams):
    a = 0.5 * params.tau_m * law.delta1**2
    g = params.gamma_total
    inv_t1 = 1.0 / params.T1
    d0, d1 = law.delta0, law.delta1

    def f(v: np.ndarray) -> np.ndarray:
        x, y, z = v
        return np.array(
            [
                -g * x,
                -(g + a) * y + d0 * z + d1,
                -a * z - d0 * y - (1.0 + z) * inv_t1,
            ]
        )

    return f


def integrate_mean_ode(
    initial: BlochState,
    law: FeedbackLaw,
    params: ModelParams,
    total_time: float,
    dt_ode: float,
    record_stride: int = 1,
) -> Curve:
    """Deterministic ensemble-average evolution by fixed-step RK4.

    Models the Markovian (zero filter/delay) limit; the controller chain
    settings on ``law`` are ignored.  The asymptotic value coincides
    with :func:`stationary_state` to integration accuracy.
    """
    n = int(round(total_time / dt_ode))
    if n < 1 or abs(n * dt_ode - total_time) > 1e-9 * max(total_time, dt_ode):
        raise ValueError("total_time must be a whole number of dt_ode steps")
    if n % record_stride != 0:
        raise ValueError("record_stride must divide the number of steps")
    f = _mean_drift(law, params)
    v = np.array([initial.x, initial.y, initial.z], dtype=float)
    rec = [v.copy()]
    for k in range(n):
        k1 = f(v)
        k2 = f(v + 0.5 * dt_ode * k1)
        k3 = f(v + 0.5 * dt_ode * k2)
        k4 = f(v + dt_ode * k3)
        v = v + (dt_ode / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (k + 1) % record_stride == 0:
            rec.append(v.copy())
    times = np.arange(0, n + 1, record_stride) * dt_ode
    return Curve(times=times, xyz=np.array(rec))


class SmeStepper:
    """Euler-Maruyama step of the diffusive Markovian-feedback equations.

    An independent model of the same physics as the Bayesian update,
    valid only with a passthrough chain (Ts = Td = 0).  Like the engine's
    steppers it owns its batch: ``y`` and ``z`` are (1, batch) arrays
    started from ``initial``, whose x the engine holds at 0, where the
    scheme keeps it.  The scheme does not preserve positivity:
    excursions with R > 1.05 are counted in ``excursions`` but not
    corrected.  ``noise_scale=0`` freezes the noise, reducing the step to
    an Euler step of the mean equations.
    """

    EXCURSION_RADIUS = 1.05

    def __init__(
        self,
        params: ModelParams,
        law: FeedbackLaw,
        initial: BlochState,
        batch: int,
        noise_scale: float = 1.0,
    ) -> None:
        if law.Ts or law.Td:
            raise ValueError(
                "the diffusive model is Markovian only: requires Ts = 0 and Td = 0"
            )
        self.y, self.z = (np.full((1, batch), c) for c in (initial.y, initial.z))
        self._dt = params.dt
        self._g = params.gamma_total
        self._a = 0.5 * params.tau_m * law.delta1**2
        self._d0 = law.delta0
        self._d1 = law.delta1
        self._inv_t1 = 1.0 / params.T1
        self._taum_d1 = params.tau_m * law.delta1
        # dW/sqrt(tau_m) with dW = sqrt(dt) * N(0,1)
        self._noise_amp = noise_scale * math.sqrt(params.dt / params.tau_m)
        self.point_renorms = np.zeros(1, dtype=np.int64)  # never renormalizes
        self.excursions = 0

    def step(self, n01) -> None:
        y, z, dt = self.y, self.z, self._dt
        g = self._noise_amp * n01
        dy = (
            (-(self._g + self._a) * y + self._d0 * z + self._d1) * dt
            + (-y * z + self._taum_d1 * z) * g
        )
        dz = (
            (-self._a * z - self._d0 * y - (1.0 + z) * self._inv_t1) * dt
            + ((1.0 - z * z) - self._taum_d1 * y) * g
        )
        y = y + dy
        z = z + dz
        r2 = y * y + z * z
        self.excursions += int(np.count_nonzero(r2 > self.EXCURSION_RADIUS**2))
        self.y, self.z = y, z


@dataclass
class SmeEnsemble(EnsembleResult):
    """An engine result plus the excursions its diffusive steppers flagged."""

    excursion_count: int = 0


def run_sme_ensemble(
    law: FeedbackLaw,
    initial: BlochState,
    params: ModelParams,
    *,
    noise_scale: float = 1.0,
    **run,
) -> SmeEnsemble:
    """Ensemble of diffusive trajectories under ``law`` from ``initial``: the
    engine's streams and reduction, with ``run`` the keywords of
    :func:`qfb.engine.run_ensemble`."""
    steppers: list[SmeStepper] = []

    def factory(laws, initials, batch: int) -> SmeStepper:
        steppers.append(SmeStepper(params, law, initials[0], batch, noise_scale))
        return steppers[-1]

    (result,) = run_ensemble([law], [initial], params, stepper_factory=factory, **run)
    return SmeEnsemble(**vars(result), excursion_count=sum(s.excursions for s in steppers))


def integrate_sme_trajectory(
    law: FeedbackLaw,
    initial: BlochState,
    params: ModelParams,
    *,
    total_time: float,
    seed: int,
    record_stride: int = 1,
    noise_scale: float = 1.0,
) -> Curve:
    """One diffusive trajectory (Euler-Maruyama), cross-validating the engine."""
    result = run_sme_ensemble(
        law, initial, params, noise_scale=noise_scale, n_traj=1, total_time=total_time,
        record_stride=record_stride, seed=seed,
    )
    return Curve(result.times, result.mean_xyz, result.excursion_count)


class Float64AngleStepper(BayesStepper):
    """:class:`qfb.engine.BayesStepper` with its angle buffer in float64, so the
    rotation's cos and sin are float64 and every other operation is the
    engine's own."""

    _angle_dtype = np.float64


def trajectory_noise(seed: int, i: int, n_steps: int) -> np.ndarray:
    """Trajectory ``i``'s float32 noise over ``n_steps`` steps: column
    ``i % 8`` of the ``(n_steps, 8)`` standard normals that the Philox
    stream keyed ``(seed, i // 8)`` draws from counter 0 in one call."""
    stream = np.random.Generator(np.random.Philox(key=np.array([seed, i // 8], np.uint64)))
    return stream.standard_normal((n_steps, 8), dtype=np.float32)[:, i % 8]


class ReferenceChain:
    """Feedback chain one row at a time: per law, ``acc += alpha * (r - acc)``
    (a copy of ``r`` where alpha = 1), then a ``deque`` delay line of
    ``n_delay`` values that starts filled with zeros."""

    def __init__(self, laws, params: ModelParams, batch: int) -> None:
        self.alpha = [law.filter_alpha(params.dt) for law in laws]
        self.acc = np.zeros((len(laws), batch))
        self.lines = [deque([np.zeros(batch)] * law.n_delay(params.dt)) for law in laws]

    def push(self, r: np.ndarray) -> np.ndarray:
        out = np.empty_like(self.acc)
        for p, (alpha, line) in enumerate(zip(self.alpha, self.lines)):
            if alpha == 1.0:
                self.acc[p] = r[p]
            else:
                self.acc[p] += alpha * (r[p] - self.acc[p])
            line.append(self.acc[p].copy())
            out[p] = line.popleft()
        return out


def build_histogram(samples: np.ndarray, n_bins: int = DEFAULT_BINS) -> np.ndarray:
    """The ``(n_bins, n_bins)`` bin counts of an (n, 2) array of (y, z)
    samples on the bins the engine's tasks use (:func:`qfb.engine.bin_index`);
    a NaN sample raises ValueError."""
    yz = np.asarray(samples, dtype=float)
    if np.isnan(yz).any():
        raise ValueError("samples: a steady-state sample is NaN")
    counts = np.bincount(bin_index(yz[:, 0], yz[:, 1], n_bins), minlength=n_bins * n_bins)
    return counts.reshape(n_bins, n_bins)


def minimize_golden(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Abscissa of the minimum of a unimodal ``f`` on [lo, hi], by golden-section search."""
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - ratio * (b - a), a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def flood_fill_labels(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """8-connected components by a stack flood fill, numbered in raster order
    of their first cell; 0 off the mask."""
    rows, cols = mask.shape
    labels = np.zeros((rows, cols), dtype=np.int64)
    count = 0
    for i in range(rows):
        for j in range(cols):
            if not mask[i, j] or labels[i, j]:
                continue
            count += 1
            labels[i, j] = count
            stack = [(i, j)]
            while stack:
                y, x = stack.pop()
                for v in range(max(y - 1, 0), min(y + 2, rows)):
                    for u in range(max(x - 1, 0), min(x + 2, cols)):
                        if mask[v, u] and not labels[v, u]:
                            labels[v, u] = count
                            stack.append((v, u))
    return labels, count
