"""Closed-form feedback design and stationary-state analysis.

Stabilizing an in-plane state at polar angle theta requires a constant
drive ``delta0`` plus a linear feedback gain ``delta1`` on the readout.
This module computes those controller constants for ideal and lossy
qubits, predicts the stationary state for arbitrary constants, bounds
the achievable Bloch radius, and quantifies the residual per-noise state
disturbance.  The mean-field models that cross-check the trajectory
engine (a fourth-order Runge-Kutta integrator of the ensemble-average
equations and an Euler-Maruyama stepper of the diffusive equations) are
test references and live in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .chain import FeedbackLaw
from .model import BlochState, ModelParams

__all__ = [
    "TargetSpec",
    "DisturbanceReport",
    "POLE_MARGIN",
    "design_ideal",
    "design_nonideal",
    "max_radius",
    "stationary_state",
    "stationary_delta1_roots",
    "disturbance",
    "optimal_delta1",
]

#: Targets closer than this to a measurement pole are rejected by the
#: nonideal design: the required constant drive diverges as 1/y_s there.
POLE_MARGIN = 0.02 * math.pi


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

    def state(self) -> BlochState:
        return BlochState(0.0, self.y_s, self.z_s)


@dataclass(frozen=True)
class DisturbanceReport:
    """Residual per-unit-noise displacement at a stationary point."""

    delta_y: float
    delta_z: float

    @property
    def cost(self) -> float:
        return self.delta_y**2 + self.delta_z**2


def design_ideal(theta_s: float, tau_m: float, Ts: float = 0.0, Td: float = 0.0) -> FeedbackLaw:
    """Controller constants stabilizing the pure state at ``theta_s``, ideal qubit.

    delta0 = -sin(2 theta_s)/(4 tau_m) and delta1 = sin(theta_s)/tau_m.
    Both vanish at the measurement poles, where the bare collapse already
    provides the fixed points (a warning is emitted: there is no active
    feedback to select the pole).
    """
    if tau_m <= 0.0:
        raise ValueError("tau_m must be positive")
    if not (0.0 <= theta_s <= math.pi):
        raise ValueError(f"theta_s must lie in [0, pi], got {theta_s}")
    if theta_s < 1e-9 or theta_s > math.pi - 1e-9:
        warnings.warn(
            "target at a measurement pole: both feedback constants vanish and "
            "either pole may be reached by unassisted collapse",
            stacklevel=2,
        )
    delta0 = -math.sin(2.0 * theta_s) / (4.0 * tau_m)
    delta1 = math.sin(theta_s) / tau_m
    return FeedbackLaw(delta0=delta0, delta1=delta1, Ts=Ts, Td=Td)


def max_radius(theta: float, params: ModelParams) -> float:
    """Largest stationary Bloch radius achievable at polar angle ``theta``.

    With negligible energy relaxation this is the angle-independent
    1/sqrt(2 tau_m Gamma) = 1/sqrt(1/eta + 2 tau_m/T2).  Finite T1 bends
    the bound near the poles: the excited pole (theta -> 0) becomes
    unstabilizable while the ground pole (theta -> pi) is enhanced.
    """
    if not (0.0 < theta < math.pi):
        raise ValueError(
            f"theta = {theta} is at or beyond a measurement pole; the radius "
            "bound is singular there"
        )
    inv_t1 = 1.0 / params.T1
    sin2 = math.sin(theta) ** 2
    cot2 = math.cos(theta) ** 2 / sin2
    c = params.tau_m * inv_t1 * math.cos(theta) / sin2
    b = 2.0 * params.tau_m * (params.gamma_total + inv_t1 * cot2)
    return 1.0 / (c + math.sqrt(b + c * c))


def design_nonideal(
    theta_s: float,
    params: ModelParams,
    Ts: float = 0.0,
    Td: float = 0.0,
) -> tuple[FeedbackLaw, float]:
    """Controller constants for a lossy qubit, targeting ``theta_s`` at maximum radius.

    Returns ``(law, R_s)`` with R_s = max_radius(theta_s).  The gain
    delta1 = sin(theta_s)/(R_s tau_m) is the unique (vanishing-
    discriminant) root of the stationary condition and simultaneously
    minimizes the per-noise disturbance of individual trajectories.  In
    the ideal limit the law reduces to :func:`design_ideal`.

    Angles within POLE_MARGIN of a pole are rejected: the constant drive
    grows as 1/y_s there.  Stabilize a nearby angle instead and let the
    final unassisted collapse herald the pole.
    """
    if not (POLE_MARGIN <= theta_s <= math.pi - POLE_MARGIN):
        raise ValueError(
            f"theta_s = {theta_s} is within {POLE_MARGIN:.4f} rad of a "
            "measurement pole; target a nearby angle and herald the pole by "
            "letting the measurement finish the collapse"
        )
    r_s = max_radius(theta_s, params)
    delta1 = math.sin(theta_s) / (r_s * params.tau_m)
    y_s = r_s * math.sin(theta_s)
    z_s = r_s * math.cos(theta_s)
    delta0 = (
        -0.5 * params.tau_m * delta1 * delta1 * (z_s / y_s)
        - (1.0 + z_s) / (params.T1 * y_s)
    )
    return FeedbackLaw(delta0=delta0, delta1=delta1, Ts=Ts, Td=Td), r_s


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

