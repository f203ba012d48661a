"""Closed-form feedback design.

Stabilizing an in-plane state at polar angle theta requires a constant
drive ``delta0`` plus a linear feedback gain ``delta1`` on the readout.
This module computes those controller constants for ideal and lossy
qubits and bounds the achievable Bloch radius.  The analysis that checks
the design (the stationary state of arbitrary constants, the stationary
gains of a target, the residual per-noise disturbance) and the
mean-field models that cross-check the trajectory engine (a
fourth-order Runge-Kutta integrator of the ensemble-average equations
and an Euler-Maruyama stepper of the diffusive equations) are test
references and live in ``tests/oracle.py``.
"""

from __future__ import annotations

import math
import warnings

from .chain import FeedbackLaw
from .model import ModelParams

__all__ = ["POLE_MARGIN", "design_ideal", "design_nonideal", "max_radius"]

#: Targets closer than this to a measurement pole are rejected by the
#: nonideal design: the required constant drive diverges as 1/y_s there.
POLE_MARGIN = 0.02 * math.pi


def design_ideal(theta_s: float, tau_m: float) -> FeedbackLaw:
    """Controller constants stabilizing the pure state at ``theta_s``, ideal qubit.

    delta0 = -sin(2 theta_s)/(4 tau_m) and delta1 = sin(theta_s)/tau_m.
    Both vanish at the measurement poles, where the bare collapse already
    provides the fixed points (a warning is emitted: there is no active
    feedback to select the pole).
    """
    if not tau_m > 0.0:
        raise ValueError(f"tau_m: must be positive, got {tau_m}")
    if not (0.0 <= theta_s <= math.pi):
        raise ValueError(f"theta_s: must lie in [0, pi], got {theta_s}")
    if theta_s < 1e-9 or theta_s > math.pi - 1e-9:
        warnings.warn(
            "target at a measurement pole: both feedback constants vanish and "
            "either pole may be reached by unassisted collapse",
            stacklevel=2,
        )
    delta0 = -math.sin(2.0 * theta_s) / (4.0 * tau_m)
    delta1 = math.sin(theta_s) / tau_m
    return FeedbackLaw(delta0=delta0, delta1=delta1)


def max_radius(theta: float, params: ModelParams) -> float:
    """Largest stationary Bloch radius achievable at polar angle ``theta``.

    With negligible energy relaxation this is the angle-independent
    1/sqrt(2 tau_m Gamma) = 1/sqrt(1/eta + 2 tau_m/T2).  Finite T1 bends
    the bound near the poles: the excited pole (theta -> 0) becomes
    unstabilizable while the ground pole (theta -> pi) is enhanced.
    """
    if not (0.0 < theta < math.pi):
        raise ValueError(
            f"theta: {theta} is at or beyond a measurement pole; the radius "
            "bound is singular there"
        )
    inv_t1 = 1.0 / params.T1
    sin2 = math.sin(theta) ** 2
    cot2 = math.cos(theta) ** 2 / sin2
    c = params.tau_m * inv_t1 * math.cos(theta) / sin2
    b = 2.0 * params.tau_m * (params.gamma_total + inv_t1 * cot2)
    return 1.0 / (c + math.sqrt(b + c * c))


def design_nonideal(theta_s: float, params: ModelParams) -> tuple[FeedbackLaw, float]:
    """Controller constants for a lossy qubit, targeting ``theta_s`` at maximum radius.

    Returns ``(law, R_s)`` with R_s = max_radius(theta_s).  The gain
    delta1 = sin(theta_s)/(R_s tau_m) is the unique (vanishing-
    discriminant) root of the stationary condition and simultaneously
    minimizes the per-noise disturbance of individual trajectories.  In
    the ideal limit the law reduces to :func:`design_ideal`.

    Angles within POLE_MARGIN of a pole are rejected: the constant drive
    grows as 1/y_s there.  Stabilize a nearby angle instead and let the
    final unassisted collapse herald the pole.  Rates so extreme that
    R_s tau_m underflows to 0 leave no gain and are rejected too.
    """
    if not math.isfinite(theta_s):
        raise ValueError(f"theta_s: must be finite, got {theta_s}")
    if not (POLE_MARGIN <= theta_s <= math.pi - POLE_MARGIN):
        raise ValueError(
            f"theta_s: {theta_s} is within {POLE_MARGIN:.4f} rad of a "
            "measurement pole; target a nearby angle and herald the pole by "
            "letting the measurement finish the collapse"
        )
    r_s = max_radius(theta_s, params)
    if not r_s * params.tau_m > 0.0:
        raise ValueError(
            f"theta_s: R_s tau_m underflows to 0 (R_s = {r_s}, tau_m = {params.tau_m}): "
            "no gain exists"
        )
    delta1 = math.sin(theta_s) / (r_s * params.tau_m)
    y_s = r_s * math.sin(theta_s)
    z_s = r_s * math.cos(theta_s)
    delta0 = (
        -0.5 * params.tau_m * delta1 * delta1 * (z_s / y_s)
        - (1.0 + z_s) / (params.T1 * y_s)
    )
    return FeedbackLaw(delta0=delta0, delta1=delta1), r_s
