"""Scalar single-step reference for the vectorized qfb kernels.

One state, one readout, one step at a time: these operations wrap the
array kernels of :mod:`qfb.model` with the physical-state checks and the
renormalization that the engine applies to whole batches.  The tests
compare the engine, the feedback chain and the density-matrix algebra
against them; the package itself never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qfb.model import (
    BlochState,
    ModelParams,
    backaction_update,
    dissipation_update,
    rotation_update,
)


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
    x, y, z = backaction_update(state.x, state.y, state.z, s)
    return BlochState(float(x), float(y), float(z))


def feedback_rotation(
    state: BlochState, delta: float, params: ModelParams
) -> BlochState:
    """Coherent yz-plane rotation by dt*delta; x and the norm are unchanged."""
    y, z = rotation_update(state.y, state.z, params.dt * delta)
    return BlochState(state.x, float(y), float(z))


def dissipation_step(state: BlochState, params: ModelParams) -> BlochState:
    """One step of T1 relaxation, T2 dephasing, and inefficiency dephasing.

    x and y shrink by a common transverse factor; z relaxes toward the
    ground state at -1.  With T1 = T2 = inf and eta = 1 this is the
    identity.
    """
    x, y, z = dissipation_update(
        state.x, state.y, state.z, params.transverse_decay, params.t1_decay
    )
    return BlochState(float(x), float(y), float(z))


def composite_step(
    state: BlochState,
    r,
    r_fed: float,
    law,
    params: ModelParams,
) -> BlochState:
    """Full update for one step: backaction, then feedback rotation, then dissipation.

    ``r`` is the readout sampled this step; ``r_fed`` is the filtered and
    delayed readout the controller actually sees (0 while the delay
    buffer is still filling).  The rotation rate is
    ``law.delta0 + law.delta1 * r_fed``.

    The result is renormalized onto the sphere if floating-point drift
    pushes it infinitesimally outside.
    """
    out = measurement_backaction(state, r, params)
    out = feedback_rotation(out, law.delta0 + law.delta1 * r_fed, params)
    out = dissipation_step(out, params)
    r2 = out.x * out.x + out.y * out.y + out.z * out.z
    if r2 > 1.0:
        scale = 1.0 / math.sqrt(r2)
        out = BlochState(out.x * scale, out.y * scale, out.z * scale)
    return out
