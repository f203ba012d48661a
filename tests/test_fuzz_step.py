"""Property test of the step kernel and the feedback chain over drawn laws.

Each example builds one ``BayesStepper`` for 1-3 laws whose gains stay
below the practical bound of :func:`qfb.validate_law`, with filter and
delay settings of 0 or a few whole steps mixed within the one chain,
starts every law from a drawn physical state, and steps a batch of at
most 8 trajectories of an ideal or a lossy qubit for at most 60 steps
on standard-normal noise.

The property: after every step every coordinate is finite and every
state lies on or inside the Bloch sphere, ``x^2 + y^2 + z^2 <= 1 +
SPHERE_TOL``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qfb import BlochState, FeedbackLaw, ModelParams
from qfb.engine import BayesStepper
from qfb.model import SPHERE_TOL

TAU_M = 0.2


@st.composite
def states(draw):
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    r = draw(st.floats(0.0, 1.0))
    return BlochState(
        r * math.sin(theta) * math.cos(phi),
        r * math.sin(theta) * math.sin(phi),
        r * math.cos(theta),
    )


@st.composite
def laws(draw, dt):
    bound = 1.0 / (5.0 * math.sqrt(dt * TAU_M))
    whole_steps = st.integers(0, 4).map(lambda k: k * dt)
    return FeedbackLaw(
        delta0=draw(st.floats(-2.0 * bound, 2.0 * bound)),
        delta1=draw(st.floats(-bound, bound, exclude_min=True, exclude_max=True)),
        Ts=draw(whole_steps),
        Td=draw(whole_steps),
    )


@st.composite
def runs(draw):
    dt = draw(st.sampled_from((0.0005, 0.002, 0.01)))
    if draw(st.booleans()):
        params = ModelParams(tau_m=TAU_M, dt=dt, T1=60.0, T2=40.0, eta=0.41)
    else:
        params = ModelParams(tau_m=TAU_M, dt=dt)
    n_laws = draw(st.integers(1, 3))
    return (
        params,
        draw(st.lists(laws(dt), min_size=n_laws, max_size=n_laws)),
        draw(st.lists(states(), min_size=n_laws, max_size=n_laws)),
        draw(st.integers(1, 8)),
        draw(st.integers(1, 60)),
        draw(st.integers(0, 2**32 - 1)),
    )


@settings(database=None, derandomize=True, deadline=None)
@given(run=runs())
def test_every_step_keeps_the_state_finite_and_on_the_sphere(run):
    params, drawn_laws, initials, batch, n_steps, seed = run
    stepper = BayesStepper(params, drawn_laws, batch)
    x = np.repeat([s.x for s in initials], batch)
    y = np.repeat([s.y for s in initials], batch)
    z = np.repeat([s.z for s in initials], batch)
    noise = np.random.default_rng(seed).standard_normal((n_steps, batch))
    for k in range(n_steps):
        x, y, z = stepper.step(x, y, z, noise[k])
        assert np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(z).all(), k
        r2 = x * x + y * y + z * z
        assert r2.max() <= 1.0 + SPHERE_TOL, (k, r2.max())
