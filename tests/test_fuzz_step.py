"""Property tests of the step kernel, the feedback chain and the ensemble
over drawn laws.

Each step example builds one ``BayesStepper`` for 1-3 laws whose gains
stay below the practical bound of :func:`qfb.validate_law`, with filter
and delay settings of 0 or a few whole steps mixed within the one chain,
starts every law from a drawn physical state, and steps a batch of at
most 8 trajectories of an ideal or a lossy qubit for at most 60 steps
on standard-normal noise.  Every drawn state lies in the yz-plane,
where the engine runs.  The property: after every step every coordinate
is finite and every state lies on or inside the Bloch sphere,
``y^2 + z^2 <= 1 + SPHERE_TOL``.

Each ensemble example runs 1-3 laws whose ``delta1`` is drawn
log-uniformly from 1e300 to 1.7e308, far past the bound, through
:func:`qfb.engine.run_ensemble` with steady-state sampling.  The
property: either every mean curve and every steady sample is finite, or
the run raises a ``delta0/delta1:`` ValueError that names a drawn law;
a non-finite state is never returned.  A delay longer than the run and
a start off the yz-plane, which the strategies do not draw, are pinned
as explicit examples that the run refuses as ``Td:`` and ``initials:``.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfb import BlochState, FeedbackLaw, ModelParams
from qfb.engine import BayesStepper, SteadySampling, run_ensemble
from qfb.model import SPHERE_TOL

TAU_M = 0.2


@st.composite
def states(draw):
    """A physical state in the yz-plane."""
    return BlochState.from_polar(draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 1.0)))


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
    stepper = BayesStepper(params, drawn_laws, initials, batch)
    noise = np.random.default_rng(seed).standard_normal((n_steps, batch))
    for k in range(n_steps):
        stepper.step(noise[k])
        y, z = stepper.y, stepper.z
        assert np.isfinite(y).all() and np.isfinite(z).all(), k
        r2 = y * y + z * z
        assert r2.max() <= 1.0 + SPHERE_TOL, (k, r2.max())


@st.composite
def huge_laws(draw, dt, n_steps):
    """A law far past the gain bound whose delay fits the ``n_steps`` run, which
    would otherwise refuse it by ``Td`` before a step is taken."""
    whole_steps = st.integers(0, 4).map(lambda k: k * dt)
    sign = draw(st.sampled_from((1.0, -1.0)))
    return FeedbackLaw(
        delta0=draw(st.floats(-50.0, 50.0)),
        delta1=sign * 10.0 ** draw(st.floats(300.0, math.log10(1.7e308))),
        Ts=draw(whole_steps),
        Td=draw(st.integers(0, min(4, n_steps)).map(lambda k: k * dt)),
    )


@st.composite
def huge_runs(draw):
    dt = draw(st.sampled_from((0.0005, 0.01)))
    if draw(st.booleans()):
        params = ModelParams(tau_m=TAU_M, dt=dt, T1=60.0, T2=40.0, eta=0.41)
    else:
        params = ModelParams(tau_m=TAU_M, dt=dt)
    n_laws = draw(st.integers(1, 3))
    n_steps = draw(st.integers(1, 60))
    initials = draw(st.lists(states(), min_size=n_laws, max_size=n_laws))
    run = dict(total_time=n_steps * dt, seed=draw(st.integers(0, 2**32 - 1)))
    run["steady"] = SteadySampling(
        burn_in=draw(st.integers(0, n_steps)) * dt, stride=draw(st.integers(1, 5)) * dt
    )
    drawn_laws = draw(st.lists(huge_laws(dt, n_steps), min_size=n_laws, max_size=n_laws))
    run["n_traj"] = draw(st.integers(1, 8))
    return params, drawn_laws, initials, run


def _example(laws, initials, dt=0.01, n_steps=10):
    """An ideal run of ``n_steps`` with one sample at its end."""
    end = n_steps * dt
    run = dict(total_time=end, seed=3, n_traj=4, steady=SteadySampling(burn_in=end, stride=dt))
    return ModelParams(tau_m=TAU_M, dt=dt), laws, initials, run


_START = BlochState.from_polar(0.3 * math.pi)


@settings(database=None, derandomize=True, deadline=None)
@given(run=huge_runs())
# the rotation angle overflows to inf on the first step
@example(run=_example([FeedbackLaw(0.0, 1.7e308)], [_START]))
# a delay of 11 steps in a 10-step run
@example(run=_example([FeedbackLaw(0.0, 1e300), FeedbackLaw(0.0, 1e300, Td=0.11)], [_START] * 2))
# a start off the yz-plane
@example(run=_example([FeedbackLaw(0.0, 1e300)], [BlochState(0.6, 0.0, 0.8)]))
def test_a_non_finite_state_is_refused_never_returned(run):
    params, drawn_laws, initials, ensemble = run
    try:
        results = run_ensemble(drawn_laws, initials, params, **ensemble)
    except ValueError as exc:
        message = str(exc)
        if any(s.x != 0.0 for s in initials):
            assert message.startswith("initials:"), message
        elif max(law.Td for law in drawn_laws) > ensemble["total_time"]:
            assert message.startswith("Td:"), message
        else:
            assert message.startswith("delta0/delta1:"), message
            assert any(str(law) in message for law in drawn_laws), message
        return
    assert all(s.x == 0.0 for s in initials)
    assert max(law.Td for law in drawn_laws) <= ensemble["total_time"]
    for result in results:
        assert np.isfinite(result.mean_xyz).all()
        # a non-finite sample would leave its trajectory's sum non-finite
        assert np.isfinite(result.steady_sums).all()
