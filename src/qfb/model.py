"""Single-step physics of a dispersively monitored qubit with feedback.

The qubit state is tracked as a Bloch vector (x, y, z).  One simulation
step of duration ``dt`` applies, in order:

1. measurement backaction conditioned on the readout collected during
   the step,
2. a coherent rotation in the yz-plane whose rate is set by the feedback
   controller,
3. environmental dissipation (energy relaxation ``T1``, dephasing ``T2``,
   and the extra dephasing caused by detector inefficiency ``eta``).

The coarse-grained readout for a step is Gaussian with mean ``z`` and
variance ``tau_m/dt``, where ``tau_m`` is the measurement collapse time
(time to unit signal-to-noise between the two energy eigenstates).  Units
throughout: times in microseconds, rates and angular frequencies in
rad/us; the readout is dimensionless (eigenvalue units of the measured
observable).

The ``*_update`` kernels accept scalars or numpy arrays and are the only
copy of the update formulas: the vectorized trajectory engine draws the
readouts and calls them, updating its state arrays in place through
``out``; without ``out`` they are pure functions of their inputs.  They
update (y, z) only.  Nothing feeds x into y or z, and a step maps x to
``x / p`` (backaction) and then ``x * transverse_decay``, so a state
started in the yz-plane keeps x = +0.0 exactly, and the engine, which
runs only such states, never holds x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlochState",
    "ModelParams",
    "backaction_update",
    "rotation_update",
    "dissipation_update",
]

#: Tolerance for "on the Bloch sphere" checks; float noise only.
SPHERE_TOL = 1e-12


@dataclass(frozen=True)
class BlochState:
    """Qubit state as Bloch coordinates.

    A physical state satisfies ``x**2 + y**2 + z**2 <= 1``; the excited
    state of the measured observable sits at z = +1, the ground state at
    z = -1.  The polar representation (``radius``, ``theta``) is derived
    on demand; for states in the yz-plane x = 0 and ``theta`` is measured
    from the +z axis toward +y.
    """

    x: float
    y: float
    z: float

    @classmethod
    def from_polar(cls, theta: float, radius: float = 1.0) -> "BlochState":
        """In-plane state (0, R sin(theta), R cos(theta))."""
        return cls(0.0, radius * math.sin(theta), radius * math.cos(theta))

    @property
    def radius(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    @property
    def theta(self) -> float:
        """Polar angle in the yz-plane, atan2(y, z)."""
        return math.atan2(self.y, self.z)

    def require_physical(self) -> "BlochState":
        """Raise ValueError unless the vector lies within the Bloch sphere (a NaN does not)."""
        r2 = self.x * self.x + self.y * self.y + self.z * self.z
        if not r2 <= 1.0 + SPHERE_TOL:
            raise ValueError(f"radius: |r|^2 = {r2!r} is not within the unit sphere")
        return self


@dataclass(frozen=True)
class ModelParams:
    """Physical constants of the monitored qubit.

    Parameters
    ----------
    tau_m : float
        Measurement collapse time (us), finite.
    dt : float
        Simulation time step (us), finite.  Must resolve the collapse time:
        steps above ``tau_m/10`` trigger a warning, above ``tau_m/2``
        are rejected (the split-step composition error grows as dt^2).
    T1, T2 : float
        Energy relaxation and dephasing times (us); ``math.inf`` for an
        ideal qubit.
    eta : float
        Quantum efficiency of the detection chain, in (0, 1].
    """

    tau_m: float = 0.2
    dt: float = 0.0005
    T1: float = math.inf
    T2: float = math.inf
    eta: float = 1.0

    def __post_init__(self) -> None:
        for name in ("tau_m", "dt", "T1", "T2"):
            value = getattr(self, name)
            ideal = name in ("T1", "T2")
            if not (value > 0.0 if ideal else 0.0 < value < math.inf):
                allowed = "positive (use math.inf for ideal)" if ideal else "positive and finite"
                raise ValueError(f"{name}: must be {allowed}, got {value}")
        if not (0.0 < self.eta <= 1.0):
            raise ValueError(f"eta: must lie in (0, 1], got {self.eta}")
        if self.dt > self.tau_m / 2.0:
            raise ValueError(
                f"dt: dt = {self.dt} exceeds tau_m/2 = {self.tau_m / 2.0}; "
                "the split-step update is invalid at this resolution"
            )
        if self.dt > self.tau_m / 10.0:
            warnings.warn(
                f"dt = {self.dt} exceeds tau_m/10 = {self.tau_m / 10.0}; "
                "composition error may be visible above statistical noise",
                stacklevel=2,
            )

    @property
    def gamma_ineff(self) -> float:
        """Extra dephasing rate from lost measurement information, (1-eta)/(2 tau_m eta)."""
        return (1.0 - self.eta) / (2.0 * self.tau_m * self.eta)

    @property
    def gamma_total(self) -> float:
        """Total ensemble z-dephasing rate without feedback: 1/2T1 + 1/T2 + 1/(2 tau_m eta)."""
        return 0.5 / self.T1 + 1.0 / self.T2 + 0.5 / (self.tau_m * self.eta)

    @property
    def readout_sigma(self) -> float:
        """Standard deviation of the one-step readout, sqrt(tau_m/dt)."""
        return math.sqrt(self.tau_m / self.dt)

    @property
    def transverse_decay(self) -> float:
        """Per-step factor applied to x and y: exp(-dt/2T1 - dt/T2 - dt*gamma_ineff)."""
        return math.exp(
            -self.dt * (0.5 / self.T1 + 1.0 / self.T2 + self.gamma_ineff)
        )

    @property
    def t1_decay(self) -> float:
        """Per-step factor exp(-dt/T1) applied to the population balance."""
        return math.exp(-self.dt / self.T1)


# ---------------------------------------------------------------------------
# Array kernels.  These encode the actual update formulas once; the trajectory
# engine calls them, and so does the scalar reference in the test suite.
# Given ``out``, a kernel writes its results into the leading arrays of that
# tuple, which may be its own inputs, and its intermediates into the rest,
# allocating nothing (each ufunc takes its out positionally, which numpy
# parses faster than a keyword); every element sees the same operations in
# the same order either way, so the bits do not depend on ``out``.  Every
# operation is float64, except that the rotation computes its cos and sin in
# the angle's dtype: the engine's step passes a float32 angle.  On 4096
# angles (a 2-vCPU AVX-512 Xeon) float32 sin + cos take about 2.2 ns per
# element against 9.2 ns in float64, and the whole float32 path, with its
# cast and two copies, 2.6-4.0 ns.

def backaction_update(y, z, s, out=None):
    """Measurement backaction for log-strength s = r_bar*dt/tau_m.

    Returns the updated (y, z) and the normalization
    p = cosh(s) + z sinh(s), strictly positive whenever |z| <= 1, which
    also divides x (x' = x / p) off the yz-plane.
    ``out`` is (y', z', cosh, sinh, p).
    """
    yo, zo, ch, sh, p = out or (None,) * 5
    ch = np.cosh(s, ch)
    sh = np.sinh(s, sh)
    p = np.add(ch, np.multiply(z, sh, p), p)
    return (
        np.divide(y, p, yo),
        np.divide(np.add(np.multiply(z, ch, zo), sh, zo), p, zo),
        p,
    )


def rotation_update(y, z, angle, out=None):
    """Rotate (y, z) by ``angle`` (rad); +z turns toward +y. Norm-preserving
    to the precision of the angle's dtype.

    cos and sin are computed in the angle's dtype (float32 for a float32
    angle) and widened to float64 for the products, which are float64.
    ``out`` is (y', z', cos, sin, y sin, z sin, trig), ``trig`` of the
    angle's dtype: cos and sin are written there and copied on, because a
    float32 ufunc writing into float64 allocates a cast buffer.
    """
    yo, zo, c, s, ys, zs, trig = out or (None,) * 7
    if out is None:
        c, s = (np.asarray(f(angle), dtype=np.float64) for f in (np.cos, np.sin))
    else:
        np.copyto(c, np.cos(angle, trig))
        np.copyto(s, np.sin(angle, trig))
    ys = np.multiply(y, s, ys)  # before y' overwrites y
    zs = np.multiply(z, s, zs)
    return (
        np.add(np.multiply(y, c, yo), zs, yo),
        np.subtract(np.multiply(z, c, zo), ys, zo),
    )


def dissipation_update(y, z, transverse_decay, t1_decay, out=None):
    """Relaxation/dephasing step with precomputed per-step factors; x,
    off the yz-plane, shrinks by ``transverse_decay`` like y.

    ``out`` is (y', z').
    """
    yo, zo = out or (None,) * 2
    return (
        np.multiply(y, transverse_decay, yo),
        np.subtract(np.multiply(z, t1_decay, zo), 1.0 - t1_decay, zo),
    )
