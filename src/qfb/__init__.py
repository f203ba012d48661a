"""Monte Carlo simulation and analytic design of linear measurement feedback
for a dispersively monitored qubit.

The package splits into:

* :mod:`qfb.model` -- the Bloch state, physical constants, and the
  vectorized step kernels (measurement backaction, feedback rotation,
  dissipation),
* :mod:`qfb.chain` -- the classical filter + delay signal path,
* :mod:`qfb.engine` -- reproducible stochastic trajectory ensembles,
  reduced on the fly to mean curves and steady-state samples (a single
  trajectory is an ensemble of one),
* :mod:`qfb.design` -- closed-form feedback design,
* :mod:`qfb.stats` -- ensemble summaries: steady-state histograms, peak
  and lobe detection, and ``steady_state``, the one steady-state path,
  which summarizes each of one or more laws from one batched ensemble
  (histogram mode runs one law, the sweeps one per operating point),
* :mod:`qfb.cli` -- the ``qfb`` command-line harness.
"""

__version__ = "0.1.0"

from .chain import FeedbackChain, FeedbackLaw, validate_law
from .design import design_ideal, design_nonideal, max_radius
from .engine import (
    EnsembleResult,
    SteadySampling,
    run_ensemble,
    trajectory_rng,
)
from .model import BlochState, ModelParams
from .stats import (
    EnsembleSummary,
    HistogramGrid,
    Lobe,
    PeakReport,
    find_peak,
    steady_state,
    summarize,
)

__all__ = [
    "__version__",
    "BlochState",
    "ModelParams",
    "FeedbackLaw",
    "FeedbackChain",
    "SteadySampling",
    "EnsembleResult",
    "EnsembleSummary",
    "HistogramGrid",
    "PeakReport",
    "Lobe",
    "validate_law",
    "run_ensemble",
    "trajectory_rng",
    "design_ideal",
    "design_nonideal",
    "max_radius",
    "find_peak",
    "summarize",
    "steady_state",
]
