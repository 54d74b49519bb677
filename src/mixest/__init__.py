"""Bayesian-optimal single-copy estimation of a mixing parameter.

Given two known states rho1 and rho2 and a prior over ``lam``, this
package finds the measurement minimizing the expected squared error when
estimating ``lam`` in ``rho(lam) = lam rho1 + (1 - lam) rho2`` from one
copy, scores arbitrary measurements, and checks the answers by Monte Carlo
simulation.  The qubit optimum is certified in closed form; the tests check
it against the Bayesian SLD bound and against random POVMs.
"""

from .bayes import (
    EstimationReport,
    MeasurementScore,
    PosteriorMoments,
    Prior,
    effective_states,
    q_functional,
)
from .errors import EstimationError
from .highdim import (
    ReductionKind,
    ReductionOutcome,
    aligned_basis,
    embed_and_check,
    solve,
    solve_commuting,
    solve_pure_plus_noise,
    solve_two_dim_support,
    support_rank,
)
from .policy import DEFAULT_POLICY, NumericPolicy
from .qubit import (
    AngleSolution,
    PlanarGeometry,
    optimal_alpha,
    optimal_pvm,
    planar_geometry,
)
from .simulate import (
    DecoherenceModel,
    SimulationSummary,
    TrialRecord,
    entanglement_demo,
    ppt_threshold,
    run_simulation,
    solve_decay_estimation,
)
from .states import (
    DensityMatrix,
    Effect,
    Povm,
    bloch_compose,
    bloch_decompose,
    validate_povm,
    validate_state,
    validate_states,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSolution",
    "DEFAULT_POLICY",
    "DecoherenceModel",
    "DensityMatrix",
    "Effect",
    "EstimationError",
    "EstimationReport",
    "MeasurementScore",
    "NumericPolicy",
    "PlanarGeometry",
    "PosteriorMoments",
    "Povm",
    "Prior",
    "ReductionKind",
    "ReductionOutcome",
    "SimulationSummary",
    "TrialRecord",
    "aligned_basis",
    "bloch_compose",
    "bloch_decompose",
    "effective_states",
    "embed_and_check",
    "entanglement_demo",
    "optimal_alpha",
    "optimal_pvm",
    "planar_geometry",
    "ppt_threshold",
    "q_functional",
    "run_simulation",
    "solve",
    "solve_commuting",
    "solve_decay_estimation",
    "solve_pure_plus_noise",
    "solve_two_dim_support",
    "support_rank",
    "validate_povm",
    "validate_state",
    "validate_states",
]
