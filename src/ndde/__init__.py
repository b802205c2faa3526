"""Boundedness and stability toolkit for nonlinear neutral delay equations.

The package has three legs, built on a shared expression/quadrature core:

* criteria   -- evaluates the damped-integral smallness criterion and turns
                it into verdicts and admissible initial sizes;
* operator   -- the fixed-point route: the solution map split into a compact
                part and a contraction, iterated on a mesh;
* integrator -- the direct route: method-of-steps RK4 with Hermite dense
                output, plus stability experiments around the zero solution.
"""

from .cli import main, run_check, run_picard, run_simulate
from .config import RunConfig, load_config
from .criteria import (
    AlphaEstimate,
    CriteriaReport,
    alpha_estimate,
    asymptotic_check,
    bracket_matching_a,
    delta_bounds,
    evaluate_criteria,
    K_estimate,
    linear_coefficients,
    matched_general_form,
    term_values_general,
    term_values_linear,
    window_lipschitz,
)
from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    NddeError,
    NonDifferentiableError,
    ParseError,
    QuadratureError,
    ValidationError,
)
from .expressions import Expression, differentiate, parse_expression, signed_power
from .hermite import GridFunction
from .integrator import (
    StabilityReport,
    Trajectory,
    convergence_order,
    default_history_family,
    integrate,
    stability_experiment,
)
from .model import (
    AuxiliarySpec,
    DelaySpec,
    HistoryFunction,
    ProblemSpec,
    bind,
    horizon,
    transformed_history,
)
from .operator import (
    PicardResult,
    apply_A,
    apply_B,
    make_mesh,
    picard_solve,
    reconstruct_x,
    residual,
)

__all__ = [
    "AlphaEstimate",
    "AuxiliarySpec",
    "ConfigError",
    "CriteriaReport",
    "DelaySpec",
    "DomainError",
    "Expression",
    "GridFunction",
    "HistoryFunction",
    "IntegrationError",
    "K_estimate",
    "NddeError",
    "PicardResult",
    "NonDifferentiableError",
    "ParseError",
    "ProblemSpec",
    "QuadratureError",
    "RunConfig",
    "StabilityReport",
    "Trajectory",
    "ValidationError",
    "alpha_estimate",
    "apply_A",
    "apply_B",
    "asymptotic_check",
    "bind",
    "bracket_matching_a",
    "convergence_order",
    "default_history_family",
    "delta_bounds",
    "differentiate",
    "evaluate_criteria",
    "horizon",
    "integrate",
    "linear_coefficients",
    "load_config",
    "main",
    "make_mesh",
    "matched_general_form",
    "parse_expression",
    "picard_solve",
    "reconstruct_x",
    "residual",
    "run_check",
    "run_picard",
    "run_simulate",
    "signed_power",
    "stability_experiment",
    "term_values_general",
    "term_values_linear",
    "transformed_history",
    "window_lipschitz",
]

__version__ = "0.1.0"
