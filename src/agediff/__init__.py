"""Explicit finite-difference solver for an age-structured population model
with diffusion and a nonlocal, population-dependent birth law.

The public surface mirrors the package layout: mesh construction in
:mod:`agediff.grid`, interior quadrature and discrete norms in
:mod:`agediff.quadrature`, problem definitions in :mod:`agediff.model`, the
time stepper in :mod:`agediff.solver`, the residual operator and space norms
in :mod:`agediff.residual`, refinement studies in :mod:`agediff.harness`,
and the coefficient expression language in :mod:`agediff.exprdsl`.
"""

from .errors import (
    AgediffError,
    AlignmentError,
    ConfigError,
    DimensionMismatch,
    EvalError,
    InvalidParameter,
    NonFiniteState,
    ParseError,
    QuadratureFailure,
    StabilityViolation,
    UnknownProblem,
)
from .exprdsl import eval_expr, format_expr, parse_expr
from .grid import GridSpec, build_grid, refine
from .harness import (
    ConsistencyRow,
    ConvergenceRow,
    StabilityRow,
    consistency_study,
    convergence_study,
    read_convergence_csv,
    restrict_to_coarse,
    self_convergence_study,
    stability_probe,
    write_consistency_csv,
    write_convergence_csv,
    write_slice_csv,
    write_stability_csv,
)
from .model import (
    ExactSolution,
    ProblemSpec,
    builtin_ids,
    builtin_problem,
    exact_weighted_integral,
    problem_from_expressions,
)
from .quadrature import (
    InteriorVector,
    inf_norm,
    l2_norm,
    qh,
    star_norm,
    weights,
)
from .residual import apply_phi, element_from_solution, restrict, xh_norm, yh_norm
from .solver import GridFunction, run, solve_left_boundary, step

__version__ = "0.1.0"

__all__ = [
    "AgediffError",
    "AlignmentError",
    "ConfigError",
    "ConsistencyRow",
    "ConvergenceRow",
    "DimensionMismatch",
    "EvalError",
    "ExactSolution",
    "GridFunction",
    "GridSpec",
    "InteriorVector",
    "InvalidParameter",
    "NonFiniteState",
    "ParseError",
    "ProblemSpec",
    "QuadratureFailure",
    "StabilityRow",
    "StabilityViolation",
    "UnknownProblem",
    "apply_phi",
    "builtin_ids",
    "builtin_problem",
    "consistency_study",
    "convergence_study",
    "element_from_solution",
    "eval_expr",
    "exact_weighted_integral",
    "format_expr",
    "inf_norm",
    "l2_norm",
    "parse_expr",
    "problem_from_expressions",
    "qh",
    "read_convergence_csv",
    "refine",
    "restrict",
    "restrict_to_coarse",
    "run",
    "self_convergence_study",
    "solve_left_boundary",
    "stability_probe",
    "star_norm",
    "step",
    "weights",
    "write_consistency_csv",
    "write_convergence_csv",
    "write_slice_csv",
    "write_stability_csv",
    "xh_norm",
    "yh_norm",
    "build_grid",
]
