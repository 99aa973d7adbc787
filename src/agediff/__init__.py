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
    ConfigError,
    DimensionMismatch,
    EvalError,
    InvalidParameter,
    NonFiniteState,
    ParseError,
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
    self_convergence_study,
    stability_probe,
    write_csv,
)
from .model import (
    ExactSolution,
    ProblemSpec,
    builtin_ids,
    builtin_problem,
    problem_from_expressions,
)
from .quadrature import (
    InteriorVector,
    l2_norm,
    qh,
    star_norm,
    weights,
)
from .residual import apply_phi, element_from_solution, restrict, xh_norm, yh_norm
from .solver import GridFunction, run

__version__ = "0.1.0"

__all__ = [
    "AgediffError",
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
    "format_expr",
    "l2_norm",
    "parse_expr",
    "problem_from_expressions",
    "qh",
    "refine",
    "restrict",
    "run",
    "self_convergence_study",
    "stability_probe",
    "star_norm",
    "weights",
    "write_csv",
    "xh_norm",
    "yh_norm",
    "build_grid",
]
