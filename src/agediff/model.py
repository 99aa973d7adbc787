"""Problem definitions: coefficients, boundary data and exact solutions.

A problem couples a linear transport-diffusion operator in age with two
nonlocal feedbacks: the mortality coefficient d(x, s1) and the birth kernel
B(x, s2) each read a weighted total population s_i(t) = integral of
psi_i * u over the age interval.  The right end of the interval either
enforces u = 0 (homogeneous) or a prescribed Dirichlet history g(t).

Coefficient callables are vectorized over the age argument: they receive a
float ndarray of node coordinates plus the scalar weighted population, and
must return an array of the same shape.  ``g`` and exact solutions in time
are scalar in t.

No caller writes into the array a coefficient, profile or exact solution
returns, so a callable may hand out a shared read-only array.  The built-ins
do: a coefficient that reads neither x nor s (psi1 = psi2 = 1, and example1's
d = 1 and B = e) returns one cached ``np.full`` array per shape, and writing
into it raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import UnknownProblem
from . import exprdsl

Coefficient = Callable[[np.ndarray, float], np.ndarray]
AgeProfile = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the model, ready for the solver.

    ``right_boundary`` is None for the homogeneous case; otherwise it is the
    Dirichlet history g(t) imposed at x = a_dagger.
    """

    mortality: Coefficient
    fertility: Coefficient
    psi1: AgeProfile
    psi2: AgeProfile
    initial: AgeProfile
    a_dagger: float = 1.0
    right_boundary: Optional[Callable[[float], float]] = None

    def boundary_value(self, t: float) -> float:
        """Value imposed at the right end at time t (0 when homogeneous)."""
        if self.right_boundary is None:
            return 0.0
        return float(self.right_boundary(t))


@dataclass(frozen=True)
class ExactSolution:
    """A closed-form solution u(x, t), vectorized over x."""

    u: Callable[[np.ndarray, float], np.ndarray]


_DECAY_SCALE = 1.0 - math.exp(-1.0)


@functools.lru_cache(maxsize=64)
def _full(shape: tuple, value: float) -> np.ndarray:
    # Read-only: every call for this shape and value shares this one array.
    values = np.full(shape, value)
    values.flags.writeable = False
    return values


def _constant(value: float) -> Callable:
    """A coefficient or profile that reads neither x nor s: ``value`` at every node."""
    # x.shape spares the solver's ndarray the dispatch of np.shape, which scalars need
    return lambda x, s=None: _full(x.shape if isinstance(x, np.ndarray) else np.shape(x), value)


def _filled(x, value: float) -> np.ndarray:
    """``np.full_like(x, value)`` without numpy's Python-level wrapper."""
    values = np.empty_like(x)
    values.fill(value)
    return values


def _example1() -> tuple[ProblemSpec, ExactSolution]:
    problem = ProblemSpec(
        mortality=_constant(1.0),
        fertility=_constant(math.e),
        psi1=_constant(1.0),
        psi2=_constant(1.0),
        initial=lambda x: math.e - np.exp(x),
        a_dagger=1.0,
        right_boundary=None,
    )
    exact = ExactSolution(u=lambda x, t: (math.e - np.exp(x)) * math.exp(-t))
    return problem, exact


def _example2() -> tuple[ProblemSpec, None]:
    problem = ProblemSpec(
        mortality=lambda x, s: _filled(x, 0.5 + s / _DECAY_SCALE),
        fertility=lambda x, s: 2.0 * np.exp(x),
        psi1=_constant(1.0),
        psi2=_constant(1.0),
        initial=lambda x: math.e - np.exp(x),
        a_dagger=1.0,
        right_boundary=None,
    )
    return problem, None


def _example3() -> tuple[ProblemSpec, ExactSolution]:
    problem = ProblemSpec(
        mortality=lambda x, s: _filled(x, 1.0 + s / _DECAY_SCALE),
        fertility=lambda x, s: 2.0 * np.exp(x),
        psi1=_constant(1.0),
        psi2=_constant(1.0),
        initial=lambda x: np.exp(-x) / 2.0,
        a_dagger=1.0,
        right_boundary=lambda t: math.exp(-1.0) / (1.0 + math.exp(-t)),
    )
    exact = ExactSolution(u=lambda x, t: np.exp(-x) / (1.0 + math.exp(-t)))
    return problem, exact


_BUILTINS = {
    "example1": (_example1, "constant rates, exact solution, homogeneous right boundary"),
    "example2": (_example2, "population-dependent mortality, no closed form"),
    "example3": (_example3, "population-dependent mortality, Dirichlet right boundary, exact solution"),
}


def builtin_ids() -> list[str]:
    return sorted(_BUILTINS)


def _builtin(problem_id: str) -> tuple:
    try:
        return _BUILTINS[problem_id]
    except KeyError:
        raise UnknownProblem(
            f"unknown problem {problem_id!r}; available: {', '.join(builtin_ids())}"
        ) from None


def builtin_description(problem_id: str) -> str:
    return _builtin(problem_id)[1]


def builtin_problem(problem_id: str) -> tuple[ProblemSpec, Optional[ExactSolution]]:
    """Return a built-in problem and its exact solution, if one is known."""
    return _builtin(problem_id)[0]()


def _nodewise(ast: exprdsl.ExprAst, x: np.ndarray, bindings: dict) -> np.ndarray:
    """Evaluate ``ast`` at every node of ``x`` (any shape), one eval_expr call per node.

    Also for a constant ``ast``: the benchmark pins exprdsl.eval.calls to the
    node count, so a whole-array path waits for the benchmark to change.
    """
    x = np.asarray(x, dtype=float)
    evaluate = exprdsl.eval_expr
    # Each pass binds the next node to bindings["x"] before the call.
    values = [evaluate(ast, bindings) for bindings["x"] in x.reshape(-1).tolist()]
    return np.array(values, dtype=float).reshape(x.shape)


def _profile_from_ast(ast: exprdsl.ExprAst) -> AgeProfile:
    return lambda x: _nodewise(ast, x, {})


def _coefficient_from_ast(ast: exprdsl.ExprAst) -> Coefficient:
    return lambda x, s: _nodewise(ast, x, {"s": float(s)})


# The variables each expression of problem_from_expressions may read.
EXPRESSION_VARIABLES = {
    "mortality": {"x", "s"},
    "fertility": {"x", "s"},
    "psi1": {"x"},
    "psi2": {"x"},
    "initial": {"x"},
    "right_boundary": {"t"},
}


def problem_from_expressions(
    mortality: str,
    fertility: str,
    initial: str,
    psi1: str = "1",
    psi2: str = "1",
    right_boundary: Optional[str] = None,
    a_dagger: float = 1.0,
) -> ProblemSpec:
    """Build a ProblemSpec from expression strings.

    Each slot may read only its variables in :data:`EXPRESSION_VARIABLES`.
    ParseError propagates with the offending position.
    """
    variables = EXPRESSION_VARIABLES
    mortality_ast = exprdsl.parse_expr(mortality, variables["mortality"])
    fertility_ast = exprdsl.parse_expr(fertility, variables["fertility"])
    psi1_ast = exprdsl.parse_expr(psi1, variables["psi1"])
    psi2_ast = exprdsl.parse_expr(psi2, variables["psi2"])
    initial_ast = exprdsl.parse_expr(initial, variables["initial"])
    g = None
    if right_boundary is not None:
        g_ast = exprdsl.parse_expr(right_boundary, variables["right_boundary"])

        def g(t: float) -> float:
            return exprdsl.eval_expr(g_ast, {"t": float(t)})

    return ProblemSpec(
        mortality=_coefficient_from_ast(mortality_ast),
        fertility=_coefficient_from_ast(fertility_ast),
        psi1=_profile_from_ast(psi1_ast),
        psi2=_profile_from_ast(psi2_ast),
        initial=_profile_from_ast(initial_ast),
        a_dagger=float(a_dagger),
        right_boundary=g,
    )
