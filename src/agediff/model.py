"""Problem definitions: coefficients, boundary data and exact solutions.

A problem couples a linear transport-diffusion operator in age with two
nonlocal feedbacks: the mortality coefficient d(x, s1) and the birth kernel
B(x, s2) each read a weighted total population s_i(t) = integral of
psi_i * u over the age interval.  The right end of the interval either
enforces u = 0 (homogeneous) or a prescribed Dirichlet history g(t).

Coefficient callables are vectorized over the age argument: they receive a
float ndarray of node coordinates plus the scalar weighted population, and
must return an array of the same shape.  ``g`` is scalar in t, and called
once per time level n with the float t = n * k.  An exact
solution is a plain callable u(x, t) that broadcasts over both arguments:
:func:`agediff.residual.restrict` calls it once per block of levels, with the
node row x of shape (M + 1,) and the time column t of shape (levels, 1), and
the value must broadcast to (levels, M + 1).  So write ``np.exp(t)``, not
``math.exp(t)``.

No caller writes into the array a coefficient, profile or exact solution
returns, so a callable may hand out a shared read-only array.  The built-ins
do: a coefficient that reads neither x nor s (psi1 = psi2 = 1, and example1's
d = 1 and B = e) returns one cached ``np.full`` array per shape, and one that
reads s but not x (examples 2 and 3's d) a read-only stride-0 array of x's
shape.  Writing into either raises ValueError.

A problem is data.  Each built-in is one entry of a table built at import,
so every call hands out the same objects.  An inline problem is one
expression per slot of :data:`EXPRESSION_VARIABLES`, and a slot's variables
decide how it is called: g(t) for t, a coefficient (x, s) for s, and a
profile (x) otherwise.
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
SpaceTimeFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    """One instance of the model, ready for the solver.

    ``right_boundary`` is None for the homogeneous case; otherwise it is the
    Dirichlet history g(t) imposed at x = a_dagger, finite at every time level.
    """

    mortality: Coefficient
    fertility: Coefficient
    psi1: AgeProfile
    psi2: AgeProfile
    initial: AgeProfile
    a_dagger: float = 1.0
    right_boundary: Optional[Callable[[float], float]] = None


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
    """``value`` at every node of ``x``: a stride-0 array, read-only as its numpy-scalar buffer is."""
    shape = x.shape if isinstance(x, np.ndarray) else np.shape(x)
    return np.ndarray(shape, float, np.float64(value), 0, (0,) * len(shape))


def _twice_exp(x, s):
    values = np.exp(x)  # B = 2e^x with one allocation
    values *= 2.0
    return values


# Each built-in: its description, the problem and its exact solution u(x, t), or None if none is known.
_BUILTINS = {
    "example1": (
        "constant rates, exact solution, homogeneous right boundary",
        ProblemSpec(
            mortality=_constant(1.0),
            fertility=_constant(math.e),
            psi1=_constant(1.0),
            psi2=_constant(1.0),
            initial=lambda x: math.e - np.exp(x),
        ),
        lambda x, t: (math.e - np.exp(x)) * np.exp(-t),
    ),
    "example2": (
        "population-dependent mortality, no closed form",
        ProblemSpec(
            mortality=lambda x, s: _filled(x, 0.5 + s / _DECAY_SCALE),
            fertility=_twice_exp,
            psi1=_constant(1.0),
            psi2=_constant(1.0),
            initial=lambda x: math.e - np.exp(x),
        ),
        None,
    ),
    "example3": (
        "population-dependent mortality, Dirichlet right boundary, exact solution",
        ProblemSpec(
            mortality=lambda x, s: _filled(x, 1.0 + s / _DECAY_SCALE),
            fertility=_twice_exp,
            psi1=_constant(1.0),
            psi2=_constant(1.0),
            initial=lambda x: np.exp(-x) / 2.0,
            right_boundary=lambda t: math.exp(-1.0) / (1.0 + math.exp(-t)),
        ),
        lambda x, t: np.exp(-x) / (1.0 + np.exp(-t)),
    ),
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
    return _builtin(problem_id)[0]


def builtin_problem(problem_id: str) -> tuple[ProblemSpec, Optional[SpaceTimeFunction]]:
    """Return a built-in problem and its exact solution u(x, t), or None if none is known.

    Every call returns the same two objects; ProblemSpec is frozen.
    """
    return _builtin(problem_id)[1:]


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


# The variables each expression of problem_from_expressions may read.
EXPRESSION_VARIABLES = {
    "mortality": {"x", "s"},
    "fertility": {"x", "s"},
    "psi1": {"x"},
    "psi2": {"x"},
    "initial": {"x"},
    "right_boundary": {"t"},
}


def _callable_from_ast(ast: exprdsl.ExprAst, variables: set) -> Callable:
    """The callable a slot reading ``variables`` calls for: g(t), a coefficient (x, s) or a profile (x)."""
    if "t" in variables:
        return lambda t: exprdsl.eval_expr(ast, {"t": float(t)})
    if "s" in variables:
        return lambda x, s: _nodewise(ast, x, {"s": float(s)})
    return lambda x: _nodewise(ast, x, {})


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

    Slots are parsed in :data:`EXPRESSION_VARIABLES` order, and each may read
    only its variables there.  ParseError propagates with the offending
    position, from the first slot that fails.
    """
    texts = dict(
        mortality=mortality, fertility=fertility, psi1=psi1, psi2=psi2, initial=initial, right_boundary=right_boundary
    )
    slots = {
        slot: _callable_from_ast(exprdsl.parse_expr(texts[slot], variables), variables)
        for slot, variables in EXPRESSION_VARIABLES.items()
        if texts[slot] is not None
    }
    return ProblemSpec(**slots, a_dagger=float(a_dagger))
