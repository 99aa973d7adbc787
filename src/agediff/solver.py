"""Explicit time stepping for the age-structured transport-diffusion model.

One step advances the interior values with upwinded transport, centered
diffusion and the mortality sink evaluated at the current weighted
population:

    U_i^{n+1} = (1 - lam - 2r - k*d_i(s1)) U_i^n + (r + lam) U_{i-1}^n + r U_{i+1}^n

The i = 1 and i = M-1 stencils reach the boundary values: the right one is
prescribed data, the left one solves the discrete Robin birth law

    (1 + 1/h) U_0^n - (1/h) U_1^n = qh(B(., s2) * U^n)

for U_0^n, which rearranges to U_0^n = (h*qh(...) + U_1^n) / (h + 1).  The
left value is computed at every stored level, including the last one, so a
solution history always satisfies the boundary identity row by row.

A :class:`GridFunction` (one row of node values x_0..x_M per level, on one
mesh) is the package's one space-time type: :func:`run` returns its solution
history as one, and :mod:`agediff.residual` measures elements and residuals
as grid functions too.

:func:`run` computes the mesh constants once and marches in one full-width
work row; row[0] holds U_0^n and row[-1] holds g(t^n), so the stencil needs
no boundary case; g is read at each level (at t^n = n * k), and with no g
row[-1] stays 0.  A step is one product of the row's read-only (3, M - 1)
window view (U_{i-1}, U_i, U_{i+1}) with the stencil [r + lam; c; r], which
forms every term of level n; two adds in the formula's order then write
level n + 1 over the row's interior.  For a stride-0 d (one value at every
node) c is one Python float; otherwise c and its least value are per node.
``run(problem, grid, every=e)`` copies the work row into the history at
levels 0, e, 2e, ..., but steps every level whatever e is, so it refuses a
mesh whose every-level history numpy cannot index before stepping.

``run(problem, grid, observe=f)`` also calls ``f(n, row)`` at every level
n = 0..n_steps, after U_0^n and g(t^n) have been checked finite and before
the step to n + 1.  ``row`` is the work row holding the whole level x_0..x_M:
the observer must not modify it, and it is valid only during the call, as
the next step overwrites it.  Both convergence studies run with
``every=n_steps`` and read every level from the observer.  ``observe=`` is
the one per-level interface to the kernel, and ``_history_shape`` the one
check of a history's shape before it is allocated.

The three quadratures of a step (s2, the birth integral and s1) write their
integrands into one scratch :class:`~agediff.quadrature.InteriorVector`.

Finiteness is guarded by scalars; the array checks run only when one fails,
to pick the error that checking each array at once would raise.  Every
quadrature weight is nonzero, so a non-finite integrand has a non-finite
integral.  In stepping order:

1. s2 of level n is not finite: the last step's d (EvalError), then row n
   (NonFiniteState), both from level 1 on, then psi2 (EvalError).  A -inf d
   makes the row non-finite, so it lands here.  If all are finite (the
   integral overflowed), stepping goes on.
2. U_0^n is not finite: B (EvalError), else NonFiniteState.
3. g(t^n) is not finite: NonFiniteState.
4. s1 of level n is not finite: psi1 (EvalError); else d is called with it.
5. The least update weight 1 - lam - 2r - k*d_i is NaN or negative: d
   (EvalError), else StabilityViolation.  NaN and +inf d land here.

inf and NaN thus reach numpy before the error, so the loop runs under
``np.errstate(invalid="ignore")``, which also silences "invalid value"
warnings inside the coefficient callables while :func:`run` steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DimensionMismatch, EvalError, InvalidParameter, NonFiniteState, StabilityViolation
from .grid import GridSpec
from .model import ProblemSpec
from .quadrature import InteriorVector, qh


@dataclass(frozen=True)
class GridFunction:
    """A space-time grid function on one mesh: one row of node values per level.

    A computed solution, an element of X_h and a residual in Y_h are all grid
    functions; they differ only in the norm applied to them (``xh_norm`` or
    ``yh_norm``).  ``values`` has shape (n_steps // every + 1, m_total + 1);
    row j holds the values at x_0..x_M on level n = j * every.  The boundary
    traces and the interior rows are views of its columns, so writing through
    them writes ``values``.
    """

    values: np.ndarray
    grid: GridSpec
    every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        shape = _history_shape(self.grid, self.every)
        if self.values.shape != shape:
            raise DimensionMismatch(f"values must have shape {shape}, got {self.values.shape}")

    @property
    def left_trace(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def interior(self) -> np.ndarray:
        return self.values[:, 1:-1]

    @property
    def right_trace(self) -> np.ndarray:
        return self.values[:, -1]


def _history_shape(grid: GridSpec, every) -> tuple[int, int]:
    """(levels, nodes) of a history of every ``every``-th level, checked before it is allocated."""
    if not (
        isinstance(every, int)
        and not isinstance(every, bool)
        and every >= 1
        and grid.n_steps % every == 0
    ):
        raise InvalidParameter(
            f"every must be a positive integer dividing n_steps = {grid.n_steps}, got {every!r}"
        )
    levels, width = grid.n_steps // every + 1, grid.m_total + 1
    if levels * width * np.dtype(float).itemsize > np.iinfo(np.intp).max:
        # GridSpec only checks that one float per level fits
        raise InvalidParameter(
            f"a history of {levels:.6g} levels x {width} nodes is more than numpy can allocate"
        )
    return levels, width


def _check_domain(problem: ProblemSpec, grid: GridSpec) -> None:
    if problem.a_dagger != grid.a_dagger:
        raise InvalidParameter(
            f"problem lives on [0, {problem.a_dagger!r}] but grid covers [0, {grid.a_dagger!r}]"
        )


def _right_value(g: Callable[[float], float], n: int, k: float) -> float:
    """g(t^n), checked finite; t^n = n * k is the float of ``grid.time_levels()[n]``."""
    value = float(g(n * k))
    if not math.isfinite(value):
        raise NonFiniteState(f"right boundary data is not finite at time level {n} (t = {n * k!r})", time_level=n)
    return value


def _nodal_values(values, x: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        raise DimensionMismatch(
            f"{what} returned shape {values.shape} for {x.shape[0]} nodes"
        )
    return values


def _initial_row(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    """The initial profile at the nodes ``x``, checked finite."""
    values = _nodal_values(problem.initial(x), x, "initial profile")
    if not np.isfinite(values).all():
        raise NonFiniteState("initial profile is not finite", time_level=0)
    return values


def _check_coefficient(values: np.ndarray, what: str, s: Optional[float] = None) -> None:
    if not np.isfinite(values).all():
        at = "" if s is None else f" (s = {s!r})"
        raise EvalError(f"{what} evaluated to a non-finite value{at}")


def run(
    problem: ProblemSpec,
    grid: GridSpec,
    every: int = 1,
    observe: Optional[Callable[[int, np.ndarray], object]] = None,
) -> GridFunction:
    """March from the initial profile to t_final, recording every ``every``-th level.

    ``observe``, if given, is called as ``observe(n, row)`` at every level n;
    see the module docstring.  A mesh whose every-level history numpy cannot
    index raises InvalidParameter before anything is allocated, whatever ``every`` is.
    """
    _check_domain(problem, grid)
    if grid.lam + 2.0 * grid.r > 1.0:
        # GridSpec construction already enforces this; kept as a cheap guard
        # so a tampered grid cannot start stepping.
        raise StabilityViolation(
            f"stability bound violated: lam + 2*r = {grid.lam + 2.0 * grid.r!r} > 1"
        )
    levels, width = _history_shape(grid, every)
    _history_shape(grid, 1)  # every level is stepped, whatever is kept
    if observe is not None and not callable(observe):
        raise InvalidParameter(f"observe must be callable or None, got {observe!r}")

    x = grid.interior_nodes()
    h, k, r = grid.h, grid.k, grid.r
    diagonal = 1.0 - grid.lam - 2.0 * r  # the weight of U_i apart from -k*d_i
    upwind = r + grid.lam
    n_steps = grid.n_steps

    values = np.empty((levels, width))
    # the one work row holds level n; its view of x_1..x_{M-1} and its window view
    row = np.zeros(width)  # row[-1] stays 0 when there is no g
    inner, windows = row[1:-1], sliding_window_view(row, 3).T
    # the stencil [r + lam; c; r], times the window view in one product
    stencil, terms = np.empty((2, 3, width - 2))
    stencil[0], stencil[2] = upwind, r
    center = stencil[1]
    upwind_terms, center_terms, right_terms = terms
    weighted = InteriorVector(np.empty(width - 2), h)
    products = weighted.values
    inner[:] = _initial_row(problem, x)

    # Bound when the call starts, so a patched module-level qh is the one called.
    quadrature, psi1_of, psi2_of = qh, problem.psi1, problem.psi2
    fertility_of, mortality_of, g = problem.fertility, problem.mortality, problem.right_boundary
    multiply, subtract, add, least, isfinite = np.multiply, np.subtract, np.add, np.minimum.reduce, math.isfinite
    ndarray, float64, shape = np.ndarray, np.dtype(float), x.shape

    s1 = mortality = None  # the last step's, checked when the row it made is not finite
    with np.errstate(invalid="ignore"):
        for n in range(n_steps + 1):
            # Only a value that is not already a float64 array of x's shape goes
            # through _nodal_values, which converts it or raises DimensionMismatch.
            psi2 = psi2_of(x)
            if type(psi2) is not ndarray or psi2.dtype is not float64 or psi2.shape != shape:
                psi2 = _nodal_values(psi2, x, "psi2")
            multiply(psi2, inner, out=products)
            s2 = quadrature(weighted)
            if not isfinite(s2):
                if n > 0:
                    _check_coefficient(mortality, "mortality", s1)
                    if not np.isfinite(inner).all():
                        raise NonFiniteState(f"state became non-finite at time level {n} (t = {n * k!r})", time_level=n)
                _check_coefficient(psi2, "psi2")
            fertility = fertility_of(x, s2)
            if type(fertility) is not ndarray or fertility.dtype is not float64 or fertility.shape != shape:
                fertility = _nodal_values(fertility, x, "fertility")
            multiply(fertility, inner, out=products)
            left = (h * quadrature(weighted) + inner[0]) / (h + 1.0)
            if not isfinite(left):
                _check_coefficient(fertility, "fertility", s2)
                raise NonFiniteState(f"left boundary value became non-finite at time level {n}", time_level=n)
            row[0] = left
            if g is not None:
                row[-1] = _right_value(g, n, k)
            if n % every == 0:
                values[n // every] = row
            if observe is not None:
                observe(n, row)
            if n == n_steps:
                break

            # ((c_i*U_i + (r+lam)*U_{i-1}) + r*U_{i+1}) with c_i = (1 - lam - 2r) - k*d_i,
            # evaluated in that order; a negative c_i breaks the convex combination
            psi1 = psi1_of(x)
            if type(psi1) is not ndarray or psi1.dtype is not float64 or psi1.shape != shape:
                psi1 = _nodal_values(psi1, x, "psi1")
            multiply(psi1, inner, out=products)
            s1 = quadrature(weighted)
            if not isfinite(s1):
                _check_coefficient(psi1, "psi1")
            mortality = mortality_of(x, s1)
            if type(mortality) is not ndarray or mortality.dtype is not float64 or mortality.shape != shape:
                mortality = _nodal_values(mortality, x, "mortality")
            if mortality.strides == (0,):  # one d at every node, so one update weight
                margin = diagonal - mortality.item(0) * k
                center.fill(margin)
            else:
                multiply(mortality, k, out=center)
                subtract(diagonal, center, out=center)
                margin = least(center)
            if not margin >= 0.0:
                _check_coefficient(mortality, "mortality", s1)
                raise StabilityViolation(
                    f"update coefficient 1 - lam - 2*r - k*d = {float(margin)!r} < 0 (s1 = {s1!r}); "
                    "refine the mesh or lower r"
                )
            multiply(windows, stencil, out=terms)  # every term of level n before the row is overwritten
            add(center_terms, upwind_terms, out=inner)
            add(inner, right_terms, out=inner)

    return GridFunction(values, grid, every)
