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

:func:`run` computes the mesh constants once and marches in two full-width
work rows whose interior and shifted views are made once per run; row[0]
holds U_0^n and row[-1] holds g(t^n), so the stencil needs no boundary case.
``run(problem, grid, every=e)`` copies the work row into the history at
levels 0, e, 2e, ...

``run(problem, grid, observe=f)`` also calls ``f(n, row)`` at every level
n = 0..n_steps, after U_0^n has been computed and checked finite and before
the step to n + 1.  ``row`` is the work row holding the whole level x_0..x_M:
the observer must not modify it, and it is valid only during the call.  Both
convergence studies run with ``every=n_steps`` and read every level from the
observer.  ``observe=`` is the one per-level interface to the kernel, and
``_history_shape`` the one check of a history's shape before it is allocated.

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
3. s1 of level n is not finite: psi1 (EvalError); else d is called with it.
4. The least update weight 1 - lam - 2r - k*d_i is NaN or negative: d
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


def _boundary_values(problem: ProblemSpec, grid: GridSpec) -> np.ndarray:
    """g(t^n) at every time level n = 0..n_steps, checked finite (zeros when homogeneous)."""
    values = np.fromiter(
        (problem.boundary_value(t) for t in grid.time_levels()), dtype=float, count=grid.n_steps + 1
    )
    if not np.all(np.isfinite(values)):
        raise NonFiniteState("right boundary data is not finite")
    return values


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
    see the module docstring.  A history larger than numpy can index raises
    InvalidParameter before anything is allocated.
    """
    _check_domain(problem, grid)
    if grid.lam + 2.0 * grid.r > 1.0:
        # GridSpec construction already enforces this; kept as a cheap guard
        # so a tampered grid cannot start stepping.
        raise StabilityViolation(
            f"stability bound violated: lam + 2*r = {grid.lam + 2.0 * grid.r!r} > 1"
        )
    levels, width = _history_shape(grid, every)
    if observe is not None and not callable(observe):
        raise InvalidParameter(f"observe must be callable or None, got {observe!r}")

    x = grid.interior_nodes()
    h, k, r = grid.h, grid.k, grid.r
    diagonal = 1.0 - grid.lam - 2.0 * r  # the weight of U_i apart from -k*d_i
    upwind = r + grid.lam
    n_steps = grid.n_steps

    values = np.empty((levels, width))
    # level n lives in rows[n % 2], so a step never overwrites the row it reads;
    # each row comes with its views of x_1..x_{M-1}, x_0..x_{M-2} and x_2..x_M
    rows = np.empty((2, width))
    views = [(row, row[1:-1], row[:-2], row[2:]) for row in rows]
    tmp = np.empty(width - 2)
    weighted = InteriorVector(np.empty(width - 2), h)
    products = weighted.values
    rows[0, 1:-1] = _initial_row(problem, x)
    boundary = _boundary_values(problem, grid)

    s1 = mortality = None  # the last step's, checked when the row it made is not finite
    with np.errstate(invalid="ignore"):
        for n in range(n_steps + 1):
            row, inner, before, after = views[n % 2]
            psi2 = _nodal_values(problem.psi2(x), x, "psi2")
            np.multiply(psi2, inner, out=products)
            s2 = qh(weighted)
            if not math.isfinite(s2):
                if n > 0:
                    _check_coefficient(mortality, "mortality", s1)
                    if not np.isfinite(inner).all():
                        raise NonFiniteState(f"state became non-finite at time level {n} (t = {n * k!r})", time_level=n)
                _check_coefficient(psi2, "psi2")
            fertility = _nodal_values(problem.fertility(x, s2), x, "fertility")
            np.multiply(fertility, inner, out=products)
            left = (h * qh(weighted) + inner[0]) / (h + 1.0)
            if not math.isfinite(left):
                _check_coefficient(fertility, "fertility", s2)
                raise NonFiniteState(f"left boundary value became non-finite at time level {n}", time_level=n)
            row[0] = left
            row[-1] = boundary[n]
            if n % every == 0:
                values[n // every] = row
            if observe is not None:
                observe(n, row)
            if n == n_steps:
                break

            # ((c_i*U_i + (r+lam)*U_{i-1}) + r*U_{i+1}) with c_i = (1 - lam - 2r) - k*d_i,
            # evaluated in that order; a negative c_i breaks the convex combination
            psi1 = _nodal_values(problem.psi1(x), x, "psi1")
            np.multiply(psi1, inner, out=products)
            s1 = qh(weighted)
            if not math.isfinite(s1):
                _check_coefficient(psi1, "psi1")
            mortality = _nodal_values(problem.mortality(x, s1), x, "mortality")
            advanced = views[1 - n % 2][1]
            np.multiply(mortality, k, out=advanced)
            np.subtract(diagonal, advanced, out=advanced)
            margin = advanced.min()
            if not margin >= 0.0:
                _check_coefficient(mortality, "mortality", s1)
                raise StabilityViolation(
                    f"update coefficient 1 - lam - 2*r - k*d = {float(margin)!r} < 0 (s1 = {s1!r}); "
                    "refine the mesh or lower r"
                )
            advanced *= inner
            np.multiply(before, upwind, out=tmp)
            advanced += tmp
            np.multiply(after, r, out=tmp)
            advanced += tmp

    return GridFunction(values, grid, every)
