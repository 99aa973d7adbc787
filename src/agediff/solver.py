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

A :class:`GridFunction` (two boundary traces plus interior rows on one
mesh) is the package's one space-time type: :func:`run` returns its solution
history as one, and :mod:`agediff.residual` measures elements and residuals
as grid functions too.

:func:`run` computes the mesh constants once and marches in two work rows
whose shifted views are made once per run; ``run(problem, grid, every=e)``
copies a work row and both traces into the history at levels 0, e, 2e, ...

``run(problem, grid, observe=f)`` also calls ``f(n, left, row, right)`` at
every level n = 0..n_steps, after U_0^n has been computed and checked finite
and before the step to n + 1.  ``row`` is the work row holding U^n: the
observer must not modify it, and it is valid only during the call.  A study
that needs only a reduction over the levels (such as the self-convergence
errors) can run with ``every=n_steps`` and read every level from the
observer.  ``observe=`` is the one per-level interface to the kernel.

The three quadratures of a step (s2, the birth integral and s1) write their
integrands into one scratch :class:`~agediff.quadrature.InteriorVector`.

Finiteness is guarded by scalars; the array checks run only when one fails,
to pick the error that checking each array at once would raise.  Every
quadrature weight is nonzero, so a non-finite integrand has a non-finite
integral.  In stepping order:

1. s2 of level n is not finite: the last step's d (EvalError), then row n
   (NonFiniteState).  A -inf d makes the row non-finite, so it lands here.
   If both are finite (a non-finite psi2), stepping goes on.
2. U_0^n is not finite: B (EvalError), else NonFiniteState.
3. The least update weight 1 - lam - 2r - k*d_i is NaN or negative: d
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
    """A space-time grid function on one mesh: two boundary traces plus interior rows.

    A computed solution, an element of X_h and a residual in Y_h are all grid
    functions; they differ only in the norm applied to them (``xh_norm`` or
    ``yh_norm``).  ``interior`` has shape (n_steps // every + 1, m_total - 1);
    row j and entry j of ``left_trace`` and ``right_trace`` hold the values at
    x_1..x_{M-1}, x_0 and x_M on level n = j * every.
    """

    left_trace: np.ndarray
    interior: np.ndarray
    right_trace: np.ndarray
    grid: GridSpec
    every: int = 1

    def __post_init__(self):
        for name in ("left_trace", "interior", "right_trace"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        _check_every(self.every, self.grid)
        n_levels = self.grid.n_steps // self.every + 1
        width = self.grid.m_total - 1
        if self.left_trace.shape != (n_levels,) or self.right_trace.shape != (n_levels,):
            raise DimensionMismatch(
                f"boundary traces must have shape ({n_levels},), got "
                f"{self.left_trace.shape} and {self.right_trace.shape}"
            )
        if self.interior.shape != (n_levels, width):
            raise DimensionMismatch(
                f"interior must have shape ({n_levels}, {width}), got {self.interior.shape}"
            )

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        if self.grid != other.grid or self.every != other.every:
            raise DimensionMismatch("grid functions live on different grids or level strides")
        return GridFunction(
            self.left_trace - other.left_trace,
            self.interior - other.interior,
            self.right_trace - other.right_trace,
            self.grid,
            self.every,
        )


def _check_every(every, grid: GridSpec) -> None:
    if not (
        isinstance(every, int)
        and not isinstance(every, bool)
        and every >= 1
        and grid.n_steps % every == 0
    ):
        raise InvalidParameter(
            f"every must be a positive integer dividing n_steps = {grid.n_steps}, got {every!r}"
        )


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


def _check_coefficient(values: np.ndarray, s: float, what: str) -> None:
    if not np.isfinite(values).all():
        raise EvalError(f"{what} evaluated to a non-finite value (s = {s!r})")


def _coefficient_values(fn, x: np.ndarray, s: float, what: str) -> np.ndarray:
    values = _nodal_values(fn(x, s), x, what)
    _check_coefficient(values, s, what)
    return values


def run(
    problem: ProblemSpec,
    grid: GridSpec,
    every: int = 1,
    observe: Optional[Callable[[int, float, np.ndarray, float], object]] = None,
) -> GridFunction:
    """March from the initial profile to t_final, recording every ``every``-th level.

    ``observe``, if given, is called as ``observe(n, left, row, right)`` at
    every level n; see the module docstring.
    """
    _check_domain(problem, grid)
    if grid.lam + 2.0 * grid.r > 1.0:
        # GridSpec construction already enforces this; kept as a cheap guard
        # so a tampered grid cannot start stepping.
        raise StabilityViolation(
            f"stability bound violated: lam + 2*r = {grid.lam + 2.0 * grid.r!r} > 1"
        )
    _check_every(every, grid)
    if observe is not None and not callable(observe):
        raise InvalidParameter(f"observe must be callable or None, got {observe!r}")

    x = grid.interior_nodes()
    h, k, r = grid.h, grid.k, grid.r
    diagonal = 1.0 - grid.lam - 2.0 * r  # the weight of U_i apart from -k*d_i
    upwind = r + grid.lam
    n_steps, width = grid.n_steps, grid.m_total - 1

    interior = np.empty((n_steps // every + 1, width))
    left_trace = np.empty(n_steps // every + 1)
    # level n lives in rows[n % 2], so a step never overwrites the row it reads;
    # each row comes with its views that drop the last and the first entry
    rows = np.empty((2, width))
    views = [(row, row[:-1], row[1:]) for row in rows]
    tmp = np.empty(width - 1)
    weighted = InteriorVector(np.empty(width), h)
    products = weighted.values
    rows[0] = _initial_row(problem, x)
    boundary = _boundary_values(problem, grid)

    s1 = mortality = None  # the last step's, checked when the row it made is not finite
    with np.errstate(invalid="ignore"):
        for n in range(n_steps + 1):
            row, row_head, row_tail = views[n % 2]
            np.multiply(_nodal_values(problem.psi2(x), x, "psi2"), row, out=products)
            s2 = qh(weighted)
            if not math.isfinite(s2) and n > 0:
                _check_coefficient(mortality, s1, "mortality")
                if not np.isfinite(row).all():
                    message = f"state became non-finite at time level {n} (t = {grid.time_levels()[n]!r})"
                    raise NonFiniteState(message, time_level=n)
            fertility = _nodal_values(problem.fertility(x, s2), x, "fertility")
            np.multiply(fertility, row, out=products)
            left = (h * qh(weighted) + row[0]) / (h + 1.0)
            if not math.isfinite(left):
                _check_coefficient(fertility, s2, "fertility")
                raise NonFiniteState(f"left boundary value became non-finite at time level {n}", time_level=n)
            right = boundary.item(n)  # a float; boundary.tolist() would hold one object per level
            if n % every == 0:
                left_trace[n // every] = left
                interior[n // every] = row
            if observe is not None:
                observe(n, left, row, right)
            if n == n_steps:
                break

            # ((c_i*U_i + (r+lam)*U_{i-1}) + r*U_{i+1}) with c_i = (1 - lam - 2r) - k*d_i,
            # evaluated in that order; a negative c_i breaks the convex combination
            np.multiply(_nodal_values(problem.psi1(x), x, "psi1"), row, out=products)
            s1 = qh(weighted)
            mortality = _nodal_values(problem.mortality(x, s1), x, "mortality")
            advanced, head, tail = views[1 - n % 2]
            np.multiply(mortality, k, out=advanced)
            np.subtract(diagonal, advanced, out=advanced)
            margin = advanced.min()
            if not margin >= 0.0:
                _check_coefficient(mortality, s1, "mortality")
                raise StabilityViolation(
                    f"update coefficient 1 - lam - 2*r - k*d = {margin!r} < 0 (s1 = {s1!r}); "
                    "refine the mesh or lower r"
                )
            advanced *= row
            np.multiply(row_head, upwind, out=tmp)
            np.add(tail, tmp, out=tail)
            advanced[0] += upwind * left
            np.multiply(row_tail, r, out=tmp)
            np.add(head, tmp, out=head)
            advanced[-1] += r * right

    return GridFunction(left_trace, interior, boundary[::every].copy(), grid, every)
