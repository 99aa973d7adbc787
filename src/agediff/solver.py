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

:func:`run` computes the mesh constants once and writes each new row in
place into its preallocated history.  ``run(problem, grid, every=e)`` keeps
only levels 0, e, 2e, ..., n_steps (interior rows and both traces); the
levels in between are stepped through a two-row work buffer, so the history
holds n_steps/e + 1 rows.  With ``every=1`` every row is written straight
into the history.

``run(problem, grid, observe=f)`` also calls ``f(n, left, row, right)`` once
for every level n = 0..n_steps, after the Robin value U_0^n has been
computed and checked finite and before the step to n + 1.  ``row`` is the
live interior row U^n: the observer must not modify it, and it is valid only
during the call.  A study that needs only a reduction over the levels (such
as the self-convergence errors) can therefore run with ``every=n_steps`` and
read every level from the observer instead of a stored history.

:func:`run` shares one private stepping kernel with the public :func:`step`
and :func:`solve_left_boundary`, so a run and a chain of public calls agree
bit for bit, whatever ``every`` is.
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
class SolutionHistory:
    """The recorded levels of one run: every ``every``-th one, n = 0..n_steps.

    ``interior`` has shape (n_steps // every + 1, m_total - 1); row j and
    entry j of ``left_trace`` and ``right_trace`` hold U^n, U_0^n and U_M^n
    at level n = j * every.
    """

    left_trace: np.ndarray
    right_trace: np.ndarray
    interior: np.ndarray
    grid: GridSpec
    every: int = 1

    def __post_init__(self):
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


def _interior_coordinates(u: InteriorVector) -> np.ndarray:
    return np.arange(1, len(u) + 1) * u.h


def _nodal_values(values, x: np.ndarray, what: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        raise DimensionMismatch(
            f"{what} returned shape {values.shape} for {x.shape[0]} nodes"
        )
    return values


def _coefficient_values(fn, x: np.ndarray, s: float, what: str) -> np.ndarray:
    values = _nodal_values(fn(x, s), x, what)
    if not np.isfinite(values).all():
        raise EvalError(f"{what} evaluated to a non-finite value (s = {s!r})")
    return values


def _stencil(grid: GridSpec) -> tuple[float, float, float, float]:
    """(k, r, 1 - lam - 2r, r + lam): the update weights apart from -k*d."""
    return grid.k, grid.r, 1.0 - grid.lam - 2.0 * grid.r, grid.r + grid.lam


def _left_value(u: np.ndarray, x: np.ndarray, h: float, problem: ProblemSpec) -> float:
    psi2 = _nodal_values(problem.psi2(x), x, "psi2")
    s2 = qh(InteriorVector(psi2 * u, h))
    fertility = _coefficient_values(problem.fertility, x, s2, "fertility")
    birth = qh(InteriorVector(fertility * u, h))
    return (h * birth + u[0]) / (h + 1.0)


def _advance(
    u: np.ndarray,
    left: float,
    right: float,
    problem: ProblemSpec,
    x: np.ndarray,
    h: float,
    stencil: tuple[float, float, float, float],
    out: np.ndarray,
) -> None:
    """Write the next interior row into ``out``.

    Each element is ((c_i*U_i + (r+lam)*U_{i-1}) + r*U_{i+1}) with
    c_i = (1 - lam - 2r) - k*d_i, evaluated in that order.  A negative c_i
    breaks the convex combination and raises StabilityViolation.
    """
    k, r, diagonal, upwind = stencil
    psi1 = _nodal_values(problem.psi1(x), x, "psi1")
    s1 = qh(InteriorVector(psi1 * u, h))
    mortality = _coefficient_values(problem.mortality, x, s1, "mortality")
    np.multiply(mortality, k, out=out)
    np.subtract(diagonal, out, out=out)
    margin = out.min()
    if margin < 0.0:
        raise StabilityViolation(
            f"update coefficient 1 - lam - 2*r - k*d = {margin!r} < 0 (s1 = {s1!r}); "
            "refine the mesh or lower r"
        )
    out *= u
    out[1:] += upwind * u[:-1]
    out[0] += upwind * left
    out[:-1] += r * u[1:]
    out[-1] += r * right


def solve_left_boundary(u: InteriorVector, problem: ProblemSpec) -> float:
    """Solve the discrete Robin condition for U_0 given the interior row."""
    return _left_value(u.values, _interior_coordinates(u), u.h, problem)


def step(
    u_prev: InteriorVector,
    left: float,
    right: float,
    problem: ProblemSpec,
    grid: GridSpec,
) -> InteriorVector:
    """Advance the interior row one time level, given its boundary values U_0 and U_M."""
    if len(u_prev) != grid.m_total - 1 or u_prev.h != grid.h:
        raise DimensionMismatch(
            f"row of length {len(u_prev)} (h = {u_prev.h!r}) does not match grid width "
            f"{grid.m_total - 1} (h = {grid.h!r})"
        )
    advanced = np.empty(len(u_prev))
    x = grid.interior_nodes()
    _advance(u_prev.values, left, right, problem, x, grid.h, _stencil(grid), advanced)
    if not np.isfinite(advanced).all():
        raise NonFiniteState("time step produced a non-finite value")
    return InteriorVector(advanced, grid.h)


def run(
    problem: ProblemSpec,
    grid: GridSpec,
    every: int = 1,
    observe: Optional[Callable[[int, float, np.ndarray, float], object]] = None,
) -> SolutionHistory:
    """March from the initial profile to t_final, recording every ``every``-th level.

    ``observe``, if given, is called as ``observe(n, left, row, right)`` at
    every level n; see the module docstring.
    """
    if problem.a_dagger != grid.a_dagger:
        raise InvalidParameter(
            f"problem lives on [0, {problem.a_dagger!r}] but grid covers [0, {grid.a_dagger!r}]"
        )
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
    h = grid.h
    stencil = _stencil(grid)
    t_levels = grid.time_levels()
    n_steps = grid.n_steps

    interior = np.empty((n_steps // every + 1, grid.m_total - 1))
    # unrecorded levels alternate between the two rows, so a step never
    # overwrites the row it reads
    work = np.empty((2, grid.m_total - 1))
    initial_row = _nodal_values(problem.initial(x), x, "initial profile")
    if not np.all(np.isfinite(initial_row)):
        raise NonFiniteState("initial profile is not finite", time_level=0)
    interior[0] = initial_row

    boundary = np.empty(n_steps + 1)
    for n in range(n_steps + 1):
        boundary[n] = problem.boundary_value(t_levels[n])
    if not np.all(np.isfinite(boundary)):
        raise NonFiniteState("right boundary data is not finite")

    left_trace = np.empty(n_steps // every + 1)
    row = interior[0]
    for n in range(n_steps + 1):
        left = _left_value(row, x, h, problem)
        if not math.isfinite(left):
            raise NonFiniteState(
                f"left boundary value became non-finite at time level {n}", time_level=n
            )
        if n % every == 0:
            left_trace[n // every] = left
        if observe is not None:
            observe(n, left, row, boundary[n])
        if n < n_steps:
            if (n + 1) % every == 0:
                advanced = interior[(n + 1) // every]
            else:
                advanced = work[n % 2]
            _advance(row, left, boundary[n], problem, x, h, stencil, advanced)
            if not np.isfinite(advanced).all():
                raise NonFiniteState(
                    f"state became non-finite at time level {n + 1} (t = {t_levels[n + 1]!r})",
                    time_level=n + 1,
                )
            row = advanced

    return SolutionHistory(
        left_trace=left_trace,
        right_trace=boundary[::every].copy(),
        interior=interior,
        grid=grid,
        every=every,
    )
