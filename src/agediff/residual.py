"""Residual of the discrete equations and the norms of the ambient spaces.

An :class:`XhElement` is an arbitrary space-time grid function (boundary
traces plus interior rows); the solver's output is one particular element.
:func:`apply_phi` evaluates, in difference-quotient form, how far an element
is from satisfying every discrete equation: the Robin row, the right
boundary rows, the initial row and the interior update identities.  A
solution history is a root of this map up to floating-point noise, which is
pinned by tests rather than assumed.

Norms: for elements,

    |V|_X = h * (|V_0|_* + |V_M|_*) + max_n |V^n|

and for residuals

    |P|_Y = sqrt(|P_0|_*^2 + |P^0|^2 + h * |P_M|_*^2 + sum_{n>=1} k |P^n|^2)

with |.|_* the k-weighted time-trace norm and |.| the h-weighted l2 norm
over interior nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, EvalError
from .grid import GridSpec
from .model import ProblemSpec
from .quadrature import InteriorVector, l2_norm, qh, star_norm
from .solver import SolutionHistory, _coefficient_values, _nodal_values

# Rows per block in apply_phi's update residual and in the norms: the
# temporaries scale with a block rather than with the whole history, and
# every entry is computed exactly as in one whole-array expression.
_BLOCK_ROWS = 256


def _check_shapes(left: np.ndarray, rows: np.ndarray, right: np.ndarray, grid: GridSpec) -> None:
    n_levels = grid.n_steps + 1
    width = grid.m_total - 1
    if left.shape != (n_levels,) or right.shape != (n_levels,):
        raise DimensionMismatch(
            f"boundary traces must have shape ({n_levels},), got {left.shape} and {right.shape}"
        )
    if rows.shape != (n_levels, width):
        raise DimensionMismatch(f"rows must have shape ({n_levels}, {width}), got {rows.shape}")


@dataclass(frozen=True)
class XhElement:
    """A grid function on one mesh: traces at x_0 and x_M plus interior rows."""

    left_trace: np.ndarray
    rows: np.ndarray
    right_trace: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        object.__setattr__(self, "left_trace", np.asarray(self.left_trace, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "right_trace", np.asarray(self.right_trace, dtype=float))
        _check_shapes(self.left_trace, self.rows, self.right_trace, self.grid)

    def __sub__(self, other: "XhElement") -> "XhElement":
        if self.grid != other.grid:
            raise DimensionMismatch("elements live on different grids")
        return XhElement(
            self.left_trace - other.left_trace,
            self.rows - other.rows,
            self.right_trace - other.right_trace,
            self.grid,
        )


@dataclass(frozen=True)
class ResidualBundle:
    """Residual components, one slot per discrete equation."""

    left: np.ndarray
    rows: np.ndarray
    right: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        object.__setattr__(self, "left", np.asarray(self.left, dtype=float))
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=float))
        object.__setattr__(self, "right", np.asarray(self.right, dtype=float))
        _check_shapes(self.left, self.rows, self.right, self.grid)

    def __sub__(self, other: "ResidualBundle") -> "ResidualBundle":
        if self.grid != other.grid:
            raise DimensionMismatch("residual bundles live on different grids")
        return ResidualBundle(
            self.left - other.left,
            self.rows - other.rows,
            self.right - other.right,
            self.grid,
        )


def element_from_solution(solution: SolutionHistory) -> XhElement:
    """View a full solution history as an element; a strided one has no element."""
    if solution.every != 1:
        raise DimensionMismatch(
            f"history was recorded with every={solution.every}; an element holds "
            "every level, so run with every=1"
        )
    return XhElement(
        solution.left_trace, solution.interior, solution.right_trace, solution.grid
    )


def restrict(u: Callable[[np.ndarray, float], np.ndarray], grid: GridSpec) -> XhElement:
    """Sample a function of (x, t) on every node of the mesh.

    The right trace is sampled at a_dagger itself, not at the rounded node
    m_total * h; the two can differ by an ulp.
    """
    x = grid.interior_nodes()
    t_levels = grid.time_levels()
    rows = np.empty((grid.n_steps + 1, grid.m_total - 1))
    left = np.empty(grid.n_steps + 1)
    right = np.empty(grid.n_steps + 1)
    for n, t in enumerate(t_levels):
        rows[n] = u(x, float(t))
        left[n] = u(np.asarray(0.0), float(t))
        right[n] = u(np.asarray(grid.a_dagger), float(t))
    if not (
        np.all(np.isfinite(rows)) and np.all(np.isfinite(left)) and np.all(np.isfinite(right))
    ):
        raise EvalError("sampled function is not finite on the grid")
    return XhElement(left, rows, right, grid)


def apply_phi(
    v: XhElement,
    problem: ProblemSpec,
    grid: GridSpec,
    initial: InteriorVector,
) -> ResidualBundle:
    """Evaluate the residual of every discrete equation at an element.

    Interior rows use the raw difference-quotient form of the update
    identity (not the rearranged convex-combination form the stepper uses),
    so this is an independent check of what a computed solution satisfies:

        P_i^n = (V_i^n - V_i^{n-1})/k + (V_i^{n-1} - V_{i-1}^{n-1})/h
                + d_i(s1^{n-1}) V_i^{n-1}
                - (V_{i+1}^{n-1} + V_{i-1}^{n-1} - 2 V_i^{n-1})/h^2
    """
    if v.grid != grid:
        raise DimensionMismatch("element does not live on the supplied grid")
    if len(initial) != grid.m_total - 1 or initial.h != grid.h:
        raise DimensionMismatch(
            f"initial data has length {len(initial)} (h = {initial.h!r}), "
            f"expected {grid.m_total - 1} (h = {grid.h!r})"
        )
    h, k = grid.h, grid.k
    x = grid.interior_nodes()
    t_levels = grid.time_levels()
    n_levels = grid.n_steps + 1

    psi1 = _nodal_values(problem.psi1(x), x, "psi1")
    psi2 = _nodal_values(problem.psi2(x), x, "psi2")

    # d(s1^n) is only needed by update row n + 1, so it is stored there and
    # overwritten in place below; the last level's d is checked, not kept
    p_rows = np.empty_like(v.rows)
    birth = np.empty(n_levels)
    for n in range(n_levels):
        row = v.rows[n]
        s2 = qh(InteriorVector(psi2 * row, h))
        fertility = _coefficient_values(problem.fertility, x, s2, "fertility")
        birth[n] = qh(InteriorVector(fertility * row, h))
        s1 = qh(InteriorVector(psi1 * row, h))
        mortality = _coefficient_values(problem.mortality, x, s1, "mortality")
        if n + 1 < n_levels:
            p_rows[n + 1] = mortality

    robin_coeff = 1.0 + 1.0 / h
    p_left = robin_coeff * v.left_trace - v.rows[:, 0] / h - birth

    if problem.homogeneous:
        p_right = v.right_trace / h
    else:
        g_values = np.array([problem.boundary_value(t) for t in t_levels])
        p_right = (v.right_trace - g_values) / h

    p_rows[0] = v.rows[0] - initial.values
    for start in range(1, n_levels, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_levels)
        current = v.rows[start:stop]
        previous = v.rows[start - 1 : stop - 1]
        previous_left = np.concatenate(
            (v.left_trace[start - 1 : stop - 1, None], previous[:, :-1]), axis=1
        )
        previous_right = np.concatenate(
            (previous[:, 1:], v.right_trace[start - 1 : stop - 1, None]), axis=1
        )
        p_rows[start:stop] = (
            (current - previous) / k
            + (previous - previous_left) / h
            + p_rows[start:stop] * previous
            - (previous_right + previous_left - 2.0 * previous) / (h * h)
        )

    return ResidualBundle(p_left, p_rows, p_right, grid)


def _row_sums_of_squares(rows: np.ndarray) -> np.ndarray:
    """sum_i rows[n, i]**2 for every row n, squaring one block of rows at a time."""
    sums = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        sums[start : start + _BLOCK_ROWS] = np.sum(block * block, axis=1)
    return sums


def xh_norm(v: XhElement) -> float:
    h, k = v.grid.h, v.grid.k
    row_norms = np.sqrt(h * _row_sums_of_squares(v.rows))
    return h * (star_norm(v.left_trace, k) + star_norm(v.right_trace, k)) + float(
        np.max(row_norms)
    )


def yh_norm(p: ResidualBundle) -> float:
    h, k = p.grid.h, p.grid.k
    initial_sq = l2_norm(InteriorVector(p.rows[0], h)) ** 2
    later_sq = k * float(np.sum(h * _row_sums_of_squares(p.rows[1:])))
    left_sq = star_norm(p.left, k) ** 2
    right_sq = star_norm(p.right, k) ** 2
    return float(np.sqrt(left_sq + initial_sq + h * right_sq + later_sq))
