"""Residual of the discrete equations and the norms of the ambient spaces.

Elements of X_h and residuals in Y_h are both
:class:`~agediff.solver.GridFunction` values, the type that
:func:`agediff.solver.run` returns; only the norm applied to them differs.
:func:`apply_phi` maps an element to its residual, one slot per discrete
equation in the same layout: the Robin row, the right boundary rows, the
initial row and the interior update identities, each in difference-quotient
form.  A solution history is a root of this map up to floating-point noise,
which is pinned by tests rather than assumed.  X_h and Y_h hold every time
level, so :func:`apply_phi`, :func:`xh_norm` and :func:`yh_norm` reject a
strided history (``every != 1``) with DimensionMismatch.

Norms: for elements,

    |V|_X = h * (|V_0|_* + |V_M|_*) + max_n |V^n|

and for residuals

    |P|_Y = sqrt(|P_0|_*^2 + |P^0|^2 + h * |P_M|_*^2 + sum_{n>=1} k |P^n|^2)

with |.|_* the k-weighted time-trace norm and |.| the h-weighted l2 norm
over interior nodes.

One call of :func:`apply_phi` is one ascending pass over blocks of levels
whose buffers are allocated once, among them the scratch
:class:`~agediff.quadrature.InteriorVector` that each weighted product is
written into before ``qh``.  It may write the residual into the element
itself (``out=v``); if it raises, the contents of ``out`` are unspecified.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EvalError
from .grid import GridSpec
from .model import ProblemSpec
from .quadrature import InteriorVector, l2_norm, qh, star_norm
from .solver import (
    GridFunction,
    _boundary_values,
    _check_domain,
    _coefficient_values,
    _nodal_values,
)

# Rows per block in apply_phi's update residual and in the norms: the
# temporaries scale with a block rather than with the whole history, and
# every entry is computed exactly as in one whole-array expression.
_BLOCK_ROWS = 256


def _require_every_level(v: GridFunction) -> None:
    if v.every != 1:
        raise DimensionMismatch(
            f"grid function was recorded with every={v.every}; X_h and Y_h hold "
            "every level, so run with every=1"
        )


def element_from_solution(solution: GridFunction) -> GridFunction:
    """Check that a solution history holds every level and return it unchanged."""
    _require_every_level(solution)
    return solution


def _sample_nodes(
    u: Callable[[np.ndarray, float], np.ndarray], grid: GridSpec, times: Sequence[float]
) -> np.ndarray:
    """u at x_0, x_1..x_{M-1} and a_dagger on each time in ``times``, one call per time.

    Row j holds the M + 1 node values at times[j].  The last column is
    sampled at a_dagger itself, not at the rounded node m_total * h; the two
    can differ by an ulp.
    """
    x = np.concatenate(([0.0], grid.interior_nodes(), [grid.a_dagger]))
    samples = np.empty((len(times), x.shape[0]))
    for j, t in enumerate(times):
        samples[j] = u(x, float(t))
    for start in range(0, len(samples), _BLOCK_ROWS):
        if not np.isfinite(samples[start : start + _BLOCK_ROWS]).all():
            raise EvalError("sampled function is not finite on the grid")
    return samples


def restrict(u: Callable[[np.ndarray, float], np.ndarray], grid: GridSpec) -> GridFunction:
    """Sample a function of (x, t) on every node of the mesh, one call per level.

    Both traces and the interior rows are views of one array of samples.
    """
    samples = _sample_nodes(u, grid, grid.time_levels())
    return GridFunction(samples[:, 0], samples[:, 1:-1], samples[:, -1], grid)


def apply_phi(
    v: GridFunction,
    problem: ProblemSpec,
    grid: GridSpec,
    initial: InteriorVector,
    out: Optional[GridFunction] = None,
) -> GridFunction:
    """Evaluate the residual of every discrete equation at an element.

    Interior rows use the raw difference-quotient form of the update
    identity (not the rearranged convex-combination form the stepper uses),
    so this is an independent check of what a computed solution satisfies:

        P_i^n = (V_i^n - V_i^{n-1})/k + (V_i^{n-1} - V_{i-1}^{n-1})/h
                + d_i(s1^{n-1}) V_i^{n-1}
                - (V_{i+1}^{n-1} + V_{i-1}^{n-1} - 2 V_i^{n-1})/h^2

    Returns ``out`` (a fresh grid function when None) holding the residual.
    ``out`` may be ``v`` itself; if apply_phi raises, its contents are unspecified.
    """
    n_levels, width = grid.n_steps + 1, grid.m_total - 1
    if out is None:
        out = GridFunction(np.empty(n_levels), np.empty((n_levels, width)), np.empty(n_levels), grid)
    for name, function in (("element", v), ("out", out)):
        _require_every_level(function)
        if function.grid != grid:
            raise DimensionMismatch(f"{name} does not live on the supplied grid")
    _check_domain(problem, grid)
    if len(initial) != width or initial.h != grid.h:
        raise DimensionMismatch(
            f"initial data has length {len(initial)} (h = {initial.h!r}), "
            f"expected {width} (h = {grid.h!r})"
        )
    h, k = grid.h, grid.k
    x = grid.interior_nodes()
    psi1 = _nodal_values(problem.psi1(x), x, "psi1")
    psi2 = _nodal_values(problem.psi2(x), x, "psi2")
    g = _boundary_values(problem, grid)

    # Row j of ``nodes`` holds level start - 1 + j at x_0..x_M, and row j of
    # ``mortality`` its d(s1).  Row 0 is carried over from the previous block,
    # whose levels ``out`` may already have overwritten.
    nodes = np.empty((_BLOCK_ROWS + 1, width + 2))
    mortality = np.empty((_BLOCK_ROWS + 1, width))
    scratch = np.empty((3, _BLOCK_ROWS, width))
    birth = np.empty(_BLOCK_ROWS)
    weighted = InteriorVector(np.empty(width), h)
    for start in range(0, n_levels, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_levels)
        size = stop - start
        block = nodes[: size + 1]
        block[1:, 0] = v.left_trace[start:stop]
        block[1:, 1:-1] = v.interior[start:stop]
        block[1:, -1] = v.right_trace[start:stop]
        for j, row in enumerate(block[1:, 1:-1]):
            np.multiply(psi2, row, out=weighted.values)
            s2 = qh(weighted)
            fertility = _coefficient_values(problem.fertility, x, s2, "fertility")
            np.multiply(fertility, row, out=weighted.values)
            birth[j] = qh(weighted)
            np.multiply(psi1, row, out=weighted.values)
            s1 = qh(weighted)
            mortality[j + 1] = _coefficient_values(problem.mortality, x, s1, "mortality")
        out.left_trace[start:stop] = (1.0 + 1.0 / h) * block[1:, 0] - block[1:, 1] / h - birth[:size]
        out.right_trace[start:stop] = (block[1:, -1] - g[start:stop]) / h
        # The update rows, term by term in the formula's operand order: the bits of one
        # array expression without its per-block temporaries.  Level 0 is the initial row.
        first = 1 if start == 0 else 0
        previous = block[first:-1]
        center = previous[:, 1:-1]
        rows, term, twice = scratch[:, first:size]
        np.subtract(block[first + 1 :, 1:-1], center, out=rows)
        rows /= k
        np.subtract(center, previous[:, :-2], out=term)
        term /= h
        rows += term
        np.multiply(mortality[first:size], center, out=term)
        rows += term
        np.add(previous[:, 2:], previous[:, :-2], out=term)
        term -= np.multiply(2.0, center, out=twice)
        term /= h * h
        rows -= term
        out.interior[start + first : stop] = rows
        if start == 0:
            out.interior[0] = block[1, 1:-1] - initial.values
        nodes[0] = block[-1]
        mortality[0] = mortality[size]
    return out


def _row_sums_of_squares(rows: np.ndarray) -> np.ndarray:
    """sum_i rows[n, i]**2 for every row n, squaring one block of rows at a time.

    The squares go into one C-contiguous buffer per call, laid out as the
    temporary ``block * block`` would be, so the row sums keep its bits.
    """
    sums = np.empty(rows.shape[0])
    squares = np.empty((min(_BLOCK_ROWS, rows.shape[0]), rows.shape[1]))
    for start in range(0, rows.shape[0], _BLOCK_ROWS):
        block = rows[start : start + _BLOCK_ROWS]
        square = np.multiply(block, block, out=squares[: block.shape[0]])
        np.sum(square, axis=1, out=sums[start : start + _BLOCK_ROWS])
    return sums


def xh_norm(v: GridFunction) -> float:
    _require_every_level(v)
    h, k = v.grid.h, v.grid.k
    row_norms = np.sqrt(h * _row_sums_of_squares(v.interior))
    return h * (star_norm(v.left_trace, k) + star_norm(v.right_trace, k)) + float(
        np.max(row_norms)
    )


def yh_norm(p: GridFunction) -> float:
    _require_every_level(p)
    h, k = p.grid.h, p.grid.k
    initial_sq = l2_norm(InteriorVector(p.interior[0], h)) ** 2
    later_sq = k * float(np.sum(h * _row_sums_of_squares(p.interior[1:])))
    left_sq = star_norm(p.left_trace, k) ** 2
    right_sq = star_norm(p.right_trace, k) ** 2
    return float(np.sqrt(left_sq + initial_sq + h * right_sq + later_sq))
