"""Residual of the discrete equations and the norms of the ambient spaces.

Elements of X_h and residuals in Y_h are both
:class:`~agediff.solver.GridFunction` values, the type that
:func:`agediff.solver.run` returns; only the norm applied to them differs.
:func:`apply_phi` maps an element to its residual, one slot per discrete
equation in the same layout: column 0 holds the Robin rows, column M the
right boundary rows, and columns 1..M-1 the initial row and the interior
update identities, each in difference-quotient form.  A solution history
is a root of this map up to floating-point noise, which is pinned by tests
rather than assumed.  X_h and Y_h hold every time level, so
:func:`apply_phi`, :func:`xh_norm` and :func:`yh_norm` reject a strided
history (``every != 1``) with DimensionMismatch.

Norms: for elements,

    |V|_X = h * (|V_0|_* + |V_M|_*) + max_n |V^n|

and for residuals

    |P|_Y = sqrt(|P_0|_*^2 + |P^0|^2 + h * |P_M|_*^2 + sum_{n>=1} k |P^n|^2)

with |.|_* the k-weighted time-trace norm and |.| the h-weighted l2 norm
over interior nodes.

One call of :func:`apply_phi` checks psi1 and psi2 finite once, then makes
one ascending pass over blocks of levels whose buffers are allocated once,
among them the scratch :class:`~agediff.quadrature.InteriorVector` that each
weighted product is written into before ``qh``, and the block's g(t^n), each
read at its level as :func:`agediff.solver.run` reads it.  A block's levels
are copied before its residual rows are formed straight in ``out``, so it may
write the residual into the element itself (``out=v``); if it raises, the
contents of ``out`` are unspecified.

Each level's fertility and mortality are guarded by scalars, as in
:func:`agediff.solver.run`; the array check runs only when one fails, so the
error and its order are those of checking each array at once.  Fertility:
every quadrature weight is nonzero, so a non-finite B makes the birth
integral non-finite.  Mortality: the dot product of d with zeros is 0 when
every d_i is finite and NaN otherwise, and it cannot overflow.  NaN and inf
thus reach numpy before the error, so the per-level loop runs under
``np.errstate(invalid="ignore")``, which also silences "invalid value"
warnings inside the coefficient callables.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EvalError
from .grid import GridSpec
from .model import ProblemSpec, SpaceTimeFunction
from .quadrature import InteriorVector, l2_norm, qh, star_norm
from .solver import (
    GridFunction,
    _check_coefficient,
    _check_domain,
    _history_shape,
    _nodal_values,
    _right_value,
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


def _sample_nodes(u: SpaceTimeFunction, grid: GridSpec, start: int, stop: int) -> np.ndarray:
    """u at x_0, x_1..x_{M-1} and a_dagger on levels start..stop-1, one call per block of levels.

    Each call passes the node row and the column ``np.arange(begin, end)[:, None] * k``
    of up to ``_BLOCK_ROWS`` times, the floats of ``grid.time_levels()``; row j of
    the result holds level start + j.  The last column is sampled at a_dagger
    itself, not at the rounded node m_total * h; the two can differ by an ulp.
    A value that does not broadcast to the block, or a TypeError raised by the
    call (as ``math.exp`` raises on an array), raises DimensionMismatch.
    """
    x = np.concatenate(([0.0], grid.interior_nodes(), [grid.a_dagger]))
    samples = np.empty((stop - start, x.shape[0]))
    for begin in range(start, stop, _BLOCK_ROWS):
        end = min(begin + _BLOCK_ROWS, stop)
        block = samples[begin - start : end - start]
        try:
            values = u(x, np.arange(begin, end)[:, None] * grid.k)
        except TypeError as exc:
            raise DimensionMismatch(
                f"sampled function raised TypeError ({exc}); u(x, t) must broadcast "
                "over a (levels, 1) time column t, so use np.exp(t), not math.exp(t)"
            ) from exc
        values = np.asarray(values, dtype=float)
        try:
            np.copyto(block, values)
        except ValueError:
            raise DimensionMismatch(
                f"sampled function returned shape {values.shape}, which does not "
                f"broadcast to the block's shape {block.shape}"
            ) from None
        if not np.isfinite(block).all():
            raise EvalError("sampled function is not finite on the grid")
    return samples


def restrict(u: SpaceTimeFunction, grid: GridSpec) -> GridFunction:
    """Sample u(x, t) on every node and level of a mesh numpy can index, one call per block of levels.

    u must broadcast over both arguments: each call passes the node row x of
    shape (M + 1,) and a time column t of shape (levels, 1), and the value
    must broadcast to (levels, M + 1).  So write ``np.exp(t)``, not
    ``math.exp(t)``; either mistake raises DimensionMismatch.
    """
    _history_shape(grid, 1)
    return GridFunction(_sample_nodes(u, grid, 0, grid.n_steps + 1), grid)


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
        out = GridFunction(np.empty(_history_shape(grid, 1)), grid)
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
    _check_coefficient(psi1, "psi1")
    _check_coefficient(psi2, "psi2")

    # Row j of ``nodes`` holds level start - 1 + j, and row j of ``mortality``
    # its d(s1).  Row 0 is carried over from the previous block,
    # whose levels ``out`` may already have overwritten.
    nodes = np.empty((_BLOCK_ROWS + 1, width + 2))
    mortality = np.empty((_BLOCK_ROWS + 1, width))
    scratch = np.empty((2, _BLOCK_ROWS, width))
    birth = np.empty(_BLOCK_ROWS)
    right = np.zeros(_BLOCK_ROWS)  # g(t^n) of the block's levels; stays 0 when there is no g
    weighted = InteriorVector(np.empty(width), h)
    products = weighted.values
    zeros = np.zeros(width)
    # Bound when the call starts, so a patched module-level qh is the one called.
    quadrature, fertility_of, mortality_of, g = qh, problem.fertility, problem.mortality, problem.right_boundary
    multiply, isfinite = np.multiply, math.isfinite
    ndarray, float64, shape = np.ndarray, np.dtype(float), x.shape
    for start in range(0, n_levels, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_levels)
        size = stop - start
        block = nodes[: size + 1]
        block[1:] = v.values[start:stop]
        rows = block[1:, 1:-1]
        with np.errstate(invalid="ignore"):
            for j in range(size):
                row = rows[j]
                multiply(psi2, row, out=products)
                s2 = quadrature(weighted)
                fertility = fertility_of(x, s2)
                # Only a value that is not already a float64 array of x's shape goes
                # through _nodal_values, which converts it or raises DimensionMismatch.
                if type(fertility) is not ndarray or fertility.dtype is not float64 or fertility.shape != shape:
                    fertility = _nodal_values(fertility, x, "fertility")
                multiply(fertility, row, out=products)
                birth[j] = integral = quadrature(weighted)
                if not isfinite(integral):
                    _check_coefficient(fertility, "fertility", s2)
                if g is not None:
                    right[j] = _right_value(g, start + j, k)
                multiply(psi1, row, out=products)
                s1 = quadrature(weighted)
                d = mortality_of(x, s1)
                if type(d) is not ndarray or d.dtype is not float64 or d.shape != shape:
                    d = _nodal_values(d, x, "mortality")
                mortality[j + 1] = d  # guarded on the copy, whose dot is cheaper than a stride-0 d's
                if not isfinite(mortality[j + 1].dot(zeros)):
                    _check_coefficient(d, "mortality", s1)
        out.left_trace[start:stop] = (1.0 + 1.0 / h) * block[1:, 0] - block[1:, 1] / h - birth[:size]
        out.right_trace[start:stop] = (block[1:, -1] - right[:size]) / h
        # The update rows, term by term in the formula's operand order, straight into ``out``:
        # the bits of one array expression without its temporaries.  Level 0 is the initial row.
        first = 1 if start == 0 else 0
        previous = block[first:-1]
        center = previous[:, 1:-1]
        rows = out.interior[start + first : stop]
        term, twice = scratch[:, first:size]
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
