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
contents of ``out`` are unspecified.  Two forms hold no history: the element
may be a function u(x, t), sampled into each block as :func:`restrict` samples
it (same floats, same errors, raised after the earlier blocks' coefficient
calls), and ``out`` a callable ``out(start, rows)`` given each block's residual
rows, valid only during the call, such as the Y_h norm's per-level sums.

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
from typing import Callable, Optional, Union

import numpy as np

from .errors import DimensionMismatch, EvalError
from .grid import GridSpec
from .model import ProblemSpec, SpaceTimeFunction
from .quadrature import InteriorVector, qh, star_norm
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


def _sample_nodes(u: SpaceTimeFunction, grid: GridSpec, start: int, stop: int, out=None, x=None) -> np.ndarray:
    """u at x_0, x_1..x_{M-1} and a_dagger on levels start..stop-1, one call per block of levels.

    Each call passes the node row ``x`` (built when None) and the column ``np.arange(begin, end)[:, None] * k``
    of up to ``_BLOCK_ROWS`` times, the floats of ``grid.time_levels()``; row j of ``out``
    (fresh when None) holds level start + j.  The last column is sampled at a_dagger
    itself, not at the rounded node m_total * h; the two can differ by an ulp.
    A value that does not broadcast to the block, or a TypeError raised by the
    call (as ``math.exp`` raises on an array), raises DimensionMismatch.
    """
    x = np.concatenate(([0.0], grid.interior_nodes(), [grid.a_dagger])) if x is None else x
    samples = np.empty((stop - start, x.shape[0])) if out is None else out
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
    v: Union[GridFunction, SpaceTimeFunction],
    problem: ProblemSpec,
    grid: GridSpec,
    initial: InteriorVector,
    out: Union[None, GridFunction, Callable[[int, np.ndarray], None]] = None,
) -> Union[GridFunction, Callable[[int, np.ndarray], None]]:
    """Evaluate the residual of every discrete equation at an element.

    Interior rows use the raw difference-quotient form of the update
    identity (not the rearranged convex-combination form the stepper uses),
    so this is an independent check of what a computed solution satisfies:

        P_i^n = (V_i^n - V_i^{n-1})/k + (V_i^{n-1} - V_{i-1}^{n-1})/h
                + d_i(s1^{n-1}) V_i^{n-1}
                - (V_{i+1}^{n-1} + V_{i-1}^{n-1} - 2 V_i^{n-1})/h^2

    Returns ``out`` (a fresh grid function when None) holding the residual.
    ``out`` may be ``v`` itself; if apply_phi raises, its contents are unspecified.
    ``v`` may also be a function u(x, t), and ``out`` a callable ``out(start, rows)``: see the module docstring.
    """
    n_levels, width = _history_shape(grid, 1)[0], grid.m_total - 1
    sampled, sink = callable(v), callable(out)
    if out is None:
        out = GridFunction(np.empty((n_levels, width + 2)), grid)
    for name, function in (("element", v), ("out", out)):
        if not callable(function):
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
    residual = np.empty((_BLOCK_ROWS, width + 2)) if sink else None
    all_nodes = np.concatenate(([0.0], x, [grid.a_dagger])) if sampled else None
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
        if sampled:
            _sample_nodes(v, grid, start, stop, out=block[1:], x=all_nodes)
        else:
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
        target = residual[:size] if sink else out.values[start:stop]
        target[:, 0] = (1.0 + 1.0 / h) * block[1:, 0] - block[1:, 1] / h - birth[:size]
        target[:, -1] = (block[1:, -1] - right[:size]) / h
        # The update rows, term by term in the formula's operand order, straight into ``target``:
        # the bits of one array expression without its temporaries.  Level 0 is the initial row.
        first = 1 if start == 0 else 0
        previous = block[first:-1]
        center = previous[:, 1:-1]
        rows = target[first:, 1:-1]
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
            target[0, 1:-1] = block[1, 1:-1] - initial.values
        if sink:
            out(start, target)
        nodes[0] = block[-1]
        mortality[0] = mortality[size]
    return out


class _LevelSquares:
    """Both traces and the interior rows' sums of squares, one float per level each, fed as ``self(start, rows)``.

    A norm sums each array once: the bits of one whole-history expression, whatever the blocks.
    """

    def __init__(self, grid: GridSpec):
        levels = _history_shape(grid, 1)[0]
        self.grid, self.left, self.right, self.sums = grid, np.empty(levels), np.empty(levels), np.empty(levels)
        self._squares = np.empty((min(_BLOCK_ROWS, levels), grid.m_total - 1))  # laid out as ``rows * rows``

    def __call__(self, start: int, rows: np.ndarray) -> None:
        stop, interior = start + rows.shape[0], rows[:, 1:-1]
        self.left[start:stop], self.right[start:stop] = rows[:, 0], rows[:, -1]
        square = np.multiply(interior, interior, out=self._squares[: rows.shape[0]])
        np.sum(square, axis=1, out=self.sums[start:stop])

    @classmethod
    def of(cls, v: GridFunction) -> "_LevelSquares":
        _require_every_level(v)
        squares = cls(v.grid)
        for start in range(0, v.values.shape[0], _BLOCK_ROWS):
            squares(start, v.values[start : start + _BLOCK_ROWS])
        return squares

    def yh_norm(self) -> float:
        h, k = self.grid.h, self.grid.k
        initial_sq = math.sqrt(h * float(self.sums[0])) ** 2  # the initial row's l2_norm, squared
        later_sq = k * float(np.sum(h * self.sums[1:]))
        left_sq, right_sq = star_norm(self.left, k) ** 2, star_norm(self.right, k) ** 2
        return float(np.sqrt(left_sq + initial_sq + h * right_sq + later_sq))


def xh_norm(v: GridFunction) -> float:
    squares, h, k = _LevelSquares.of(v), v.grid.h, v.grid.k
    return h * (star_norm(squares.left, k) + star_norm(squares.right, k)) + float(np.max(np.sqrt(h * squares.sums)))


def yh_norm(p: GridFunction) -> float:
    return _LevelSquares.of(p).yh_norm()
