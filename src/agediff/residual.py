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
over interior nodes.  Both norms are summed as the levels arrive, a block
at a time in ascending order, by ``_LevelSquares``: it keeps the level-0
term, the largest interior term and three sums that replay the pairwise
tree of ``np.sum`` (``_PairwiseSum``), so a norm has the bits of one
whole-history expression in memory that does not grow with the levels.

The residual is formed by a consumer, ``_phi_blocks``, fed one block of
levels at a time in ascending order.  It checks psi1 and psi2 finite once and
allocates its buffers once, among them the scratch
:class:`~agediff.quadrature.InteriorVector` that each weighted product is
written into before ``qh``, and the block's g(t^n), each read at its level as
:func:`agediff.solver.run` reads it.  It copies each block into its own
buffer, which carries the last level and its d(s1) over to the next block, so
the residual may be written over the block: :func:`apply_phi` takes
``out=v`` (if it raises, the contents of ``out`` are unspecified).
:func:`apply_phi` feeds one consumer; the stability probe feeds two.

Two forms of :func:`apply_phi` hold no history: the element may be a
function u(x, t), sampled one block at a time as :func:`restrict` samples it
(same floats, same errors, raised after the earlier blocks' coefficient
calls), and ``out`` a callable ``out(start, rows)`` given each block's
residual rows, valid only during the call, such as the Y_h norm's streamed
sums.  Like :func:`agediff.solver.run` and :func:`restrict`, it refuses a
march that costs more than 2^36 node values before it evaluates anything.

Each level's fertility and mortality are guarded by scalars, as in
:func:`agediff.solver.run`; the array check runs only when one fails, so the
error and its order are those of checking each array at once.  Fertility:
every quadrature weight is nonzero, so a non-finite B makes the birth
integral non-finite.  Mortality: the dot product of d with zeros is 0 when
every d_i is finite and NaN otherwise, and it cannot overflow.  NaN and inf
thus reach numpy before the error, so the per-level loop and the coefficient
callables it calls run under ``np.errstate(invalid="ignore", over="ignore")``,
as in :func:`agediff.solver.run`.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Union

import numpy as np

from .errors import DimensionMismatch, EvalError
from .grid import GridSpec
from .model import ProblemSpec, SpaceTimeFunction
from .quadrature import InteriorVector, qh
from .solver import (
    GridFunction,
    _check_coefficient,
    _check_domain,
    _march_shape,
    _nodal_values,
    _right_value,
)

# Rows per block in apply_phi's update residual, in restrict and in the norms:
# the temporaries scale with a block rather than with the whole history, and
# every entry is computed exactly as in one whole-array expression.  With no
# per-level array left, the blocks are the largest buffers of a study.
_BLOCK_ROWS = 64
# The longest run that numpy's pairwise float64 sum adds as one leaf.
_PAIRWISE_LEAF = 128


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


@functools.lru_cache(maxsize=64)
def _node_row(grid: GridSpec) -> np.ndarray:
    # x_0, x_1..x_{M-1} and a_dagger, read-only: every block sampled on a mesh shares this one row.
    x = np.concatenate(([0.0], grid.interior_nodes(), [grid.a_dagger]))
    x.flags.writeable = False
    return x


def _sample_nodes(u: SpaceTimeFunction, grid: GridSpec, start: int, stop: int) -> np.ndarray:
    """u at x_0, x_1..x_{M-1} and a_dagger on levels start..stop-1, in one call, as a fresh array.

    The times are ``np.arange(start, stop)[:, None] * k``, the floats of ``grid.time_levels()``, and
    the last node is a_dagger itself, not the rounded m_total * h (they can differ by an ulp).  A
    value that does not broadcast to the block, or a TypeError raised by the call (as ``math.exp``
    raises on an array), raises DimensionMismatch; see :func:`restrict`.
    """
    x = _node_row(grid)
    try:
        values = u(x, np.arange(start, stop)[:, None] * grid.k)
    except TypeError as exc:
        raise DimensionMismatch(
            f"sampled function raised TypeError ({exc}); u(x, t) must broadcast "
            "over a (levels, 1) time column t, so use np.exp(t), not math.exp(t)"
        ) from exc
    values = np.asarray(values, dtype=float)
    block = np.empty((stop - start, x.shape[0]))
    try:
        np.copyto(block, values)
    except ValueError:
        raise DimensionMismatch(
            f"sampled function returned shape {values.shape}, which does not "
            f"broadcast to the block's shape {block.shape}"
        ) from None
    if not np.isfinite(block).all():
        raise EvalError("sampled function is not finite on the grid")
    return block


def restrict(u: SpaceTimeFunction, grid: GridSpec) -> GridFunction:
    """Sample u(x, t) on every node and level of a mesh, one call per block of levels.

    u must broadcast over both arguments: each call passes the node row x of
    shape (M + 1,) and a time column t of shape (levels, 1), and the value
    must broadcast to (levels, M + 1).  So write ``np.exp(t)``, not
    ``math.exp(t)``; either mistake raises DimensionMismatch.  A march that
    costs more than 2^36 node values is refused before anything is allocated.
    """
    levels = np.empty(_march_shape(grid))
    for start in range(0, levels.shape[0], _BLOCK_ROWS):
        levels[start : start + _BLOCK_ROWS] = _sample_nodes(u, grid, start, min(start + _BLOCK_ROWS, levels.shape[0]))
    return GridFunction(levels, grid)


def _phi_blocks(
    problem: ProblemSpec, grid: GridSpec, initial: InteriorVector
) -> Callable[[int, np.ndarray, np.ndarray], None]:
    """apply_phi's block body, as a consumer ``consume(start, levels, target)`` fed in ascending order.

    ``consume`` copies ``levels``, the rows of levels start..start + size - 1 (at most ``_BLOCK_ROWS``),
    into its own buffer, which carries the last level and its d(s1) over to the next block, then forms
    their residual rows in ``target``, which may be ``levels`` itself.  The mesh, the initial data and
    psi1 and psi2 are checked, and qh is bound, here, before any level is fed.
    """
    width = grid.m_total - 1
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
    # its d(s1).  Row 0 is carried over from the previous block.
    nodes = np.empty((_BLOCK_ROWS + 1, width + 2))
    mortality = np.empty((_BLOCK_ROWS + 1, width))
    scratch = np.empty((2, _BLOCK_ROWS, width))
    birth = np.empty(_BLOCK_ROWS)
    right = np.zeros(_BLOCK_ROWS)  # g(t^n) of the block's levels; stays 0 when there is no g
    weighted = InteriorVector(np.empty(width), h)
    products = weighted.values
    zeros = np.zeros(width)
    # level start + j's interior row and its d(s1), as views bound once: row j + 1 of each buffer
    interior_rows, mortality_rows = list(nodes[1:, 1:-1]), list(mortality[1:])
    # Bound when apply_phi starts, so a patched module-level qh is the one called.
    quadrature, fertility_of, mortality_of, g = qh, problem.fertility, problem.mortality, problem.right_boundary
    multiply, isfinite = np.multiply, math.isfinite
    ndarray, float64, shape = np.ndarray, np.dtype(float), x.shape

    def consume(start: int, levels: np.ndarray, target: np.ndarray) -> None:
        size = levels.shape[0]
        block = nodes[: size + 1]
        block[1:] = levels
        with np.errstate(invalid="ignore", over="ignore"):
            for j in range(size):
                row = interior_rows[j]
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
                copy = mortality_rows[j]
                copy[:] = d  # guarded on the copy, whose dot is cheaper than a stride-0 d's
                if not isfinite(copy.dot(zeros)):
                    _check_coefficient(d, "mortality", s1)
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
        nodes[0] = block[-1]
        mortality[0] = mortality[size]

    return consume


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
    n_levels = _march_shape(grid)[0]
    sampled, sink = callable(v), callable(out)
    if out is None:
        out = GridFunction(np.empty((n_levels, grid.m_total + 1)), grid)
    for name, function in (("element", v), ("out", out)):
        if not callable(function):
            _require_every_level(function)
            if function.grid != grid:
                raise DimensionMismatch(f"{name} does not live on the supplied grid")
    consume = _phi_blocks(problem, grid, initial)
    for start in range(0, n_levels, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n_levels)
        levels = _sample_nodes(v, grid, start, stop) if sampled else v.values[start:stop]
        # consume copies ``levels`` first, so a fresh sample can take its own residual rows
        target = out.values[start:stop] if not sink else levels if sampled else np.empty_like(levels)
        consume(start, levels, target)
        if sink:
            out(start, target)
        del levels, target  # a sampled block is freed before the next one is sampled
    return out


class _PairwiseSum:
    """``np.sum`` of ``n`` float64 values fed in order, in blocks of any size, in one leaf and O(log n) partials.

    numpy sums a contiguous float64 array pairwise (Higham, SIAM J. Sci. Comput., 1993): a run of
    at most 128 values is one leaf, and a longer run of n values splits at n//2 - (n//2) % 8 into
    two runs whose sums are added, left + right.  The tree depends on n alone, so each leaf is
    summed by the same reduction as soon as it is full, and each sum is added to its left
    sibling's as soon as both exist, in the tree's postorder.  ``np.sum`` adds a sum to 0.0,
    which changes only the sign of a zero, so ``total`` has the bits of ``np.sum`` over all n
    values (which of two NaNs a sum of NaNs returns aside).  It is None until all n have
    arrived; feeding more raises ValueError.
    """

    def __init__(self, n: int):
        self._remaining, self._filled, self.total = n, 0, None
        self._pending: list[list] = []  # [size of a right run still to come, sum of its left sibling or None]
        self._buffer = np.empty(min(n, _PAIRWISE_LEAF))
        self._leaf = self._descend(n)

    def _descend(self, n: int) -> int:
        """Push the right runs on the way down to the first leaf of a run of n values, and return its size."""
        while n > _PAIRWISE_LEAF:
            half = n // 2 - (n // 2) % 8
            self._pending.append([n - half, None])
            n = half
        return n

    def __call__(self, values: np.ndarray) -> None:
        if values.shape[0] > self._remaining:
            raise ValueError(f"fed {values.shape[0]} values where {self._remaining} remain")
        self._remaining -= values.shape[0]
        while values.shape[0]:
            take = min(self._leaf - self._filled, values.shape[0])
            self._buffer[self._filled : self._filled + take] = values[:take]
            self._filled, values = self._filled + take, values[take:]
            if self._filled == self._leaf:
                self._filled, total = 0, self._buffer[: self._leaf].sum()
                while self._pending and self._pending[-1][1] is not None:
                    total = self._pending.pop()[1] + total
                if self._pending:
                    self._pending[-1][1] = total
                    self._leaf = self._descend(self._pending[-1][0])
                else:
                    self.total = total


class _LevelSquares:
    """The X_h and Y_h norms of a grid function fed one block of levels at a time, as ``self(start, rows)``.

    Blocks of at most ``_BLOCK_ROWS`` levels must arrive in ascending, contiguous order: the first
    at level 0, each next one at the level after the last, none past the grid's last level.
    Anything else raises ValueError, and so does a norm taken before every level has arrived.
    Each interior row's sum of squares is formed as in one whole-history expression.  Of those
    sums, the level-0 one and the largest (NaN if any is, as ``np.max`` takes it) are kept; h
    times each later one, and the squares of both traces, go to three :class:`_PairwiseSum`,
    which replay the tree of ``np.sum`` over the whole column.  So either norm has the bits of
    the whole-history expression, whatever the blocks, and the memory does not grow with the
    levels.
    """

    def __init__(self, grid: GridSpec):
        levels = _march_shape(grid)[0]
        self.grid, self._levels, self._next = grid, levels, 0
        self._left, self._right, self._later = _PairwiseSum(levels), _PairwiseSum(levels), _PairwiseSum(levels - 1)
        rows = min(_BLOCK_ROWS, levels)
        self._squares = np.empty((rows, grid.m_total - 1))  # laid out as ``rows * rows``
        self._sums, self._terms = np.empty((2, rows))

    def __call__(self, start: int, rows: np.ndarray) -> None:
        size = rows.shape[0]
        if start != self._next or start + size > self._levels or size > self._squares.shape[0]:
            raise ValueError(
                f"levels {start}..{start + size - 1} fed where level {self._next} of {self._levels} is next,"
                f" in blocks of at most {self._squares.shape[0]}"
            )
        self._next += size
        interior = rows[:, 1:-1]
        square = np.multiply(interior, interior, out=self._squares[:size])
        sums = square.sum(axis=1, out=self._sums[:size])
        peak = sums.max()
        if start == 0:
            self._first, self._peak = sums[0], peak
        else:
            self._peak = np.maximum(self._peak, peak)
        terms = self._terms[:size]
        for total, column in ((self._left, rows[:, 0]), (self._right, rows[:, -1])):
            total(np.multiply(column, column, out=terms))
        first = 1 if start == 0 else 0
        self._later(np.multiply(self.grid.h, sums[first:], out=terms[first:]))

    @classmethod
    def of(cls, v: GridFunction) -> "_LevelSquares":
        _require_every_level(v)
        squares = cls(v.grid)
        for start in range(0, v.values.shape[0], _BLOCK_ROWS):
            squares(start, v.values[start : start + _BLOCK_ROWS])
        return squares

    def _trace_norm(self, total: _PairwiseSum) -> float:
        # quadrature.star_norm's expression, on the streamed sum of the squared trace
        if self._next != self._levels:
            raise ValueError(f"a norm was taken after {self._next} of {self._levels} levels")
        return math.sqrt(self.grid.k * float(total.total))

    def xh_norm(self) -> float:
        # sqrt and the product with h round monotonically, so the largest sum gives max_n sqrt(h * sums[n])
        h, traces = self.grid.h, self._trace_norm(self._left) + self._trace_norm(self._right)
        return h * traces + math.sqrt(h * float(self._peak))

    def yh_norm(self) -> float:
        h, k = self.grid.h, self.grid.k
        left_sq, right_sq = self._trace_norm(self._left) ** 2, self._trace_norm(self._right) ** 2
        initial_sq = math.sqrt(h * float(self._first)) ** 2  # the initial row's l2_norm, squared
        later_sq = k * float(self._later.total)
        return float(np.sqrt(left_sq + initial_sq + h * right_sq + later_sq))


def xh_norm(v: GridFunction) -> float:
    return _LevelSquares.of(v).xh_norm()


def yh_norm(p: GridFunction) -> float:
    return _LevelSquares.of(p).yh_norm()
