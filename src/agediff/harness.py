"""Refinement studies: observed orders, consistency decay, stability probes.

Every study walks a ladder of nested meshes produced by :func:`grid.refine`,
so spatial nodes and time levels of a coarse mesh sit exactly on all finer
ones and no interpolation ever enters an error number.  Errors against an
exact solution are measured at the realized final time of the ladder (the
same float on every level); self-convergence errors compare each coarser
run with the finest one at the shared nodes and levels.  Both stream the
run they subtract and take each of its levels from the reference in place.
A grid function holds one row of node values per level, so each difference
or sum of grid functions below is one ufunc call on their ``values``.

:func:`write_csv` is the one CSV writer: it writes a header and rows of
cells atomically (temp file, then rename) and prints floats as shortest
round-tripping decimals, so parsing a table back reproduces the in-memory
values bit for bit and identical studies produce identical bytes.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .grid import GridSpec, refine
from .model import ExactSolution, ProblemSpec
from .quadrature import InteriorVector, l2_norm
from .residual import _BLOCK_ROWS, apply_phi, restrict, xh_norm, yh_norm
from .solver import GridFunction, _check_domain, _history_shape, _initial_row, run


@dataclass(frozen=True)
class ConvergenceRow:
    h: float
    k: float
    m_total: int
    n_steps: int
    err_inf: float
    err_l2: float
    err_xh: float
    order_inf: Optional[float]
    order_l2: Optional[float]
    order_xh: Optional[float]


@dataclass(frozen=True)
class ConsistencyRow:
    h: float
    residual_yh: float
    order: Optional[float]


@dataclass(frozen=True)
class StabilityRow:
    """One perturbation-pair ratio; ``degenerate`` marks a zero or non-finite denominator or ratio."""

    h: float
    ratio: Optional[float]
    degenerate: bool


def _grid_ladder(base: GridSpec, levels: int) -> list[GridSpec]:
    if not (isinstance(levels, int) and levels >= 1):
        raise InvalidParameter(f"levels must be an integer >= 1, got {levels!r}")
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    return grids


def _order(previous: float, current: float) -> Optional[float]:
    if previous > 0.0 and current > 0.0:
        return math.log2(previous / current)
    return None


def _orders(values: Sequence[float]) -> list[Optional[float]]:
    """None for the first value, then the observed order against the one before."""
    return [None, *(_order(previous, current) for previous, current in zip(values, values[1:]))]


def _error_triple(error: GridFunction) -> tuple[float, float, float]:
    err_inf = float(np.max(np.abs(error.values[-1])))
    return err_inf, l2_norm(InteriorVector(error.interior[-1], error.grid.h)), xh_norm(error)


def _attach_orders(
    grids: list[GridSpec], triples: list[tuple[float, float, float]]
) -> list[ConvergenceRow]:
    orders = zip(*(_orders(metric) for metric in zip(*triples)))
    return [
        ConvergenceRow(
            h=grid.h,
            k=grid.k,
            m_total=grid.m_total,
            n_steps=grid.n_steps,
            err_inf=err_inf,
            err_l2=err_l2,
            err_xh=err_xh,
            order_inf=order_inf,
            order_l2=order_l2,
            order_xh=order_xh,
        )
        for grid, (err_inf, err_l2, err_xh), (order_inf, order_l2, order_xh) in zip(grids, triples, orders)
    ]


def _subtract_run(problem: ProblemSpec, grid: GridSpec, histories: Sequence[GridFunction]) -> None:
    """Stream the run on ``grid`` and subtract each level, in place, from the histories that share it.

    The histories live on ``grid`` or on coarser nested meshes, finest first,
    so a level that one of them skips is skipped by every later one.
    """
    strides = [(grid.n_steps // v.grid.n_steps, grid.m_total // v.grid.m_total, v.values) for v in histories]

    def subtract(n: int, row: np.ndarray) -> None:
        for level_stride, node_stride, values in strides:
            level, offset = divmod(n, level_stride)
            if offset:
                return
            np.subtract(values[level], row[::node_stride], out=values[level])

    run(problem, grid, every=grid.n_steps, observe=subtract)


def convergence_study(
    problem: ProblemSpec, exact: ExactSolution, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors ``exact - run`` on a ladder of refined meshes; each run is streamed, not stored."""
    grids = _grid_ladder(base, levels)
    triples = []
    for grid in grids:
        error = restrict(exact.u, grid)
        _subtract_run(problem, grid, [error])
        triples.append(_error_triple(error))
        del error  # before the next, eight times larger, rung is sampled
    return _attach_orders(grids, triples)


def self_convergence_study(
    problem: ProblemSpec, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors of each coarser run against the finest run of the ladder.

    Needs at least three levels so that at least two error rows exist and
    one order can be formed.  The coarser rungs run first and keep their
    whole histories; the finest rung is streamed and subtracted from them,
    so each error is ``coarse - finest`` at the coarse rung's nodes and levels.
    """
    if not (isinstance(levels, int) and levels >= 3):
        raise InvalidParameter(f"self-convergence needs levels >= 3, got {levels!r}")
    grids = _grid_ladder(base, levels)
    errors = [run(problem, grid) for grid in grids[:-1]]
    _subtract_run(problem, grids[-1], errors[::-1])
    return _attach_orders(grids[:-1], [_error_triple(error) for error in errors])


def consistency_study(
    problem: ProblemSpec, exact: ExactSolution, base: GridSpec, levels: int
) -> list[ConsistencyRow]:
    """Residual norm of the restricted exact solution on each mesh."""
    _check_domain(problem, base)
    grids = _grid_ladder(base, levels)
    residuals = []
    for grid in grids:
        initial = InteriorVector(_initial_row(problem, grid.interior_nodes()), grid.h)
        sampled = restrict(exact.u, grid)
        residuals.append(yh_norm(apply_phi(sampled, problem, grid, initial, out=sampled)))
        del sampled  # before the next, eight times larger, rung is sampled
    return [
        ConsistencyRow(h=grid.h, residual_yh=residual, order=order)
        for grid, residual, order in zip(grids, residuals, _orders(residuals))
    ]


def _perturbation(grid: GridSpec, scale: float) -> GridFunction:
    """A fixed low-frequency field, scaled to xh-norm = scale * h.

    The mode shape is drawn once from a fixed seed, so every call sees the
    same smooth function; only the sampling mesh changes.  Scaling by the
    mesh-dependent factor keeps the perturbation inside the shrinking
    neighbourhood where the stability estimate applies.  The interior is
    filled one block of levels at a time and scaled in place, so the only
    whole-history array is the result; both traces stay zero.
    """
    rng = np.random.default_rng(987654321)
    amplitudes = rng.uniform(0.5, 1.0, size=3)
    x = grid.interior_nodes()
    t = grid.time_levels()
    spatial = [np.sin((mode + 1) * np.pi * x / grid.a_dagger) for mode in range(3)]
    temporal = [np.cos((mode + 1) * np.pi * t / grid.t_final) for mode in range(3)]
    perturbation = GridFunction(np.zeros(_history_shape(grid, 1)), grid)
    rows = perturbation.interior
    for start in range(0, grid.n_steps + 1, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = rows[start:stop]
        for mode in range(3):
            block += amplitudes[mode] * temporal[mode][start:stop, None] * spatial[mode][None, :]
    rows *= scale * grid.h / xh_norm(perturbation)
    return perturbation


def stability_probe(
    problem: ProblemSpec, base: GridSpec, levels: int, perturbation_scale: float = 1.0
) -> list[StabilityRow]:
    """Ratio |V - W|_X / |phi(V) - phi(W)|_Y for a fixed smooth perturbation.

    V is the computed solution, W = V + perturbation.  V - W is the negated
    perturbation, whose xh-norm ``_perturbation`` sets to scale * h, so the
    numerator is scale * h, taken without a cancelling subtraction or a
    pass over the history.  W is formed in V's own arrays once phi(V) is known, and
    phi(V) - phi(W) in phi(V)'s, so each rung holds three whole-history
    arrays at most.  A denominator that is zero or not finite (or a ratio
    that overflows) is reported as a degenerate row, never raised.
    """
    if not (math.isfinite(perturbation_scale) and perturbation_scale >= 0.0):
        raise InvalidParameter(
            f"perturbation_scale must be finite and >= 0, got {perturbation_scale!r}"
        )
    grids = _grid_ladder(base, levels)
    rows = []
    for grid in grids:
        solution = run(problem, grid)
        initial = InteriorVector(_initial_row(problem, grid.interior_nodes()), grid.h)
        residual_gap = apply_phi(solution, problem, grid, initial)
        perturbation = _perturbation(grid, perturbation_scale)
        numerator = perturbation_scale * grid.h
        np.add(solution.values, perturbation.values, out=solution.values)
        del perturbation
        gap = residual_gap.values
        np.subtract(gap, apply_phi(solution, problem, grid, initial).values, out=gap)
        with np.errstate(over="ignore"):  # an overflowing gap is a degenerate row
            denominator = yh_norm(residual_gap)
        if not (0.0 < denominator < math.inf and math.isfinite(numerator / denominator)):
            rows.append(StabilityRow(h=grid.h, ratio=None, degenerate=True))
        else:
            rows.append(StabilityRow(h=grid.h, ratio=numerator / denominator, degenerate=False))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # np.float64 too
        return repr(float(value))
    return str(value)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a header and rows (sequences of cells) to ``path`` atomically.

    A float cell prints as ``repr(float(value))``, an int or str as itself
    and None as an empty cell.
    """
    text = "".join(",".join(map(_cell, cells)) + "\n" for cells in (header, *rows))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
