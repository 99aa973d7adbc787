"""Refinement studies: observed orders, consistency decay, stability probes.

Every study walks a ladder of nested meshes produced by :func:`grid.refine`,
so spatial nodes and time levels of a coarse mesh sit exactly on all finer
ones and no interpolation ever enters an error number.  Errors against an
exact solution are measured at the realized final time of the ladder (the
same float on every level); self-convergence errors compare each coarser
run with the finest one at the shared nodes and levels.  Both stream the
run they subtract and take each of its levels from the reference in place.
A consistency rung samples u and sums its residual's Y_h norm a block of levels
at a time in one :func:`apply_phi` call.  A grid function holds one row of node
values per level, so each difference or sum of grid functions below is one
ufunc call on their ``values``.

:func:`write_csv` is the one CSV writer: it writes a header and rows of
cells atomically (temp file, then rename) and prints floats as shortest
round-tripping decimals, so parsing a table back reproduces the in-memory
values bit for bit and identical studies produce identical bytes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .grid import GridSpec, refine
from .model import ProblemSpec, SpaceTimeFunction
from .quadrature import InteriorVector, l2_norm
from .residual import _LevelSquares, apply_phi, restrict, xh_norm, yh_norm
from .solver import GridFunction, _check_domain, _initial_row, run


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
    """One perturbation-pair ratio; None when the denominator is zero or not finite, or the ratio overflows."""

    h: float
    ratio: Optional[float]


def _grid_ladder(base: GridSpec, levels: int) -> list[GridSpec]:
    if not (isinstance(levels, int) and not isinstance(levels, bool) and levels >= 1):
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
    problem: ProblemSpec, u: SpaceTimeFunction, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors ``u - run`` on a ladder of refined meshes; each run is streamed, not stored."""
    grids = _grid_ladder(base, levels)
    triples = []
    for grid in grids:
        error = restrict(u, grid)
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
    problem: ProblemSpec, u: SpaceTimeFunction, base: GridSpec, levels: int
) -> list[ConsistencyRow]:
    """Residual norm of u on each mesh; a rung holds a few blocks of levels and three per-level arrays."""
    _check_domain(problem, base)
    grids = _grid_ladder(base, levels)
    residuals = []
    for grid in grids:
        squares = _LevelSquares(grid)  # refuses a history numpy cannot index before allocating
        initial = InteriorVector(_initial_row(problem, grid.interior_nodes()), grid.h)
        residuals.append(apply_phi(u, problem, grid, initial, out=squares).yh_norm())
    return [
        ConsistencyRow(h=grid.h, residual_yh=residual, order=order)
        for grid, residual, order in zip(grids, residuals, _orders(residuals))
    ]


def _perturbation(grid: GridSpec, scale: float) -> GridFunction:
    """A fixed low-frequency field with zero traces, scaled to xh-norm = scale * h.

    The field is sum_m a_m cos(m pi t / T) sin(m pi x / a_dagger) over m = 1..3,
    with T the realized final time.  The amplitudes a_m are drawn once from a
    fixed seed, so every call sees the same smooth function; only the sampling
    mesh changes.  Scaling by the mesh-dependent factor keeps the perturbation
    inside the shrinking neighbourhood where the stability estimate applies.
    :func:`restrict` samples the field, both trace columns are then zeroed (at
    a_dagger, sin(m pi) is not 0 in floating point) and the interior is scaled
    in place, so the only whole-history array is the result: the probe forms
    W and then phi(W) in it, the second of a rung's two arrays next to V.
    """
    amplitudes = np.random.default_rng(987654321).uniform(0.5, 1.0, size=3)
    perturbation = restrict(
        lambda x, t: sum(
            a * np.cos(m * np.pi * t / grid.t_final) * np.sin(m * np.pi * x / grid.a_dagger)
            for m, a in enumerate(amplitudes, start=1)
        ),
        grid,
    )
    perturbation.left_trace[:] = 0.0
    perturbation.right_trace[:] = 0.0
    rows = perturbation.interior
    rows *= scale * grid.h / xh_norm(perturbation)
    return perturbation


def stability_probe(
    problem: ProblemSpec, base: GridSpec, levels: int, perturbation_scale: float = 1.0
) -> list[StabilityRow]:
    """Ratio |V - W|_X / |phi(V) - phi(W)|_Y for a fixed smooth perturbation.

    V is the computed solution, W = V + perturbation.  V - W is the negated
    perturbation, whose xh-norm ``_perturbation`` sets to scale * h, so the
    numerator is scale * h, taken without a cancelling subtraction or a
    pass over the history.  W is formed in the perturbation's own array,
    phi(V) and phi(W) overwrite V and W, and phi(V) - phi(W) overwrites
    phi(V), so each rung holds two whole-history arrays, and drops them
    before the next rung runs.  A denominator that is zero or not finite (or
    a ratio that overflows) is reported as a row whose ratio is None, never raised.
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
        perturbed = _perturbation(grid, perturbation_scale)
        numerator = perturbation_scale * grid.h
        np.add(solution.values, perturbed.values, out=perturbed.values)
        apply_phi(solution, problem, grid, initial, out=solution)
        apply_phi(perturbed, problem, grid, initial, out=perturbed)
        np.subtract(solution.values, perturbed.values, out=solution.values)
        with np.errstate(over="ignore"):  # an overflowing gap has no ratio
            denominator = yh_norm(solution)
        del solution, perturbed  # before the next, eight times larger, rung runs
        finite = 0.0 < denominator < math.inf and math.isfinite(numerator / denominator)
        rows.append(StabilityRow(h=grid.h, ratio=numerator / denominator if finite else None))
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
    and None as an empty cell.  The file mode follows the umask, as for
    ``open()``, also when the write replaces an existing file.
    """
    text = "".join(",".join(map(_cell, cells)) + "\n" for cells in (header, *rows))
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.csv")
    # 0o666 less the umask, as open() gives; O_BINARY keeps Windows from writing \r\n
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY | getattr(os, "O_BINARY", 0)
    handle = os.open(temp_path, flags, 0o666)
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as stream:
            stream.write(text)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
