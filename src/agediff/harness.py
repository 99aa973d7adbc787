"""Refinement studies: observed orders, consistency decay, stability probes.

Every study walks a ladder of nested meshes produced by :func:`grid.refine`,
so spatial nodes and time levels of a coarse mesh sit exactly on all finer
ones and no interpolation ever enters an error number.  Errors against an
exact solution are measured at the realized final time of the ladder (the
same float on every level); self-convergence errors compare each coarser
run with the finest one at the shared nodes and levels.  A grid function
holds one row of node values per level, so each difference or sum of grid
functions below is one ufunc call on their ``values``, written in place.

CSV files are written atomically (temp file, then rename) and print floats
as shortest round-tripping decimals, so reading a table back reproduces the
in-memory rows bit for bit and identical studies produce identical bytes.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .grid import GridSpec, refine
from .model import ExactSolution, ProblemSpec
from .quadrature import InteriorVector, l2_norm
from .residual import _BLOCK_ROWS, apply_phi, restrict, xh_norm, yh_norm
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


def convergence_study(
    problem: ProblemSpec, exact: ExactSolution, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors against an exact solution on a ladder of refined meshes."""
    grids = _grid_ladder(base, levels)
    triples = []
    for grid in grids:
        solution = run(problem, grid)
        error = restrict(exact.u, grid)
        np.subtract(error.values, solution.values, out=error.values)
        triples.append(_error_triple(error))
    return _attach_orders(grids, triples)


def self_convergence_study(
    problem: ProblemSpec, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors of each coarser run against the finest run of the ladder.

    Needs at least three levels so that at least two error rows exist and
    one order can be formed.  The coarser rungs run first and keep their
    whole histories.  The finest rung keeps none: an observer subtracts
    each of its levels from every coarser rung whose time level it shares,
    at the shared nodes, in place.  The operands and their order are those
    of ``coarse - finest`` sampled at the coarse rung's nodes and levels.
    """
    if not (isinstance(levels, int) and levels >= 3):
        raise InvalidParameter(f"self-convergence needs levels >= 3, got {levels!r}")
    grids = _grid_ladder(base, levels)
    errors = [run(problem, grid) for grid in grids[:-1]]

    def subtract_finest(n: int, row: np.ndarray) -> None:
        # the rung `depth` refinements below the finest shares every
        # 4**depth-th level and every 2**depth-th node
        for depth in range(1, levels):
            level, offset = divmod(n, 4**depth)
            if offset:
                return
            coarse = errors[-depth].values[level]
            np.subtract(coarse, row[:: 2**depth], out=coarse)

    finest = grids[-1]
    run(problem, finest, every=finest.n_steps, observe=subtract_finest)
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
    perturbation = GridFunction(np.zeros((grid.n_steps + 1, grid.m_total + 1)), grid)
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


CONVERGENCE_HEADER = ["h", "k", "M", "N", "err_inf", "err_l2", "err_xh", "order_inf", "order_l2", "order_xh"]


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_table(path: str, header: list[str], records) -> None:
    """Write header and records (sequences of cell strings) atomically."""
    text = "".join(",".join(cells) + "\n" for cells in (header, *records))
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


def write_convergence_csv(rows: list[ConvergenceRow], path: str) -> None:
    _write_table(
        path,
        CONVERGENCE_HEADER,
        (
            [
                _fmt(row.h),
                _fmt(row.k),
                str(row.m_total),
                str(row.n_steps),
                *map(_fmt, (row.err_inf, row.err_l2, row.err_xh, row.order_inf, row.order_l2, row.order_xh)),
            ]
            for row in rows
        ),
    )


def read_convergence_csv(path: str) -> list[ConvergenceRow]:
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader)
        if header != CONVERGENCE_HEADER:
            raise InvalidParameter(f"unexpected header {header!r} in {path}")
        rows = []
        for record in reader:
            rows.append(
                ConvergenceRow(
                    h=float(record[0]),
                    k=float(record[1]),
                    m_total=int(record[2]),
                    n_steps=int(record[3]),
                    err_inf=float(record[4]),
                    err_l2=float(record[5]),
                    err_xh=float(record[6]),
                    order_inf=float(record[7]) if record[7] else None,
                    order_l2=float(record[8]) if record[8] else None,
                    order_xh=float(record[9]) if record[9] else None,
                )
            )
    return rows


def write_consistency_csv(rows: list[ConsistencyRow], path: str) -> None:
    _write_table(
        path,
        ["h", "residual_yh", "order"],
        ((_fmt(row.h), _fmt(row.residual_yh), _fmt(row.order)) for row in rows),
    )


def write_stability_csv(rows: list[StabilityRow], path: str) -> None:
    _write_table(
        path,
        ["h", "ratio"],
        ((_fmt(row.h), "DegenerateRatio" if row.degenerate else _fmt(row.ratio)) for row in rows),
    )


def write_slice_csv(
    path: str,
    x: np.ndarray,
    u_numeric: np.ndarray,
    u_exact: Optional[np.ndarray] = None,
) -> None:
    if u_exact is None:
        _write_table(path, ["x", "u_numeric"], (map(_fmt, cells) for cells in zip(x, u_numeric)))
    else:
        _write_table(
            path,
            ["x", "u_numeric", "u_exact", "abs_err"],
            (map(_fmt, (xi, ui, ei, abs(ui - ei))) for xi, ui, ei in zip(x, u_numeric, u_exact)),
        )
