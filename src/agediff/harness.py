"""Refinement studies: observed orders, consistency decay, stability probes.

Every study walks a ladder of nested meshes produced by :func:`grid.refine`,
so spatial nodes and time levels of a coarse mesh sit exactly on all finer
ones and no interpolation ever enters an error number.  Errors against an
exact solution are measured at the realized final time of the ladder (the
same float on every level); self-convergence errors compare each coarser
run with the finest one at the shared nodes and levels.

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
from typing import Optional

import numpy as np

from .errors import AlignmentError, InvalidParameter
from .grid import GridSpec, refine
from .model import ExactSolution, ProblemSpec
from .quadrature import InteriorVector, inf_norm, l2_norm
from .residual import _BLOCK_ROWS, apply_phi, restrict, xh_norm, yh_norm
from .solver import GridFunction, _check_domain, run


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
    """One perturbation-pair ratio; ``degenerate`` marks an underflowed denominator."""

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


def _error_triple(error: GridFunction) -> tuple[float, float, float]:
    h = error.grid.h
    final = InteriorVector(error.interior[-1], h)
    err_inf = max(inf_norm(final), abs(float(error.left_trace[-1])), abs(float(error.right_trace[-1])))
    return err_inf, l2_norm(final), xh_norm(error)


def _attach_orders(
    grids: list[GridSpec], triples: list[tuple[float, float, float]]
) -> list[ConvergenceRow]:
    rows = []
    for index, (grid, (err_inf, err_l2, err_xh)) in enumerate(zip(grids, triples)):
        if index == 0:
            orders = (None, None, None)
        else:
            prev = triples[index - 1]
            orders = (_order(prev[0], err_inf), _order(prev[1], err_l2), _order(prev[2], err_xh))
        rows.append(
            ConvergenceRow(
                h=grid.h,
                k=grid.k,
                m_total=grid.m_total,
                n_steps=grid.n_steps,
                err_inf=err_inf,
                err_l2=err_l2,
                err_xh=err_xh,
                order_inf=orders[0],
                order_l2=orders[1],
                order_xh=orders[2],
            )
        )
    return rows


def _apply_into(ufunc: np.ufunc, target: GridFunction, other: GridFunction) -> GridFunction:
    """``ufunc(target, other)`` written into ``target``'s own three arrays (the same bits)."""
    for name in ("left_trace", "interior", "right_trace"):
        mine = getattr(target, name)
        ufunc(mine, getattr(other, name), out=mine)
    return target


def convergence_study(
    problem: ProblemSpec, exact: ExactSolution, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors against an exact solution on a ladder of refined meshes."""
    grids = _grid_ladder(base, levels)
    triples = []
    for grid in grids:
        solution = run(problem, grid)
        triples.append(_error_triple(_apply_into(np.subtract, restrict(exact.u, grid), solution)))
    return _attach_orders(grids, triples)


def restrict_to_coarse(element: GridFunction, coarse: GridSpec) -> GridFunction:
    """Sample an element from a nested finer mesh down to ``coarse``.

    The fine mesh must be ``coarse`` refined some number of times; anything
    else raises AlignmentError.
    """
    fine = element.grid
    if fine.a_dagger != coarse.a_dagger or fine.r != coarse.r:
        raise AlignmentError("grids do not describe the same problem setup")
    probe = coarse
    depth = 0
    while probe.m_total < fine.m_total:
        probe = refine(probe)
        depth += 1
    if probe != fine:
        raise AlignmentError(
            f"fine grid (m_total = {fine.m_total}) is not a refinement of the "
            f"coarse grid (m_total = {coarse.m_total})"
        )
    space_stride = 2**depth
    time_stride = 4**depth
    return GridFunction(
        element.left_trace[::time_stride],
        element.interior[::time_stride, space_stride - 1 :: space_stride],
        element.right_trace[::time_stride],
        coarse,
    )


def self_convergence_study(
    problem: ProblemSpec, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors of each coarser run against the finest run of the ladder.

    Needs at least three levels so that at least two error rows exist and
    one order can be formed.  The coarser rungs run first and keep their
    whole histories.  The finest rung keeps none: an observer subtracts
    each of its levels from every coarser rung whose time level it shares,
    at the shared nodes, in place.  The operands and their order are those
    of ``coarse - restrict_to_coarse(finest, coarse.grid)``.
    """
    if not (isinstance(levels, int) and levels >= 3):
        raise InvalidParameter(f"self-convergence needs levels >= 3, got {levels!r}")
    grids = _grid_ladder(base, levels)
    errors = [run(problem, grid) for grid in grids[:-1]]

    def subtract_finest(n: int, left: float, row: np.ndarray, right: float) -> None:
        # the rung `depth` refinements below the finest shares every
        # 4**depth-th level and every 2**depth-th node
        for depth in range(1, levels):
            level, offset = divmod(n, 4**depth)
            if offset:
                return
            error = errors[-depth]
            stride = 2**depth
            np.subtract(error.interior[level], row[stride - 1 :: stride], out=error.interior[level])
            error.left_trace[level] -= left
            error.right_trace[level] -= right

    finest = grids[-1]
    run(problem, finest, every=finest.n_steps, observe=subtract_finest)
    return _attach_orders(grids[:-1], [_error_triple(error) for error in errors])


def consistency_study(
    problem: ProblemSpec, exact: ExactSolution, base: GridSpec, levels: int
) -> list[ConsistencyRow]:
    """Residual norm of the restricted exact solution on each mesh."""
    _check_domain(problem, base)
    grids = _grid_ladder(base, levels)
    rows = []
    previous = None
    for grid in grids:
        sampled = restrict(exact.u, grid)
        initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
        residual = yh_norm(apply_phi(sampled, problem, grid, initial))
        order = _order(previous, residual) if previous is not None else None
        rows.append(ConsistencyRow(h=grid.h, residual_yh=residual, order=order))
        previous = residual
    return rows


def _perturbation(grid: GridSpec, scale: float) -> GridFunction:
    """A fixed low-frequency field, scaled to xh-norm = scale * h.

    The mode shape is drawn once from a fixed seed, so every call sees the
    same smooth function; only the sampling mesh changes.  Scaling by the
    mesh-dependent factor keeps the perturbation inside the shrinking
    neighbourhood where the stability estimate applies.  The rows are built
    one block at a time and scaled in place, so the only whole-history
    array is the result.
    """
    rng = np.random.default_rng(987654321)
    amplitudes = rng.uniform(0.5, 1.0, size=3)
    x = grid.interior_nodes()
    t = grid.time_levels()
    spatial = [np.sin((mode + 1) * np.pi * x / grid.a_dagger) for mode in range(3)]
    temporal = [np.cos((mode + 1) * np.pi * t / grid.t_final) for mode in range(3)]
    rows = np.zeros((grid.n_steps + 1, grid.m_total - 1))
    for start in range(0, grid.n_steps + 1, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        block = rows[start:stop]
        for mode in range(3):
            block += amplitudes[mode] * temporal[mode][start:stop, None] * spatial[mode][None, :]
    zeros = np.zeros(grid.n_steps + 1)
    perturbation = GridFunction(zeros, rows, zeros.copy(), grid)
    rows *= scale * grid.h / xh_norm(perturbation)
    return perturbation


def stability_probe(
    problem: ProblemSpec, base: GridSpec, levels: int, perturbation_scale: float = 1.0
) -> list[StabilityRow]:
    """Ratio |V - W|_X / |phi(V) - phi(W)|_Y for a fixed smooth perturbation.

    V is the computed solution, W = V + perturbation.  V - W is known in
    closed form (it is the negated perturbation), so the numerator is taken
    from the perturbation directly instead of through a cancelling
    subtraction.  W is formed in V's own arrays once phi(V) is known, and
    phi(V) - phi(W) in phi(V)'s, so each rung holds three whole-history
    arrays at most.  A vanishing denominator is reported as a degenerate
    row, never raised.
    """
    if not (math.isfinite(perturbation_scale) and perturbation_scale >= 0.0):
        raise InvalidParameter(
            f"perturbation_scale must be finite and >= 0, got {perturbation_scale!r}"
        )
    grids = _grid_ladder(base, levels)
    rows = []
    for grid in grids:
        solution = run(problem, grid)
        initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
        residual_gap = apply_phi(solution, problem, grid, initial)
        perturbation = _perturbation(grid, perturbation_scale)
        numerator = xh_norm(perturbation)
        _apply_into(np.add, solution, perturbation)
        del perturbation
        _apply_into(np.subtract, residual_gap, apply_phi(solution, problem, grid, initial))
        denominator = yh_norm(residual_gap)
        if denominator == 0.0 or not math.isfinite(numerator / denominator):
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
        with os.fdopen(handle, "w", newline="") as stream:
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
    with open(path, newline="") as stream:
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
