"""Refinement studies: observed orders, consistency decay, stability probes.

Every study walks a ladder of nested meshes produced by :func:`grid.refine`,
so spatial nodes and time levels of a coarse mesh sit exactly on all finer
ones and no interpolation ever enters an error number.  Errors against an
exact solution are measured at the realized final time of the ladder (the
same float on every level); self-convergence errors compare each coarser
run with the finest one at the shared nodes and levels.

No study holds a whole history.  The X_h and Y_h norms are sums of
per-level terms, so ``_stream_run`` re-blocks each run's ``observe=`` rows
into ascending blocks of ``residual._BLOCK_ROWS`` levels, read through the
module; each block, with the same levels of any function of (x, t) sampled
then, feeds ``residual._LevelSquares``, which sums the terms as they arrive
and keeps no per-level array.  Self-convergence compares each coarser run
with the finest one, which runs first: its rows at each coarser rung's nodes
and levels go, a block of ``residual._BLOCK_ROWS`` levels at a time, to an
unnamed temporary file per rung (in ``tempfile.gettempdir()``, which
``TMPDIR`` sets), and each coarser run reads its own file back in order, one
block at a time.

:func:`write_csv` is the one CSV writer: it writes a header and rows of
cells atomically (temp file, then rename) and prints floats as shortest
round-tripping decimals, so parsing a table back reproduces the in-memory
values bit for bit and identical studies produce identical bytes.  The
command line writes its final-time slices through ``_write_slices``, which
runs each rung once more and keeps only its last level.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InvalidParameter
from .grid import GridSpec, refine
from .model import ProblemSpec, SpaceTimeFunction
from .quadrature import InteriorVector, l2_norm
from . import residual
from .residual import _LevelSquares, _node_row, _phi_blocks, _sample_nodes, apply_phi
from .solver import _check_domain, _initial_row, _march_shape, run


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
    """log2(previous / current); None unless both errors and their ratio are finite and positive."""
    if 0.0 < previous < math.inf and 0.0 < current < math.inf and 0.0 < previous / current < math.inf:
        return math.log2(previous / current)
    return None


def _orders(values: Sequence[float]) -> list[Optional[float]]:
    """None for the first value, then the observed order against the one before."""
    return [None, *(_order(previous, current) for previous, current in zip(values, values[1:]))]


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


def _reblock(
    grid: GridSpec, flush: Callable[[int, np.ndarray], None], node_stride: int = 1
) -> tuple[Callable[[int, np.ndarray], None], np.ndarray]:
    """``(observe, block)``: ``observe(n, row)`` hands ``grid``'s levels to ``flush(start, rows)`` in ascending blocks.

    ``observe`` takes levels 0..n_steps in order, each a row whose every ``node_stride``-th node is one
    of ``grid``'s, and copies those nodes into ``block``, one buffer of ``residual._BLOCK_ROWS`` levels
    that is refilled once ``flush`` returns, so ``flush`` may write over it; the last block may hold fewer.
    """
    rows, last = residual._BLOCK_ROWS, grid.n_steps
    block = np.empty((min(rows, last + 1), grid.m_total + 1))

    def observe(n: int, row: np.ndarray) -> None:
        j = n % rows
        block[j] = row[::node_stride]
        if j == rows - 1 or n == last:
            flush(n - j, block[: j + 1])

    return observe, block


def _stream_run(problem: ProblemSpec, grid: GridSpec, flush: Callable[[int, np.ndarray], None]) -> np.ndarray:
    """Run ``problem`` on ``grid``, handing its levels to ``flush(start, rows)`` in ``_reblock``'s blocks.

    Returns the last level's row as the last ``flush`` left it.
    """
    observe, block = _reblock(grid, flush)
    run(problem, grid, every=grid.n_steps, observe=observe)
    return block[grid.n_steps % residual._BLOCK_ROWS]


def _streamed_error(
    problem: ProblemSpec, grid: GridSpec, reference: Callable[[int, int], np.ndarray]
) -> tuple[float, float, float]:
    """err_inf and err_l2 at the final level and err_xh of ``reference - run`` on ``grid``.

    ``reference(start, stop)`` gives levels start..stop-1 of the reference (u sampled by ``_sample_nodes``,
    or a block read back from self-convergence's temporary file).  Each streamed block of the run is
    overwritten by the reference's block minus it and fed to the X_h norm's sums; the sign changes no
    norm's bits.
    """
    squares = _LevelSquares(grid)  # refuses what run would, before allocating

    def flush(start: int, block: np.ndarray) -> None:
        squares(start, np.subtract(reference(start, start + block.shape[0]), block, out=block))

    final = _stream_run(problem, grid, flush)
    with np.errstate(invalid="ignore", over="ignore"):  # as run's: an error that overflows reads inf
        err_l2 = l2_norm(InteriorVector(final[1:-1], grid.h))
    return float(np.max(np.abs(final))), err_l2, squares.xh_norm()


def convergence_study(
    problem: ProblemSpec, u: SpaceTimeFunction, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors ``u - run`` on a ladder of refined meshes; u is sampled and each run streamed a block of levels at a time."""
    grids = _grid_ladder(base, levels)
    return _attach_orders(grids, [_streamed_error(problem, grid, partial(_sample_nodes, u, grid)) for grid in grids])


def _reference_file(
    grid: GridSpec, node_stride: int, stream
) -> tuple[Callable[[int, np.ndarray], None], Callable[[int, int], np.ndarray]]:
    """``(write, reference)``: a finer run's rows at ``grid``'s nodes and levels, kept in ``stream``.

    ``write(level, row)`` is ``_reblock``'s observer, whose blocks are written to ``stream``.
    ``reference`` reads levels start..stop-1, at most one block, back into that same buffer, valid
    until its next call; a short read raises OSError.
    """
    write, block = _reblock(grid, lambda start, rows: stream.write(rows), node_stride)
    row_bytes = block.itemsize * block.shape[1]

    def reference(start: int, stop: int) -> np.ndarray:
        out = block[: stop - start]
        stream.seek(start * row_bytes)
        read = stream.readinto(out)
        if read != out.nbytes:
            raise OSError(
                f"temporary file of the h = {grid.h!r} reference ended: levels {start}..{stop - 1}"
                f" are {out.nbytes} bytes, {read} were read"
            )
        return out

    return write, reference


def self_convergence_study(
    problem: ProblemSpec, base: GridSpec, levels: int
) -> list[ConvergenceRow]:
    """Errors of each coarser run against the finest run of the ladder.

    Needs at least three levels so that at least two error rows exist and
    one order can be formed.  The finest rung runs first; a ladder whose
    finest rung is too long to step is refused before any file is opened.
    Its observer copies the rows at each coarser rung's nodes and levels
    into that rung's block of levels and writes each full block, and the
    last, to the rung's unnamed temporary file.  Each coarser rung, coarsest
    first, is then streamed against its file, read back a block at a time,
    so the study holds a few blocks per rung and the files hold the coarser
    rungs' histories.  Every file is closed when the study returns or raises.
    """
    if not (isinstance(levels, int) and levels >= 3):
        raise InvalidParameter(f"self-convergence needs levels >= 3, got {levels!r}")
    grids = _grid_ladder(base, levels)
    finest, coarser = grids[-1], grids[:-1]
    _march_shape(finest)  # before any file is opened
    with contextlib.ExitStack() as files:
        references = [
            _reference_file(grid, finest.m_total // grid.m_total, files.enter_context(tempfile.TemporaryFile()))
            for grid in coarser
        ]
        # second-finest rung first: a level off one rung is off every coarser one
        writes = [(finest.n_steps // grid.n_steps, write) for grid, (write, _) in zip(coarser, references)][::-1]

        def keep(n: int, row: np.ndarray) -> None:
            for level_stride, write in writes:
                level, offset = divmod(n, level_stride)
                if offset:
                    return
                write(level, row)

        run(problem, finest, every=finest.n_steps, observe=keep)
        triples = [_streamed_error(problem, grid, reference) for grid, (_, reference) in zip(coarser, references)]
    return _attach_orders(coarser, triples)


def consistency_study(
    problem: ProblemSpec, u: SpaceTimeFunction, base: GridSpec, levels: int
) -> list[ConsistencyRow]:
    """Residual norm of u on each mesh; a rung holds a few blocks of levels and no per-level array."""
    _check_domain(problem, base)
    grids = _grid_ladder(base, levels)
    residuals = []
    for grid in grids:
        squares = _LevelSquares(grid)  # refuses what apply_phi would, before allocating
        initial = InteriorVector(_initial_row(problem, grid.interior_nodes()), grid.h)
        residuals.append(apply_phi(u, problem, grid, initial, out=squares).yh_norm())
    return [
        ConsistencyRow(h=grid.h, residual_yh=residual, order=order)
        for grid, residual, order in zip(grids, residuals, _orders(residuals))
    ]


# The perturbation's amplitudes: np.random.default_rng(987654321).uniform(0.5, 1.0, size=3),
# written out so that no study imports numpy.random, about 7 MB of resident memory.
_AMPLITUDES = (0.6422996893307162, 0.5859334619922247, 0.5994397712546985)


def _perturbation(grid: GridSpec) -> Callable[[int, int], np.ndarray]:
    """A fixed low-frequency field on ``grid``, the stability probe's P, as ``sample(start, stop)``.

    The field is sum_m a_m cos(m pi t / T) sin(m pi x / a_dagger) over m = 1..3, with T the realized
    final time and fixed amplitudes a_m, at the nodes and times ``_sample_nodes`` passes.  ``sample``
    writes levels start..stop-1 (at most ``residual._BLOCK_ROWS``) into a block it owns, valid until its
    next call, with both trace columns zeroed (at a_dagger, sin(m pi) is not 0 in floating point).  Each
    mode's product is written into a second block and added in place, to 0 first, as ``sum`` adds them.
    """
    x = _node_row(grid)
    modes = [(m, a, np.sin(m * np.pi * x / grid.a_dagger)) for m, a in enumerate(_AMPLITUDES, start=1)]
    block, product = np.empty((2, min(residual._BLOCK_ROWS, grid.n_steps + 1), x.shape[0]))

    def sample(start: int, stop: int) -> np.ndarray:
        out, term = block[: stop - start], product[: stop - start]
        t = np.arange(start, stop)[:, None] * grid.k
        out[...] = 0
        for m, a, spatial in modes:
            out += np.multiply(a * np.cos(m * np.pi * t / grid.t_final), spatial, out=term)
        out[:, 0] = out[:, -1] = 0.0
        return out

    return sample


def stability_probe(
    problem: ProblemSpec, base: GridSpec, levels: int, perturbation_scale: float = 1.0
) -> list[StabilityRow]:
    """Ratio |V - W|_X / |phi(V) - phi(W)|_Y for a fixed smooth perturbation P.

    V is the computed solution and W = V + P.  P is ``_perturbation``'s field
    with both trace columns zeroed (at a_dagger, sin(m pi) is not 0 in
    floating point) and its interior scaled to xh-norm scale * h, inside the
    shrinking neighbourhood where the stability estimate applies; so the
    numerator is scale * h, taken without a cancelling subtraction.  A rung
    passes over P's blocks of levels twice: the first sums its X_h norm, and
    the second forms W over P's block from each streamed block of V, feeds V
    and W to two residual consumers, each writing its residual over its own
    block, and sums the Y_h norm of phi(V) - phi(W) in a second accumulator.
    A denominator that is zero or not finite (or a ratio that overflows) is
    reported as a row whose ratio is None, never raised.
    """
    if not (math.isfinite(perturbation_scale) and perturbation_scale >= 0.0):
        raise InvalidParameter(
            f"perturbation_scale must be finite and >= 0, got {perturbation_scale!r}"
        )
    grids = _grid_ladder(base, levels)
    _check_domain(problem, base)
    rows, block_rows = [], residual._BLOCK_ROWS
    for grid in grids:
        p_squares = _LevelSquares(grid)  # refuses what run would, before allocating
        sample = _perturbation(grid)
        for start in range(0, grid.n_steps + 1, block_rows):
            p_squares(start, sample(start, min(start + block_rows, grid.n_steps + 1)))
        factor = perturbation_scale * grid.h / p_squares.xh_norm()
        initial = InteriorVector(_initial_row(problem, grid.interior_nodes()), grid.h)
        phi_of_solution, phi_of_perturbed = _phi_blocks(problem, grid, initial), _phi_blocks(problem, grid, initial)
        gap_squares = _LevelSquares(grid)

        def flush(start: int, solution: np.ndarray) -> None:
            perturbed = sample(start, start + solution.shape[0])
            perturbed[:, 1:-1] *= factor
            np.add(solution, perturbed, out=perturbed)
            phi_of_solution(start, solution, solution)
            phi_of_perturbed(start, perturbed, perturbed)
            np.subtract(solution, perturbed, out=solution)
            gap_squares(start, solution)  # run calls flush under over="ignore": an overflowing gap has no ratio

        _stream_run(problem, grid, flush)
        numerator = perturbation_scale * grid.h
        denominator = gap_squares.yh_norm()
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


def _write_slices(
    problem: ProblemSpec, u: Optional[SpaceTimeFunction], base: GridSpec, levels: int, directory: str, tag: str
) -> list[str]:
    """Run each rung again and write its final level at the nodes u is sampled on; returns the paths."""
    paths = []
    for grid in _grid_ladder(base, levels):
        final = run(problem, grid, every=grid.n_steps).values[-1]  # level 0 and the final one
        columns = {"x": _node_row(grid), "u_numeric": final}
        if u is not None:
            columns["u_exact"] = exact = _sample_nodes(u, grid, grid.n_steps, grid.n_steps + 1)[0]
            columns["abs_err"] = abs(final - exact)
        paths.append(f"{directory}/{tag}_slice_h{grid.h!r}.csv")
        write_csv(paths[-1], list(columns), zip(*columns.values()))
    return paths
