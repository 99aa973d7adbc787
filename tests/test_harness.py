import csv
import dataclasses
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest

from agediff import harness, residual
from agediff.errors import InvalidParameter, NonFiniteState, StabilityViolation
from agediff.grid import GridSpec, build_grid, refine
from agediff.harness import (
    ConsistencyRow,
    ConvergenceRow,
    StabilityRow,
    consistency_study,
    convergence_study,
    self_convergence_study,
    stability_probe,
    write_csv,
)
from agediff.model import ProblemSpec, builtin_problem, problem_from_expressions
from agediff.quadrature import InteriorVector, l2_norm
from agediff.residual import apply_phi, restrict, xh_norm, yh_norm
from agediff.solver import GridFunction, run


def zero_problem():
    problem = ProblemSpec(
        mortality=lambda x, s: np.ones_like(x),
        fertility=lambda x, s: np.ones_like(x),
        psi1=lambda x: np.ones_like(x),
        psi2=lambda x: np.ones_like(x),
        initial=lambda x: np.zeros_like(x),
    )
    return problem, lambda x, t: np.zeros_like(x)


def test_convergence_study_first_order():
    problem, exact = builtin_problem("example1")
    base = build_grid(1.0, 7, 0.4, 0.2)
    rows = convergence_study(problem, exact, base, levels=3)
    assert [row.m_total for row in rows] == [20, 40, 80]
    assert rows[0].h == base.h and rows[0].k == base.k and rows[0].n_steps == base.n_steps
    assert rows[0].order_inf is None and rows[0].order_l2 is None and rows[0].order_xh is None
    for column in ("err_inf", "err_l2", "err_xh"):
        values = [getattr(row, column) for row in rows]
        assert values[0] > values[1] > values[2] > 0.0
    for row in rows[1:]:
        assert 0.7 <= row.order_inf <= 1.3
        assert 0.7 <= row.order_l2 <= 1.3
        assert 0.7 <= row.order_xh <= 1.3


def test_single_level_study_has_no_orders():
    problem, exact = builtin_problem("example1")
    rows = convergence_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), levels=1)
    assert len(rows) == 1
    assert rows[0].order_inf is None


def test_zero_solution_yields_zero_errors_and_no_orders():
    problem, exact = zero_problem()
    rows = convergence_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), levels=2)
    for row in rows:
        assert row.err_inf == 0.0 and row.err_l2 == 0.0 and row.err_xh == 0.0
        assert row.order_inf is None and row.order_l2 is None and row.order_xh is None


@pytest.mark.parametrize(
    "previous,current",
    [
        (1.0, math.inf), (math.inf, 1.0), (math.inf, math.inf), (math.nan, 1.0), (1.0, 0.0), (-1.0, -2.0),
        (1e-300, 1e300), (1e300, 1e-300),
    ],
)
def test_an_order_of_errors_that_are_not_finite_and_positive_is_none(previous, current):
    # the last two pairs' ratios underflow to 0.0, whose log2 is a domain error, and overflow to inf
    assert harness._order(previous, current) is None


def test_an_order_is_log2_of_the_ratio_of_the_errors():
    assert harness._order(4.0, 1.0) == 2.0
    assert harness._order(1e300, 1e-5) == math.log2(1e305)


@pytest.mark.parametrize("levels", [0, -1, 2.0, True, False])
def test_ladder_rejects_bad_level_counts(levels):
    problem, exact = builtin_problem("example1")
    with pytest.raises(InvalidParameter):
        convergence_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), levels=levels)


def test_self_convergence_needs_three_levels():
    problem, _ = builtin_problem("example2")
    with pytest.raises(InvalidParameter, match="levels >= 3"):
        self_convergence_study(problem, build_grid(1.0, 7, 0.4, 0.05), levels=2)


def test_self_convergence_study_shape_and_decay():
    problem, _ = builtin_problem("example2")
    rows = self_convergence_study(problem, build_grid(1.0, 7, 0.4, 0.1), levels=3)
    assert len(rows) == 2
    assert rows[0].order_inf is None
    assert rows[1].err_inf < rows[0].err_inf
    assert rows[1].order_inf is not None


def test_self_convergence_agrees_with_exact_on_the_coarsest_order():
    # the self-study reference sits close enough to the limit that only the
    # first order entry is free of reference contamination
    problem, exact = builtin_problem("example1")
    base = build_grid(1.0, 7, 0.4, 0.2)
    against_exact = convergence_study(problem, exact, base, levels=2)
    against_self = self_convergence_study(problem, base, levels=5)
    assert against_self[1].order_inf == pytest.approx(against_exact[1].order_inf, abs=0.2)


def test_consistency_rejects_a_non_finite_initial_profile():
    problem, exact = builtin_problem("example1")
    bad = dataclasses.replace(problem, initial=lambda x: np.full_like(x, math.nan))
    with pytest.raises(NonFiniteState, match="initial profile is not finite") as excinfo:
        consistency_study(bad, exact, build_grid(1.0, 7, 0.4, 0.05), 2)
    assert excinfo.value.time_level == 0


@pytest.mark.parametrize("problem_id,t_final", [("example1", 0.2), ("example3", 0.8)])
def test_consistency_residual_decays_at_first_order(problem_id, t_final):
    problem, exact = builtin_problem(problem_id)
    rows = consistency_study(problem, exact, build_grid(1.0, 7, 0.4, t_final), levels=3)
    assert rows[0].order is None
    values = [row.residual_yh for row in rows]
    assert values[0] > values[1] > values[2] > 0.0
    for row in rows[1:]:
        assert math.log2(1.7) <= row.order <= math.log2(2.3)


def test_stability_probe_stays_bounded():
    problem, _ = builtin_problem("example1")
    rows = stability_probe(problem, build_grid(1.0, 7, 0.4, 0.2), levels=3)
    assert len(rows) == 3
    assert all(row.ratio is not None for row in rows)
    ratios = [row.ratio for row in rows]
    assert not (ratios[0] < ratios[1] < ratios[2])
    assert ratios[2] <= 2.0 * ratios[0]


def test_stability_probe_ratio_is_scale_free_for_a_linear_problem():
    problem, _ = builtin_problem("example1")
    base = build_grid(1.0, 7, 0.4, 0.2)
    full = stability_probe(problem, base, levels=1, perturbation_scale=1.0)
    half = stability_probe(problem, base, levels=1, perturbation_scale=0.5)
    assert half[0].ratio == pytest.approx(full[0].ratio, rel=1e-9)


def test_stability_probe_zero_scale_is_degenerate():
    problem, _ = builtin_problem("example1")
    rows = stability_probe(problem, build_grid(1.0, 7, 0.4, 0.05), levels=2, perturbation_scale=0.0)
    for row in rows:
        assert row.ratio is None
    # at this scale the residual gap's yh-norm overflows to inf, and a finite
    # numerator over it would read as a ratio of 0.0
    problem, _ = builtin_problem("example3")
    rows = stability_probe(problem, build_grid(1.0, 7, 0.4, 0.05), levels=2, perturbation_scale=1e150)
    assert [row.ratio for row in rows] == [None] * 2


@pytest.mark.parametrize("scale", [-0.5, math.nan, math.inf])
def test_stability_probe_rejects_bad_scales(scale):
    problem, _ = builtin_problem("example1")
    with pytest.raises(InvalidParameter, match="perturbation_scale"):
        stability_probe(problem, build_grid(1.0, 7, 0.4, 0.05), levels=1, perturbation_scale=scale)


CONVERGENCE_HEADER = ["h", "k", "M", "N", "err_inf", "err_l2", "err_xh", "order_inf", "order_l2", "order_xh"]


def test_convergence_csv_round_trip(tmp_path):
    problem, exact = builtin_problem("example1")
    rows = convergence_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), levels=2)
    path = str(tmp_path / "convergence.csv")
    write_csv(path, CONVERGENCE_HEADER, map(dataclasses.astuple, rows))
    with open(path, encoding="utf-8", newline="") as stream:
        header, *records = csv.reader(stream)
    assert header == CONVERGENCE_HEADER
    types = [float, float, int, int, float, float, float, float, float, float]
    parsed = [
        ConvergenceRow(*(kind(cell) if cell else None for kind, cell in zip(types, record))) for record in records
    ]
    assert parsed == rows
    assert not [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]


def test_csv_writes_are_reproducible(tmp_path):
    rows = [
        ConvergenceRow(0.05, 0.001, 20, 50, 0.1, 0.05, 0.2, None, None, None),
        ConvergenceRow(0.025, 0.00025, 40, 200, 0.05, 0.025, 0.1, 1.0, 1.0, 1.0),
    ]
    first = str(tmp_path / "a.csv")
    second = str(tmp_path / "b.csv")
    write_csv(first, CONVERGENCE_HEADER, map(dataclasses.astuple, rows))
    write_csv(second, CONVERGENCE_HEADER, map(dataclasses.astuple, rows))
    with open(first, "rb") as fa, open(second, "rb") as fb:
        assert fa.read() == fb.read()


def test_convergence_csv_literal_text(tmp_path):
    rows = [
        ConvergenceRow(0.05, 0.001, 20, 50, 0.1, 0.05, 0.2, None, None, None),
        ConvergenceRow(0.025, 0.00025, 40, 200, 0.05, 0.025, 0.1, 1.0, 1.0, 1.0),
    ]
    path = tmp_path / "convergence.csv"
    write_csv(str(path), CONVERGENCE_HEADER, map(dataclasses.astuple, rows))
    assert path.read_bytes() == (
        b"h,k,M,N,err_inf,err_l2,err_xh,order_inf,order_l2,order_xh\n"
        b"0.05,0.001,20,50,0.1,0.05,0.2,,,\n"
        b"0.025,0.00025,40,200,0.05,0.025,0.1,1.0,1.0,1.0\n"
    )


def test_csv_cell_rule(tmp_path):
    # a float (np.float64 too) prints as repr(float(v)), an int or str as
    # itself and None as an empty cell
    path = tmp_path / "cells.csv"
    write_csv(str(path), ["a", "b", "c", "d", "e"], [(np.float64(0.1), 7, None, "DegenerateRatio", 1e-300)])
    assert path.read_bytes() == b"a,b,c,d,e\n0.1,7,,DegenerateRatio,1e-300\n"


def test_failed_csv_write_leaves_no_temp_file(tmp_path):
    # the rename onto a directory fails; the temp file is removed and the error propagates
    target = tmp_path / "taken.csv"
    target.mkdir()
    with pytest.raises(OSError):
        write_csv(str(target), ["h"], [(0.05,)])
    assert target.is_dir() and not list(target.iterdir())
    assert sorted(os.listdir(tmp_path)) == ["taken.csv"]


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_csv_mode_follows_the_umask(tmp_path, umask, mode):
    path = tmp_path / "out.csv"
    previous = os.umask(umask)
    try:
        write_csv(str(path), ["h"], [(0.05,)])
        created = stat.S_IMODE(os.stat(path).st_mode)
        path.chmod(0o640)
        write_csv(str(path), ["h"], [(0.025,)])  # a replaced file takes the umask's mode too
        replaced = stat.S_IMODE(os.stat(path).st_mode)
    finally:
        os.umask(previous)
    assert (created, replaced) == (mode, mode)
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


def test_consistency_csv_format(tmp_path):
    rows = [ConsistencyRow(0.05, 0.25, None), ConsistencyRow(0.025, 0.125, 1.0)]
    path = tmp_path / "consistency.csv"
    write_csv(str(path), ["h", "residual_yh", "order"], map(dataclasses.astuple, rows))
    lines = path.read_text().splitlines()
    assert lines[0] == "h,residual_yh,order"
    assert lines[1] == "0.05,0.25,"
    assert lines[2] == "0.025,0.125,1.0"


@pytest.mark.parametrize("problem_id", ["example1", "example2"])
def test_write_slices_runs_each_rung_once_more_and_writes_its_final_level(tmp_path, monkeypatch, problem_id):
    problem, exact = builtin_problem(problem_id)
    base = build_grid(1.0, 7, 0.4, 0.05)
    grids = harness._grid_ladder(base, 2)
    calls = []

    def counted_run(problem, grid, every=1, observe=None):
        calls.append((grid, every, observe))
        return run(problem, grid, every, observe)

    monkeypatch.setattr(harness, "run", counted_run)
    paths = harness._write_slices(problem, exact, base, 2, str(tmp_path), "tag")
    assert calls == [(grid, grid.n_steps, None) for grid in grids]
    assert paths == [f"{tmp_path}/tag_slice_h{grid.h!r}.csv" for grid in grids]
    for grid, path in zip(grids, paths):
        columns = {"x": residual._node_row(grid), "u_numeric": run(problem, grid).values[-1]}
        if exact is not None:
            columns["u_exact"] = exact(columns["x"], grid.t_final)
            columns["abs_err"] = abs(columns["u_numeric"] - columns["u_exact"])
        reference = tmp_path / "reference.csv"
        write_csv(str(reference), list(columns), zip(*columns.values()))
        assert open(path, "rb").read() == reference.read_bytes()


def test_slice_csv_with_and_without_exact(tmp_path):
    # _write_slices writes a slice as its zipped node columns
    x = np.array([0.0, 0.5])
    numeric = np.array([1.0, 2.0])
    exact = np.array([1.0, 1.75])
    with_exact = tmp_path / "with.csv"
    write_csv(str(with_exact), ["x", "u_numeric", "u_exact", "abs_err"], zip(x, numeric, exact, abs(numeric - exact)))
    lines = with_exact.read_text().splitlines()
    assert lines[0] == "x,u_numeric,u_exact,abs_err"
    assert lines[2] == "0.5,2.0,1.75,0.25"
    without = tmp_path / "without.csv"
    write_csv(str(without), ["x", "u_numeric"], zip(x, numeric))
    assert without.read_text().splitlines() == ["x,u_numeric", "0.0,1.0", "0.5,2.0"]


def restrict_to_coarse(element, coarse):
    """Sample an element on a nested finer mesh down to the mesh ``coarse``."""
    fine = element.grid
    probe, depth = coarse, 0
    while probe.m_total < fine.m_total:
        probe, depth = refine(probe), depth + 1
    assert probe == fine, "the element's mesh is not a refinement of the coarse mesh"
    space_stride, time_stride = 2**depth, 4**depth
    return GridFunction(element.values[::time_stride, ::space_stride], coarse)


def difference(a, b):
    """a - b, level by level and node by node, on a's mesh."""
    return GridFunction(a.values - b.values, a.grid)


def error_triple(error):
    """err_inf and err_l2 at the final level and err_xh of a whole error history."""
    err_inf = float(np.max(np.abs(error.values[-1])))
    return err_inf, l2_norm(InteriorVector(error.interior[-1], error.grid.h)), xh_norm(error)


def whole_history_self_convergence(problem, base, levels):
    # the study as it was when every rung kept its whole history at once
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    elements = [run(problem, grid) for grid in grids]
    triples = [
        error_triple(difference(element, restrict_to_coarse(elements[-1], grid)))
        for grid, element in zip(grids[:-1], elements[:-1])
    ]
    return harness._attach_orders(grids[:-1], triples)


def whole_history_convergence(problem, exact, base, levels):
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    triples = [
        error_triple(difference(restrict(exact, grid), run(problem, grid)))
        for grid in grids
    ]
    return harness._attach_orders(grids, triples)


def inline_problem(a_dagger=1.0, right_boundary="exp(-t)/10"):
    return problem_from_expressions(
        mortality="0.5 + s/(1 - exp(-1)) + x/4",
        fertility="2*exp(x)",
        initial="e - exp(x)",
        psi1="1 + x/2",
        psi2="abs(1 - x)",
        right_boundary=right_boundary,
        a_dagger=a_dagger,
    )


@pytest.mark.parametrize(
    "problem_id,levels", [("example2", 3), ("example2", 4), ("example3", 4), ("inline", 3)]
)
def test_self_convergence_equals_the_whole_history_study(problem_id, levels):
    problem = inline_problem() if problem_id == "inline" else builtin_problem(problem_id)[0]
    base = build_grid(1.0, 7, 0.4, 0.05)
    expected = whole_history_self_convergence(problem, base, levels)
    assert self_convergence_study(problem, base, levels) == expected


def grid_function(left, rows, right, grid):
    """The grid function on ``grid`` with these traces and interior rows."""
    return GridFunction(np.column_stack((left, rows, right)), grid)


def whole_array_stability_probe(problem, base, levels, scale):
    # the probe as it was when the perturbation, W, phi(V), phi(W) and the
    # gap were separate whole-history arrays
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    rows = []
    for grid in grids:
        solution = run(problem, grid)
        rng = np.random.default_rng(987654321)
        amplitudes = rng.uniform(0.5, 1.0, size=3)
        x = grid.interior_nodes()
        t = grid.time_levels()
        field = np.zeros((grid.n_steps + 1, grid.m_total - 1))
        for mode in range(3):
            spatial = np.sin((mode + 1) * np.pi * x / grid.a_dagger)
            temporal = np.cos((mode + 1) * np.pi * t / grid.t_final)
            field += amplitudes[mode] * temporal[:, None] * spatial[None, :]
        zeros = np.zeros(grid.n_steps + 1)
        factor = scale * grid.h / xh_norm(grid_function(zeros, field, zeros, grid))
        perturbation = grid_function(zeros, field * factor, zeros, grid)
        perturbed = grid_function(
            solution.left_trace + perturbation.left_trace,
            solution.interior + perturbation.interior,
            solution.right_trace + perturbation.right_trace,
            grid,
        )
        initial = InteriorVector(problem.initial(x), grid.h)
        gap = difference(apply_phi(solution, problem, grid, initial), apply_phi(perturbed, problem, grid, initial))
        # the numerator is the norm the perturbation was scaled to
        assert xh_norm(perturbation) == pytest.approx(scale * grid.h, rel=1e-14)
        numerator, denominator = scale * grid.h, yh_norm(gap)
        if not (0.0 < denominator < math.inf and math.isfinite(numerator / denominator)):
            rows.append(StabilityRow(h=grid.h, ratio=None))
        else:
            rows.append(StabilityRow(h=grid.h, ratio=numerator / denominator))
    return rows


@pytest.mark.parametrize(
    "problem_id,scale",
    [("example1", 1.0), ("example3", 1.0), ("example3", 0.5), ("inline", 1.0), ("inline-a2", 1.0)],
)
def test_stability_probe_equals_the_whole_array_probe(problem_id, scale):
    # inline-a2 lives on [0, 2] with u = 0 at x = 2: sin(m pi x / a_dagger) is not
    # 0 there in floating point, and V's right trace is 0, so a sample left in
    # W's right trace would change the ratio; the probe must zero that trace
    if problem_id == "inline-a2":
        problem = inline_problem(2.0, right_boundary=None)
    elif problem_id == "inline":
        problem = inline_problem()
    else:
        problem = builtin_problem(problem_id)[0]
    base = build_grid(problem.a_dagger, 7, 0.4, 0.05)
    expected = whole_array_stability_probe(problem, base, 3, scale)
    assert stability_probe(problem, base, 3, scale) == expected


@pytest.mark.parametrize("problem_id", ["example1", "example3"])
def test_convergence_equals_the_whole_history_study(problem_id):
    problem, exact = builtin_problem(problem_id)
    base = build_grid(1.0, 7, 0.4, 0.05)
    assert convergence_study(problem, exact, base, 3) == whole_history_convergence(
        problem, exact, base, 3
    )


def traced_peak(study, *args):
    tracemalloc.start()
    try:
        study(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def history_bytes(base, levels, rung=-1):
    """Bytes of the whole history, x_0..x_M at every level, of one rung of the ladder."""
    grid = harness._grid_ladder(base, levels)[rung]
    return (grid.n_steps + 1) * (grid.m_total + 1) * 8


def test_self_convergence_memory_stays_far_below_the_second_finest_history():
    # the finest rung writes its rows at each coarser rung's nodes and levels to that rung's
    # temporary file a block at a time, and each coarser rung reads its own back a block at a
    # time, so the study holds a few blocks per rung (0.031x); keeping the finest run at the
    # second-finest rung's nodes and levels in one array measured 1.02x
    problem, _ = builtin_problem("example2")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(self_convergence_study, problem, base, 5)
    assert peak <= 0.05 * history_bytes(base, 5, rung=-2)


def test_convergence_memory_stays_far_below_one_history():
    # u is sampled and each run streamed one block of levels at a time into norms that keep no
    # per-level array (0.025x; 0.09x with three floats per level); sampling each rung's whole
    # exact solution measured 1.05x
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(convergence_study, problem, exact, base, 4)
    assert peak <= 0.05 * history_bytes(base, 4)


def test_consistency_memory_does_not_grow_with_the_levels():
    # apply_phi holds a few blocks of rows and the Y_h norm a leaf and O(log n) partial sums, so
    # four times the levels add no per-level array; three floats per level would add 57 KB here
    problem, exact = builtin_problem("example3")
    consistency_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), 2)  # caches filled
    peaks = [traced_peak(consistency_study, problem, exact, build_grid(1.0, 7, 0.4, t), 2) for t in (0.2, 0.8)]
    finest = harness._grid_ladder(build_grid(1.0, 7, 0.4, 0.8), 2)[-1]
    sixteen_blocks = 16 * residual._BLOCK_ROWS * (finest.m_total + 1) * 8
    assert max(peaks) <= sixteen_blocks
    assert peaks[1] <= peaks[0] + 1024, peaks


def test_consistency_study_makes_one_apply_phi_call_per_rung_on_u_itself(monkeypatch):
    # apply_phi samples u a block at a time, so no rung samples a whole history
    calls = []

    def tracking_apply_phi(v, problem, grid, initial, out=None):
        calls.append((v, grid))
        return apply_phi(v, problem, grid, initial, out=out)

    def no_restrict(u, grid):
        raise AssertionError("consistency_study sampled a whole history")

    monkeypatch.setattr(harness, "apply_phi", tracking_apply_phi)
    monkeypatch.setattr(residual, "restrict", no_restrict)
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.05)
    consistency_study(problem, exact, base, 3)
    assert calls == [(exact, grid) for grid in harness._grid_ladder(base, 3)]


def test_stability_probe_memory_stays_far_below_one_history():
    # V and W are fed to two residual consumers a block of levels at a time, each writing its
    # residual over its own block, and the norms keep no per-level array (0.084x; 0.087x with
    # the two residuals in blocks of their own, 0.31x with three floats per level); two
    # whole-history arrays per rung measured 2.17x
    problem, _ = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(stability_probe, problem, base, 4)
    assert peak <= 0.1 * history_bytes(base, 4)


STUDIES = {
    "convergence": lambda problem, exact, base: convergence_study(problem, exact, base, 3),
    "self-convergence": lambda problem, exact, base: self_convergence_study(problem, base, 3),
    "stability": lambda problem, exact, base: stability_probe(problem, base, 3),
}


@pytest.mark.parametrize("study", STUDIES.values(), ids=STUDIES.keys())
def test_every_study_streams_each_run_and_keeps_no_history(monkeypatch, study):
    # each rung runs once, keeping two levels and reading the others from its observer,
    # and nothing samples or stores a whole history or calls the public apply_phi
    runs = []

    def streamed_run(problem, grid, every=1, observe=None):
        runs.append(grid)
        assert every == grid.n_steps and observe is not None
        return run(problem, grid, every, observe)

    def refused(*args, **kwargs):
        raise AssertionError("a study held a whole history")

    monkeypatch.setattr(harness, "run", streamed_run)
    monkeypatch.setattr(harness, "apply_phi", refused)
    monkeypatch.setattr(residual, "restrict", refused)
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.05)
    study(problem, exact, base)
    grids = harness._grid_ladder(base, 3)
    # self-convergence runs the finest rung first, then the others coarsest first
    assert runs == (grids[-1:] + grids[:-1] if study is STUDIES["self-convergence"] else grids)


@pytest.mark.parametrize("rows", [1, 7, 64, 256])
@pytest.mark.parametrize("study", STUDIES.values(), ids=STUDIES.keys())
def test_every_study_gives_the_same_rows_in_blocks_of_any_size(monkeypatch, study, rows):
    # the study reads the block size through the residual module, so it feeds blocks of the
    # patched size to the norms; the rows are the same bits at every size
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.05)
    expected = study(problem, exact, base)
    levels, sizes = [], []

    class Recorded(residual._LevelSquares):
        def __init__(self, grid):
            levels.append(grid.n_steps + 1)
            super().__init__(grid)

        def __call__(self, start, block):
            sizes.append(block.shape[0])
            super().__call__(start, block)

    monkeypatch.setattr(residual, "_BLOCK_ROWS", rows)
    monkeypatch.setattr(harness, "_LevelSquares", Recorded)
    assert study(problem, exact, base) == expected
    assert max(sizes) == min(rows, max(levels))


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
def test_self_convergence_raises_the_coarsest_failing_rungs_error(monkeypatch):
    # the finest rung runs first and passes; of the two coarser rungs, both of whose update
    # weights 1 - lam - 2r - k*d are negative, the coarsest runs next and its error is raised,
    # with both rungs' temporary files closed (a file left open warns when it is collected)
    files = []

    def recorded(*args, **kwargs):
        files.append(temporary_file(*args, **kwargs))
        return files[-1]

    temporary_file = tempfile.TemporaryFile
    monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
    problem = dataclasses.replace(builtin_problem("example2")[0], mortality=lambda x, s: np.full_like(x, 1000.0))
    base = build_grid(1.0, 7, 0.4, 0.05)
    grids = harness._grid_ladder(base, 3)
    margins = [1.0 - grid.lam - 2.0 * grid.r - grid.k * 1000.0 for grid in grids]
    assert margins[0] < margins[1] < 0.0 < margins[2]
    with pytest.raises(StabilityViolation, match=rf"= {re.escape(repr(margins[0]))} < 0"):
        self_convergence_study(problem, base, 3)
    assert len(files) == 2 and all(file.closed for file in files)


def test_a_reference_file_is_written_and_read_one_block_at_a_time():
    # every second node of a finer row is one of the grid's; each write and each read moves at
    # most one block of levels, and the rows read back are the rows written, bit for bit
    grid = build_grid(1.0, 7, 0.4, 0.2)
    finer = np.random.default_rng(5).standard_normal((grid.n_steps + 1, 2 * grid.m_total + 1))
    block_bytes = residual._BLOCK_ROWS * (grid.m_total + 1) * 8
    writes, reads = [], []

    class Recorded(io.BytesIO):
        def write(self, data):
            writes.append(memoryview(data).nbytes)
            return super().write(data)

        def readinto(self, buffer):
            reads.append(memoryview(buffer).nbytes)
            return super().readinto(buffer)

    stream = Recorded()
    write, reference = harness._reference_file(grid, 2, stream)
    for level, row in enumerate(finer):
        write(level, row)
    starts = range(0, grid.n_steps + 1, residual._BLOCK_ROWS)
    assert len(writes) == len(starts) and sum(writes) == finer[:, ::2].nbytes
    for start in reversed(starts):
        stop = min(start + residual._BLOCK_ROWS, grid.n_steps + 1)
        assert reference(start, stop).tobytes() == finer[start:stop, ::2].tobytes()
    assert len(reads) == len(starts) and max(writes + reads) == block_bytes


def test_a_reference_file_that_ends_early_is_an_oserror():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    stream = io.BytesIO()
    write, reference = harness._reference_file(grid, 1, stream)
    for level in range(grid.n_steps + 1):
        write(level, np.full(grid.m_total + 1, float(level)))
    stream.truncate((grid.n_steps + 1) * (grid.m_total + 1) * 8 - 1)  # one byte short of the last level
    rows = residual._BLOCK_ROWS
    assert reference(0, rows)[rows - 1, 0] == rows - 1
    start = grid.n_steps // rows * rows
    nbytes = (grid.n_steps + 1 - start) * (grid.m_total + 1) * 8
    with pytest.raises(OSError, match=rf"levels {start}\.\.{grid.n_steps} are {nbytes} bytes, {nbytes - 1} were read"):
        reference(start, grid.n_steps + 1)


def test_self_convergence_refuses_a_ladder_too_long_to_step_before_allocating(monkeypatch):
    # the finest rung of this ladder would cost more than 2^36 node values; no temporary file
    # is opened for the coarser rungs (the second-finest holds 1.6e7 levels x 41 nodes, 5.2 GB)
    # and no block is allocated
    monkeypatch.setattr(tempfile, "TemporaryFile", None)
    problem, _ = builtin_problem("example2")
    base = build_grid(1.0, 7, 0.4, 4000.0)
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameter, match=r"at most 2\^36"):
            self_convergence_study(problem, base, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_the_stability_probe_does_not_import_numpy_random():
    # its amplitudes are written out; numpy.random costs about 7 MB of resident memory
    code = (
        "import sys\n"
        "from agediff import build_grid, builtin_problem, stability_probe\n"
        "stability_probe(builtin_problem('example1')[0], build_grid(1.0, 7, 0.4, 0.05), 1)\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    source = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": source})
    assert harness._AMPLITUDES == tuple(np.random.default_rng(987654321).uniform(0.5, 1.0, size=3))
