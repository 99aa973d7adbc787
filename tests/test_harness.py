import csv
import dataclasses
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from agediff import harness
from agediff.errors import InvalidParameter, NonFiniteState
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
from agediff.quadrature import InteriorVector
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


@pytest.mark.parametrize("levels", [0, -1, 2.0])
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


def test_consistency_csv_format(tmp_path):
    rows = [ConsistencyRow(0.05, 0.25, None), ConsistencyRow(0.025, 0.125, 1.0)]
    path = tmp_path / "consistency.csv"
    write_csv(str(path), ["h", "residual_yh", "order"], map(dataclasses.astuple, rows))
    lines = path.read_text().splitlines()
    assert lines[0] == "h,residual_yh,order"
    assert lines[1] == "0.05,0.25,"
    assert lines[2] == "0.025,0.125,1.0"


def test_slice_csv_with_and_without_exact(tmp_path):
    # the CLI writes a slice as its zipped node columns
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


def whole_history_self_convergence(problem, base, levels):
    # the study as it was when every rung kept its whole history at once
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    elements = [run(problem, grid) for grid in grids]
    triples = [
        harness._error_triple(difference(element, restrict_to_coarse(elements[-1], grid)))
        for grid, element in zip(grids[:-1], elements[:-1])
    ]
    return harness._attach_orders(grids[:-1], triples)


def whole_history_convergence(problem, exact, base, levels):
    grids = [base]
    for _ in range(levels - 1):
        grids.append(refine(grids[-1]))
    triples = [
        harness._error_triple(difference(restrict(exact, grid), run(problem, grid)))
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


def finest_history_bytes(base, levels):
    finest = base
    for _ in range(levels - 1):
        finest = refine(finest)
    return (finest.n_steps + 1) * (finest.m_total - 1) * 8


def test_self_convergence_memory_stays_below_the_finest_history():
    # the finest rung is streamed through an observer and only the coarser
    # rungs keep their histories (0.16x); keeping every 4th level of the
    # finest rung measured 0.39x, and every rung's whole history 1.30x
    problem, _ = builtin_problem("example2")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(self_convergence_study, problem, base, 4)
    assert peak <= 0.25 * finest_history_bytes(base, 4)


def test_convergence_memory_stays_near_one_history():
    # each rung holds its sampled exact solution and streams the run it
    # subtracts (1.05x); keeping the previous rung's error alive while the
    # next is sampled measured 1.15x, and the run's history next to it 2.16x
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(convergence_study, problem, exact, base, 4)
    assert peak <= 1.1 * finest_history_bytes(base, 4)


def test_consistency_study_drops_each_rung_before_sampling_the_next(monkeypatch):
    # each rung's residual overwrites its sampled history, which must be
    # freed before the next, eight times larger, rung is sampled
    sampled = []

    def tracking_restrict(u, grid):
        assert all(ref() is None for ref in sampled)
        element = restrict(u, grid)
        sampled.append(weakref.ref(element.interior.base))
        return element

    monkeypatch.setattr(harness, "restrict", tracking_restrict)
    problem, exact = builtin_problem("example3")
    consistency_study(problem, exact, build_grid(1.0, 7, 0.4, 0.05), 3)
    assert len(sampled) == 3


def test_stability_probe_memory_stays_within_a_few_histories():
    # at most three whole-history arrays are alive at once (3.34x): V (then
    # W) and phi(V) (then the gap) with the perturbation or phi(W); keeping
    # the perturbation alive next to phi(W) measured 4.34x, and separate
    # copies for W, phi(W) and the gap 6.25x
    problem, _ = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.2)
    peak = traced_peak(stability_probe, problem, base, 4)
    assert peak <= 4.0 * finest_history_bytes(base, 4)
