import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from agediff import residual
from agediff.errors import DimensionMismatch, EvalError, NonFiniteState
from agediff.grid import build_grid, refine
from agediff.harness import consistency_study
from agediff.model import builtin_problem, problem_from_expressions
from agediff.quadrature import InteriorVector, l2_norm, qh, star_norm
from agediff.residual import apply_phi, element_from_solution, restrict, xh_norm, yh_norm
from agediff.solver import GridFunction, run


def initial_vector(problem, grid):
    return InteriorVector(problem.initial(grid.interior_nodes()), grid.h)


def random_element(rng, grid):
    n_levels = grid.n_steps + 1
    return GridFunction(
        rng.standard_normal(n_levels),
        rng.standard_normal((n_levels, grid.m_total - 1)),
        rng.standard_normal(n_levels),
        grid,
    )


@pytest.mark.parametrize("problem_id,t_final", [("example1", 0.2), ("example2", 0.8), ("example3", 0.8)])
def test_computed_solution_is_a_root(problem_id, t_final):
    problem, _ = builtin_problem(problem_id)
    grid = build_grid(1.0, 7, 0.4, t_final)
    element = run(problem, grid)
    bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    assert yh_norm(bundle) <= 1e-10 * (1.0 + xh_norm(element))


def test_restrict_samples_every_node():
    grid = build_grid(1.0, 1, 0.4, 0.1)
    element = restrict(lambda x, t: 2.0 * x + t, grid)
    x = grid.interior_nodes()
    for n, t in enumerate(grid.time_levels()):
        assert np.array_equal(element.interior[n], 2.0 * x + float(t))
        assert element.left_trace[n] == float(t)
        assert element.right_trace[n] == 2.0 + float(t)


def test_restrict_rejects_non_finite_samples():
    grid = build_grid(1.0, 1, 0.4, 0.01)
    with pytest.raises(EvalError, match="not finite"):
        restrict(lambda x, t: np.full_like(np.asarray(x, dtype=float), math.nan), grid)


def test_restricted_exact_matches_the_initial_row_bitwise():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    element = restrict(exact.u, grid)
    bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    assert np.all(bundle.interior[0] == 0.0)


def test_restricted_exact_tracks_the_right_boundary_data():
    # the sampled trace and g(t) evaluate the same formula through different
    # exp implementations, so the residual is rounding noise over h, not zero
    problem, exact = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.8)
    element = restrict(exact.u, grid)
    bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    assert np.max(np.abs(bundle.right_trace)) <= 1e-13


def test_truncation_residual_shrinks_under_refinement():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    norms = []
    for _ in range(2):
        element = restrict(exact.u, grid)
        bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
        norms.append(yh_norm(bundle))
        grid = refine(grid)
    assert norms[1] < norms[0]


def test_residual_map_is_linear_for_a_linear_problem():
    # example1 has constant d and B, so phi is affine in the element and the
    # initial-data offset cancels in differences
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    initial = initial_vector(problem, grid)
    zeros = InteriorVector(np.zeros(grid.m_total - 1), grid.h)
    rng = np.random.default_rng(12345)
    for _ in range(3):
        v = random_element(rng, grid)
        w = random_element(rng, grid)
        direct = apply_phi(v, problem, grid, initial) - apply_phi(w, problem, grid, initial)
        through_difference = apply_phi(v - w, problem, grid, zeros)
        assert yh_norm(direct - through_difference) <= 1e-12


def test_xh_norm_values():
    grid = build_grid(1.0, 7, 0.4, 0.001)
    assert grid.n_steps == 1
    width = grid.m_total - 1
    rows_only = GridFunction(np.zeros(2), np.ones((2, width)), np.zeros(2), grid)
    assert xh_norm(rows_only) == pytest.approx(math.sqrt(grid.h * width), rel=1e-15)
    left_only = GridFunction(np.ones(2), np.zeros((2, width)), np.zeros(2), grid)
    assert xh_norm(left_only) == pytest.approx(grid.h * math.sqrt(2.0 * grid.k), rel=1e-14)


def test_yh_norm_values():
    grid = build_grid(1.0, 7, 0.4, 0.001)
    width = grid.m_total - 1
    zeros = np.zeros((2, width))
    initial_only = GridFunction(np.zeros(2), np.vstack([np.ones(width), np.zeros(width)]), np.zeros(2), grid)
    assert yh_norm(initial_only) == pytest.approx(math.sqrt(grid.h * width), rel=1e-14)
    left_only = GridFunction(np.ones(2), zeros, np.zeros(2), grid)
    assert yh_norm(left_only) == pytest.approx(math.sqrt(2.0 * grid.k), rel=1e-14)
    right_only = GridFunction(np.zeros(2), zeros, np.ones(2), grid)
    assert yh_norm(right_only) == pytest.approx(math.sqrt(grid.h * 2.0 * grid.k), rel=1e-14)
    later_only = GridFunction(np.zeros(2), np.vstack([np.zeros(width), np.ones(width)]), np.zeros(2), grid)
    assert yh_norm(later_only) == pytest.approx(math.sqrt(grid.k * grid.h * width), rel=1e-14)


def test_element_subtraction():
    grid = build_grid(1.0, 1, 0.4, 0.01)
    rng = np.random.default_rng(7)
    v = random_element(rng, grid)
    w = random_element(rng, grid)
    diff = v - w
    assert np.array_equal(diff.interior, v.interior - w.interior)
    assert np.array_equal(diff.left_trace, v.left_trace - w.left_trace)
    assert np.array_equal(diff.right_trace, v.right_trace - w.right_trace)


def test_subtraction_requires_matching_grids():
    coarse = build_grid(1.0, 1, 0.4, 0.01)
    fine = refine(coarse)
    rng = np.random.default_rng(8)
    with pytest.raises(DimensionMismatch, match="different grids"):
        random_element(rng, coarse) - random_element(rng, fine)
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    with pytest.raises(DimensionMismatch, match="strides"):
        run(problem, grid) - run(problem, grid, every=2)


def test_apply_phi_rejects_mismatched_inputs():
    problem, _ = builtin_problem("example1")
    coarse = build_grid(1.0, 7, 0.4, 0.05)
    fine = refine(coarse)
    element = run(problem, coarse)
    with pytest.raises(DimensionMismatch, match="does not live"):
        apply_phi(element, problem, fine, initial_vector(problem, fine))
    with pytest.raises(DimensionMismatch, match="initial data"):
        apply_phi(element, problem, coarse, initial_vector(problem, fine))


def test_element_from_solution_reuses_the_history_arrays():
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    solution = run(problem, grid)
    element = element_from_solution(solution)
    for name in ("left_trace", "interior", "right_trace"):
        assert np.shares_memory(getattr(element, name), getattr(solution, name))
    assert element.grid == grid


@pytest.mark.parametrize(
    "measure",
    [
        lambda v, problem, grid: apply_phi(v, problem, grid, initial_vector(problem, grid)),
        lambda v, problem, grid: xh_norm(v),
        lambda v, problem, grid: yh_norm(v),
    ],
    ids=["apply_phi", "xh_norm", "yh_norm"],
)
def test_strided_history_is_not_an_element(measure):
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    with pytest.raises(DimensionMismatch, match="every=2"):
        measure(run(problem, grid, every=2), problem, grid)


# Whole-history forms of apply_phi and the norms: one array expression over
# every row at once.  The blocked code must reproduce them bit for bit.

def whole_history_apply_phi(v, problem, grid, initial):
    h, k = grid.h, grid.k
    x = grid.interior_nodes()
    psi1 = np.asarray(problem.psi1(x), dtype=float)
    psi2 = np.asarray(problem.psi2(x), dtype=float)
    birth = np.empty(grid.n_steps + 1)
    mortality = np.empty_like(v.interior)
    for n, row in enumerate(v.interior):
        s2 = qh(InteriorVector(psi2 * row, h))
        fertility = np.asarray(problem.fertility(x, s2), dtype=float)
        birth[n] = qh(InteriorVector(fertility * row, h))
        s1 = qh(InteriorVector(psi1 * row, h))
        mortality[n] = problem.mortality(x, s1)
    left = (1.0 + 1.0 / h) * v.left_trace - v.interior[:, 0] / h - birth
    g_values = np.array([problem.boundary_value(t) for t in grid.time_levels()])
    right = v.right_trace / h if problem.homogeneous else (v.right_trace - g_values) / h
    rows = np.empty_like(v.interior)
    rows[0] = v.interior[0] - initial.values
    current = v.interior[1:]
    previous = v.interior[:-1]
    previous_left = np.concatenate((v.left_trace[:-1, None], v.interior[:-1, :-1]), axis=1)
    previous_right = np.concatenate((v.interior[:-1, 1:], v.right_trace[:-1, None]), axis=1)
    rows[1:] = (
        (current - previous) / k
        + (previous - previous_left) / h
        + mortality[:-1] * previous
        - (previous_right + previous_left - 2.0 * previous) / (h * h)
    )
    return left, rows, right


def whole_history_xh_norm(v):
    h, k = v.grid.h, v.grid.k
    row_norms = np.sqrt(h * np.sum(v.interior * v.interior, axis=1))
    return h * (star_norm(v.left_trace, k) + star_norm(v.right_trace, k)) + float(
        np.max(row_norms)
    )


def whole_history_yh_norm(p):
    h, k = p.grid.h, p.grid.k
    initial_sq = l2_norm(InteriorVector(p.interior[0], h)) ** 2
    later_sq = k * float(np.sum(h * np.sum(p.interior[1:] * p.interior[1:], axis=1)))
    left_sq = star_norm(p.left_trace, k) ** 2
    right_sq = star_norm(p.right_trace, k) ** 2
    return float(np.sqrt(left_sq + initial_sq + h * right_sq + later_sq))


def restricted_example3():
    problem, exact = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    return problem, grid, restrict(exact.u, grid)


def random_inline():
    # non-homogeneous, non-unit weights, and d depends on both x and s
    problem = problem_from_expressions(
        mortality="0.5 + x*s",
        fertility="exp(x)*(1 + s)",
        initial="1 - x",
        psi1="x",
        psi2="1 + x",
        right_boundary="0.1*sin(3*t)",
    )
    grid = build_grid(1.0, 7, 0.4, 0.05)
    return problem, grid, random_element(np.random.default_rng(2024), grid)


BLOCK_SIZES = {
    "1": lambda n_levels: 1,
    "2": lambda n_levels: 2,
    "levels-2": lambda n_levels: n_levels - 2,
    "levels-1": lambda n_levels: n_levels - 1,
    "levels": lambda n_levels: n_levels,
    "levels+7": lambda n_levels: n_levels + 7,
}


@pytest.mark.parametrize("block", BLOCK_SIZES.values(), ids=BLOCK_SIZES.keys())
@pytest.mark.parametrize("case", [restricted_example3, random_inline])
def test_blocked_residual_and_norms_are_bit_identical(monkeypatch, case, block):
    problem, grid, element = case()
    initial = initial_vector(problem, grid)
    left, rows, right = whole_history_apply_phi(element, problem, grid, initial)
    monkeypatch.setattr(residual, "_BLOCK_ROWS", block(grid.n_steps + 1))
    bundle = apply_phi(element, problem, grid, initial)
    assert np.array_equal(bundle.left_trace, left)
    assert np.array_equal(bundle.interior, rows)
    assert np.array_equal(bundle.right_trace, right)
    assert xh_norm(element) == whole_history_xh_norm(element)
    assert yh_norm(bundle) == whole_history_yh_norm(bundle)


def test_homogeneous_right_residual_is_the_scaled_trace_bit_for_bit():
    # g = 0 is sampled as 0.0 without a call, and (x - 0.0)/h == x/h, -0.0 included
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    element = random_element(np.random.default_rng(99), grid)
    element.right_trace[:3] = (-0.0, 0.0, math.inf)
    with np.errstate(invalid="ignore", over="ignore"):
        bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    expected = element.right_trace / grid.h
    assert np.array_equal(bundle.right_trace.view(np.int64), expected.view(np.int64))


def test_non_finite_boundary_data_raises_as_in_run():
    problem, exact = builtin_problem("example3")
    broken = dataclasses.replace(problem, right_boundary=lambda t: math.nan if t > 0.02 else 0.3)
    grid = build_grid(1.0, 7, 0.4, 0.05)
    element = restrict(exact.u, grid)
    with pytest.raises(NonFiniteState, match="right boundary"):
        apply_phi(element, broken, grid, initial_vector(problem, grid))
    with pytest.raises(NonFiniteState, match="right boundary"):
        consistency_study(broken, exact, grid, 1)


def test_non_finite_mortality_at_the_last_level_still_raises():
    # d(s1) at the last level feeds no update row, but it is still checked
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    rows = np.ones((grid.n_steps + 1, grid.m_total - 1))
    rows[-1] = 2.0
    element = GridFunction(np.ones(grid.n_steps + 1), rows, np.zeros(grid.n_steps + 1), grid)
    cutoff = 1.5 * qh(InteriorVector(rows[0], grid.h))
    blows_up = dataclasses.replace(
        problem, mortality=lambda x, s: np.full_like(x, math.inf if s > cutoff else 1.0)
    )
    initial = initial_vector(problem, grid)
    with pytest.raises(EvalError, match="mortality"):
        apply_phi(element, blows_up, grid, initial)
    rows[-1] = 1.0
    apply_phi(element, blows_up, grid, initial)


def test_consistency_memory_stays_near_one_history():
    # restrict holds the finest history and apply_phi one residual of the
    # same size; everything else is row-block sized
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.2)
    finest = refine(refine(refine(base)))
    history_bytes = (finest.n_steps + 1) * (finest.m_total - 1) * 8
    tracemalloc.start()
    try:
        consistency_study(problem, exact, base, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * history_bytes
