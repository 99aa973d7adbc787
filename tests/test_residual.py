import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agediff import residual
from agediff.errors import DimensionMismatch, EvalError, InvalidParameter, NonFiniteState
from agediff.grid import GridSpec, build_grid, refine
from agediff.harness import consistency_study
from agediff.model import builtin_problem, problem_from_expressions
from agediff.quadrature import InteriorVector, l2_norm, qh, star_norm
from agediff.residual import apply_phi, element_from_solution, restrict, xh_norm, yh_norm
from agediff.solver import GridFunction, run


def initial_vector(problem, grid):
    return InteriorVector(problem.initial(grid.interior_nodes()), grid.h)


def grid_function(left, rows, right, grid):
    """The grid function on ``grid`` with these traces and interior rows."""
    return GridFunction(np.column_stack((left, rows, right)), grid)


def random_element(rng, grid):
    n_levels = grid.n_steps + 1
    return grid_function(
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


def test_restrict_refuses_a_history_too_large_to_index_before_sampling():
    # GridSpec admits 1e17 levels, but the 1e17 x 21 history does not fit numpy's index range
    calls = []
    with pytest.raises(InvalidParameter, match="more than numpy can allocate"):
        restrict(lambda x, t: calls.append(t) or np.zeros_like(x), GridSpec(1.0, 7, 0.4, 10**17))
    assert calls == []


def test_apply_phi_refuses_more_than_2_to_the_36_node_values_before_sampling():
    # a function u holds no history, so only the bound that run keeps stops a march of 1e15 levels
    calls = []
    problem, u = builtin_problem("example1")
    grid = GridSpec(1.0, 7, 0.4, 10**15)
    initial = InteriorVector(np.zeros(grid.m_total - 1), grid.h)
    with pytest.raises(InvalidParameter, match=r"1e\+15 levels x 21 nodes would step 2\.1e\+16 node values"):
        apply_phi(lambda x, t: calls.append(t) or u(x, t), problem, grid, initial, out=lambda start, rows: None)
    assert calls == []


def three_call_restrict(u, grid):
    """Reference sampler: the interior row and each trace in a call of its own."""
    x = grid.interior_nodes()
    rows = np.empty((grid.n_steps + 1, grid.m_total - 1))
    left = np.empty(grid.n_steps + 1)
    right = np.empty(grid.n_steps + 1)
    for n, t in enumerate(grid.time_levels()):
        rows[n] = u(x, float(t))
        left[n] = u(np.asarray(0.0), float(t))
        right[n] = u(np.asarray(grid.a_dagger), float(t))
    return left, rows, right


SAMPLED_FUNCTIONS = {
    "example1": builtin_problem("example1")[1],
    "example3": builtin_problem("example3")[1],
    "sin-sqrt-log1p": lambda x, t: np.sin(3.0 * x + t) * np.sqrt(1.0 + x) + np.log1p(x * (1.0 + t)),
}


# m_total * h = 0.8999999999999999 here, so the right trace's node is not x_M
ROUNDED_END = build_grid(0.9, 2, 0.4, 0.05)
# levels per block in apply_phi, restrict and the norms
B = residual._BLOCK_ROWS
# B - 1, B, B + 1 and 2B + 1 levels: one level short of, exactly at, and one past a block edge
BLOCK_EDGES = [GridSpec(1.0, 7, 0.4, n_levels - 1) for n_levels in (B - 1, B, B + 1, 2 * B + 1)]


@pytest.mark.parametrize(
    "grid",
    [build_grid(1.0, 7, 0.4, 0.05), ROUNDED_END, *BLOCK_EDGES],
    ids=["unit", "rounded-end", *(f"levels-{grid.n_steps + 1}" for grid in BLOCK_EDGES)],
)
@pytest.mark.parametrize("u", SAMPLED_FUNCTIONS.values(), ids=SAMPLED_FUNCTIONS.keys())
def test_restrict_equals_three_calls_per_level_bit_for_bit(u, grid):
    # one call per block of levels, each entry the bits of the per-level call
    if grid is ROUNDED_END:
        assert grid.m_total * grid.h != grid.a_dagger
    calls = []
    element = restrict(lambda x, t: calls.append(t) or u(x, t), grid)
    assert len(calls) == math.ceil((grid.n_steps + 1) / residual._BLOCK_ROWS)
    assert np.array_equal(np.concatenate(calls)[:, 0], grid.time_levels())
    sampled = (element.left_trace, element.interior, element.right_trace)
    for got, want in zip(sampled, three_call_restrict(u, grid)):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_restrict_names_both_shapes_when_a_sample_does_not_broadcast():
    grid = build_grid(1.0, 7, 0.4, 0.01)
    message = f"shape (3,), which does not broadcast to the block's shape ({grid.n_steps + 1}, {grid.m_total + 1})"
    with pytest.raises(DimensionMismatch, match=re.escape(message)):
        restrict(lambda x, t: np.zeros(3), grid)


@pytest.mark.parametrize(
    "sample",
    [
        restrict,
        # the CLI slice path: the final level alone
        lambda u, grid: residual._sample_nodes(u, grid, grid.n_steps, grid.n_steps + 1),
    ],
    ids=["restrict", "final-level"],
)
def test_a_scalar_t_exact_solution_names_the_broadcasting_contract(sample):
    # math.exp cannot take the (levels, 1) time column; its TypeError stays chained
    grid = build_grid(1.0, 7, 0.4, 0.01)
    with pytest.raises(DimensionMismatch, match=re.escape("must broadcast over a (levels, 1) time column")) as info:
        sample(lambda x, t: np.exp(-x) * math.exp(-t), grid)
    assert isinstance(info.value.__cause__, TypeError)


def test_restricted_exact_matches_the_initial_row_bitwise():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    element = restrict(exact, grid)
    bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    assert np.all(bundle.interior[0] == 0.0)


def test_restricted_exact_tracks_the_right_boundary_data():
    # the sampled trace and g(t) evaluate the same formula through different
    # exp implementations, so the residual is rounding noise over h, not zero
    problem, exact = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.8)
    element = restrict(exact, grid)
    bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
    assert np.max(np.abs(bundle.right_trace)) <= 1e-13


def test_truncation_residual_shrinks_under_refinement():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    norms = []
    for _ in range(2):
        element = restrict(exact, grid)
        bundle = apply_phi(element, problem, grid, initial_vector(problem, grid))
        norms.append(yh_norm(bundle))
        grid = refine(grid)
    assert norms[1] < norms[0]


def difference(a, b):
    """a - b, level by level and node by node, on a's mesh."""
    return GridFunction(a.values - b.values, a.grid)


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
        direct = difference(apply_phi(v, problem, grid, initial), apply_phi(w, problem, grid, initial))
        through_difference = apply_phi(difference(v, w), problem, grid, zeros)
        assert yh_norm(difference(direct, through_difference)) <= 1e-12


def test_xh_norm_values():
    grid = build_grid(1.0, 7, 0.4, 0.001)
    assert grid.n_steps == 1
    width = grid.m_total - 1
    rows_only = grid_function(np.zeros(2), np.ones((2, width)), np.zeros(2), grid)
    assert xh_norm(rows_only) == pytest.approx(math.sqrt(grid.h * width), rel=1e-15)
    left_only = grid_function(np.ones(2), np.zeros((2, width)), np.zeros(2), grid)
    assert xh_norm(left_only) == pytest.approx(grid.h * math.sqrt(2.0 * grid.k), rel=1e-14)


def test_yh_norm_values():
    grid = build_grid(1.0, 7, 0.4, 0.001)
    width = grid.m_total - 1
    zeros = np.zeros((2, width))
    initial_only = grid_function(np.zeros(2), np.vstack([np.ones(width), np.zeros(width)]), np.zeros(2), grid)
    assert yh_norm(initial_only) == pytest.approx(math.sqrt(grid.h * width), rel=1e-14)
    left_only = grid_function(np.ones(2), zeros, np.zeros(2), grid)
    assert yh_norm(left_only) == pytest.approx(math.sqrt(2.0 * grid.k), rel=1e-14)
    right_only = grid_function(np.zeros(2), zeros, np.ones(2), grid)
    assert yh_norm(right_only) == pytest.approx(math.sqrt(grid.h * 2.0 * grid.k), rel=1e-14)
    later_only = grid_function(np.zeros(2), np.vstack([np.zeros(width), np.ones(width)]), np.zeros(2), grid)
    assert yh_norm(later_only) == pytest.approx(math.sqrt(grid.k * grid.h * width), rel=1e-14)


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
# every row at once.  The blocked code must reproduce them bit for bit.  The
# reference checks each level's fertility and mortality arrays as soon as they
# exist; apply_phi guards them by scalars and must fail the same way.

def checked(values, what, s):
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise EvalError(f"{what} evaluated to a non-finite value (s = {s!r})")
    return values


def whole_history_apply_phi(v, problem, grid, initial):
    h, k = grid.h, grid.k
    x = grid.interior_nodes()
    psi1 = np.asarray(problem.psi1(x), dtype=float)
    psi2 = np.asarray(problem.psi2(x), dtype=float)
    birth = np.empty(grid.n_steps + 1)
    mortality = np.empty_like(v.interior)
    for n, row in enumerate(v.interior):
        s2 = qh(InteriorVector(psi2 * row, h))
        fertility = checked(problem.fertility(x, s2), "fertility", s2)
        birth[n] = qh(InteriorVector(fertility * row, h))
        s1 = qh(InteriorVector(psi1 * row, h))
        mortality[n] = checked(problem.mortality(x, s1), "mortality", s1)
    left = (1.0 + 1.0 / h) * v.left_trace - v.interior[:, 0] / h - birth
    g = problem.right_boundary
    right = v.right_trace / h if g is None else (v.right_trace - np.array([g(t) for t in grid.time_levels()])) / h
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
    return problem, grid, restrict(exact, grid)


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


def test_norms_of_random_elements_are_the_whole_history_expressions_bit_for_bit():
    # the initial row enters as its l2_norm squared, which is not always h * sum of squares
    grid = build_grid(1.0, 7, 0.4, 0.05)
    for seed in range(20):
        element = random_element(np.random.default_rng(seed), grid)
        assert xh_norm(element) == whole_history_xh_norm(element)
        assert yh_norm(element) == whole_history_yh_norm(element)


# the level counts of a ladder from M' = 7 at t = 0.8: 801 levels at M = 20 up to 819 201 at M = 640
LADDER_LENGTHS = [801, 3201, 12801, 51201, 819201]


def streamed_sum(values, cuts):
    """``_PairwiseSum`` of ``values`` fed in the blocks that the sorted ``cuts`` mark."""
    total = residual._PairwiseSum(values.shape[0])
    edges = [0, *sorted(cuts), values.shape[0]]
    for start, stop in zip(edges, edges[1:]):
        total(values[start:stop])
    return total.total


def same_bits(a, b):
    """The same float64 bits, or both NaN.

    Which NaN a sum of two NaNs returns depends on the operand order that the compiled
    addition chose, which differs between numpy's sum and a scalar addition; any NaN
    prints as nan.
    """
    a, b = np.float64(a), np.float64(b)
    return (math.isnan(a) and math.isnan(b)) or a.view(np.int64) == b.view(np.int64)


def test_the_streamed_sum_is_np_sum_bit_for_bit_at_every_length():
    rng = np.random.default_rng(33)
    for n in [*range(1, 601), *LADDER_LENGTHS]:
        # magnitudes over ten decades, so that the order of the additions shows in the bits
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
        cuts = rng.integers(0, n + 1, rng.integers(0, 20))
        assert same_bits(streamed_sum(values, cuts), np.sum(values)), n


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 600), st.sampled_from(LADDER_LENGTHS)),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(
        st.tuples(st.integers(0, 2**40), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])),
        max_size=8,
    ),
    cuts=st.lists(st.integers(0, 2**40), max_size=30),
)
def test_the_streamed_sum_is_np_sum_bit_for_bit_in_any_blocks(n, seed, specials, cuts):
    # zeros, infinities, NaN, and entries whose sum overflows, at any place and in blocks of any size
    values = np.random.default_rng(seed).standard_normal(n)
    for place, value in specials:
        values[place % n] = value
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.sum(values)
        got = streamed_sum(values, [cut % (n + 1) for cut in cuts])
    assert same_bits(got, expected)


def test_the_streamed_sum_refuses_values_past_its_length():
    total = residual._PairwiseSum(200)
    total(np.ones(150))
    with pytest.raises(ValueError, match="fed 51 values where 50 remain"):
        total(np.ones(51))
    total(np.ones(50))
    assert total.total == 200.0
    with pytest.raises(ValueError, match="fed 1 values where 0 remain"):
        total(np.ones(1))


@pytest.mark.parametrize("n_levels", [B - 1, B, 2 * B + 1, 12801])
def test_star_norm_is_the_streamed_trace_norm_bit_for_bit(n_levels):
    # with zero interior rows and right trace, xh_norm is h * (|left|_* + 0.0) + sqrt(h * 0.0)
    grid = GridSpec(1.0, 7, 0.4, n_levels - 1)
    rng = np.random.default_rng(n_levels)
    left = rng.standard_normal(n_levels) * 10.0 ** rng.integers(-5, 5, n_levels)
    zeros = np.zeros(n_levels)
    element = grid_function(left, np.zeros((n_levels, grid.m_total - 1)), zeros, grid)
    assert same_bits(xh_norm(element), grid.h * star_norm(left, grid.k))


@pytest.mark.parametrize("level", [1, B + 3, 2 * B + 5], ids=["first-block", "second-block", "last-block"])
def test_xh_norm_of_a_history_with_one_nan_interior_value_is_nan(level):
    # the largest row sum is taken as np.max takes it, so a NaN is not dropped as a Python max drops it
    grid = GridSpec(1.0, 7, 0.4, 2 * B + 5)
    element = random_element(np.random.default_rng(level), grid)
    element.interior[level, 3] = math.nan
    assert math.isnan(xh_norm(element))
    assert math.isnan(whole_history_xh_norm(element))


def test_the_norms_refuse_a_level_fed_twice_out_of_order_or_past_the_last():
    grid = GridSpec(1.0, 7, 0.4, 2 * B)
    rows = random_element(np.random.default_rng(7), grid).values
    refusals = {
        "twice": [(0, rows[:B]), (0, rows[:B])],
        "again": [(0, rows[:B]), (B - 1, rows[B - 1 : 2 * B])],
        "skipped": [(0, rows[:B]), (B + 1, rows[B + 1 : 2 * B])],
        "not-from-0": [(1, rows[1:B])],
        "past-the-last": [(0, rows[:B]), (B, rows[B : 2 * B]), (2 * B, rows[2 * B :]), (2 * B + 1, rows[:1])],
        "ending-past-the-last": [(0, rows[:B]), (B, rows[B : 2 * B]), (2 * B, rows[2 * B - 1 :])],
        "longer-than-a-block": [(0, rows[: B + 1])],
    }
    for *accepted, (start, refused) in refusals.values():
        squares = residual._LevelSquares(grid)
        for before, block in accepted:
            squares(before, block)
        with pytest.raises(ValueError, match=rf"fed where level \d+ of {2 * B + 1} is next, in blocks of at most {B}"):
            squares(start, refused)
    squares = residual._LevelSquares(grid)
    squares(0, rows[:B])
    for norm in (squares.xh_norm, squares.yh_norm):
        with pytest.raises(ValueError, match=f"a norm was taken after {B} of {2 * B + 1} levels"):
            norm()


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
    element = restrict(exact, grid)
    with pytest.raises(NonFiniteState, match="right boundary"):
        apply_phi(element, broken, grid, initial_vector(problem, grid))
    with pytest.raises(NonFiniteState, match="right boundary"):
        consistency_study(broken, exact, grid, 1)


def test_non_finite_mortality_at_the_last_level_still_raises():
    # d(s1) at the last level feeds no update row, but it is still checked,
    # also when it sits alone in a block after the first has been written
    problem, _ = builtin_problem("example1")
    base = build_grid(1.0, 7, 0.4, 0.05)
    for grid in (base, dataclasses.replace(base, n_steps=B)):

        def element(last):
            rows = np.ones((grid.n_steps + 1, grid.m_total - 1))
            rows[-1] = last
            return grid_function(np.ones(grid.n_steps + 1), rows, np.zeros(grid.n_steps + 1), grid)

        cutoff = 1.5 * qh(InteriorVector(np.ones(grid.m_total - 1), grid.h))
        blows_up = dataclasses.replace(
            problem, mortality=lambda x, s: np.full_like(x, math.inf if s > cutoff else 1.0)
        )
        initial = initial_vector(problem, grid)
        for alias in (False, True):
            broken = element(2.0)
            with pytest.raises(EvalError, match="mortality"):
                apply_phi(broken, blows_up, grid, initial, out=broken if alias else None)
            fine = element(1.0)
            apply_phi(fine, blows_up, grid, initial, out=fine if alias else None)


@pytest.mark.parametrize("level", [0, B - 1, B, 300], ids=["level-0", f"level-{B - 1}", f"level-{B}", "last-level"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_a_constant_non_finite_mortality_fails_alike_as_stride_zero_and_as_contiguous(value, level):
    # apply_phi guards d on its contiguous copy, so a read-only stride-0 d must
    # raise the same EvalError at the same level as a contiguous one
    problem, exact = builtin_problem("example3")
    grid = dataclasses.replace(build_grid(1.0, 7, 0.4, 0.05), n_steps=300)
    element = restrict(exact, grid)
    initial = initial_vector(problem, grid)
    outcomes = []
    for layout in (lambda x, d: np.broadcast_to(d, x.shape), np.full_like):
        calls = []

        def mortality(x, s, layout=layout):
            calls.append(s)
            return layout(x, value if len(calls) == level + 1 else 1.0)

        with pytest.raises(EvalError, match="mortality") as raised:
            apply_phi(element, dataclasses.replace(problem, mortality=mortality), grid, initial)
        outcomes.append((str(raised.value), len(calls)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == level + 1


def after_calls(count, good, bad):
    """A callable that returns ``good(*args)`` for its first ``count`` calls, then ``bad(*args)``."""
    calls = []

    def fn(*args):
        calls.append(None)
        return (good if len(calls) <= count else bad)(*args)

    return fn


def one_bad_node(good, value):
    def bad(x, s):
        values = np.array(good(x, s))
        values[len(values) // 2] = value
        return values

    return bad


def everywhere(good, value):
    def bad(x, s):
        return np.full_like(x, value)

    return bad


# apply_phi calls fertility and mortality once per level, in ascending order,
# so after_calls(level, ...) makes exactly that level's array bad.  Levels B - 1
# and B sit on either side of the first block edge; 300 is the last level.
PHI_LEVELS = {"level-0": 0, "mid-block": B // 2, f"level-{B - 1}": B - 1, f"level-{B}": B, "last-level": 300}
PHI_FAILURES = {
    **{
        f"{slot}-{name}-{where}": {slot: (level, one_bad_node, value)}
        for slot in ("fertility", "mortality")
        for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
        for where, level in PHI_LEVELS.items()
    },
    **{
        f"mortality-at-{level}-before-fertility-at-{level + 1}": {
            "mortality": (level, one_bad_node, math.nan),
            "fertility": (level + 1, one_bad_node, math.inf),
        }
        for level in (B // 2, B - 1)
    },
    # finite, so neither raises; 1e308 overflows the update rows, not the guard
    **{f"mortality-{value:g}": {"mortality": (150, everywhere, value)} for value in (1e200, 1e308)},
}
FINITE = ("mortality-1e+200", "mortality-1e+308")


def phi_outcome(call):
    try:
        result = call()
    except Exception as exc:  # compared below, type and all
        return type(exc), str(exc)
    return tuple(np.asarray(array).view(np.int64).tolist() for array in result)


@pytest.mark.parametrize("name", PHI_FAILURES)
def test_apply_phi_fails_as_the_reference_that_checks_every_array(name):
    problem, exact = builtin_problem("example3")
    grid = dataclasses.replace(build_grid(1.0, 7, 0.4, 0.05), n_steps=300)
    element = restrict(exact, grid)
    initial = initial_vector(problem, grid)

    def fresh():
        slots = {
            slot: after_calls(level, getattr(problem, slot), make_bad(getattr(problem, slot), value))
            for slot, (level, make_bad, value) in PHI_FAILURES[name].items()
        }
        return dataclasses.replace(problem, **slots)

    def blocked():
        out = apply_phi(element, fresh(), grid, initial)
        return out.left_trace, out.interior, out.right_trace

    overflows = name == "mortality-1e+308"
    # the reference warns on the non-finite sums it forms before its checks;
    # apply_phi forms them silently and must raise its error, not a warning,
    # under pytest's RuntimeWarning-as-error setting
    with np.errstate(over="ignore", invalid="ignore"):
        expected = phi_outcome(lambda: whole_history_apply_phi(element, fresh(), grid, initial))
    with np.errstate(over="ignore" if overflows else "warn"):
        got = phi_outcome(blocked)
    assert got == expected
    assert isinstance(got[0], type) == (name not in FINITE)


def _builtin(problem_id):
    # the restricted exact solution (traces and rows share one array), or
    # for example2, which has none, the computed history
    def case(grid):
        problem, exact = builtin_problem(problem_id)
        return problem, run(problem, grid) if exact is None else restrict(exact, grid)

    return case


def _inline(grid):
    problem, _, _ = random_inline()
    return problem, random_element(np.random.default_rng(grid.n_steps), grid)


ALIAS_CASES = {
    "example1": _builtin("example1"),
    "example2": _builtin("example2"),
    "example3": _builtin("example3"),
    "inline-psi-g": _inline,
}


@pytest.mark.parametrize("n_steps", [B // 2, B, 600], ids=["under-a-block", "one-carry", "ragged"])
@pytest.mark.parametrize("case", ALIAS_CASES.values(), ids=ALIAS_CASES.keys())
def test_apply_phi_into_its_own_element_is_bit_identical(case, n_steps):
    grid = dataclasses.replace(build_grid(1.0, 7, 0.4, 0.05), n_steps=n_steps)
    problem, element = case(grid)
    initial = initial_vector(problem, grid)
    names = ("left_trace", "interior", "right_trace")
    before = [getattr(element, name).copy() for name in names]
    fresh = apply_phi(element, problem, grid, initial)
    for name, original in zip(names, before):
        assert np.array_equal(getattr(element, name).view(np.int64), original.view(np.int64))
    assert apply_phi(element, problem, grid, initial, out=element) is element
    for name in names:
        assert np.array_equal(getattr(element, name).view(np.int64), getattr(fresh, name).view(np.int64))


def test_mismatched_out_is_rejected_before_any_coefficient_call():
    problem, _ = builtin_problem("example3")
    calls = []

    def counted(name):
        fn = getattr(problem, name)
        return lambda *args: calls.append(name) or fn(*args)

    slots = ("mortality", "fertility", "psi1", "psi2", "initial", "right_boundary")
    counting = dataclasses.replace(problem, **{name: counted(name) for name in slots})
    grid = build_grid(1.0, 7, 0.4, 0.1)
    initial = initial_vector(problem, grid)
    element = random_element(np.random.default_rng(5), grid)
    other_grid = random_element(np.random.default_rng(6), refine(grid))
    with pytest.raises(DimensionMismatch, match="out does not live"):
        apply_phi(element, counting, grid, initial, out=other_grid)
    with pytest.raises(DimensionMismatch, match="every=2"):
        apply_phi(element, counting, grid, initial, out=run(problem, grid, every=2))
    assert calls == []


@pytest.mark.parametrize("level,column", [(0, 0), (0, 9), (B - 1, -1), (B, 1), (600, 5), (600, -1)])
def test_restrict_rejects_one_non_finite_sample_in_any_block(level, column):
    grid = dataclasses.replace(build_grid(1.0, 7, 0.4, 0.05), n_steps=600)
    bad_time = float(grid.time_levels()[level])

    def u(x, t):
        values = np.ones((t.shape[0], x.shape[0]))
        values[t[:, 0] == bad_time, column] = math.nan
        return values

    with pytest.raises(EvalError, match="not finite"):
        restrict(u, grid)


def test_consistency_memory_stays_far_below_one_history():
    # apply_phi samples u and hands each block of residual rows to the Y_h
    # norm's streamed sums, so a rung holds a few blocks of rows (0.045x; 0.17x
    # with three floats per level); sampling each rung's whole history with
    # restrict and writing the residual into it measured 1.13x
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
    assert peak <= 0.1 * history_bytes


# 51 levels end inside their first block, 601 levels (a prime) inside a later one
STREAM_GRIDS = {
    "one-block": build_grid(1.0, 7, 0.4, 0.05),
    "mid-block": dataclasses.replace(build_grid(1.0, 7, 0.4, 0.05), n_steps=600),
}


@pytest.mark.parametrize("grid", STREAM_GRIDS.values(), ids=STREAM_GRIDS.keys())
@pytest.mark.parametrize("problem_id", ["example1", "example3"])
def test_apply_phi_of_u_equals_apply_phi_of_its_restriction_bit_for_bit(problem_id, grid):
    problem, exact = builtin_problem(problem_id)
    initial = initial_vector(problem, grid)
    stored = apply_phi(restrict(exact, grid), problem, grid, initial)
    streamed = apply_phi(exact, problem, grid, initial)
    assert np.array_equal(streamed.values.view(np.int64), stored.values.view(np.int64))


@pytest.mark.parametrize("grid", STREAM_GRIDS.values(), ids=STREAM_GRIDS.keys())
@pytest.mark.parametrize("sampled", [False, True], ids=["element", "u"])
def test_a_sink_receives_the_rows_of_the_stored_residual(sampled, grid):
    problem, exact = builtin_problem("example3")
    initial = initial_vector(problem, grid)
    stored = apply_phi(restrict(exact, grid), problem, grid, initial)
    blocks = []

    def sink(start, rows):
        blocks.append((start, rows.copy()))

    v = exact if sampled else restrict(exact, grid)
    assert apply_phi(v, problem, grid, initial, out=sink) is sink
    assert [start for start, _ in blocks] == list(range(0, grid.n_steps + 1, residual._BLOCK_ROWS))
    received = np.concatenate([rows for _, rows in blocks])
    assert np.array_equal(received.view(np.int64), stored.values.view(np.int64))


@pytest.mark.parametrize("block", BLOCK_SIZES.values(), ids=BLOCK_SIZES.keys())
@pytest.mark.parametrize("grid", STREAM_GRIDS.values(), ids=STREAM_GRIDS.keys())
def test_the_streamed_yh_norm_equals_yh_norm_of_the_stored_residual_bit_for_bit(monkeypatch, grid, block):
    problem, exact = builtin_problem("example3")
    initial = initial_vector(problem, grid)
    stored = yh_norm(apply_phi(restrict(exact, grid), problem, grid, initial))
    monkeypatch.setattr(residual, "_BLOCK_ROWS", block(grid.n_steps + 1))
    assert apply_phi(exact, problem, grid, initial, out=residual._LevelSquares(grid)).yh_norm() == stored


def _late_block(t):
    return t[0, 0] >= 2 * B * STREAM_GRIDS["mid-block"].k


BAD_SAMPLES = {
    "type-error": lambda x, t: np.exp(-x) * math.exp(-t) if _late_block(t) else np.exp(-x - t),
    "wrong-shape": lambda x, t: np.zeros(3) if _late_block(t) else np.exp(-x - t),
    "non-finite": lambda x, t: np.exp(-x - t) / (0.0 if _late_block(t) else 1.0),
}


@pytest.mark.parametrize("u", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
def test_a_bad_sample_in_a_late_block_raises_as_restrict_does(u):
    # the first two blocks' coefficients are evaluated before the third block is sampled
    problem, _ = builtin_problem("example3")
    grid = STREAM_GRIDS["mid-block"]
    with pytest.raises((DimensionMismatch, EvalError)) as expected:
        with np.errstate(divide="ignore"):
            restrict(u, grid)
    calls = []
    counting = dataclasses.replace(problem, fertility=lambda x, s: calls.append(s) or problem.fertility(x, s))
    with pytest.raises(type(expected.value)) as got:
        with np.errstate(divide="ignore"):
            apply_phi(u, counting, grid, initial_vector(problem, grid), out=lambda start, rows: None)
    assert str(got.value) == str(expected.value)
    assert type(got.value.__cause__) is type(expected.value.__cause__)
    assert len(calls) == 2 * B
