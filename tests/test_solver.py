import dataclasses
import math

import numpy as np
import pytest

from agediff.errors import (
    DimensionMismatch,
    EvalError,
    InvalidParameter,
    NonFiniteState,
    StabilityViolation,
)
from agediff.grid import build_grid, refine
from agediff.harness import consistency_study
from agediff.model import ExactSolution, ProblemSpec, builtin_problem, problem_from_expressions
from agediff.quadrature import InteriorVector, qh
from agediff.residual import apply_phi, element_from_solution, restrict
from agediff.solver import GridFunction, run, solve_left_boundary, step


def make_problem(**overrides):
    fields = dict(
        mortality=lambda x, s: np.zeros_like(x),
        fertility=lambda x, s: np.zeros_like(x),
        psi1=lambda x: np.ones_like(x),
        psi2=lambda x: np.ones_like(x),
        initial=lambda x: math.e - np.exp(x),
        a_dagger=1.0,
        right_boundary=None,
    )
    fields.update(overrides)
    return ProblemSpec(**fields)


def birth_integral(problem, row, h):
    x = np.arange(1, len(row) + 1) * h
    s2 = qh(InteriorVector(problem.psi2(x) * row, h))
    fertility = problem.fertility(x, s2)
    return qh(InteriorVector(fertility * row, h))


def test_left_boundary_without_births():
    problem = make_problem()
    grid = build_grid(1.0, 7, 0.4, 0.2)
    u = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    # no fertility: the Robin solve reduces to U_0 = U_1 / (h + 1)
    assert solve_left_boundary(u, problem) == u.values[0] / (grid.h + 1.0)


def test_zero_initial_state_is_a_fixed_point():
    problem = make_problem(
        mortality=lambda x, s: np.ones_like(x),
        fertility=lambda x, s: np.full_like(x, math.e),
        initial=lambda x: np.zeros_like(x),
    )
    grid = build_grid(1.0, 7, 0.4, 0.05)
    solution = run(problem, grid)
    assert np.all(solution.interior == 0.0)
    assert np.all(solution.left_trace == 0.0)
    assert np.all(solution.right_trace == 0.0)


def test_update_is_a_contraction_without_sources():
    # with d = 0, B = 0 and zero right boundary the step is a convex
    # combination, so the max norm cannot grow
    problem = make_problem()
    grid = build_grid(1.0, 7, 0.4, 0.2)
    solution = run(problem, grid)
    peak = np.max(np.abs(solution.interior), axis=1)
    assert np.all(peak[1:] <= peak[:-1] * (1.0 + 1e-12))


def test_step_matches_the_stencil():
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    x = grid.interior_nodes()
    u = InteriorVector(problem.initial(x), grid.h)
    left = solve_left_boundary(u, problem)
    right = 0.0
    advanced = step(u, left, right, problem, grid)

    s1 = qh(InteriorVector(problem.psi1(x) * u.values, grid.h))
    d = problem.mortality(x, s1)
    padded = np.concatenate(([left], u.values, [right]))
    expected = (
        (1.0 - grid.lam - 2.0 * grid.r - grid.k * d) * padded[1:-1]
        + (grid.r + grid.lam) * padded[:-2]
        + grid.r * padded[2:]
    )
    assert np.allclose(advanced.values, expected, rtol=0, atol=1e-16)


def test_run_is_deterministic():
    problem, _ = builtin_problem("example2")
    grid = build_grid(1.0, 7, 0.4, 0.1)
    first = run(problem, grid)
    second = run(problem, grid)
    assert np.array_equal(first.interior, second.interior)
    assert np.array_equal(first.left_trace, second.left_trace)
    assert np.array_equal(first.right_trace, second.right_trace)


def test_left_trace_matches_the_boundary_solve():
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    solution = run(problem, grid)
    for n in (0, 1, grid.n_steps // 2, grid.n_steps):
        row = InteriorVector(solution.interior[n], grid.h)
        assert solution.left_trace[n] == solve_left_boundary(row, problem)


@pytest.mark.parametrize("problem_id,t_final", [("example1", 0.2), ("example2", 0.8), ("example3", 0.8)])
def test_robin_identity_rearranged_form(problem_id, t_final):
    problem, _ = builtin_problem(problem_id)
    grid = build_grid(1.0, 7, 0.4, t_final)
    solution = run(problem, grid)
    for n in range(grid.n_steps + 1):
        births = birth_integral(problem, solution.interior[n], grid.h)
        lhs = (grid.h + 1.0) * solution.left_trace[n]
        rhs = grid.h * births + solution.interior[n][0]
        assert abs(lhs - rhs) <= 2.0 * math.ulp(abs(rhs))


def test_robin_identity_quotient_form():
    # dividing by h amplifies the rounding of U_0 by (1 + 1/h), so the
    # difference-quotient form of the same identity carries a scale-aware
    # tolerance
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    for _ in range(2):
        solution = run(problem, grid)
        amplification = 3.0 * (1.0 + 1.0 / grid.h)
        for n in range(0, grid.n_steps + 1, 7):
            births = birth_integral(problem, solution.interior[n], grid.h)
            lhs = (1.0 + 1.0 / grid.h) * solution.left_trace[n] - solution.interior[n][0] / grid.h
            assert abs(lhs - births) <= amplification * math.ulp(abs(births))
        grid = refine(grid)


def test_right_trace_is_the_prescribed_history():
    problem, _ = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.8)
    solution = run(problem, grid)
    times = grid.time_levels()
    for n in range(grid.n_steps + 1):
        assert solution.right_trace[n] == problem.boundary_value(times[n])


def test_error_against_exact_shrinks_under_refinement():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    errors = []
    for _ in range(2):
        solution = run(problem, grid)
        sampled = exact.u(grid.interior_nodes(), float(grid.t_final))
        errors.append(np.max(np.abs(solution.interior[-1] - sampled)))
        grid = refine(grid)
    assert errors[1] < errors[0] / 1.5


def test_run_rejects_mismatched_domain():
    problem = make_problem(a_dagger=2.0)
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with pytest.raises(InvalidParameter, match="lives on"):
        run(problem, grid)


def test_run_refuses_tampered_grid_before_stepping():
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    object.__setattr__(grid, "r", 0.52)
    calls = []
    probed = make_problem(
        initial=lambda x: calls.append(len(x)) or np.zeros_like(x),
    )
    with pytest.raises(StabilityViolation):
        run(probed, grid)
    assert calls == []


def test_step_rejects_wrong_row_length():
    problem, _ = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    short = InteriorVector(np.ones(9), grid.h)
    with pytest.raises(DimensionMismatch):
        step(short, 0.0, 0.0, problem, grid)


def test_blowup_raises_non_finite_state():
    problem = make_problem(mortality=lambda x, s: np.full_like(x, -1e6))
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as excinfo:
        run(problem, grid)
    assert excinfo.value.time_level is not None
    assert excinfo.value.time_level >= 1


def test_non_finite_initial_profile():
    problem = make_problem(initial=lambda x: np.full_like(x, math.nan))
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with pytest.raises(NonFiniteState) as excinfo:
        run(problem, grid)
    assert excinfo.value.time_level == 0


def test_coefficient_shape_and_finiteness_guards():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    wrong_shape = make_problem(mortality=lambda x, s: np.ones(3))
    with pytest.raises(DimensionMismatch, match="mortality"):
        run(wrong_shape, grid)
    non_finite = make_problem(fertility=lambda x, s: np.full_like(x, math.inf))
    with pytest.raises(EvalError, match="fertility"):
        run(non_finite, grid)


# (fields to replace in a well-formed grid function, expected error); the
# builders take the recorded level count, the interior width and the stride
SHAPE_CASES = {
    "well-formed": (lambda levels, width, every: {}, None),
    "long-left-trace": (lambda levels, width, every: {"left_trace": np.zeros(levels + 1)}, DimensionMismatch),
    "short-right-trace": (lambda levels, width, every: {"right_trace": np.zeros(levels - 1)}, DimensionMismatch),
    "wide-rows": (lambda levels, width, every: {"interior": np.zeros((levels, width + 1))}, DimensionMismatch),
    "wider-rows": (lambda levels, width, every: {"interior": np.zeros((levels, width + 2))}, DimensionMismatch),
    "narrow-rows": (lambda levels, width, every: {"interior": np.zeros((levels, width - 2))}, DimensionMismatch),
    "extra-row": (lambda levels, width, every: {"interior": np.zeros((levels + 1, width))}, DimensionMismatch),
    "doubled-every": (lambda levels, width, every: {"every": 2 * every}, DimensionMismatch),
    "non-dividing-every": (lambda levels, width, every: {"every": 3}, InvalidParameter),
}


@pytest.mark.parametrize("case", SHAPE_CASES.values(), ids=SHAPE_CASES.keys())
@pytest.mark.parametrize("every", [1, 5], ids=["every1", "every5"])
def test_grid_function_shape_validation(every, case):
    grid = build_grid(1.0, 7, 0.4, 0.05)
    assert grid.n_steps % 10 == 0 and grid.n_steps % 3 != 0
    levels = grid.n_steps // every + 1
    width = grid.m_total - 1
    good = dict(
        left_trace=np.zeros(levels),
        interior=np.zeros((levels, width)),
        right_trace=np.zeros(levels),
        grid=grid,
        every=every,
    )
    overrides, error = case
    if error is None:
        made = GridFunction(**good)
        # float64 arrays are kept, never copied
        for name in ("left_trace", "interior", "right_trace"):
            assert getattr(made, name) is good[name]
    else:
        with pytest.raises(error):
            GridFunction(**{**good, **overrides(levels, width, every)})


def test_grid_function_coerces_to_float_arrays():
    grid = build_grid(1.0, 1, 0.4, 0.01)
    levels = grid.n_steps + 1
    made = GridFunction([0] * levels, [[1] * (grid.m_total - 1)] * levels, range(levels), grid)
    assert made.interior.dtype == made.left_trace.dtype == made.right_trace.dtype == np.float64
    assert np.array_equal(made.right_trace, np.arange(levels))


@pytest.mark.parametrize("problem_id", ["example2", "example3"])
def test_run_equals_a_chain_of_public_calls(problem_id):
    problem, _ = builtin_problem(problem_id)
    grid = build_grid(1.0, 7, 0.4, 0.05)
    solution = run(problem, grid)
    times = grid.time_levels()
    row = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    for n in range(grid.n_steps + 1):
        assert np.array_equal(solution.interior[n], row.values)
        left = solve_left_boundary(row, problem)
        assert solution.left_trace[n] == left
        if n < grid.n_steps:
            row = step(row, left, problem.boundary_value(times[n]), problem, grid)


@pytest.mark.parametrize("d", [1000.0, 300.0])
def test_negative_update_coefficient_is_a_stability_violation(d):
    # M = 20, r = 0.4: 1 - lam - 2r = 0.18 and k = 0.001, so k*d exceeds it
    problem = make_problem(mortality=lambda x, s: np.full_like(x, d))
    grid = build_grid(1.0, 7, 0.4, 0.8)
    with pytest.raises(StabilityViolation, match="update coefficient"):
        run(problem, grid)
    row = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    with pytest.raises(StabilityViolation, match="update coefficient"):
        step(row, 0.0, 0.0, problem, grid)


def test_small_update_margin_keeps_the_state_nonnegative():
    # d = 150 leaves 0.18 - 0.15 = 0.03; the margin check adds no coefficient call
    calls = []
    problem = make_problem(mortality=lambda x, s: calls.append(s) or np.full_like(x, 150.0))
    grid = build_grid(1.0, 7, 0.4, 0.8)
    solution = run(problem, grid)
    assert len(calls) == grid.n_steps
    assert solution.interior.min() >= 0.0
    assert np.all(np.isfinite(solution.interior))


def strided_problems():
    example2, _ = builtin_problem("example2")
    example3, _ = builtin_problem("example3")
    inline = problem_from_expressions(
        mortality="0.5 + s/(1 - exp(-1)) + x/4",
        fertility="2*exp(x)",
        initial="e - exp(x)",
        psi1="1 + x/2",
        psi2="abs(1 - x)",
        right_boundary="exp(-t)/10",
    )
    return {"example2": example2, "example3": example3, "inline": inline}


@pytest.mark.parametrize("problem_id", ["example2", "example3", "inline"])
def test_strided_run_keeps_every_kth_level_bit_for_bit(problem_id):
    problem = strided_problems()[problem_id]
    grid = build_grid(1.0, 7, 0.4, 0.2)
    assert grid.n_steps == 200
    full = run(problem, grid)
    for every in (1, 2, 4, grid.n_steps):
        strided = run(problem, grid, every=every)
        assert strided.every == every
        assert strided.interior.shape == (grid.n_steps // every + 1, grid.m_total - 1)
        assert np.array_equal(strided.interior, full.interior[::every])
        assert np.array_equal(strided.left_trace, full.left_trace[::every])
        assert np.array_equal(strided.right_trace, full.right_trace[::every])


def counted_problem(calls):
    """A problem whose every coefficient call is appended to ``calls``."""

    def counted(fn):
        return lambda *args: calls.append(args) or fn(*args)

    return make_problem(
        mortality=counted(lambda x, s: np.zeros_like(x)),
        fertility=counted(lambda x, s: np.zeros_like(x)),
        psi1=counted(lambda x: np.ones_like(x)),
        psi2=counted(lambda x: np.ones_like(x)),
        initial=counted(lambda x: math.e - np.exp(x)),
        right_boundary=counted(lambda t: 0.0),
    )


@pytest.mark.parametrize("every", [0, -1, 3, 2.0, True])
def test_invalid_stride_is_rejected_before_any_coefficient_call(every):
    calls = []
    problem = counted_problem(calls)
    grid = build_grid(1.0, 7, 0.4, 0.2)
    assert grid.n_steps % 3 != 0
    with pytest.raises(InvalidParameter, match="every"):
        run(problem, grid, every=every)
    assert calls == []


@pytest.mark.parametrize("problem_id", ["example2", "example3", "inline"])
def test_observer_sees_every_level_bit_for_bit(problem_id):
    problem = strided_problems()[problem_id]
    grid = build_grid(1.0, 7, 0.4, 0.2)
    full = run(problem, grid)
    for every in (1, 4, grid.n_steps):
        seen = []

        def observe(n, left, row, right):
            seen.append((n, left, row.copy(), right))

        strided = run(problem, grid, every=every, observe=observe)
        assert [n for n, _, _, _ in seen] == list(range(grid.n_steps + 1))
        for n, left, row, right in seen:
            assert left == full.left_trace[n]
            assert right == full.right_trace[n]
            assert np.array_equal(row, full.interior[n])
        assert np.array_equal(strided.interior, full.interior[::every])
        assert np.array_equal(strided.left_trace, full.left_trace[::every])
        assert np.array_equal(strided.right_trace, full.right_trace[::every])


@pytest.mark.parametrize("observe", [0, "print", object()])
def test_non_callable_observer_is_rejected_before_any_coefficient_call(observe):
    calls = []
    problem = counted_problem(calls)
    with pytest.raises(InvalidParameter, match="observe"):
        run(problem, build_grid(1.0, 7, 0.4, 0.2), observe=observe)
    assert calls == []


def test_observer_exception_propagates_out_of_run():
    class Stop(Exception):
        pass

    levels = []

    def observe(n, left, row, right):
        levels.append(n)
        if n == 3:
            raise Stop(n)

    problem, _ = builtin_problem("example2")
    with pytest.raises(Stop):
        run(problem, build_grid(1.0, 7, 0.4, 0.2), observe=observe)
    assert levels == [0, 1, 2, 3]


def test_non_finite_state_names_an_unrecorded_level():
    problem = make_problem(mortality=lambda x, s: np.full_like(x, -1e6))
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as full:
        run(problem, grid)
    level = full.value.time_level
    every = next(e for e in (4, 8, 2, 5) if level % e)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as strided:
        run(problem, grid, every=every)
    assert strided.value.time_level == level
    assert str(strided.value) == str(full.value)


def test_element_from_solution_rejects_a_strided_history():
    problem, _ = builtin_problem("example2")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    solution = run(problem, grid, every=1)
    assert element_from_solution(solution) is solution
    with pytest.raises(DimensionMismatch, match="every=2"):
        element_from_solution(run(problem, grid, every=2))


def test_mismatched_domain_is_rejected_before_any_coefficient_call():
    calls = []
    problem = dataclasses.replace(counted_problem(calls), a_dagger=2.0)
    grid = build_grid(1.0, 7, 0.4, 0.05)
    element = restrict(lambda x, t: np.zeros_like(np.asarray(x, dtype=float)), grid)
    initial = InteriorVector(np.zeros(grid.m_total - 1), grid.h)
    exact = ExactSolution(u=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)), description="zero")
    with pytest.raises(InvalidParameter, match="lives on"):
        run(problem, grid)
    with pytest.raises(InvalidParameter, match="lives on"):
        apply_phi(element, problem, grid, initial)
    with pytest.raises(InvalidParameter, match="lives on"):
        consistency_study(problem, exact, grid, 2)
    assert calls == []

