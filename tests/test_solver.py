import collections
import dataclasses
import math
import pathlib
import runpy
import tracemalloc

import numpy as np
import pytest

from agediff import exprdsl, residual, solver
from agediff.errors import (
    DimensionMismatch,
    EvalError,
    InvalidParameter,
    NonFiniteState,
    StabilityViolation,
)
from agediff.grid import GridSpec, build_grid, refine
from agediff.harness import consistency_study, convergence_study, self_convergence_study, stability_probe
from agediff.model import EXPRESSION_VARIABLES, ProblemSpec, builtin_problem, problem_from_expressions
from agediff.quadrature import InteriorVector, qh
from agediff.residual import apply_phi, element_from_solution, restrict
from agediff.solver import GridFunction, run


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


def test_left_trace_without_births_is_the_robin_quotient():
    problem = make_problem()
    grid = build_grid(1.0, 7, 0.4, 0.2)
    solution = run(problem, grid)
    # no fertility: the Robin solve reduces to U_0 = U_1 / (h + 1) at every level
    assert np.array_equal(solution.left_trace, solution.interior[:, 0] / (grid.h + 1.0))


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


@pytest.mark.parametrize("problem_id,t_final", [("example1", 0.2), ("example2", 0.8), ("example3", 0.8)])
def test_every_level_of_run_is_the_documented_stencil(problem_id, t_final):
    # ((c_i*U_i + (r+lam)*U_{i-1}) + r*U_{i+1}) with c_i = (1 - lam - 2r) - k*d_i(s1),
    # from row n and both trace values, in that order and so bit for bit
    problem, _ = builtin_problem(problem_id)
    grid = build_grid(1.0, 7, 0.4, t_final)
    solution = run(problem, grid)
    x = grid.interior_nodes()
    assert np.array_equal(solution.interior[0], problem.initial(x))
    for n in range(grid.n_steps):
        u = solution.interior[n]
        s1 = qh(InteriorVector(problem.psi1(x) * u, grid.h))
        c = (1.0 - grid.lam - 2.0 * grid.r) - grid.k * problem.mortality(x, s1)
        padded = np.concatenate(([solution.left_trace[n]], u, [solution.right_trace[n]]))
        expected = (c * u + (grid.r + grid.lam) * padded[:-2]) + grid.r * padded[2:]
        assert np.array_equal(solution.interior[n + 1], expected), n


def test_run_is_deterministic():
    problem, _ = builtin_problem("example2")
    grid = build_grid(1.0, 7, 0.4, 0.1)
    first = run(problem, grid)
    second = run(problem, grid)
    assert np.array_equal(first.interior, second.interior)
    assert np.array_equal(first.left_trace, second.left_trace)
    assert np.array_equal(first.right_trace, second.right_trace)


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
        assert solution.right_trace[n] == problem.right_boundary(times[n])


def test_error_against_exact_shrinks_under_refinement():
    problem, exact = builtin_problem("example1")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    errors = []
    for _ in range(2):
        solution = run(problem, grid)
        sampled = exact(grid.interior_nodes(), float(grid.t_final))
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


def test_blowup_raises_non_finite_state():
    problem = make_problem(mortality=lambda x, s: np.full_like(x, -1e6))
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with pytest.raises(NonFiniteState) as excinfo:
        run(problem, grid)
    assert excinfo.value.time_level is not None
    assert excinfo.value.time_level >= 1


def test_an_overflowing_birth_integral_is_a_non_finite_state_at_level_0():
    # B is finite, but B * U overflows the birth integral's products, so the Robin value is inf
    problem = make_problem(initial=lambda x: np.full_like(x, 1e300), fertility=lambda x, s: np.full_like(x, 1e10))
    grid = build_grid(1.0, 7, 0.4, 0.2)
    with pytest.raises(NonFiniteState, match="left boundary value became non-finite at time level 0") as excinfo:
        run(problem, grid)
    assert excinfo.value.time_level == 0


@pytest.mark.parametrize("slot", ["fertility", "mortality"])
def test_a_coefficient_that_returns_a_list_gives_the_bits_of_an_array(slot):
    problem, _ = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.2)
    initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    coefficient = getattr(problem, slot)
    listed = dataclasses.replace(problem, **{slot: lambda x, s: list(coefficient(x, s))})
    solution = run(problem, grid)
    assert run(listed, grid).values.tobytes() == solution.values.tobytes()
    expected = apply_phi(solution, problem, grid, initial).values
    assert apply_phi(solution, listed, grid, initial).values.tobytes() == expected.tobytes()
    short = dataclasses.replace(problem, **{slot: lambda x, s: list(coefficient(x, s))[:-1]})
    message = f"^{slot} returned shape \\({grid.m_total - 2},\\) for {grid.m_total - 1} nodes$"
    with pytest.raises(DimensionMismatch, match=message):
        run(short, grid)
    with pytest.raises(DimensionMismatch, match=message):
        apply_phi(solution, short, grid, initial)


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


def bad_psi(value, good_calls=0):
    """psi = 1 at every node for its first ``good_calls`` calls, then ``value`` at one node."""
    calls = []

    def psi(x):
        calls.append(None)
        values = np.ones_like(x)
        if len(calls) > good_calls:
            values[len(x) // 2] = value
        return values

    return psi


# d and B that read s would turn a non-finite s into a non-finite coefficient
# and so blame d or B; ones that ignore s would let the run step on
PSI_COEFFICIENTS = {
    "d-B-read-s": dict(mortality=lambda x, s: np.full_like(x, 0.5 + s), fertility=lambda x, s: 2.0 * np.exp(x) + s),
    "d-B-ignore-s": dict(mortality=lambda x, s: np.full_like(x, 0.5), fertility=lambda x, s: 2.0 * np.exp(x)),
}


@pytest.mark.parametrize("coefficients", PSI_COEFFICIENTS.values(), ids=PSI_COEFFICIENTS.keys())
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("slot", ["psi1", "psi2"])
def test_non_finite_psi_is_named_by_run_and_apply_phi(slot, value, coefficients):
    grid = build_grid(1.0, 7, 0.4, 0.05)
    message = f"^{slot} evaluated to a non-finite value$"
    for good_calls in (0, 3):  # from the first level, and from a later one
        with pytest.raises(EvalError, match=message):
            run(make_problem(**coefficients, **{slot: bad_psi(value, good_calls)}), grid)
    element = run(make_problem(**coefficients), grid)
    initial = InteriorVector(element.interior[0].copy(), grid.h)
    with pytest.raises(EvalError, match=message):
        apply_phi(element, make_problem(**coefficients, **{slot: bad_psi(value)}), grid, initial)


# (fields to replace in a well-formed grid function, expected error); the
# builders take the recorded level count, the row width M + 1 and the stride
SHAPE_CASES = {
    "well-formed": (lambda levels, width, every: {}, None),
    "wide-rows": (lambda levels, width, every: {"values": np.zeros((levels, width + 1))}, DimensionMismatch),
    "wider-rows": (lambda levels, width, every: {"values": np.zeros((levels, width + 2))}, DimensionMismatch),
    "narrow-rows": (lambda levels, width, every: {"values": np.zeros((levels, width - 2))}, DimensionMismatch),
    "extra-row": (lambda levels, width, every: {"values": np.zeros((levels + 1, width))}, DimensionMismatch),
    "missing-row": (lambda levels, width, every: {"values": np.zeros((levels - 1, width))}, DimensionMismatch),
    "one-dimensional": (lambda levels, width, every: {"values": np.zeros(levels * width)}, DimensionMismatch),
    "doubled-every": (lambda levels, width, every: {"every": 2 * every}, DimensionMismatch),
    "non-dividing-every": (lambda levels, width, every: {"every": 3}, InvalidParameter),
}


@pytest.mark.parametrize("case", SHAPE_CASES.values(), ids=SHAPE_CASES.keys())
@pytest.mark.parametrize("every", [1, 5], ids=["every1", "every5"])
def test_grid_function_shape_validation(every, case):
    grid = build_grid(1.0, 7, 0.4, 0.05)
    assert grid.n_steps % 10 == 0 and grid.n_steps % 3 != 0
    levels = grid.n_steps // every + 1
    width = grid.m_total + 1
    good = dict(values=np.zeros((levels, width)), grid=grid, every=every)
    overrides, error = case
    if error is None:
        made = GridFunction(**good)
        # a float64 array is kept, never copied
        assert made.values is good["values"]
    else:
        with pytest.raises(error):
            GridFunction(**{**good, **overrides(levels, width, every)})


def test_grid_function_coerces_to_float_arrays():
    grid = build_grid(1.0, 1, 0.4, 0.01)
    levels = grid.n_steps + 1
    made = GridFunction([[0] + [1] * (grid.m_total - 1) + [n] for n in range(levels)], grid)
    assert made.values.dtype == np.float64
    assert made.interior.dtype == made.left_trace.dtype == made.right_trace.dtype == np.float64
    assert np.array_equal(made.right_trace, np.arange(levels))


def test_every_producer_returns_one_c_contiguous_row_per_level():
    problem, exact = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.05)
    initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    solution = run(problem, grid)
    made = {
        "run": solution,
        "run-strided": run(problem, grid, every=grid.n_steps),
        "restrict": restrict(exact, grid),
        "apply_phi": apply_phi(solution, problem, grid, initial),
    }
    for name, function in made.items():
        levels = grid.n_steps // function.every + 1
        assert function.values.shape == (levels, grid.m_total + 1), name
        assert function.values.flags.c_contiguous, name
        assert function.values.dtype == np.float64, name


def test_grid_function_traces_and_interior_are_views_of_values():
    grid = build_grid(1.0, 1, 0.4, 0.01)
    assert grid.n_steps >= 2
    made = GridFunction(np.zeros((grid.n_steps + 1, grid.m_total + 1)), grid)
    made.interior[1] = 5.0
    made.left_trace[0] = 3.0
    made.right_trace[-1] = 7.0
    assert np.array_equal(made.values[1, 1:-1], np.full(grid.m_total - 1, 5.0))
    assert made.values[1, 0] == made.values[1, -1] == 0.0
    assert made.values[0, 0] == 3.0 and made.values[-1, -1] == 7.0
    assert np.count_nonzero(made.values) == grid.m_total - 1 + 2
    with pytest.raises(AttributeError):
        made.interior = np.ones((grid.n_steps + 1, grid.m_total - 1))


@pytest.mark.parametrize("d", [1000.0, 300.0])
def test_negative_update_coefficient_is_a_stability_violation(d):
    # M = 20, r = 0.4: 1 - lam - 2r = 0.18 and k = 0.001, so k*d exceeds it
    problem = make_problem(mortality=lambda x, s: np.full_like(x, d))
    grid = build_grid(1.0, 7, 0.4, 0.8)
    with pytest.raises(StabilityViolation, match="update coefficient"):
        run(problem, grid)


@pytest.mark.parametrize("d", [1000.0, math.nan], ids=["stability-violation", "nan"])
def test_a_constant_mortality_fails_alike_as_stride_zero_and_as_contiguous(d):
    # run takes a stride-0 d's update weight as one scalar; its margin check must
    # raise as the per-node one does, before the step and before any later call
    grid = build_grid(1.0, 7, 0.4, 0.2)
    outcomes = []
    for layout in (lambda x, value: np.broadcast_to(value, x.shape), np.full_like):
        calls = []
        problem = make_problem(
            mortality=lambda x, s, layout=layout: calls.append("d") or layout(x, d),
            psi2=lambda x: calls.append("psi2") or np.ones_like(x),
        )
        with pytest.raises((StabilityViolation, EvalError)) as raised:
            run(problem, grid)
        outcomes.append((type(raised.value), str(raised.value), calls))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] is (StabilityViolation if d == 1000.0 else EvalError)
    assert outcomes[0][2] == ["psi2", "d"]


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

        def observe(n, row):
            assert row.shape == (grid.m_total + 1,)
            seen.append((n, row.copy()))

        strided = run(problem, grid, every=every, observe=observe)
        assert [n for n, _ in seen] == list(range(grid.n_steps + 1))
        for n, row in seen:
            assert row[0] == full.left_trace[n]
            assert row[-1] == full.right_trace[n]
            assert np.array_equal(row[1:-1], full.interior[n])
            # the same bits, not just equal values: row[0] and row[-1] are the traces
            assert np.array_equal(row.view(np.int64), full.values[n].view(np.int64))
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


def test_history_too_large_to_index_is_rejected_before_any_allocation_or_step():
    # GridSpec lets n_steps + 1 floats fit; run's history holds (n_steps + 1) x (M + 1).
    # A strided run steps every level too, so it is refused alike, with g or without.
    calls = []

    def counted(fn):
        return lambda *args: calls.append(args) or fn(*args)

    names = ("mortality", "fertility", "psi1", "psi2", "initial", "right_boundary")
    grid = GridSpec(1.0, 7, 0.4, 10**17)
    for problem_id in ("example1", "example3"):
        problem, _ = builtin_problem(problem_id)
        fields = {name: counted(fn) for name in names if (fn := getattr(problem, name)) is not None}
        problem = dataclasses.replace(problem, **fields)
        for every in (1, grid.n_steps):
            tracemalloc.start()
            try:
                with pytest.raises(InvalidParameter, match=r"a history of 1e\+17 levels x 21 nodes is more than numpy"):
                    run(problem, grid, every=every)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert calls == []
            assert peak < 2**20


@pytest.mark.parametrize(
    "m_prime,n_steps,refused",
    [
        (1277, 19168611, r"1\.91686e\+07 levels x 2561 nodes would step 4\.91e\+10 node values, a cost of 6\.87e\+10"),
        (7, 65760263, r"6\.57603e\+07 levels x 21 nodes would step 1\.38e\+09 node values, a cost of 6\.87e\+10"),
    ],
    ids=["M=2560", "M=20"],
)
def test_run_admits_a_cost_of_2_to_the_36_node_values_and_refuses_one_more_level(m_prime, n_steps, refused):
    # each level costs (M + 1) + 1024 node values.  At M = 2560, 19168612 levels cost 2^36 - 2716,
    # and the 8th rung from M' = 7 at t = 0.8 (13107201 levels) lies below; at M = 20, 65760264
    # levels cost 2^36 - 856, so m_prime = 7, t_final = 1e6 (1e9 levels) is refused
    class Admitted(Exception):
        pass

    levels = []

    def observe(n, row):
        levels.append(n)
        raise Admitted(n)

    problem, _ = builtin_problem("example2")
    grid = GridSpec(1.0, m_prime, 0.4, n_steps)
    assert (n_steps + 1) * (grid.m_total + 1 + 1024) <= 2**36 < (n_steps + 2) * (grid.m_total + 1 + 1024)
    with pytest.raises(Admitted):
        run(problem, grid, every=grid.n_steps, observe=observe)
    assert levels == [0]
    levels.clear()
    grid = dataclasses.replace(grid, n_steps=grid.n_steps + 1)
    with pytest.raises(InvalidParameter, match=refused + r" with 1024 more for each level; .* at most 2\^36"):
        run(problem, grid, every=grid.n_steps, observe=observe)
    assert levels == []


def test_observer_exception_propagates_out_of_run():
    class Stop(Exception):
        pass

    levels = []

    def observe(n, row):
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
    with pytest.raises(NonFiniteState) as full:
        run(problem, grid)
    level = full.value.time_level
    every = next(e for e in (4, 8, 2, 5) if level % e)
    with pytest.raises(NonFiniteState) as strided:
        run(problem, grid, every=every)
    assert strided.value.time_level == level
    assert str(strided.value) == str(full.value)


@pytest.mark.parametrize("problem_id", ["example1", "example2", "example3", "inline"])
def test_a_homogeneous_right_end_builds_no_time_levels(monkeypatch, problem_id):
    # nor does a right end with g: run and apply_phi read g(t^n) at level n, with t^n = n * k
    problem = strided_problems()["inline"] if problem_id == "inline" else builtin_problem(problem_id)[0]
    grid = build_grid(1.0, 7, 0.4, 0.2)
    g = problem.right_boundary
    expected = np.zeros(grid.n_steps + 1) if g is None else np.array([g(n * grid.k) for n in range(grid.n_steps + 1)])

    def refuse(self):
        raise AssertionError("time_levels() was built by run or apply_phi")

    monkeypatch.setattr(GridSpec, "time_levels", refuse)
    solution = run(problem, grid)
    assert np.array_equal(solution.right_trace, expected)
    assert np.array_equal(run(problem, grid, every=grid.n_steps).right_trace, expected[:: grid.n_steps])
    initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    assert not apply_phi(solution, problem, grid, initial).right_trace.any()


@pytest.mark.parametrize("problem_id", ["example2", "example3", "inline"])
def test_a_strided_run_allocates_nothing_that_grows_with_n_steps(problem_id):
    problem = strided_problems()[problem_id]
    run(problem, GridSpec(1.0, 7, 0.4, 1))  # fills the caches that M = 20 uses
    peaks = []
    for n_steps in (800, 3200):
        tracemalloc.start()
        try:
            run(problem, GridSpec(1.0, 7, 0.4, n_steps), every=n_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # one float per level more would add 19 KB
    assert peaks[1] <= peaks[0] + 1024, peaks


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("level", [0, residual._BLOCK_ROWS - 1, residual._BLOCK_ROWS, "last"])
def test_a_non_finite_g_is_named_at_its_level_by_run_and_apply_phi(level, value):
    problem, _ = builtin_problem("example3")
    grid = build_grid(1.0, 7, 0.4, 0.3)
    assert grid.n_steps > residual._BLOCK_ROWS  # apply_phi's second block of levels starts there
    n = grid.n_steps if level == "last" else level
    solution = run(problem, grid)
    initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    g = problem.right_boundary
    bad = dataclasses.replace(problem, right_boundary=lambda t: value if t >= n * grid.k else g(t))
    calls = [
        lambda: run(bad, grid),
        lambda: run(bad, grid, every=grid.n_steps),
        lambda: apply_phi(solution, bad, grid, initial),
    ]
    for call in calls:
        with pytest.raises(NonFiniteState, match=f"right boundary data is not finite at time level {n} ") as caught:
            call()
        assert caught.value.time_level == n


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
    exact = lambda x, t: np.zeros_like(np.asarray(x, dtype=float))
    element = restrict(exact, grid)
    initial = InteriorVector(np.zeros(grid.m_total - 1), grid.h)
    entry_points = [
        lambda: run(problem, grid),
        lambda: apply_phi(element, problem, grid, initial),
        lambda: consistency_study(problem, exact, grid, 2),
        lambda: convergence_study(problem, exact, grid, 2),
        lambda: self_convergence_study(problem, grid, 3),
        lambda: stability_probe(problem, grid, 2),
    ]
    for call in entry_points:
        with pytest.raises(InvalidParameter, match="lives on"):
            call()
        assert calls == []


# The benchmark's predicted counts, read from its source without importing the
# benchmarks directory as a package or writing anything into it.
BENCHMARK_WORKLOADS = runpy.run_path(str(pathlib.Path(__file__).parents[1] / "benchmarks" / "workloads.py"))
PROBLEM_CALLABLES = ("mortality", "fertility", "psi1", "psi2", "initial", "right_boundary")


class TracedCounts(collections.Counter):
    def counted(self, problem):
        """``problem`` with every callable counting its calls and nodes, as the benchmark's tracer does."""

        def wrap(fn):
            def counted_call(*args):
                self["coeff_calls"] += 1
                self["coeff_nodes"] += int(getattr(args[0], "size", 1))
                return fn(*args)

            return counted_call

        wrapped = {name: wrap(fn) for name in PROBLEM_CALLABLES if (fn := getattr(problem, name)) is not None}
        return dataclasses.replace(problem, **wrapped)


@pytest.fixture
def traced_counts(monkeypatch):
    """Count qh calls through the names the stepper and apply_phi use, vector builds and
    outermost eval_expr calls; ``traced_counts.counted(problem)`` also counts its callables."""
    counts = TracedCounts()

    def counted_qh(v):
        counts["qh"] += 1
        return qh(v)

    post_init = InteriorVector.__post_init__

    def counted_post_init(self):
        counts["vectors"] += 1
        post_init(self)

    evaluate = exprdsl.eval_expr

    def outermost_eval(node, bindings):
        # nested calls, if any, reach the plain function while this one runs
        counts["eval"] += 1
        exprdsl.eval_expr = evaluate
        try:
            return evaluate(node, bindings)
        finally:
            exprdsl.eval_expr = outermost_eval

    monkeypatch.setattr(solver, "qh", counted_qh)
    monkeypatch.setattr(residual, "qh", counted_qh)
    monkeypatch.setattr(InteriorVector, "__post_init__", counted_post_init)
    monkeypatch.setattr(exprdsl, "eval_expr", outermost_eval)
    return counts


def inline_ex3_texts():
    """The inline-ex3 workload's expressions, with its seed-1 mortality constant."""
    constant = BENCHMARK_WORKLOADS["mortality_constant"](1)
    return dict(
        mortality=f"{constant!r} + s/(1 - exp(-1))",
        fertility="2*exp(x)",
        initial="exp(-x)/2",
        right_boundary="exp(-1)/(1 + exp(-t))",
    )


def inline_ex3():
    return problem_from_expressions(**inline_ex3_texts())


def test_expressions_given_as_asts_run_as_their_texts():
    # the command line hands problem_from_expressions the ASTs its config check parsed
    texts = inline_ex3_texts()
    asts = {slot: exprdsl.parse_expr(text, EXPRESSION_VARIABLES[slot]) for slot, text in texts.items()}
    grid = build_grid(1.0, 7, 0.4, 0.2)
    from_texts = run(problem_from_expressions(**texts), grid).values
    from_asts = run(problem_from_expressions(**asts), grid).values
    assert from_texts.tobytes() == from_asts.tobytes()


@pytest.mark.parametrize("problem_id", ["example3", "inline-ex3"])
def test_run_and_apply_phi_make_the_counts_the_benchmark_pins(traced_counts, problem_id):
    # A trim of either per-level loop that moves a pinned count fails here,
    # not only in the benchmark's traced run.
    problem = builtin_problem(problem_id)[0] if problem_id == "example3" else inline_ex3()
    counted = traced_counts.counted(problem)
    grid = build_grid(1.0, 7, 0.4, 0.2)
    keys = ("qh", "coeff_calls", "coeff_nodes")
    traced_counts.clear()
    solution = run(counted, grid)
    expected = BENCHMARK_WORKLOADS["solver_run_counts"](grid.m_prime, grid.n_steps, has_g=True)
    assert {key: traced_counts[key] for key in keys} == expected
    assert traced_counts["eval"] == (expected["coeff_nodes"] if problem_id == "inline-ex3" else 0)
    # one consistency rung: the initial profile, then apply_phi
    traced_counts.clear()
    initial = InteriorVector(counted.initial(grid.interior_nodes()), grid.h)
    apply_phi(solution, counted, grid, initial)
    expected = BENCHMARK_WORKLOADS["apply_phi_counts"](grid.m_prime, grid.n_steps)
    assert {key: traced_counts[key] for key in keys} == expected
    assert traced_counts["eval"] == (expected["coeff_nodes"] if problem_id == "inline-ex3" else 0)


@pytest.mark.parametrize("problem_id", ["example2", "example3", "inline"])
def test_run_and_apply_phi_make_the_pinned_qh_calls(traced_counts, problem_id):
    # 3 qh per step plus the final Robin solve's 2; 3 per level in apply_phi.
    # The InteriorVector builds are per call, not per level.
    problem = strided_problems()[problem_id]
    vectors = set()
    grids = [build_grid(1.0, 7, 0.4, 0.05), build_grid(1.0, 7, 0.4, 0.2)]
    assert grids[0].n_steps != grids[1].n_steps
    for grid in grids:
        initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
        traced_counts.clear()
        solution = run(problem, grid)
        assert traced_counts["qh"] == 3 * grid.n_steps + 2
        run_vectors = traced_counts["vectors"]
        traced_counts.clear()
        apply_phi(solution, problem, grid, initial)
        assert traced_counts["qh"] == 3 * (grid.n_steps + 1)
        vectors.add((run_vectors, traced_counts["vectors"]))
    assert len(vectors) == 1
