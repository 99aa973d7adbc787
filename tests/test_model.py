import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from agediff.errors import EvalError, InvalidParameter, ParseError, StabilityViolation, UnknownProblem
from agediff.exprdsl import eval_expr, parse_expr
from agediff.grid import build_grid
from agediff.quadrature import InteriorVector
from agediff.residual import apply_phi
from agediff.solver import run
from agediff.model import (
    builtin_description,
    builtin_ids,
    builtin_problem,
    problem_from_expressions,
)

E = math.e
DECAY = 1.0 - math.exp(-1.0)


def exact_weighted_integral(exact, psi, t, a_dagger=1.0):
    """Adaptive reference value of integral psi(x) * u(x, t) dx over [0, a_dagger].

    The measuring stick the closed-form problems are checked against; it
    never feeds the scheme.  scipy is imported here so that only the tests
    that call it need scipy.
    """
    from scipy import integrate

    result = integrate.quad(
        lambda x: float(psi(np.asarray(x, dtype=float))) * float(exact(np.asarray(x, dtype=float), t)),
        0.0,
        float(a_dagger),
        epsabs=1e-12,
        epsrel=1e-12,
        limit=200,
        full_output=1,
    )
    assert len(result) <= 3, f"adaptive quadrature did not converge: {result[-1]}"
    return float(result[0])


def test_builtin_registry():
    assert builtin_ids() == ["example1", "example2", "example3"]
    for problem_id in builtin_ids():
        assert builtin_description(problem_id)
    with pytest.raises(UnknownProblem, match="example4"):
        builtin_problem("example4")
    with pytest.raises(UnknownProblem):
        builtin_description("nope")


def test_example1_definition():
    problem, exact = builtin_problem("example1")
    assert problem.right_boundary is None
    x = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(problem.mortality(x, 5.0), np.ones_like(x))
    assert np.array_equal(problem.fertility(x, 5.0), np.full_like(x, E))
    assert np.allclose(problem.initial(x), E - np.exp(x), rtol=0, atol=0)
    assert problem.initial(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-15)
    assert exact is not None
    assert np.allclose(exact(x, 0.0), problem.initial(x), rtol=1e-15, atol=1e-15)


def test_example2_has_no_exact_solution():
    problem, exact = builtin_problem("example2")
    assert exact is None
    assert problem.right_boundary is None
    x = np.linspace(0.0, 1.0, 5)
    assert np.allclose(problem.mortality(x, 0.0), 0.5, rtol=0, atol=0)
    assert np.allclose(problem.mortality(x, DECAY), 1.5, rtol=1e-15, atol=0)
    assert np.allclose(problem.fertility(x, 0.0), 2.0 * np.exp(x), rtol=0, atol=0)


def test_example3_definition():
    problem, exact = builtin_problem("example3")
    assert problem.right_boundary is not None
    x = np.linspace(0.0, 1.0, 5)
    assert np.allclose(problem.mortality(x, DECAY), 2.0, rtol=1e-15, atol=0)
    assert np.allclose(problem.initial(x), np.exp(-x) / 2.0, rtol=0, atol=0)
    for t in (0.0, 0.4, 1.0):
        assert problem.right_boundary(t) == pytest.approx(
            float(exact(np.asarray(1.0), t)), rel=1e-15
        )


def test_exact_weighted_integral_oracle_values():
    problem, exact = builtin_problem("example1")
    assert exact_weighted_integral(exact, problem.psi2, 0.0) == pytest.approx(1.0, rel=1e-12)
    # the weighted total decays like e^{-t} for the separable profile
    for t in (0.0, 0.1, 0.5, 1.0):
        integral = exact_weighted_integral(exact, problem.psi2, t)
        assert integral == pytest.approx(math.exp(-t), rel=1e-12)

    problem3, exact3 = builtin_problem("example3")
    assert exact_weighted_integral(exact3, problem3.psi2, 0.0) == pytest.approx(
        (1.0 - math.exp(-1.0)) / 2.0, rel=1e-12
    )


def test_exact_weighted_integral_respects_domain():
    linear = lambda x, t: np.asarray(x, dtype=float) + 0.0 * t
    ones = lambda x: np.ones_like(np.asarray(x, dtype=float))
    assert exact_weighted_integral(linear, ones, 0.0, a_dagger=2.0) == pytest.approx(2.0, rel=1e-12)
    assert exact_weighted_integral(linear, ones, 0.0) == pytest.approx(0.5, rel=1e-12)


def test_example1_satisfies_the_birth_law():
    # u(0,t) - u_x(0,t) equals the fertility-weighted population integral
    problem, exact = builtin_problem("example1")
    for t in np.linspace(0.0, 1.0, 11):
        u0 = float(exact(np.asarray(0.0), t))
        ux0 = -math.exp(-t)
        integral = exact_weighted_integral(exact, problem.psi2, float(t))
        birth = E * integral
        assert u0 - ux0 == pytest.approx(birth, rel=1e-12)


def test_example3_satisfies_the_birth_law():
    problem, exact = builtin_problem("example3")
    fertility_profile = lambda x: 2.0 * np.exp(np.asarray(x, dtype=float))
    for t in np.linspace(0.0, 1.0, 11):
        sigma = 1.0 / (1.0 + math.exp(-t))
        u0 = float(exact(np.asarray(0.0), t))
        ux0 = -sigma
        birth = exact_weighted_integral(exact, fertility_profile, float(t))
        assert u0 == pytest.approx(sigma, rel=1e-15)
        assert u0 - ux0 == pytest.approx(birth, rel=1e-12)


def test_example1_satisfies_the_field_equation():
    # u_t + u_x + d(x, s1) u - u_xx = 0 with s1 the psi1-weighted total
    problem, exact = builtin_problem("example1")
    rng = np.random.default_rng(42)
    for x, t in rng.uniform(0.05, 0.95, size=(20, 2)):
        s1 = exact_weighted_integral(exact, problem.psi1, t)
        d = float(problem.mortality(np.asarray([x]), s1)[0])
        u = (E - math.exp(x)) * math.exp(-t)
        u_t = -u
        u_x = -math.exp(x) * math.exp(-t)
        u_xx = u_x
        assert abs(u_t + u_x + d * u - u_xx) <= 1e-12


def test_example3_satisfies_the_field_equation():
    problem, exact = builtin_problem("example3")
    rng = np.random.default_rng(43)
    for x, t in rng.uniform(0.05, 0.95, size=(20, 2)):
        s1 = exact_weighted_integral(exact, problem.psi1, t)
        d = float(problem.mortality(np.asarray([x]), s1)[0])
        sigma = 1.0 / (1.0 + math.exp(-t))
        u = math.exp(-x) * sigma
        u_t = math.exp(-x) * sigma * (1.0 - sigma)
        u_x = -u
        u_xx = u
        assert abs(u_t + u_x + d * u - u_xx) <= 1e-12


def test_initial_profiles_are_nonnegative():
    x = np.linspace(0.0, 1.0, 101)
    for problem_id in builtin_ids():
        problem, _ = builtin_problem(problem_id)
        assert np.all(problem.initial(x) >= -1e-15)
        assert np.all(problem.mortality(x, 0.5) >= 0.0)


def test_problem_from_expressions_matches_builtin():
    problem, _ = builtin_problem("example3")
    inline = problem_from_expressions(
        mortality="1 + s/(1 - exp(-1))",
        fertility="2*exp(x)",
        initial="exp(-x)/2",
        right_boundary="exp(-1)/(1 + exp(-t))",
    )
    assert inline.right_boundary is not None
    assert inline.a_dagger == 1.0
    x = np.linspace(0.05, 0.95, 7)
    for s in (0.0, 0.3, 1.0):
        assert np.allclose(inline.mortality(x, s), problem.mortality(x, s), rtol=1e-15, atol=0)
        assert np.allclose(inline.fertility(x, s), problem.fertility(x, s), rtol=1e-15, atol=0)
    assert np.allclose(inline.initial(x), problem.initial(x), rtol=1e-15, atol=0)
    for t in (0.0, 0.5, 1.0):
        assert inline.right_boundary(t) == pytest.approx(problem.right_boundary(t), rel=1e-15)


def test_problem_from_expressions_defaults():
    inline = problem_from_expressions(mortality="1", fertility="e", initial="e - exp(x)")
    assert inline.right_boundary is None
    x = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(inline.psi1(x), np.ones_like(x))
    assert np.array_equal(inline.psi2(x), np.ones_like(x))


def test_problem_from_expressions_scalar_and_shape_handling():
    inline = problem_from_expressions(mortality="x + s", fertility="1", initial="x^2")
    assert inline.initial(np.asarray(0.5)).shape == ()
    assert float(inline.initial(np.asarray(0.5))) == 0.25
    grid_shaped = inline.mortality(np.array([[0.0, 1.0], [2.0, 3.0]]), 1.0)
    assert grid_shaped.shape == (2, 2)
    assert grid_shaped[1, 1] == 4.0


def test_problem_from_expressions_slot_restrictions():
    with pytest.raises(ParseError, match="allowed variables"):
        problem_from_expressions(mortality="t", fertility="1", initial="1")
    with pytest.raises(ParseError, match="allowed variables"):
        problem_from_expressions(mortality="1", fertility="1", initial="s")
    with pytest.raises(ParseError, match="allowed variables"):
        problem_from_expressions(mortality="1", fertility="1", initial="1", right_boundary="x")
    with pytest.raises(ParseError, match="allowed variables"):
        problem_from_expressions(mortality="1", fertility="1", initial="1", psi2="s")
    # two slots fail: the error is psi2's, which EXPRESSION_VARIABLES parses before initial
    with pytest.raises(ParseError, match="unknown name 's'"):
        problem_from_expressions(mortality="1", fertility="1", initial="(", psi2="s")


def test_problem_from_expressions_checks_an_ast_against_its_slot():
    # an AST is walked, not reparsed; a wrong one is refused before any run starts
    s_ast = parse_expr("1 + s", {"x", "s"})
    with pytest.raises(InvalidParameter, match="reads s; its slot may read only x"):
        problem_from_expressions(mortality=s_ast, fertility="1", initial=s_ast)
    with pytest.raises(InvalidParameter, match="reads s; its slot may read only t"):
        problem_from_expressions(mortality="1", fertility="1", initial="1", right_boundary=s_ast)
    with pytest.raises(InvalidParameter, match="must be text or an AST, got 0.5"):
        problem_from_expressions(mortality="1", fertility=0.5, initial="1")
    inline = problem_from_expressions(mortality=s_ast, fertility="1", initial=parse_expr("exp(-x)/2", {"x"}))
    assert inline.mortality(np.array([0.5]), 2.0).tolist() == [3.0]


def test_expression_domain_errors_surface_at_evaluation():
    inline = problem_from_expressions(mortality="1", fertility="1", initial="log(x)")
    with pytest.raises(EvalError, match="log"):
        inline.initial(np.array([0.0]))


_NODES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.floats(-4.0, 4.0),
)


@settings(max_examples=60, deadline=None)
@given(x=_NODES, s=st.floats(-10.0, 10.0))
def test_inline_callables_equal_per_node_evaluation(x, s):
    coefficient_text = "x * s - exp(-x^2) / (1 + abs(s)) + 2"
    profile_text = "1 + x^2 / 3 - sin(x) * cos(2 * x)"
    inline = problem_from_expressions(
        mortality=coefficient_text, fertility="1", initial=profile_text, psi1=profile_text
    )
    coefficient_ast = parse_expr(coefficient_text, {"x", "s"})
    profile_ast = parse_expr(profile_text, {"x"})
    nodes = x.reshape(-1)
    expected_coefficient = np.array(
        [eval_expr(coefficient_ast, {"x": float(xi), "s": s}) for xi in nodes], dtype=float
    ).reshape(x.shape)
    expected_profile = np.array(
        [eval_expr(profile_ast, {"x": float(xi)}) for xi in nodes], dtype=float
    ).reshape(x.shape)
    for values, expected in (
        (inline.mortality(x, s), expected_coefficient),
        (inline.initial(x), expected_profile),
        (inline.psi1(x), expected_profile),
    ):
        assert values.shape == x.shape
        assert values.dtype == np.float64
        assert values.tobytes() == expected.tobytes()


# The built-in callables as numpy's *_like constructors write them: every call
# returns a fresh array.  The built-ins share their constant arrays and fill
# d(s) without the wrapper, and must give the same bits.
def _ones(x, s=None):
    return np.ones_like(x)


ALLOCATING = {
    "example1": dict(mortality=_ones, fertility=lambda x, s: np.full_like(x, E), psi1=_ones, psi2=_ones),
    "example2": dict(mortality=lambda x, s: np.full_like(x, 0.5 + s / DECAY), psi1=_ones, psi2=_ones),
    "example3": dict(mortality=lambda x, s: np.full_like(x, 1.0 + s / DECAY), psi1=_ones, psi2=_ones),
}


def allocating_problem(problem_id):
    return dataclasses.replace(builtin_problem(problem_id)[0], **ALLOCATING[problem_id])


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype) == (want.shape, want.dtype) and np.array_equal(
        got.view(np.int64), want.view(np.int64)
    )


NODES = {
    "0-d": np.asarray(0.3),
    "1-d": np.linspace(-3.0, 3.0, 13),
    "2-d": np.linspace(0.0, 1.0, 12).reshape(3, 4),
}


@pytest.mark.parametrize("nodes", NODES.values(), ids=NODES.keys())
@pytest.mark.parametrize("problem_id", sorted(ALLOCATING))
def test_builtin_coefficients_equal_their_allocating_form_bit_for_bit(problem_id, nodes):
    problem = builtin_problem(problem_id)[0]
    for name, allocating in ALLOCATING[problem_id].items():
        arguments = (nodes,) if name.startswith("psi") else (nodes, 0.7)
        assert same_bits(getattr(problem, name)(*arguments), allocating(*arguments)), name


def test_builtins_accept_a_python_scalar():
    for problem_id, allocating in ALLOCATING.items():
        problem = builtin_problem(problem_id)[0]
        assert same_bits(problem.psi1(0.5), allocating["psi1"](0.5))
        assert same_bits(problem.mortality(0.5, 0.2), allocating["mortality"](0.5, 0.2))


def test_constant_coefficients_are_shared_read_only_arrays():
    problem = builtin_problem("example1")[0]
    x = np.linspace(0.0, 1.0, 11)
    ones = problem.psi1(x)
    # one array per shape and value, whatever the problem instance or slot
    assert ones is problem.psi2(x) is problem.mortality(x, 3.0) is builtin_problem("example2")[0].psi1(x)
    assert problem.psi1(np.linspace(0.0, 1.0, 7)).shape == (7,)
    for values in (ones, problem.fertility(x, 3.0)):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 2.0
    assert np.array_equal(ones, np.ones(11))


@pytest.mark.parametrize("problem_id", sorted(ALLOCATING))
def test_run_on_builtins_equals_their_allocating_form_bit_for_bit(problem_id):
    # example2's and example3's d is stride-0, which run steps with one scalar
    # update weight; the allocating form's d takes the per-node path
    grid = build_grid(1.0, 7, 0.4, 0.2)
    problem, allocating = builtin_problem(problem_id)[0], allocating_problem(problem_id)
    assert same_bits(run(problem, grid).values, run(allocating, grid).values)
    assert same_bits(run(problem, grid, every=4).values, run(allocating, grid, every=4).values)
    solution = run(problem, grid)
    initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    assert same_bits(
        apply_phi(solution, problem, grid, initial).values, apply_phi(solution, allocating, grid, initial).values
    )
    # r = 0.487 leaves 1 - lam - 2r = 0.00165, below k*d for examples 2 and 3
    narrow = build_grid(1.0, 7, 0.487, 0.05)
    outcomes = []
    for form in (problem, allocating):
        try:
            outcomes.append(run(form, narrow).values.view(np.int64).tolist())
        except StabilityViolation as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], str) == (problem_id != "example1")


@pytest.mark.parametrize("problem_id", ["example2", "example3"])
def test_a_mortality_that_reads_only_s_is_a_read_only_stride_zero_array(problem_id):
    mortality = builtin_problem(problem_id)[0].mortality
    values = mortality(np.linspace(0.0, 1.0, 9), 0.7)
    assert values.strides == (0,) and values.shape == (9,)
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 2.0
    assert mortality(np.linspace(0.0, 1.0, 12).reshape(3, 4), 0.7).strides == (0, 0)


@pytest.mark.parametrize("problem_id", sorted(ALLOCATING))
def test_psi_calls_are_counted_as_before(problem_id):
    # run calls psi2 at every level and psi1 before every step; apply_phi calls
    # each once
    grid = build_grid(1.0, 7, 0.4, 0.05)
    counts = []
    for problem in (builtin_problem(problem_id)[0], allocating_problem(problem_id)):
        calls = {"psi1": 0, "psi2": 0}

        def counted(name, fn):
            def psi(x):
                calls[name] += 1
                return fn(x)

            return psi

        counting = dataclasses.replace(problem, psi1=counted("psi1", problem.psi1), psi2=counted("psi2", problem.psi2))
        solution = run(counting, grid)
        initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
        apply_phi(solution, counting, grid, initial)
        counts.append(calls)
    assert counts[0] == counts[1] == {"psi1": grid.n_steps + 1, "psi2": grid.n_steps + 2}
