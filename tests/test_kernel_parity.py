"""``solver.run`` against a reference copy of the straightforward stepping kernel.

The reference evaluates the initial row and g(t^n) itself, g once per level
in the kernel's order, and checks d, B and every new row for finiteness as
soon as they exist; ``run`` defers those array checks to scalar guards.
Both must give the same bits, the same observer calls and, on every failure,
the same exception type, message and ``time_level``.  The reference never
checks psi; where ``run`` names a non-finite psi instead, the expected
outcome is spelled out in ``STRICTER``.
"""

import math

import numpy as np
import pytest

from agediff.errors import DimensionMismatch, EvalError, NonFiniteState, StabilityViolation
from agediff.grid import build_grid
from agediff.model import ProblemSpec, builtin_problem, problem_from_expressions
from agediff.quadrature import weights
from agediff.solver import run


def reference_qh(values, h):
    return float(weights(values.shape[0], h) @ values)


def nodal(values, x, what):
    values = np.asarray(values, dtype=float)
    if values.shape != x.shape:
        raise DimensionMismatch(f"{what} returned shape {values.shape} for {x.shape[0]} nodes")
    return values


def coefficient(fn, x, s, what):
    values = nodal(fn(x, s), x, what)
    if not np.isfinite(values).all():
        raise EvalError(f"{what} evaluated to a non-finite value (s = {s!r})")
    return values


def reference_run(problem, grid, every=1, observe=None):
    """(left_trace, interior, right_trace) of the straightforward kernel."""
    x = grid.interior_nodes()
    h, k, r = grid.h, grid.k, grid.r
    diagonal = 1.0 - grid.lam - 2.0 * r
    upwind = r + grid.lam
    interior = np.empty((grid.n_steps // every + 1, grid.m_total - 1))
    work = np.empty((2, grid.m_total - 1))
    interior[0] = nodal(problem.initial(x), x, "initial profile")
    if not np.isfinite(interior[0]).all():
        raise NonFiniteState("initial profile is not finite", time_level=0)
    left_trace = np.empty(grid.n_steps // every + 1)
    right_trace = np.zeros(grid.n_steps // every + 1)
    u = interior[0]
    for n in range(grid.n_steps + 1):
        s2 = reference_qh(nodal(problem.psi2(x), x, "psi2") * u, h)
        fertility = coefficient(problem.fertility, x, s2, "fertility")
        left = (h * reference_qh(fertility * u, h) + u[0]) / (h + 1.0)
        if not math.isfinite(left):
            raise NonFiniteState(f"left boundary value became non-finite at time level {n}", time_level=n)
        right = 0.0
        if problem.right_boundary is not None:
            t = n * k  # the float of grid.time_levels()[n]
            right = float(problem.right_boundary(t))
            if not math.isfinite(right):
                raise NonFiniteState(f"right boundary data is not finite at time level {n} (t = {t!r})", time_level=n)
        if n % every == 0:
            left_trace[n // every] = left
            right_trace[n // every] = right
        if observe is not None:
            observe(n, left, u, right)
        if n == grid.n_steps:
            break
        out = interior[(n + 1) // every] if (n + 1) % every == 0 else work[n % 2]
        s1 = reference_qh(nodal(problem.psi1(x), x, "psi1") * u, h)
        mortality = coefficient(problem.mortality, x, s1, "mortality")
        np.multiply(mortality, k, out=out)
        np.subtract(diagonal, out, out=out)
        margin = out.min()
        if margin < 0.0:
            raise StabilityViolation(
                f"update coefficient 1 - lam - 2*r - k*d = {float(margin)!r} < 0 (s1 = {s1!r}); "
                "refine the mesh or lower r"
            )
        out *= u
        out[1:] += upwind * u[:-1]
        out[0] += upwind * left
        out[:-1] += r * u[1:]
        out[-1] += r * right
        if not np.isfinite(out).all():
            raise NonFiniteState(
                f"state became non-finite at time level {n + 1} (t = {(n + 1) * grid.k!r})",
                time_level=n + 1,
            )
        u = out
    return left_trace, interior, right_trace


def bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def recorder():
    seen = []

    def observe(n, *level):
        # run hands over the whole row; the reference (left, u, right), joined into one
        seen.append((n, bits(np.hstack(level)).tolist()))

    return seen, observe


def inline_problem():
    return problem_from_expressions(
        mortality="0.5 + s/(1 - exp(-1)) + x/4",
        fertility="2*exp(x)",
        initial="e - exp(x)",
        psi1="1 + x/2",
        psi2="abs(1 - x)",
        right_boundary="exp(-t)/10",
    )


def problems():
    built = {name: builtin_problem(name)[0] for name in ("example1", "example2", "example3")}
    return {**built, "inline": inline_problem()}


@pytest.mark.parametrize("problem_id", ["example1", "example2", "example3", "inline"])
@pytest.mark.parametrize("stride", ["every1", "every-n_steps"])
def test_run_equals_the_reference_kernel_bit_for_bit(problem_id, stride):
    problem = problems()[problem_id]
    grid = build_grid(1.0, 7, 0.4, 0.05 if problem_id == "inline" else 0.2)
    every = 1 if stride == "every1" else grid.n_steps
    expected_seen, expected_observe = recorder()
    expected = reference_run(problem, grid, every, expected_observe)
    seen, observe = recorder()
    solution = run(problem, grid, every=every, observe=observe)
    for got, want in zip((solution.left_trace, solution.interior, solution.right_trace), expected):
        assert np.array_equal(bits(got), bits(want))
    assert len(seen) == grid.n_steps + 1
    assert seen == expected_seen


def after_calls(count, good, bad):
    """A callable that returns ``good(*args)`` for its first ``count`` calls, then ``bad(*args)``."""
    calls = []

    def fn(*args):
        calls.append(None)
        return (good if len(calls) <= count else bad)(*args)

    return fn


def make_problem(**overrides):
    fields = dict(
        mortality=lambda x, s: np.zeros_like(x),
        fertility=lambda x, s: np.zeros_like(x),
        psi1=lambda x: np.ones_like(x),
        psi2=lambda x: np.ones_like(x),
        initial=lambda x: math.e - np.exp(x),
    )
    return ProblemSpec(**{**fields, **overrides})


def one_bad_node(value):
    def bad(x, s):
        values = np.ones_like(x)
        values[len(x) // 2] = value
        return values

    return bad


def ones(x, s=None):
    return np.ones_like(x)


# name -> the fields of make_problem as a function of the grid's n_steps; called
# once per run, so that every run gets fresh call counters
FAILURES = {
    **{
        f"fertility-{name}": lambda n_steps, value=value: {"fertility": after_calls(4, ones, one_bad_node(value))}
        for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
    },
    "fertility-inf-on-zero-state": lambda n_steps: {
        "initial": np.zeros_like,
        "fertility": after_calls(4, ones, one_bad_node(math.inf)),
    },
    **{
        f"mortality-{name}-{when}": lambda n_steps, value=value, when=when: {
            "mortality": after_calls(4 if when == "early" else n_steps - 1, ones, one_bad_node(value))
        }
        for name, value in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf))
        for when in ("early", "last-step")
    },
    "mortality--inf-on-zero-state": lambda n_steps: {
        "initial": np.zeros_like,
        "mortality": after_calls(4, ones, one_bad_node(-math.inf)),
    },
    "overflowing-state": lambda n_steps: {"mortality": lambda x, s: np.full_like(x, -1e6)},
    "negative-update-coefficient": lambda n_steps: {"mortality": after_calls(4, ones, lambda x, s: np.full_like(x, 1e3))},
    "psi1-wrong-shape": lambda n_steps: {"psi1": after_calls(3, ones, lambda x: np.ones(3))},
    "psi2-wrong-shape": lambda n_steps: {"psi2": after_calls(3, ones, lambda x: 1.0)},
    **{
        f"g-{name}-from-level-{when}": lambda n_steps, value=value, when=when: {
            "right_boundary": after_calls(4 if when == "4" else n_steps, lambda t: math.exp(-t) / 10, lambda t: value)
        }
        for name, value in (("nan", math.nan), ("inf", math.inf))
        for when in ("4", "n_steps")
    },
    "non-finite-psi-is-no-error": lambda n_steps: {
        "psi1": lambda x: np.full_like(x, math.inf),
        "psi2": lambda x: np.full_like(x, math.nan),
        "fertility": lambda x, s: np.full_like(x, 2.0),
        "mortality": ones,
    },
}


def outcome(call):
    seen, observe = recorder()
    try:
        # warnings are not compared: the reference warns where run stays silent
        with np.errstate(over="ignore", invalid="ignore"):
            result = call(observe)
    except Exception as exc:  # compared below, type and all
        return seen, (type(exc), str(exc), getattr(exc, "time_level", None))
    return seen, tuple(bits(array).tolist() for array in result)


# name -> (observer calls, outcome) where run is stricter than the reference: the
# reference never checks psi, while run names a non-finite psi2 as soon as s2 is
# not finite, here at level 0 before the first observer call
STRICTER = {"non-finite-psi-is-no-error": ([], (EvalError, "psi2 evaluated to a non-finite value", None))}


@pytest.mark.parametrize("name", FAILURES)
@pytest.mark.parametrize("stride", ["every1", "every-n_steps"])
def test_failures_match_the_reference_kernel(name, stride):
    grid = build_grid(1.0, 7, 0.4, 0.2)
    every = 1 if stride == "every1" else grid.n_steps

    def fresh():
        return make_problem(**FAILURES[name](grid.n_steps))

    def run_arrays(observe):
        solution = run(fresh(), grid, every=every, observe=observe)
        return solution.left_trace, solution.interior, solution.right_trace

    if name in STRICTER:
        expected_seen, expected = STRICTER[name]
    else:
        expected_seen, expected = outcome(lambda observe: reference_run(fresh(), grid, every, observe))
    seen, got = outcome(run_arrays)
    assert got == expected
    assert seen == expected_seen


def test_every_failure_case_fails_except_the_non_finite_psi():
    grid = build_grid(1.0, 7, 0.4, 0.2)
    for name, case in FAILURES.items():
        _, result = outcome(lambda observe: reference_run(make_problem(**case(grid.n_steps)), grid, 1, observe))
        assert isinstance(result[0], type) == (name != "non-finite-psi-is-no-error"), name
