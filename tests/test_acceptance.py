"""Acceptance suite: one test per published claim, each with a time budget.

Every test exercises the library exactly as a user would (public API or the
CLI entry point), asserts the claimed tolerance, and enforces the claimed
wall-clock budget on this machine.
"""

import math
import time

import numpy as np
import pytest

from agediff.cli import main
from agediff.errors import StabilityViolation
from agediff.grid import build_grid, refine
from agediff.harness import consistency_study, convergence_study, self_convergence_study, stability_probe
from agediff.model import ProblemSpec, builtin_problem
from agediff.quadrature import InteriorVector, qh
from agediff.residual import apply_phi, xh_norm, yh_norm
from agediff.solver import run


def interior_exp(m_total):
    h = 1.0 / m_total
    x = np.arange(1, m_total) * h
    return InteriorVector(np.exp(x), h)


def report(number, label, elapsed, budget, detail):
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s (budget {budget:.0f}s) -- {detail}")


def test_criterion_1_quadrature_exactness_and_refinement():
    budget = 1.0
    start = time.perf_counter()
    cases = [
        (lambda x: np.ones_like(x), 1.0),
        (lambda x: x, 0.5),
        (lambda x: x * x, 1.0 / 3.0),
        (lambda x: x**3, 0.25),
        (lambda x: 2.0 - 3.0 * x + 4.0 * x**3, 1.5),
    ]
    worst = 0.0
    for m_prime in (1, 2, 7, 17):
        m_total = 2 * (m_prime + 3)
        h = 1.0 / m_total
        x = np.arange(1, m_total) * h
        for profile, integral in cases:
            worst = max(worst, abs(qh(InteriorVector(profile(x), h)) - integral))
    reference = math.expm1(1.0)
    coarse = abs(qh(interior_exp(640)) - reference)
    fine = abs(qh(interior_exp(1280)) - reference)
    ratio = coarse / fine
    elapsed = time.perf_counter() - start

    assert worst <= 1e-12
    assert 12.0 <= ratio <= 20.0
    assert elapsed < budget
    report(1, "quadrature", elapsed, budget, f"worst poly error {worst:.2e}, exp ratio {ratio:.2f}")


def test_criterion_2_computed_solutions_are_residual_roots():
    budget = 5.0
    start = time.perf_counter()
    ratios = {}
    for problem_id, t_final in (("example1", 0.2), ("example2", 0.8), ("example3", 0.8)):
        problem, _ = builtin_problem(problem_id)
        grid = build_grid(1.0, 7, 0.4, t_final)
        element = run(problem, grid)
        initial = InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
        residual = yh_norm(apply_phi(element, problem, grid, initial))
        ratios[problem_id] = residual / (1.0 + xh_norm(element))
    elapsed = time.perf_counter() - start

    for problem_id, ratio in ratios.items():
        assert ratio <= 1e-10, problem_id
    assert elapsed < budget
    report(2, "residual roots", elapsed, budget, f"worst yh/(1+xh) {max(ratios.values()):.2e}")


def test_criterion_3_convergence_with_homogeneous_right_boundary():
    budget = 30.0
    start = time.perf_counter()
    problem, exact = builtin_problem("example1")
    rows = convergence_study(problem, exact, build_grid(1.0, 7, 0.4, 0.2), levels=3)
    elapsed = time.perf_counter() - start

    assert [row.h for row in rows] == [0.05, 0.025, 0.0125]
    errors = [row.err_inf for row in rows]
    assert errors[0] > errors[1] > errors[2]
    assert 0.7 <= rows[-1].order_inf <= 1.3
    assert elapsed < budget
    report(3, "convergence, homogeneous", elapsed, budget,
           f"err_inf {errors[0]:.3e} -> {errors[2]:.3e}, finest order {rows[-1].order_inf:.3f}")


def test_criterion_4_convergence_with_prescribed_right_boundary():
    budget = 60.0
    start = time.perf_counter()
    problem, exact = builtin_problem("example3")
    base = build_grid(1.0, 7, 0.4, 0.8)
    rows = convergence_study(problem, exact, base, levels=3)
    grid = base
    traces_match = True
    for _ in range(3):
        solution = run(problem, grid)
        expected = np.array([problem.right_boundary(t) for t in grid.time_levels()])
        traces_match = traces_match and np.array_equal(solution.right_trace, expected)
        grid = refine(grid)
    elapsed = time.perf_counter() - start

    errors = [row.err_inf for row in rows]
    assert errors[0] > errors[1] > errors[2]
    assert 0.7 <= rows[-1].order_inf <= 1.3
    assert traces_match
    assert elapsed < budget
    report(4, "convergence, prescribed boundary", elapsed, budget,
           f"err_inf {errors[0]:.3e} -> {errors[2]:.3e}, finest order {rows[-1].order_inf:.3f}, trace bit-exact")


def test_criterion_5_self_convergence_without_an_exact_solution():
    budget = 300.0
    start = time.perf_counter()
    problem, _ = builtin_problem("example2")
    rows = self_convergence_study(problem, build_grid(1.0, 7, 0.4, 0.8), levels=5)
    elapsed = time.perf_counter() - start

    assert len(rows) == 4
    assert [row.h for row in rows] == [0.05, 0.025, 0.0125, 0.00625]
    errors = [row.err_inf for row in rows]
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert elapsed < budget
    report(5, "self-convergence", elapsed, budget,
           f"err_inf {errors[0]:.3e} -> {errors[3]:.3e} over 4 levels")


def test_criterion_6_consistency_halves_with_the_mesh():
    budget = 30.0
    start = time.perf_counter()
    ratios = {}
    for problem_id, t_final in (("example1", 0.2), ("example3", 0.8)):
        problem, exact = builtin_problem(problem_id)
        rows = consistency_study(problem, exact, build_grid(1.0, 7, 0.4, t_final), levels=3)
        ratios[problem_id] = [
            rows[i - 1].residual_yh / rows[i].residual_yh for i in range(1, len(rows))
        ]
    elapsed = time.perf_counter() - start

    for problem_id, values in ratios.items():
        for value in values:
            assert 1.7 <= value <= 2.3, problem_id
    assert elapsed < budget
    flat = [f"{value:.3f}" for values in ratios.values() for value in values]
    report(6, "consistency", elapsed, budget, f"halving ratios {', '.join(flat)}")


def test_criterion_7_stability_bound_is_enforced_exactly():
    budget = 1.0
    start = time.perf_counter()

    with pytest.raises(StabilityViolation):
        build_grid(1.0, 1, 0.6, 0.1)
    boundary = build_grid(16.0, 1, 0.25, 0.5)
    assert boundary.lam + 2.0 * boundary.r == 1.0
    build_grid(1.0, 7, 0.4, 0.2)

    tampered = build_grid(1.0, 7, 0.4, 0.2)
    object.__setattr__(tampered, "r", 0.6)
    calls = []
    probe = ProblemSpec(
        mortality=lambda x, s: np.ones_like(x),
        fertility=lambda x, s: np.ones_like(x),
        psi1=lambda x: np.ones_like(x),
        psi2=lambda x: np.ones_like(x),
        initial=lambda x: calls.append(len(x)) or np.zeros_like(x),
    )
    with pytest.raises(StabilityViolation):
        run(probe, tampered)
    assert calls == []

    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report(7, "stability bound", elapsed, budget,
           "violating mesh rejected, boundary mesh accepted, tampered run refused before stepping")


def test_criterion_8_perturbation_ratios_stay_bounded():
    budget = 60.0
    start = time.perf_counter()
    problem, _ = builtin_problem("example1")
    rows = stability_probe(problem, build_grid(1.0, 7, 0.4, 0.2), levels=3, perturbation_scale=1.0)
    elapsed = time.perf_counter() - start

    assert all(row.ratio is not None for row in rows)
    ratios = [row.ratio for row in rows]
    assert not (ratios[0] < ratios[1] < ratios[2])
    assert ratios[2] <= 2.0 * ratios[0]
    assert elapsed < budget
    report(8, "stability probe", elapsed, budget,
           "ratios " + ", ".join(f"{value:.4f}" for value in ratios))


def test_criterion_9_example_runs_are_byte_reproducible(tmp_path):
    budget = 10.0
    start = time.perf_counter()
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        assert main(["examples", "example1", "--output-dir", str(out_dir)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert names, "the example run wrote no files"
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    elapsed = time.perf_counter() - start
    assert elapsed < budget
    report(9, "reproducibility", elapsed, budget, f"{len(names)} files byte-identical")
