"""The three benchmark workloads: CLI arguments, config text, output checks
and the call counts the mesh ladder predicts.

This module imports nothing from agediff, so the parent process stays light
and the ladder arithmetic below is an independent restatement of
``grid.build_grid``/``grid.refine``, not a call into the code under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))

# Every workload starts from the paper's base mesh: M' = 7 (M = 20), r = 0.4.
A_DAGGER = 1.0
BASE_M_PRIME = 7
R = 0.4
T_FINAL = 0.8
LEVELS = 4
INLINE_M_PRIME = 37  # M = 80, one refinement-ladder rung above the M = 40 level

# Relative tolerance for comparing written values with the values recorded at
# the seed commit.  Bytes are not compared, because a reordered sum may
# legitimately change the last bits.
REFERENCE_RTOL = 1e-9
# apply_phi certification threshold on |phi(U)|_Y / (1 + |U|_X), as in the
# acceptance suite's residual-root criterion.
ROOT_TOL = 1e-10


def interior_width(m_prime: int) -> int:
    return 2 * (m_prime + 3) - 1


def ladder(m_prime: int, levels: int) -> list[tuple[int, int]]:
    """(m_prime, n_steps) of each rung, by the same float steps as build_grid."""
    m_total = 2 * (m_prime + 3)
    h = A_DAGGER / m_total
    n_steps = math.ceil(T_FINAL / (R * (h * h)))
    rungs = [(m_prime, n_steps)]
    for _ in range(levels - 1):
        m_prime = 2 * m_prime + 3
        n_steps *= 4
        rungs.append((m_prime, n_steps))
    return rungs


def solver_run_counts(m_prime: int, n_steps: int, has_g: bool) -> dict[str, int]:
    """Calls one ``solver.run`` makes: Robin solve (2 qh) at every level, a
    step (1 qh) between levels, and the ProblemSpec callables it evaluates
    (initial once, g at every level unless the right end is homogeneous,
    psi2 + B per level, psi1 + d per step)."""
    width = interior_width(m_prime)
    levels = n_steps + 1
    g_calls = levels if has_g else 0
    return {
        "qh": 3 * n_steps + 2,
        "coeff_calls": 1 + g_calls + 2 * levels + 2 * n_steps,
        "coeff_nodes": width + g_calls + 2 * levels * width + 2 * n_steps * width,
    }


def apply_phi_counts(m_prime: int, n_steps: int) -> dict[str, int]:
    """Calls one consistency rung makes: apply_phi (3 qh and B + d per level,
    psi1 + psi2 once, g per level) plus the initial profile."""
    width = interior_width(m_prime)
    levels = n_steps + 1
    return {
        "qh": 3 * levels,
        "coeff_calls": 2 + 3 * levels + 1,
        "coeff_nodes": 2 * width + 2 * levels * width + levels + width,
    }


def _sum(parts: list[dict[str, int]], key: str) -> int:
    return sum(part[key] for part in parts)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: Callable[[str, str], list[str]]  # (config path, output dir) -> argv
    config: Callable[[int], Optional[str]]  # seed -> config text
    predict: Callable[[], dict[str, int]]  # traced count -> expected value
    check: Callable[[dict[str, bytes]], list[str]]  # written files -> problems
    uses_seed: bool


def read_rows(data: bytes) -> list[list[str]]:
    return list(csv.reader(data.decode().splitlines()))


def _load_reference(name: str) -> dict[str, list[list[str]]]:
    with open(os.path.join(HERE, "reference.json")) as stream:
        return json.load(stream)[name]


def compare_rows(label: str, rows: list[list[str]], expected: list[list[str]], rtol: float) -> list[str]:
    """Cell-by-cell comparison; numeric cells at relative ``rtol``."""
    if len(rows) != len(expected) or rows[:1] != expected[:1]:
        return [f"{label}: {len(rows)} rows / header {rows[:1]} differ from {len(expected)} / {expected[:1]}"]
    problems = []
    for index, (row, want) in enumerate(zip(rows[1:], expected[1:]), start=1):
        if len(row) != len(want):
            problems.append(f"{label} row {index}: {len(row)} cells, expected {len(want)}")
            continue
        for got, ref in zip(row, want):
            if (got == "") != (ref == ""):
                problems.append(f"{label} row {index}: cell {got!r}, expected {ref!r}")
            elif got and not math.isclose(float(got), float(ref), rel_tol=rtol, abs_tol=0.0):
                problems.append(f"{label} row {index}: {got} differs from {ref} beyond rtol {rtol}")
    return problems


def _check_reference(name: str, files: dict[str, bytes]) -> list[str]:
    reference = _load_reference(name)
    if sorted(files) != sorted(reference):
        return [f"wrote {sorted(files)}, expected {sorted(reference)}"]
    problems = []
    for filename, expected in reference.items():
        problems += compare_rows(filename, read_rows(files[filename]), expected, REFERENCE_RTOL)
    return problems


def _column(rows: list[list[str]], header: str) -> list[float]:
    index = rows[0].index(header)
    return [float(row[index]) for row in rows[1:]]


# selfconv-ex2 -------------------------------------------------------------

def _selfconv_argv(config_path: str, out: str) -> list[str]:
    return ["examples", "example2", "--levels", str(LEVELS), "--output-dir", out]


def _selfconv_predict() -> dict[str, int]:
    # The study runs every rung once, then cli._execute runs each again to
    # write its final-time slice.
    runs = [solver_run_counts(m, n, has_g=False) for m, n in ladder(BASE_M_PRIME, LEVELS)] * 2
    return {
        "solver.run.calls": len(runs),
        "solver.levels": 2 * sum(n + 1 for _, n in ladder(BASE_M_PRIME, LEVELS)),
        "quadrature.qh.calls": _sum(runs, "qh"),
        "model.coeff.calls": _sum(runs, "coeff_calls"),
        "model.coeff.nodes": _sum(runs, "coeff_nodes"),
        "residual.apply_phi.levels": 0,
        "exprdsl.eval.calls": 0,
        "harness.csv.files": 1 + LEVELS,
    }


def _selfconv_check(files: dict[str, bytes]) -> list[str]:
    problems = _check_reference("selfconv-ex2", files)
    rows = read_rows(files.get("example2_self_convergence.csv", b""))
    if not problems and rows:
        errors = _column(rows, "err_inf")
        # Criterion 5: self-convergence errors fall strictly with the mesh.
        if not all(a > b for a, b in zip(errors, errors[1:])):
            problems.append(f"err_inf not strictly decreasing: {errors}")
    return problems


# consistency-ex3 ----------------------------------------------------------

def _builtin_config(problem: str, m_prime: int, levels: int) -> str:
    return (
        "[problem]\n"
        f"problem = {problem}\n"
        "[study]\n"
        f"m_prime = {m_prime}\nr = {R!r}\nt_final = {T_FINAL!r}\nlevels = {levels}\n"
    )


def _consistency_argv(config_path: str, out: str) -> list[str]:
    return ["consistency", "--config", config_path, "--output-dir", out]


def _consistency_predict() -> dict[str, int]:
    rungs = ladder(BASE_M_PRIME, LEVELS)
    parts = [apply_phi_counts(m, n) for m, n in rungs]
    return {
        "solver.run.calls": 0,
        "solver.levels": 0,
        "quadrature.qh.calls": _sum(parts, "qh"),
        "model.coeff.calls": _sum(parts, "coeff_calls"),
        "model.coeff.nodes": _sum(parts, "coeff_nodes"),
        "residual.apply_phi.levels": sum(n + 1 for _, n in rungs),
        "exprdsl.eval.calls": 0,
        "harness.csv.files": 1,
    }


def _consistency_check(files: dict[str, bytes]) -> list[str]:
    problems = _check_reference("consistency-ex3", files)
    rows = read_rows(files.get("example3_consistency.csv", b""))
    if not problems and rows:
        residuals = _column(rows, "residual_yh")
        # Criterion 6: the residual of the exact solution halves with h.
        ratios = [a / b for a, b in zip(residuals, residuals[1:])]
        if not all(1.7 <= ratio <= 2.3 for ratio in ratios):
            problems.append(f"halving ratios {ratios} outside [1.7, 2.3]")
    return problems


# inline-ex3 ---------------------------------------------------------------

def mortality_constant(seed: int) -> float:
    """The seed's only effect: d = c + s/(1 - e^-1) with c in [0.9, 1.1].

    The constant is one Num node whatever its value, so the work is the same
    on every seed; c = 1 is the paper's example3."""
    return random.Random(seed).uniform(0.9, 1.1)


def _inline_config(seed: int) -> str:
    return (
        "[problem]\n"
        f"d = {mortality_constant(seed)!r} + s/(1 - exp(-1))\n"
        "B = 2*exp(x)\n"
        "u0 = exp(-x)/2\n"
        "g = exp(-1)/(1 + exp(-t))\n"
        "[study]\n"
        f"m_prime = {INLINE_M_PRIME}\nr = {R!r}\nt_final = {T_FINAL!r}\n"
    )


def _inline_argv(config_path: str, out: str) -> list[str]:
    return ["run", "--config", config_path, "--output-dir", out]


def _inline_predict() -> dict[str, int]:
    ((m_prime, n_steps),) = ladder(INLINE_M_PRIME, 1)
    counts = solver_run_counts(m_prime, n_steps, has_g=True)
    return {
        "solver.run.calls": 1,
        "solver.levels": n_steps + 1,
        "quadrature.qh.calls": counts["qh"],
        "model.coeff.calls": counts["coeff_calls"],
        "model.coeff.nodes": counts["coeff_nodes"],
        "residual.apply_phi.levels": 0,
        # Every coefficient node is one outermost eval_expr call.
        "exprdsl.eval.calls": counts["coeff_nodes"],
        "harness.csv.files": 1,
    }


def _inline_check(files: dict[str, bytes]) -> list[str]:
    # The slice is certified against an apply_phi root by run.py, which needs
    # a child process; here only its shape is checked.
    expected = f"inline_slice_h{A_DAGGER / (2 * (INLINE_M_PRIME + 3))!r}.csv"
    if sorted(files) != [expected]:
        return [f"wrote {sorted(files)}, expected [{expected!r}]"]
    rows = read_rows(files[expected])
    if rows[:1] != [["x", "u_numeric"]] or len(rows) != interior_width(INLINE_M_PRIME) + 3:
        return [f"{expected}: unexpected header {rows[:1]} or {len(rows)} rows"]
    return []


WORKLOADS = {
    "selfconv-ex2": Workload(
        "selfconv-ex2", _selfconv_argv, lambda seed: None, _selfconv_predict, _selfconv_check, False
    ),
    "consistency-ex3": Workload(
        "consistency-ex3",
        _consistency_argv,
        lambda seed: _builtin_config("example3", BASE_M_PRIME, LEVELS),
        _consistency_predict,
        _consistency_check,
        False,
    ),
    "inline-ex3": Workload(
        "inline-ex3", _inline_argv, _inline_config, _inline_predict, _inline_check, True
    ),
}
