#!/usr/bin/env python3
"""agediff benchmark: three CLI workloads, end to end and per module.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it imports agediff from the
checkout's ``src`` directory and refuses to run (exit 2) without one.

Each operation is one ``agediff.cli.main(argv)`` call in a fresh child
interpreter.  Children run one at a time and start no extra threads; each
is pinned to one CPU (alternating between two) with a one-thread BLAS pool.
Outputs are checked after each call, outside the timed region; a non-zero
exit, a raised exception or a failed check counts the operation as failed.

--trace 0 repeats the workload, an even number of times, while the next
repetition is expected to end within S seconds, and reports the medians of
wall_s (the main() call), peak_rss_mb (ru_maxrss of the child) and setup_s
(child start until ``import agediff.cli`` returns; sampled in dedicated
children and in every workload child).

--trace 1 runs the workload once untraced and twice with per-module
wrappers (see tracer.py), checks that the traced outputs are bit-identical
to the untraced ones, that every count repeats exactly and equals what the
mesh ladder predicts, and reports the per-module metrics.

The last line of standard output is the JSON result; progress goes to
standard error.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import MODULES
from workloads import (
    INLINE_M_PRIME,
    R,
    REFERENCE_RTOL,
    ROOT_TOL,
    T_FINAL,
    WORKLOADS,
    compare_rows,
    mortality_constant,
    read_rows,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

RUN_LIMIT_S = 170.0  # every run must end within 180 s
SETUP_SAMPLES = 4  # dedicated set-up children per untraced run, a whole number of CPU rounds
MIN_REPS = 2  # so that wall_s and peak_rss_mb are never a single sample
MB = 1024.0 * 1024.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Runner:
    """Starts children one at a time inside the run's own work directory.

    Children are pinned to two usable CPUs in turn.  On a VM each virtual
    CPU is slowed by its own neighbours; left alone, the kernel starts every
    child on the same CPU, so a whole run would measure that one CPU's
    contention.  Two CPUs are enough to average it and keep a round short.
    """

    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.started = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["TMPDIR"] = workdir
        # numpy's BLAS pool: one thread per CPU the child may use.
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[name] = "1"

    def child(self, mode: str, payload: dict, python_flags: tuple = ()) -> tuple[dict | None, float, str]:
        """(result or None, start time, stderr) of one child process."""
        command = [sys.executable, *python_flags, os.path.join(HERE, "child.py"), mode, json.dumps({"root": ROOT, **payload})]
        cpu = self.cpus[self.started % len(self.cpus)]
        self.started += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                command,
                cwd=self.workdir,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - start),
                preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),  # the parent runs no threads
            )
        except subprocess.TimeoutExpired:
            return None, start, f"{mode} child exceeded the run's time limit"
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return None, start, proc.stderr
        return json.loads(lines[-1]), start, proc.stderr


def read_outputs(directory: str) -> dict[str, bytes]:
    outputs = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as stream:
            outputs[name] = stream.read()
    return outputs


class Operation:
    """One timed main() call and what its checks found."""

    def __init__(self, runner: Runner, workload, config_path: str, out: str, traced: bool):
        os.makedirs(out)
        argv = workload.argv(config_path, out)
        self.result, self.start, stderr = runner.child("trace" if traced else "run", {"argv": argv})
        self.problems: list[str] = []
        self.outputs: dict[str, bytes] = {}
        if self.result is None:
            self.fail(f"child failed: {stderr.strip()[-2000:]}")
            return
        if self.result["code"] != 0:
            self.fail(f"main() returned {self.result['code']} ({self.result['error']}): {stderr.strip()[-2000:]}")
            return
        self.outputs = read_outputs(out)
        self.problems += workload.check(self.outputs)

    @property
    def wall_s(self) -> float:
        return self.result["wall_s"]

    def fail(self, problem: str) -> None:
        self.problems.append(problem)


def certify(runner: Runner, workload, seed: int, op: Operation) -> None:
    """inline-ex3 only: its slice must match a history that apply_phi
    certifies as a root of the scheme (the built-ins have recorded values)."""
    if workload.name != "inline-ex3" or not op.outputs:
        return
    payload = {"mortality_constant": mortality_constant(seed), "m_prime": INLINE_M_PRIME, "r": R, "t_final": T_FINAL}
    result, _, stderr = runner.child("certify", payload)
    if result is None:
        op.fail(f"certification child failed: {stderr.strip()[-2000:]}")
        return
    if not result["root_ratio"] <= ROOT_TOL:
        op.fail(f"apply_phi yh/(1+xh) = {result['root_ratio']!r} > {ROOT_TOL}")
    expected = [["x", "u_numeric"]] + [[repr(x), repr(u)] for x, u in zip(result["x"], result["u"])]
    for name, data in op.outputs.items():
        for problem in compare_rows(name, read_rows(data), expected, REFERENCE_RTOL):
            op.fail(problem)


def log_failures(operations: list[Operation]) -> None:
    for index, op in enumerate(operations, start=1):
        if op.problems:
            log(f"operation {index} FAILED: " + "; ".join(op.problems))


def measure(runner: Runner, workload, seed: int, config_path: str, seconds: float) -> tuple[dict, int, int]:
    """Untraced run: repeat the workload for ``seconds``; end-to-end medians."""
    setup = []
    for _ in range(SETUP_SAMPLES):
        result, start, stderr = runner.child("setup", {})
        if result is None:
            raise RuntimeError(f"set-up child failed: {stderr.strip()[-2000:]}")
        setup.append(result["import_end"] - start)

    operations: list[Operation] = []
    began = time.perf_counter()
    # Start another repetition while it is expected to end within
    # ``seconds``, so a run measures for about that long whatever the speed.
    # Finish the round over the CPUs, so each weighs equally in the median.
    last = 0.0
    while (
        len(operations) < MIN_REPS
        or len(operations) % len(runner.cpus)
        or time.perf_counter() - began + last <= seconds
    ):
        op = Operation(runner, workload, config_path, os.path.join(runner.workdir, f"rep{len(operations)}"), False)
        if operations and op.outputs and operations[0].outputs and op.outputs != operations[0].outputs:
            op.fail("output bytes differ from the run's first repetition")
        operations.append(op)
        if op.result is not None:
            setup.append(op.result["import_end"] - op.start)
            log(f"{workload.name} rep {len(operations)}: {op.wall_s:.4f} s")
        last = time.perf_counter() - op.start
        if time.perf_counter() + last > runner.deadline:
            break

    certify(runner, workload, seed, operations[0])
    log_failures(operations)

    done = [op for op in operations if op.result is not None]
    if not done:
        raise RuntimeError("no repetition of the workload completed")
    metrics = {
        "wall_s": {"value": statistics.median([op.wall_s for op in done]), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median([op.result["peak_rss_mb"] for op in done]), "unit": "MB"},
    }
    failed = sum(1 for op in operations if op.problems)
    return metrics, len(operations), failed


def model_import_s(runner: Runner) -> float:
    """Cumulative ``-X importtime`` of agediff.model (it pulls in scipy)."""
    result, _, stderr = runner.child("setup", {}, python_flags=("-X", "importtime"))
    if result is None:
        raise RuntimeError(f"importtime child failed: {stderr.strip()[-2000:]}")
    for line in stderr.splitlines():
        fields = [field.strip() for field in line.split("|")]
        if len(fields) == 3 and fields[2] == "agediff.model":
            return int(fields[1]) / 1e6
    raise RuntimeError("agediff.model missing from -X importtime output")


def layer_metrics(op: Operation) -> dict[str, float]:
    """Per-module figures of one traced call (times in the units named)."""
    stats = op.result["stats"]

    def get(key: str, field: int):
        return stats.get(key, [0, 0.0, 0.0, 0, 0])[field]

    def per_call_us(key: str) -> float:
        calls = get(key, 0)
        return get(key, 1) / calls * 1e6 if calls else 0.0

    def per_unit_us(key: str) -> float:
        units = get(key, 4)
        return get(key, 1) / units * 1e6 if units else 0.0

    def module_sum(module: str, field: int, exclude: tuple = ()) -> float:
        return sum(
            value[field]
            for key, value in stats.items()
            if key.split(".")[0] == module and not key.startswith(exclude)
        )

    wall = op.wall_s
    csv_writers = tuple(key for key in stats if key.startswith("harness.write_"))
    levels = get("solver.run", 4)
    metrics = {
        "solver.run.calls": get("solver.run", 0),
        "solver.levels": levels,
        "solver.useful_ratio": op.result["unique_levels"] / levels if levels else 0.0,
        "solver.step.us": per_call_us("solver.step"),
        "solver.robin.us": per_call_us("solver.solve_left_boundary"),
        "solver.history_mb": op.result["history_bytes"] / MB,
        "quadrature.qh.calls": get("quadrature.qh", 0),
        "quadrature.qh.us": per_call_us("quadrature.qh"),
        "quadrature.vectors": get("quadrature.InteriorVector.__post_init__", 0),
        "residual.apply_phi.levels": get("residual.apply_phi", 4),
        "residual.apply_phi.us_per_level": per_unit_us("residual.apply_phi"),
        "residual.restrict.us_per_level": per_unit_us("residual.restrict"),
        "residual.norm.ms": (get("residual.xh_norm", 1) + get("residual.yh_norm", 1)) * 1e3,
        "exprdsl.eval.calls": get("exprdsl.eval_expr", 0),
        "exprdsl.eval.us": per_call_us("exprdsl.eval_expr"),
        "exprdsl.parse.ms": get("exprdsl.parse_expr", 1) * 1e3,
        "model.coeff.calls": get("model.coeff", 0),
        "model.coeff.nodes": get("model.coeff", 4),
        "model.coeff.us": per_call_us("model.coeff"),
        "harness.study.self_ms": module_sum("harness", 2, exclude=csv_writers) * 1e3,
        "harness.csv.files": sum(get(key, 0) for key in csv_writers),
        "harness.csv.bytes": sum(len(data) for data in op.outputs.values()),
        "harness.csv.ms": sum(get(key, 1) for key in csv_writers) * 1e3,
        "grid.calls": module_sum("grid", 0),
        "grid.ms": module_sum("grid", 2) * 1e3,
        "cli.self_ms": module_sum("cli", 2) * 1e3,
    }
    for module in MODULES:
        metrics[f"{module}.share"] = module_sum(module, 2) / wall
        metrics[f"{module}.errors"] = int(module_sum(module, 3))
    return metrics


def trace(runner: Runner, workload, seed: int, config_path: str) -> tuple[dict, int, int]:
    """Traced run: one untraced call, two traced calls, per-module metrics."""
    import_s = model_import_s(runner)
    plain = Operation(runner, workload, config_path, os.path.join(runner.workdir, "plain"), False)
    certify(runner, workload, seed, plain)
    traced = [
        Operation(runner, workload, config_path, os.path.join(runner.workdir, f"traced{index}"), True)
        for index in range(2)
    ]
    operations = [plain, *traced]
    if any(op.result is None for op in operations) or any(op.result["code"] != 0 for op in operations):
        raise RuntimeError("; ".join(problem for op in operations for problem in op.problems))

    units = per_layer_units()
    counts = [key for key, unit in units.items() if unit == "count"]
    per_call = [layer_metrics(op) for op in traced]
    predicted = workload.predict()
    for op, figures in zip(traced, per_call):
        if op.outputs != plain.outputs:
            op.fail("traced outputs are not bit-identical to the untraced outputs")
        for key, value in predicted.items():
            if figures[key] != value:
                op.fail(f"{key} = {figures[key]}, the ladder predicts {value}")
    for key in counts:
        if per_call[0][key] != per_call[1][key]:
            traced[1].fail(f"{key} changed between traced calls: {per_call[0][key]} then {per_call[1][key]}")
    log_failures(operations)

    # Counts are equal in both calls (checked above); times are their mean.
    metrics = {
        key: per_call[0][key] if key in counts else statistics.fmean(f[key] for f in per_call)
        for key in per_call[0]
    }
    metrics["model.import.s"] = import_s
    metrics["trace.overhead_s"] = statistics.fmean(op.wall_s for op in traced) - plain.wall_s
    result = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    failed = sum(1 for op in operations if op.problems)
    return result, len(operations), failed


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "agediff", "__init__.py")):
        log(f"error: no agediff source tree at {os.path.join(ROOT, 'src', 'agediff')}")
        return 2
    workload = WORKLOADS[args.workload]
    if not workload.uses_seed:
        log(f"{workload.name} is a built-in problem: --seed {args.seed} does not change its inputs")

    began = time.perf_counter()
    workdir = os.path.join(ROOT, ".bench_run", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        config_path = os.path.join(workdir, "study.cfg")
        config = workload.config(args.seed)
        if config is not None:
            with open(config_path, "w") as stream:
                stream.write(config)
        runner = Runner(workdir, began + RUN_LIMIT_S)
        # Untimed: compiles the package's bytecode and warms the file cache.
        result, _, stderr = runner.child("setup", {})
        if result is None:
            log(f"error: cannot import agediff.cli: {stderr.strip()[-2000:]}")
            return 1
        if args.trace:
            metrics, attempted, failed = trace(runner, workload, args.seed, config_path)
        else:
            metrics, attempted, failed = measure(runner, workload, args.seed, config_path, args.seconds)
    except RuntimeError as exc:
        log(f"error: {exc}")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
