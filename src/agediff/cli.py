"""Command line front end.

Subcommands: ``run`` executes whatever study a config file asks for;
``convergence``, ``consistency`` and ``stability`` do the same but force the
study type; ``examples`` runs a built-in problem with its conventional
parameters; ``list`` shows the built-ins.  Exit codes: 0 on success, 1 for
configuration problems or an output file that cannot be written, 2 when the
mesh violates the stability bound or a step meets a negative update
coefficient, 3 when the state blows up mid-run.

Config files are line-oriented ``key = value`` pairs with ``#`` comments.
The optional section headers ``[problem]`` and ``[study]`` group the keys;
when present, keys are checked against their section.  A problem is either
``problem = <builtin id>`` or an inline coefficient block (``d``, ``B``,
``u0``, optional ``psi1``/``psi2``/``g``/``a_dagger``) written in the
expression language of :mod:`agediff.exprdsl`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Optional

from . import harness, model
from .errors import (
    AgediffError,
    ConfigError,
    NonFiniteState,
    ParseError,
    StabilityViolation,
)
from .exprdsl import parse_expr
from .grid import GridSpec, build_grid
from .model import ExactSolution, ProblemSpec
from .residual import _sample_nodes
from .solver import run as run_solver

_STUDIES = ("single", "convergence", "self_convergence", "consistency", "stability")

_EXPR_SLOTS = {
    "d": {"x", "s"},
    "B": {"x", "s"},
    "psi1": {"x"},
    "psi2": {"x"},
    "u0": {"x"},
    "g": {"t"},
}
_PROBLEM_KEYS = {"problem", "a_dagger", *_EXPR_SLOTS}
_STUDY_KEYS = {"m_prime", "r", "t_final", "study", "levels", "output_dir"}

_EXAMPLE_T_FINAL = {"example1": 0.2, "example2": 0.8, "example3": 0.8}


@dataclass(frozen=True)
class RunConfig:
    problem_id: Optional[str]
    expressions: Optional[dict]
    a_dagger: float
    m_prime: int
    r: float
    t_final: float
    study: str
    levels: int
    output_dir: str


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys, bad values and misplaced keys all fail."""
    entries: dict[str, tuple[str, int]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line not in ("[problem]", "[study]"):
                raise ConfigError(f"unknown section {line!r}", lineno)
            section = line[1:-1]
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PROBLEM_KEYS | _STUDY_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        if section == "problem" and key not in _PROBLEM_KEYS:
            raise ConfigError(f"key {key!r} belongs in the [study] section", lineno)
        if section == "study" and key not in _STUDY_KEYS:
            raise ConfigError(f"key {key!r} belongs in the [problem] section", lineno)
        if key in entries:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        entries[key] = (value, lineno)

    def take(key: str) -> Optional[tuple[str, int]]:
        return entries.pop(key, None)

    def require_float(key: str) -> float:
        item = take(key)
        if item is None:
            raise ConfigError(f"missing required key {key!r}")
        value, lineno = item
        try:
            result = float(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs a number, got {value!r}", lineno) from None
        return result

    def require_int(key: str, default: Optional[int] = None) -> int:
        item = take(key)
        if item is None:
            if default is None:
                raise ConfigError(f"missing required key {key!r}")
            return default
        value, lineno = item
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"key {key!r} needs an integer, got {value!r}", lineno) from None

    problem_item = take("problem")
    inline_items = {key: take(key) for key in _EXPR_SLOTS}
    inline_present = {key for key, item in inline_items.items() if item is not None}
    a_dagger_item = take("a_dagger")

    expressions = None
    problem_id = None
    a_dagger = 1.0
    if problem_item is not None:
        if inline_present:
            raise ConfigError(
                f"config names a built-in problem but also defines {sorted(inline_present)}; "
                "use one or the other"
            )
        if a_dagger_item is not None:
            raise ConfigError("built-in problems fix a_dagger; remove the key", a_dagger_item[1])
        problem_id = problem_item[0]
    else:
        missing = {"d", "B", "u0"} - inline_present
        if missing:
            raise ConfigError(
                f"inline problem needs keys {sorted(missing)} (or set 'problem = <builtin>')"
            )
        if a_dagger_item is not None:
            value, lineno = a_dagger_item
            try:
                a_dagger = float(value)
            except ValueError:
                raise ConfigError(f"key 'a_dagger' needs a number, got {value!r}", lineno) from None
            if not a_dagger > 0.0:
                raise ConfigError(f"a_dagger must be positive, got {value!r}", lineno)
        expressions = {"psi1": "1", "psi2": "1", "g": None}
        for key, item in inline_items.items():
            if item is None:
                continue
            value, lineno = item
            try:
                parse_expr(value, _EXPR_SLOTS[key])
            except ParseError as exc:
                raise ConfigError(f"invalid expression for {key!r}: {exc}", lineno) from exc
            expressions[key] = value

    m_prime = require_int("m_prime")
    r = require_float("r")
    t_final = require_float("t_final")

    study = "single"
    study_item = take("study")
    if study_item is not None:
        study = study_item[0]
        if study not in _STUDIES:
            raise ConfigError(
                f"study must be one of {', '.join(_STUDIES)}; got {study!r}", study_item[1]
            )
    levels = require_int("levels", default=3)

    output_dir = "."
    output_item = take("output_dir")
    if output_item is not None:
        output_dir = output_item[0]

    return RunConfig(
        problem_id=problem_id,
        expressions=expressions,
        a_dagger=a_dagger,
        m_prime=m_prime,
        r=r,
        t_final=t_final,
        study=study,
        levels=levels,
        output_dir=output_dir,
    )


def _materialize(config: RunConfig) -> tuple[ProblemSpec, Optional[ExactSolution], str]:
    if config.problem_id is not None:
        problem, exact = model.builtin_problem(config.problem_id)
        return problem, exact, config.problem_id
    expressions = config.expressions
    problem = model.problem_from_expressions(
        mortality=expressions["d"],
        fertility=expressions["B"],
        initial=expressions["u0"],
        psi1=expressions["psi1"],
        psi2=expressions["psi2"],
        right_boundary=expressions["g"],
        a_dagger=config.a_dagger,
    )
    return problem, None, "inline"


def _write_run_slice(
    problem: ProblemSpec,
    exact: Optional[ExactSolution],
    grid: GridSpec,
    output_dir: str,
    tag: str,
) -> str:
    solution = run_solver(problem, grid, every=grid.n_steps)  # level 0 and the final one
    x = grid.nodes()
    u_numeric = solution.values[-1]
    path = f"{output_dir}/{tag}_slice_h{grid.h!r}.csv"
    if exact is not None:
        # Sampled as restrict samples every level, at the final time only.
        u_exact = _sample_nodes(exact.u, grid, [grid.t_final])[0]
        harness.write_slice_csv(path, x, u_numeric, u_exact)
    else:
        harness.write_slice_csv(path, x, u_numeric)
    return path


def _execute(
    config: RunConfig,
    problem: ProblemSpec,
    exact: Optional[ExactSolution],
    tag: str,
    perturbation_scale: float = 1.0,
) -> int:
    base = build_grid(config.a_dagger, config.m_prime, config.r, config.t_final)
    written: list[str] = []
    out = config.output_dir

    if config.study in ("convergence", "consistency") and exact is None:
        raise ConfigError(
            f"a {config.study} study needs an exact solution; "
            "use a built-in problem that has one (example1, example3)"
        )

    if config.study == "single":
        written.append(_write_run_slice(problem, exact, base, out, tag))
    else:
        if config.study == "convergence":
            rows = harness.convergence_study(problem, exact, base, config.levels)
            write = harness.write_convergence_csv
        elif config.study == "self_convergence":
            rows = harness.self_convergence_study(problem, base, config.levels)
            write = harness.write_convergence_csv
        elif config.study == "consistency":
            rows = harness.consistency_study(problem, exact, base, config.levels)
            write = harness.write_consistency_csv
        else:
            rows = harness.stability_probe(problem, base, config.levels, perturbation_scale)
            write = harness.write_stability_csv
        path = f"{out}/{tag}_{config.study}.csv"
        write(rows, path)
        written.append(path)
        if config.study in ("convergence", "self_convergence"):
            for grid in harness._grid_ladder(base, config.levels):
                written.append(_write_run_slice(problem, exact, grid, out, tag))

    for path in written:
        print(f"wrote {path}")
    return 0


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as stream:
            text = stream.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agediff",
        description="explicit scheme for age-structured transport-diffusion with a nonlocal birth law",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_command(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a key = value config file")
        cmd.add_argument("--output-dir", default=None, help="override the config's output_dir")
        return cmd

    add_config_command("run", "execute the study named in the config (default: single run)")
    add_config_command("convergence", "force a convergence study for the config's problem")
    add_config_command("consistency", "force a consistency study for the config's problem")
    stability = add_config_command("stability", "force a stability probe for the config's problem")
    stability.add_argument(
        "--scale", type=float, default=1.0, help="perturbation scale factor (default 1.0)"
    )

    examples = sub.add_parser("examples", help="run a built-in problem with conventional parameters")
    examples.add_argument("id", help="built-in problem id (see 'agediff list')")
    examples.add_argument("--levels", type=int, default=3)
    examples.add_argument("--m-prime", type=int, default=7)
    examples.add_argument("--r", type=float, default=0.4)
    examples.add_argument("--t-final", type=float, default=None, help="defaults to the problem's conventional time")
    examples.add_argument("--output-dir", default=".")

    sub.add_parser("list", help="list built-in problems")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            for problem_id in model.builtin_ids():
                print(f"{problem_id}  {model.builtin_description(problem_id)}")
            return 0
        if args.command == "examples":
            problem, exact = model.builtin_problem(args.id)
            t_final = args.t_final
            if t_final is None:
                t_final = _EXAMPLE_T_FINAL[args.id]
            config = RunConfig(
                problem_id=args.id,
                expressions=None,
                a_dagger=problem.a_dagger,
                m_prime=args.m_prime,
                r=args.r,
                t_final=t_final,
                study="convergence" if exact is not None else "self_convergence",
                levels=args.levels,
                output_dir=args.output_dir,
            )
            return _execute(config, problem, exact, args.id)
        overrides = {} if args.command == "run" else {"study": args.command}
        if args.output_dir is not None:
            overrides["output_dir"] = args.output_dir
        config = replace(_load_config(args.config), **overrides)
        return _execute(config, *_materialize(config), perturbation_scale=getattr(args, "scale", 1.0))
    except StabilityViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteState as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AgediffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy refuses an allocation larger than the machine at once
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # config reads raise ConfigError, so this is a failed CSV write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
