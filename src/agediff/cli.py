"""Command line front end: parse the input, run a study of :mod:`agediff.harness`
(which writes every table and slice) and map its errors to exit codes.

Subcommands: ``run`` executes whatever study a config file asks for;
``convergence``, ``consistency`` and ``stability`` do the same but force the
study type; ``examples`` runs a built-in problem on the paper's base mesh,
M' = 7 and r = 0.4 (a config file gives any other); ``list`` shows the
built-ins.  Exit codes: 0 on success, 1 for configuration problems or an
output or temporary file that cannot be written, 2 when the mesh violates
the stability bound or a step meets a negative update coefficient, 3 when
the state blows up mid-run.

Config files are line-oriented ``key = value`` pairs with ``#`` comments.
The optional section headers ``[problem]`` and ``[study]`` group the keys;
when present, keys are checked against their section.  A problem is either
``problem = <builtin id>`` or an inline coefficient block (``d``, ``B``,
``u0``, optional ``psi1``/``psi2``/``g``/``a_dagger``) written in the
expression language of :mod:`agediff.exprdsl`.  Config files are read as
UTF-8, and a leading byte-order mark is ignored; one that does not decode is
a configuration error.  Each line is checked and converted once, in file
order, so of several bad lines the first in the file is the one reported.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from dataclasses import astuple, dataclass, replace
from typing import Any, Callable, NamedTuple, Optional

from . import harness, model
from .errors import AgediffError, ConfigError, NonFiniteState, ParseError, StabilityViolation
from .exprdsl import ExprAst, parse_expr
from .grid import build_grid
from .model import ProblemSpec, SpaceTimeFunction

_STUDIES = ("single", "convergence", "self_convergence", "consistency", "stability")

# The paper's base mesh and conventional final times; a config file gives any other mesh.
_EXAMPLE_M_PRIME, _EXAMPLE_R = 7, 0.4
_EXAMPLE_T_FINAL = {"example1": 0.2, "example2": 0.8, "example3": 0.8}

_CONVERGENCE_HEADER = ["h", "k", "M", "N", "err_inf", "err_l2", "err_xh", "order_inf", "order_l2", "order_xh"]

# Each inline coefficient key and the problem_from_expressions argument it fills.
_FIELDS = {"d": "mortality", "B": "fertility", "psi1": "psi1", "psi2": "psi2", "u0": "initial", "g": "right_boundary"}


@dataclass(frozen=True)
class RunConfig:
    problem_id: Optional[str]
    expressions: Optional[dict]  # inline key -> its parsed AST, or problem_from_expressions' default
    a_dagger: float
    m_prime: int
    r: float
    t_final: float
    study: str
    levels: int
    output_dir: str


# A converter maps (key, value text) to the value, or raises ValueError with
# the message the config error reports.
def _typed(kind: type, noun: str) -> Callable[[str, str], Any]:
    def convert(key: str, value: str) -> Any:
        try:
            return kind(value)
        except ValueError:
            raise ValueError(f"key {key!r} needs {noun}, got {value!r}") from None

    return convert


_integer = _typed(int, "an integer")
_number = _typed(float, "a number")


def _positive(key: str, value: str) -> float:
    number = _number(key, value)
    if not number > 0.0:
        raise ValueError(f"{key} must be positive, got {value!r}")
    return number


def _study(key: str, value: str) -> str:
    if value not in _STUDIES:
        raise ValueError(f"study must be one of {', '.join(_STUDIES)}; got {value!r}")
    return value


def _expression(key: str, value: str) -> ExprAst:
    try:
        return parse_expr(value, model.EXPRESSION_VARIABLES[_FIELDS[key]])
    except ParseError as exc:
        raise ValueError(f"invalid expression for {key!r}: {exc}") from exc


def _text(key: str, value: str) -> str:
    return value


class _Key(NamedTuple):
    section: str
    convert: Callable[[str, str], Any]
    default: Any


# problem_from_expressions owns the defaults of a_dagger and the coefficients;
# a parameter without a default there is a required key here.
_REQUIRED = inspect.Parameter.empty
_PARAMETERS = inspect.signature(model.problem_from_expressions).parameters

_KEYS = {
    "problem": _Key("problem", _text, None),
    "a_dagger": _Key("problem", _positive, _PARAMETERS["a_dagger"].default),
    **{key: _Key("problem", _expression, _PARAMETERS[field].default) for key, field in _FIELDS.items()},
    "m_prime": _Key("study", _integer, _REQUIRED),
    "r": _Key("study", _number, _REQUIRED),
    "t_final": _Key("study", _number, _REQUIRED),
    "study": _Key("study", _study, "single"),
    "levels": _Key("study", _integer, 3),
    "output_dir": _Key("study", _text, "."),
}


def parse_config(text: str) -> RunConfig:
    """Parse config text line by line, converting each value as it is read; the first bad line fails."""
    values: dict[str, Any] = {}
    linenos: dict[str, int] = {}
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
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno)
        home = _KEYS[key].section
        if section not in (None, home):
            raise ConfigError(f"key {key!r} belongs in the [{home}] section", lineno)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno)
        if not value:
            raise ConfigError(f"empty value for key {key!r}", lineno)
        try:
            values[key] = _KEYS[key].convert(key, value)
        except ValueError as exc:
            raise ConfigError(str(exc), lineno) from exc
        linenos[key] = lineno

    builtin = "problem" in values
    if builtin:
        inline = sorted(key for key in _FIELDS if key in values)
        if inline:
            raise ConfigError(
                f"config names a built-in problem but also defines {inline}; use one or the other"
            )
        if "a_dagger" in values:
            raise ConfigError("built-in problems fix a_dagger; remove the key", linenos["a_dagger"])
    else:
        missing = sorted(key for key in _FIELDS if _KEYS[key].default is _REQUIRED and key not in values)
        if missing:
            raise ConfigError(f"inline problem needs keys {missing} (or set 'problem = <builtin>')")

    for key, spec in _KEYS.items():
        if key not in values and not (builtin and key in _FIELDS):
            if spec.default is _REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            values[key] = spec.default
    expressions = None if builtin else {key: values.pop(key) for key in _FIELDS}
    return RunConfig(problem_id=values.pop("problem"), expressions=expressions, **values)


def _execute(
    config: RunConfig, problem: ProblemSpec, u: Optional[SpaceTimeFunction], perturbation_scale: float = 1.0
) -> int:
    tag = config.problem_id or "inline"
    base = build_grid(problem.a_dagger, config.m_prime, config.r, config.t_final)

    if config.study in ("convergence", "consistency") and u is None:
        raise ConfigError(
            f"a {config.study} study needs an exact solution; "
            "use a built-in problem that has one (example1, example3)"
        )

    if config.study == "single":
        written = harness._write_slices(problem, u, base, 1, config.output_dir, tag)
    else:
        if config.study == "convergence":
            header = _CONVERGENCE_HEADER
            rows = map(astuple, harness.convergence_study(problem, u, base, config.levels))
        elif config.study == "self_convergence":
            header = _CONVERGENCE_HEADER
            rows = map(astuple, harness.self_convergence_study(problem, base, config.levels))
        elif config.study == "consistency":
            header = ["h", "residual_yh", "order"]
            rows = map(astuple, harness.consistency_study(problem, u, base, config.levels))
        else:
            header = ["h", "ratio"]
            probe = harness.stability_probe(problem, base, config.levels, perturbation_scale)
            rows = [(row.h, "DegenerateRatio" if row.ratio is None else row.ratio) for row in probe]
        path = f"{config.output_dir}/{tag}_{config.study}.csv"
        harness.write_csv(path, header, rows)
        written = [path]
        if config.study in ("convergence", "self_convergence"):
            written += harness._write_slices(problem, u, base, config.levels, config.output_dir, tag)

    for path in written:
        print(f"wrote {path}")
    return 0


def _load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as stream:
            text = stream.read()
    except (OSError, UnicodeDecodeError) as exc:
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

    examples = sub.add_parser("examples", help="run a built-in problem on the paper's base mesh")
    examples.add_argument("id", help="built-in problem id (see 'agediff list')")
    examples.add_argument("--levels", type=int, default=_KEYS["levels"].default)
    examples.add_argument("--t-final", type=float, default=None, help="defaults to the problem's conventional time")
    examples.add_argument("--output-dir", default=_KEYS["output_dir"].default)

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
            problem, u = model.builtin_problem(args.id)
            config = RunConfig(
                problem_id=args.id,
                expressions=None,
                a_dagger=_KEYS["a_dagger"].default,
                m_prime=_EXAMPLE_M_PRIME,
                r=_EXAMPLE_R,
                t_final=_EXAMPLE_T_FINAL.get(args.id) if args.t_final is None else args.t_final,
                study="convergence" if u is not None else "self_convergence",
                levels=args.levels,
                output_dir=args.output_dir,
            )
        else:
            overrides = {} if args.command == "run" else {"study": args.command}
            if args.output_dir is not None:
                overrides["output_dir"] = args.output_dir
            config = replace(_load_config(args.config), **overrides)
            if config.problem_id is not None:
                problem, u = model.builtin_problem(config.problem_id)
            else:
                arguments = {_FIELDS[key]: expression for key, expression in config.expressions.items()}
                problem, u = model.problem_from_expressions(**arguments, a_dagger=config.a_dagger), None
        return _execute(config, problem, u, perturbation_scale=getattr(args, "scale", 1.0))
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
        # config reads raise ConfigError, so this is a failed CSV write or a temporary file of
        # self-convergence that cannot be made, written or read back (its directory gone or full)
        print(f"error: cannot write output or a temporary file: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
