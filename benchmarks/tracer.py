"""Per-module call accounting for the traced benchmark run.

Wrappers are installed from outside the package, at every name through
which agediff code looks a function up: the defining module, and every
module that imported it by name (``harness.run``, ``cli.run_solver``,
``solver.qh``, ``residual.weighted_population`` ...).  Each wrapped call is
a span; a span's self time is its duration minus the spans it contains.
Spans are folded into per-function totals as they close, so memory stays
constant however many calls a workload makes.

Three call paths need more than a plain wrapper:

* ``exprdsl.eval_expr`` recurses through its own module global.  Only the
  outermost call is a span: while it runs, the global points back at the
  unwrapped function.
* The ``ProblemSpec`` callables are closures created per problem, so the
  problems returned by ``model.builtin_problem`` and
  ``model.problem_from_expressions`` are rebuilt with wrapped callables.
* ``InteriorVector.__post_init__`` is looked up on the class by the
  dataclass ``__init__``, so it is wrapped on the class.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from typing import Callable, Optional

MODULES = ("cli", "harness", "solver", "residual", "quadrature", "model", "exprdsl", "grid")
PROBLEM_CALLABLES = ("mortality", "fertility", "psi1", "psi2", "initial", "right_boundary")


class Stat:
    __slots__ = ("calls", "total", "self_time", "errors", "units")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.errors = 0
        self.units = 0

    def as_list(self) -> list:
        return [self.calls, self.total, self.self_time, self.errors, self.units]


def _grid_argument(args, kwargs):
    for value in (*args, *kwargs.values()):
        if hasattr(value, "n_steps") and hasattr(value, "m_total"):
            return value
    return None


def _levels(args, kwargs, result) -> int:
    grid = _grid_argument(args, kwargs)
    return 0 if grid is None else grid.n_steps + 1


def _nodes(args, kwargs, result) -> int:
    return int(getattr(args[0], "size", 1)) if args else 1


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._open: list[float] = []  # child time accumulated by each open span
        self.history_bytes = 0
        self.grids_run: set = set()

    def wrap(self, key: str, fn: Callable, units: Optional[Callable] = None) -> Callable:
        stat = self.stats.setdefault(key, Stat())
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed
            if units is not None:
                stat.units += units(args, kwargs, result)
            return result

        return span

    def snapshot(self) -> dict:
        return {
            "stats": {key: stat.as_list() for key, stat in self.stats.items()},
            "history_bytes": self.history_bytes,
            "unique_levels": sum(grid.n_steps + 1 for grid in self.grids_run),
        }

    # -- special call paths ------------------------------------------------

    def _wrap_run(self, run: Callable) -> Callable:
        timed = self.wrap("solver.run", run, units=_levels)

        @functools.wraps(run)
        def traced_run(*args, **kwargs):
            history = timed(*args, **kwargs)
            self.grids_run.add(history.grid)
            self.history_bytes += sum(
                array.nbytes for array in (history.left_trace, history.right_trace, history.interior)
            )
            return history

        return traced_run

    def _wrap_problem(self, problem):
        wrapped = {
            name: self.wrap("model.coeff", fn, units=_nodes)
            for name in PROBLEM_CALLABLES
            if (fn := getattr(problem, name, None)) is not None
        }
        return dataclasses.replace(problem, **wrapped)

    def _wrap_problem_factory(self, key: str, factory: Callable) -> Callable:
        timed = self.wrap(key, factory)

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            result = timed(*args, **kwargs)
            if isinstance(result, tuple):
                return (self._wrap_problem(result[0]), *result[1:])
            return self._wrap_problem(result)

        return traced_factory

    def _install_eval(self, exprdsl) -> None:
        original = exprdsl.eval_expr
        timed = self.wrap("exprdsl.eval_expr", original)

        @functools.wraps(original)
        def outermost(node, bindings):
            exprdsl.eval_expr = original
            try:
                return timed(node, bindings)
            finally:
                exprdsl.eval_expr = outermost

        exprdsl.eval_expr = outermost

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and public method of each module."""
        package = importlib.import_module("agediff")
        modules = {name: importlib.import_module(f"agediff.{name}") for name in MODULES}
        special = {
            ("solver", "run"): self._wrap_run,
            ("model", "builtin_problem"): lambda fn: self._wrap_problem_factory("model.builtin_problem", fn),
            ("model", "problem_from_expressions"): lambda fn: self._wrap_problem_factory(
                "model.problem_from_expressions", fn
            ),
        }
        levels_of = {("residual", "apply_phi"), ("residual", "restrict")}
        replacements: dict[int, tuple[Callable, Callable]] = {}
        for short, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if short == "exprdsl" and name == "eval_expr":
                    continue
                if inspect.isfunction(obj):
                    if (short, name) in special:
                        wrapper = special[(short, name)](obj)
                    else:
                        units = _levels if (short, name) in levels_of else None
                        wrapper = self.wrap(f"{short}.{name}", obj, units=units)
                    replacements[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and not attr.startswith("_"):
                            setattr(obj, attr, self.wrap(f"{short}.{obj.__name__}.{attr}", member))
        vector = modules["quadrature"].InteriorVector
        vector.__post_init__ = self.wrap("quadrature.InteriorVector.__post_init__", vector.__post_init__)
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
        self._install_eval(modules["exprdsl"])
