"""One benchmark measurement in a fresh interpreter.

    python3 child.py MODE PAYLOAD_JSON

Modes:
  setup    import agediff.cli and stop;
  run      import, then time one ``agediff.cli.main(argv)`` call;
  trace    as run, with tracer wrappers installed before the call;
  certify  solve the inline-ex3 problem through the public API with
           vectorised coefficients and certify the history with apply_phi.

The last line of standard output is one JSON object.  ``import_end`` is a
``time.perf_counter()`` reading, a system-wide monotonic clock on Linux, so
the parent can subtract the moment it started this process.
"""

import json
import sys
import time

import agediff.cli

import_end = time.perf_counter()

import os  # noqa: E402  (after the timed import on purpose)
import resource  # noqa: E402


def _check_origin(root: str) -> None:
    expected = os.path.join(root, "src", "agediff")
    found = os.path.dirname(os.path.abspath(agediff.cli.__file__))
    if found != expected:
        raise SystemExit(f"imported agediff from {found}, expected {expected}")


def _call(argv: list, traced: bool) -> dict:
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    main = agediff.cli.main
    error = None
    start = time.perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code = None
        error = repr(exc)
    wall = time.perf_counter() - start
    result = {
        "code": code,
        "error": error,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result.update(tracer.snapshot())
    return result


def _certify(payload: dict) -> dict:
    """Root-certify the inline-ex3 problem, solved with numpy coefficients."""
    import math

    import numpy as np

    c = payload["mortality_constant"]
    scale = 1.0 - math.exp(-1.0)
    problem = agediff.ProblemSpec(
        mortality=lambda x, s: np.full_like(x, c + s / scale),
        fertility=lambda x, s: 2.0 * np.exp(x),
        psi1=lambda x: np.ones_like(x),
        psi2=lambda x: np.ones_like(x),
        initial=lambda x: np.exp(-x) / 2.0,
        a_dagger=1.0,
        right_boundary=lambda t: math.exp(-1.0) / (1.0 + math.exp(-t)),
    )
    grid = agediff.build_grid(1.0, payload["m_prime"], payload["r"], payload["t_final"])
    solution = agediff.run(problem, grid)
    element = agediff.element_from_solution(solution)
    initial = agediff.InteriorVector(problem.initial(grid.interior_nodes()), grid.h)
    residual = agediff.yh_norm(agediff.apply_phi(element, problem, grid, initial))
    final = [solution.left_trace[-1], *solution.interior[-1], solution.right_trace[-1]]
    return {
        "root_ratio": residual / (1.0 + agediff.xh_norm(element)),
        "x": [float(v) for v in grid.nodes()],
        "u": [float(v) for v in final],
    }


def main() -> None:
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    _check_origin(payload["root"])
    if mode == "setup":
        result = {}
    elif mode in ("run", "trace"):
        result = _call(payload["argv"], traced=mode == "trace")
    elif mode == "certify":
        result = _certify(payload)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    result["import_end"] = import_end
    print(json.dumps(result))


if __name__ == "__main__":
    main()
