import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import agediff
from agediff import cli, exprdsl, harness
from agediff.cli import RunConfig, _load_config, main, parse_config
from agediff.errors import ConfigError
from agediff.exprdsl import parse_expr
from agediff.model import EXPRESSION_VARIABLES

MINIMAL = """
problem = example1
m_prime = 7
r = 0.4
t_final = 0.2
"""

SECTIONED = """
# convergence run for the separable problem
[problem]
problem = example1

[study]
m_prime = 7
r = 0.4          # lam + 2r = 0.82
t_final = 0.2
study = convergence
levels = 2
output_dir = results
"""

INLINE = """
[problem]
d = 1 + s
B = 2 * exp(x)
u0 = exp(-x) / 2
g = exp(-1) / (1 + exp(-t))
a_dagger = 1.0

[study]
m_prime = 7
r = 0.4
t_final = 0.1
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_minimal_builtin_config():
    config = parse_config(MINIMAL)
    assert config == RunConfig(
        problem_id="example1",
        expressions=None,
        a_dagger=1.0,
        m_prime=7,
        r=0.4,
        t_final=0.2,
        study="single",
        levels=3,
        output_dir=".",
    )


def test_parse_sectioned_config():
    config = parse_config(SECTIONED)
    assert config.problem_id == "example1"
    assert config.study == "convergence"
    assert config.levels == 2
    assert config.output_dir == "results"


def test_parse_inline_config():
    # each given key holds the AST its check parsed; psi1 and psi2 keep the default text
    config = parse_config(INLINE)
    assert config.problem_id is None
    given = {
        "d": ("mortality", "1 + s"),
        "B": ("fertility", "2 * exp(x)"),
        "u0": ("initial", "exp(-x) / 2"),
        "g": ("right_boundary", "exp(-1) / (1 + exp(-t))"),
    }
    for key, (slot, text) in given.items():
        assert config.expressions[key] == parse_expr(text, EXPRESSION_VARIABLES[slot])
    assert config.expressions["psi1"] == "1"
    assert config.expressions["psi2"] == "1"


def test_first_bad_line_in_the_file_is_reported(tmp_path, capsys):
    # u0 on line 3 and psi2 on line 4 are both malformed; psi2 comes first in the key table
    text = "d = 1\nB = 1\nu0 = (\npsi2 = s\nm_prime = 7\nr = 0.4\nt_final = 0.1\n"
    with pytest.raises(ConfigError, match=r"^line 3: invalid expression for 'u0'"):
        parse_config(text)
    assert main(["run", "--config", write_config(tmp_path, text), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 3: invalid expression for 'u0'")
    assert captured.err.count("\n") == 1


def test_bad_value_is_reported_before_a_missing_required_key():
    with pytest.raises(ConfigError, match=r"^line 2: key 'r' needs a number, got 'fast'$"):
        parse_config("problem = example1\nr = fast\nt_final = 0.2\n")


def test_each_expression_is_parsed_once(tmp_path, monkeypatch, capsys):
    parsed = []

    def counted(parse):
        return lambda text, allowed: parsed.append(text) or parse(text, allowed)

    monkeypatch.setattr(exprdsl, "parse_expr", counted(exprdsl.parse_expr))
    monkeypatch.setattr(cli, "parse_expr", counted(cli.parse_expr))
    assert main(["run", "--config", write_config(tmp_path, INLINE), "--output-dir", str(tmp_path / "out")]) == 0
    # d, B, u0 and g as the config is read, psi1 and psi2's default text as the problem is built
    assert sorted(parsed) == sorted(["1 + s", "2 * exp(x)", "exp(-x) / 2", "exp(-1) / (1 + exp(-t))", "1", "1"])


def test_parse_inline_defaults():
    config = parse_config("d = 1\nB = 1\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.1\n")
    assert config.expressions["g"] is None
    assert config.a_dagger == 1.0
    assert config.study == "single"


REJECTIONS = [
    ("problem = example1\nwhat = 3\n", "line 2: unknown key 'what'"),
    ("problem = example1\nproblem = example2\n", "line 2: duplicate key"),
    ("problem =\n", "line 1: empty value"),
    ("problem = example1\nr = 0.4\nt_final = 0.2\n", "missing required key 'm_prime'"),
    ("problem = example1\nd = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "use one or the other"),
    ("problem = example1\na_dagger = 2\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "line 2: built-in problems fix a_dagger"),
    ("d = 1\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "inline problem needs keys ['B']"),
    ("problem = example1\nm_prime = 7\nr = 0.4\nt_final = 0.2\nstudy = fancy\n", "study must be one of"),
    ("problem = example1\nm_prime = 7\nr = fast\nt_final = 0.2\n", "line 3: key 'r' needs a number"),
    ("problem = example1\nm_prime = 7.5\nr = 0.4\nt_final = 0.2\n", "needs an integer"),
    ("[solver]\n", "line 1: unknown section"),
    ("[problem]\nm_prime = 7\n", "belongs in the [study] section"),
    ("[study]\nd = 1\n", "belongs in the [problem] section"),
    ("d = 1 +\nB = 1\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "invalid expression for 'd'"),
    ("d = exp(t)\nB = 1\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "invalid expression for 'd'"),
    ("just words\n", "expected 'key = value'"),
    ("d = 1\nB = 1\nu0 = 1\na_dagger = -1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "a_dagger must be positive"),
    ("problem = example1\nm_prime = 7\nr = 0.4\nt_final = 0.2\nlevels = 2.5\n", "line 5: key 'levels' needs an integer"),
    ("problem = example1\nm_prime = 7\nr = 0.4\nt_final = soon\n", "line 4: key 't_final' needs a number"),
    ("d = 1\nB = 1\nu0 = 1\na_dagger = wide\nm_prime = 7\nr = 0.4\nt_final = 0.2\n", "line 4: key 'a_dagger' needs a number"),
    ("problem = example1\nm_prime = 7\nt_final = 0.2\n", "missing required key 'r'"),
    ("[problem]\noutput_dir = out\n", "line 2: key 'output_dir' belongs in the [study] section"),
]


@pytest.mark.parametrize("text,fragment", REJECTIONS)
def test_parse_config_rejections(text, fragment):
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize("text,fragment", REJECTIONS)
def test_rejected_config_is_one_error_line(tmp_path, capsys, text, fragment):
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert fragment in captured.err
    assert not out_dir.exists()


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for problem_id in ("example1", "example2", "example3"):
        assert problem_id in out


def run_module(*args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(agediff.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_runs_the_cli():
    listed = run_module("agediff", "list")
    assert listed.returncode == 0, listed.stderr
    listed_ids = [line.split()[0] for line in listed.stdout.splitlines()]
    assert listed_ids == ["example1", "example2", "example3"]
    unknown = run_module("agediff.cli", "examples", "nope")
    assert unknown.returncode == 1
    assert "unknown problem 'nope'" in unknown.stderr


def test_run_single_builtin(tmp_path, capsys):
    config = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 0
    slice_path = out_dir / "example1_slice_h0.05.csv"
    assert slice_path.exists()
    assert f"wrote {slice_path}" in capsys.readouterr().out
    lines = slice_path.read_text().splitlines()
    assert lines[0] == "x,u_numeric,u_exact,abs_err"
    assert len(lines) == 22  # header plus the 21 nodes of the M = 20 mesh


def test_run_single_inline(tmp_path):
    config = write_config(tmp_path, INLINE)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 0
    slice_path = out_dir / "inline_slice_h0.05.csv"
    assert slice_path.read_text().splitlines()[0] == "x,u_numeric"


def test_run_study_from_config(tmp_path):
    config = write_config(tmp_path, SECTIONED)
    out_dir = tmp_path / "results"
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        assert main(["run", "--config", config]) == 0
    finally:
        os.chdir(cwd)
    assert (out_dir / "example1_convergence.csv").exists()
    assert (out_dir / "example1_slice_h0.05.csv").exists()
    assert (out_dir / "example1_slice_h0.025.csv").exists()


def test_forced_convergence_needs_an_exact_solution(tmp_path, capsys):
    config = write_config(tmp_path, MINIMAL.replace("example1", "example2"))
    assert main(["convergence", "--config", config, "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "exact solution" in err


def test_stability_command_writes_ratio_table(tmp_path):
    config = write_config(tmp_path, MINIMAL)
    out_dir = tmp_path / "out"
    assert main(["stability", "--config", config, "--output-dir", str(out_dir), "--scale", "0.5"]) == 0
    lines = (out_dir / "example1_stability.csv").read_text().splitlines()
    assert lines[0] == "h,ratio"
    assert len(lines) == 4


def test_unstable_mesh_is_refused_before_writing(tmp_path, capsys):
    text = "problem = example1\nm_prime = 1\nr = 0.6\nt_final = 0.2\n"
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 2
    assert "stability bound violated" in capsys.readouterr().err
    assert not out_dir.exists()


def test_step_count_overflow_is_a_configuration_error(tmp_path, capsys):
    text = "problem = example1\nm_prime = 7\nr = 0.4\nt_final = 1e308\n"
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: t_target / k overflows")
    assert not out_dir.exists()


def test_unallocatable_step_count_is_a_configuration_error(tmp_path, capsys):
    text = "problem = example1\nm_prime = 7\nr = 0.4\nt_final = 1e300\n"
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n_steps = 1e+303 needs more levels")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # every study is bounded before it allocates, so numpy refusing an allocation is forced
    # here: self-convergence's kept array is made to ask for 8 PiB
    monkeypatch.setattr(harness, "_history_shape", lambda grid, every: (2**30, 2**20))
    out_dir = tmp_path / "out"
    assert main(["examples", "example2", "--levels", "3", "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command",
    [
        ["examples", "example1", "--t-final", "1e14", "--levels", "1"],
        ["stability"],
        ["convergence"],
        ["consistency"],
    ],
    ids=["examples", "stability", "convergence", "consistency"],
)
def test_history_too_large_to_index_is_one_error_line(tmp_path, capsys, command):
    # GridSpec admits 1e17 levels, but a 1e17 x 21 history does not fit numpy's index range
    if command[0] != "examples":
        text = "problem = example3\nm_prime = 7\nr = 0.4\nt_final = 1e14\nlevels = 2\n"
        command = [*command, "--config", write_config(tmp_path, text)]
    out_dir = tmp_path / "out"
    assert main([*command, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: a history of 1e+17 levels x 21 nodes is more than numpy can allocate")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key,expression",
    [
        ("d", "(" * 400 + "1" + ")" * 400),
        ("u0", "exp(-x)/2" + "+0*x" * 1500),
        ("B", "-" * 1200 + "x"),
        ("g", "t^" * 600 + "t"),
        ("psi1", "abs(" * 300 + "x" + ")" * 300),
    ],
    ids=["parentheses", "sum", "unary-minus", "power-chain", "calls"],
)
def test_deep_config_expression_is_one_error_line(tmp_path, capsys, key, expression):
    expressions = {"d": "1", "B": "1", "u0": "1", key: expression}
    text = "".join(f"{name} = {value}\n" for name, value in expressions.items())
    config = write_config(tmp_path, text + "m_prime = 7\nr = 0.4\nt_final = 0.2\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"invalid expression for '{key}': expression is nested more than 100 levels deep" in captured.err
    assert not out_dir.exists()


def test_unwritable_output_is_one_error_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert main(["examples", "example1", "--levels", "1", "--output-dir", str(blocker / "sub")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write output:")
    assert captured.err.count("\n") == 1
    assert blocker.read_text() == "not a directory\n"


def test_blowup_exits_with_code_3(tmp_path, capsys):
    text = "d = 0 - 1000000\nB = 0\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\n"
    config = write_config(tmp_path, text)
    assert main(["run", "--config", config, "--output-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "non-finite" in err


@pytest.mark.parametrize("birth", ["2e3", "1400"])
def test_a_self_convergence_error_that_overflows_reads_inf_with_no_order(tmp_path, birth):
    # the runs stay finite, but the final error row's l2 norm overflows (both rows at B = 2e3,
    # the finer one at B = 1400); an order beside an inf is an empty cell, not nan or a crash
    text = f"d = 1\nB = {birth}\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.2\nlevels = 3\nstudy = self_convergence\n"
    out_dir = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, text), "--output-dir", str(out_dir)]) == 0
    header, *rows = [line.split(",") for line in (out_dir / "inline_self_convergence.csv").read_text().splitlines()]
    cell = {name: index for index, name in enumerate(header)}
    assert rows[-1][cell["err_l2"]] == rows[-1][cell["err_xh"]] == "inf"
    assert all(row[cell["order_l2"]] == row[cell["order_xh"]] == "" for row in rows)
    assert float(rows[-1][cell["order_inf"]]) < 0.0


@pytest.mark.parametrize("slot", ["u0", "g", "psi1", "psi2"])
def test_nan_expression_is_a_configuration_error(tmp_path, capsys, slot):
    # d and B read no s, so a NaN weighted population would not reach the state
    slots = {"d": "1", "B": "0", "u0": "1", slot: "1e308*10 - 1e308*10"}
    text = "".join(f"{key} = {value}\n" for key, value in slots.items())
    config = write_config(tmp_path, text + "m_prime = 7\nr = 0.4\nt_final = 0.2\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    assert "evaluates to NaN" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("slot,d,B", [("psi1", "1 + s", "2"), ("psi2", "1", "2"), ("psi2", "1", "2 * exp(x) + s")])
def test_infinite_psi_is_named_and_exits_1(tmp_path, capsys, slot, d, B):
    # 1e308*10 is inf, not NaN, so the expression itself evaluates; the run
    # names psi, also when d reads s and would otherwise see s1 = inf first
    slots = {"d": d, "B": B, "u0": "1", slot: "1e308*10"}
    text = "".join(f"{key} = {value}\n" for key, value in slots.items())
    config = write_config(tmp_path, text + "m_prime = 7\nr = 0.4\nt_final = 0.2\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {slot} evaluated to a non-finite value\n"
    assert captured.out == ""
    assert not out_dir.exists()


def test_unknown_builtin_id(tmp_path, capsys):
    # examples resolves its built-in before it builds the config
    out_dir = tmp_path / "out"
    assert main(["examples", "example9", "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown problem 'example9'")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command",
    [["run"], ["stability"], ["consistency"], ["examples", "example1", "--t-final", "1e12", "--levels", "1"]],
    ids=["run", "stability", "consistency", "convergence"],
)
def test_run_too_long_to_step_is_one_error_line(tmp_path, capsys, command):
    # about 1e15 levels fit numpy's index range and a single run's memory, but not a lifetime;
    # the convergence study samples u a block of levels at a time, so it meets the bound too
    if command[0] != "examples":
        text = "problem = example1\nm_prime = 7\nr = 0.4\nt_final = 1e12\nlevels = 1\n"
        command = [*command, "--config", write_config(tmp_path, text)]
    out_dir = tmp_path / "out"
    assert main([*command, "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1e+15 levels x 21 nodes would step 2.1e+16 node values, a cost of 1.05e+18")
    assert captured.err.count("\n") == 1
    assert not out_dir.exists()


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_config_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(MINIMAL.encode() + b"# \xff\n")
    assert main(["run", "--config", str(path), "--output-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read config file {str(path)!r}: 'utf-8' codec")
    assert captured.err.count("\n") == 1


def test_config_with_a_byte_order_mark_parses_as_without(tmp_path):
    plain = tmp_path / "plain.cfg"
    marked = tmp_path / "marked.cfg"
    text = MINIMAL.lstrip()  # the mark sits right before the first key
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _load_config(str(marked)) == _load_config(str(plain)) == parse_config(MINIMAL)


def test_examples_command_is_reproducible(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    for out_dir in (first, second):
        assert main(["examples", "example1", "--levels", "1", "--output-dir", str(out_dir)]) == 0
    names = sorted(os.listdir(first))
    assert names == sorted(os.listdir(second))
    assert names == ["example1_convergence.csv", "example1_slice_h0.05.csv"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_examples_command_picks_the_self_study_without_an_exact(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(
        ["examples", "example2", "--levels", "3", "--t-final", "0.05", "--output-dir", str(out_dir)]
    ) == 0
    assert (out_dir / "example2_self_convergence.csv").exists()
    # on the paper's base mesh, M' = 7 and r = 0.4: a config gives the same bytes, and any other mesh
    examples_out = capsys.readouterr().out
    text = "problem = example2\nm_prime = 7\nr = 0.4\nt_final = 0.05\nstudy = self_convergence\nlevels = 3\n"
    config_dir = tmp_path / "config"
    assert main(["run", "--config", write_config(tmp_path, text), "--output-dir", str(config_dir)]) == 0
    assert examples_out.replace(str(out_dir), "DIR") == capsys.readouterr().out.replace(str(config_dir), "DIR")
    names = sorted(os.listdir(out_dir))
    assert len(names) == 4 and names == sorted(os.listdir(config_dir))
    for name in names:
        assert (out_dir / name).read_bytes() == (config_dir / name).read_bytes()


@pytest.mark.parametrize("problem_id,t_final", [("example1", "0.2"), ("example3", "0.1")])
def test_slice_matches_a_fully_restricted_exact_solution(tmp_path, problem_id, t_final):
    # The slice samples the exact solution at the final level only; its bytes
    # must equal those written from a restriction over every level.
    from agediff.grid import build_grid
    from agediff.harness import write_csv
    from agediff.model import builtin_problem
    from agediff.residual import restrict
    from agediff.solver import run

    out_dir = tmp_path / "out"
    argv = ["examples", problem_id, "--levels", "1", "--t-final", t_final, "--output-dir", str(out_dir)]
    assert main(argv) == 0
    problem, exact = builtin_problem(problem_id)
    grid = build_grid(1.0, 7, 0.4, float(t_final))
    solution = run(problem, grid)
    sampled = restrict(exact, grid)
    reference = tmp_path / "reference.csv"
    numeric = np.concatenate(([solution.left_trace[-1]], solution.interior[-1], [solution.right_trace[-1]]))
    u_exact = np.concatenate(([sampled.left_trace[-1]], sampled.interior[-1], [sampled.right_trace[-1]]))
    cells = [(x, u, e, abs(u - e)) for x, u, e in zip(grid.nodes(), numeric, u_exact)]
    write_csv(str(reference), ["x", "u_numeric", "u_exact", "abs_err"], cells)
    written = out_dir / f"{problem_id}_slice_h{grid.h!r}.csv"
    assert written.read_bytes() == reference.read_bytes()


def test_a_slice_prints_the_node_that_u_was_sampled_at(tmp_path):
    # at M' = 46, m_total * h rounds to 0.9999999999999999, but u is sampled at a_dagger = 1.0
    from agediff.grid import build_grid

    config = write_config(tmp_path, "problem = example3\nm_prime = 46\nr = 0.4\nt_final = 0.001\n")
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == 0
    grid = build_grid(1.0, 46, 0.4, 0.001)
    assert grid.nodes()[-1] != 1.0
    lines = (out_dir / f"example3_slice_h{grid.h!r}.csv").read_text().splitlines()
    assert len(lines) == grid.m_total + 2
    assert lines[-1].split(",")[0] == "1.0"


@pytest.mark.parametrize("flag", ["--m-prime", "--r"])
def test_examples_has_no_mesh_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        main(["examples", "example1", flag, "7", "--output-dir", str(tmp_path / "out")])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} 7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


STUDY_CONFIG = """
problem = example1
m_prime = 7
r = 0.4
t_final = 0.05
levels = 2
"""


@pytest.mark.parametrize("study", ["convergence", "consistency", "stability"])
def test_forcing_subcommands_equal_run_with_the_study_key(tmp_path, capsys, study):
    forced_dir = tmp_path / "forced"
    keyed_dir = tmp_path / "keyed"
    forced = write_config(tmp_path, STUDY_CONFIG, name="forced.cfg")
    keyed = write_config(tmp_path, STUDY_CONFIG + f"study = {study}\n", name="keyed.cfg")
    assert main([study, "--config", forced, "--output-dir", str(forced_dir)]) == 0
    forced_out = capsys.readouterr().out
    assert main(["run", "--config", keyed, "--output-dir", str(keyed_dir)]) == 0
    keyed_out = capsys.readouterr().out
    assert forced_out.replace(str(forced_dir), "DIR") == keyed_out.replace(str(keyed_dir), "DIR")
    names = sorted(os.listdir(forced_dir))
    assert f"example1_{study}.csv" in names
    assert names == sorted(os.listdir(keyed_dir))
    for name in names:
        assert (forced_dir / name).read_bytes() == (keyed_dir / name).read_bytes()


def test_stability_scale_reaches_the_probe(tmp_path):
    from agediff.grid import build_grid
    from agediff.harness import stability_probe, write_csv
    from agediff.model import builtin_problem

    config = write_config(tmp_path, STUDY_CONFIG)
    out_dir = tmp_path / "out"
    assert main(["stability", "--config", config, "--output-dir", str(out_dir), "--scale", "0.5"]) == 0
    problem, _ = builtin_problem("example1")
    rows = stability_probe(problem, build_grid(1.0, 7, 0.4, 0.05), levels=2, perturbation_scale=0.5)
    reference = tmp_path / "reference.csv"
    cells = [(row.h, "DegenerateRatio" if row.ratio is None else row.ratio) for row in rows]
    write_csv(str(reference), ["h", "ratio"], cells)
    assert (out_dir / "example1_stability.csv").read_bytes() == reference.read_bytes()


def test_stability_csv_marks_degenerate_rows(tmp_path):
    # at this scale the residual gap's yh-norm overflows on both rungs
    config = write_config(tmp_path, STUDY_CONFIG.replace("example1", "example3"))
    out_dir = tmp_path / "out"
    assert main(["stability", "--config", config, "--output-dir", str(out_dir), "--scale", "1e150"]) == 0
    lines = (out_dir / "example3_stability.csv").read_text().splitlines()
    assert lines == ["h,ratio", "0.05,DegenerateRatio", "0.025,DegenerateRatio"]


@pytest.mark.parametrize("d,code", [("1000", 2), ("150", 0)])
def test_update_coefficient_margin_sets_the_exit_code(tmp_path, capsys, d, code):
    # M = 20, r = 0.4: 1 - lam - 2r = 0.18 and k = 0.001, so d = 1000 gives
    # -0.82 while d = 150 leaves a margin of 0.03
    text = f"d = {d}\nB = 0\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.1\n"
    config = write_config(tmp_path, text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config, "--output-dir", str(out_dir)]) == code
    if code:
        assert "update coefficient" in capsys.readouterr().err
    assert (out_dir / "inline_slice_h0.05.csv").exists() == (code == 0)


def test_update_coefficient_error_prints_the_margin_as_a_float(tmp_path, capsys):
    text = "d = 1000\nB = 0\nu0 = 1\nm_prime = 7\nr = 0.4\nt_final = 0.1\n"
    config = write_config(tmp_path, text)
    assert main(["run", "--config", config, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "k*d = -0.82" in err
    assert "np.float64" not in err
    assert err.count("\n") == 1


def test_inline_run_makes_one_outermost_eval_call_per_node(tmp_path, monkeypatch):
    # The benchmark pins exprdsl.eval.calls = model.coeff.nodes on inline-ex3;
    # a coefficient path that skips or repeats eval_expr per node moves it.
    from agediff import exprdsl, model

    calls = {"eval": 0, "nodes": 0}
    evaluate, nodewise = exprdsl.eval_expr, model._nodewise

    def outermost(node, bindings):
        calls["eval"] += 1
        monkeypatch.setattr(exprdsl, "eval_expr", evaluate)
        try:
            return evaluate(node, bindings)
        finally:
            monkeypatch.setattr(exprdsl, "eval_expr", outermost)

    def counted(ast, x, bindings):
        calls["nodes"] += np.asarray(x).size
        return nodewise(ast, x, bindings)

    monkeypatch.setattr(exprdsl, "eval_expr", outermost)
    monkeypatch.setattr(model, "_nodewise", counted)
    homogeneous = INLINE.replace("g = exp(-1) / (1 + exp(-t))\n", "")
    config = write_config(tmp_path, homogeneous)
    assert main(["run", "--config", config, "--output-dir", str(tmp_path / "out")]) == 0
    assert calls["nodes"] > 0
    assert calls["eval"] == calls["nodes"]
