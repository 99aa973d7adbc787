import gc
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agediff import exprdsl
from agediff.errors import EvalError, ParseError
from agediff.exprdsl import BinOp, Call, Const, Neg, Num, Var, eval_expr, format_expr, parse_expr


def evaluate(text, allowed=(), **bindings):
    return eval_expr(parse_expr(text, allowed), bindings)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("2 + 3*4", 14.0),
        ("2*3 + 4", 10.0),
        ("2 - 3 - 4", -5.0),
        ("12/4/3", 1.0),
        ("2^3^2", 512.0),
        ("(2^3)^2", 64.0),
        ("-2^2", -4.0),
        ("(0 - 2)^2", 4.0),
        ("2*3^2", 18.0),
        ("-2*3", -6.0),
        ("--2", 2.0),
        ("2^-1", 0.5),
        ("0.5e1", 5.0),
        (".25*4", 1.0),
    ],
)
def test_precedence_and_literals(text, expected):
    assert evaluate(text) == expected


def test_constants_and_functions():
    assert evaluate("e") == math.e
    assert evaluate("pi") == math.pi
    assert evaluate("log(e)") == 1.0
    assert evaluate("sqrt(4)") == 2.0
    assert evaluate("abs(0 - 3)") == 3.0
    assert evaluate("sin(0)") == 0.0
    assert evaluate("cos(0)") == 1.0
    assert evaluate("exp(0)") == 1.0


def test_logistic_boundary_expression():
    ast = parse_expr("exp(-1)/(1 + exp(-t))", {"t"})
    assert eval_expr(ast, {"t": 0.0}) == pytest.approx(0.18393972058572117, abs=0, rel=1e-15)
    assert eval_expr(ast, {"t": 50.0}) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_variables_are_slot_restricted():
    node = parse_expr("x + s", {"x", "s"})
    assert eval_expr(node, {"x": 1.0, "s": 2.0}) == 3.0
    with pytest.raises(ParseError, match="allowed variables here: x"):
        parse_expr("x + s", {"x"})
    with pytest.raises(ParseError, match="allowed variables here: none"):
        parse_expr("x", set())


@pytest.mark.parametrize(
    "text,position",
    [
        ("1 + $", 4),
        ("x + ", 4),
        ("(1 + 2", 6),
        ("1 + 2)", 5),
        ("exp(1, 2)", 5),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_expr(text, {"x"})
    assert excinfo.value.position == position
    assert f"(at position {position})" in str(excinfo.value)


def test_parse_error_cases():
    with pytest.raises(ParseError, match="unknown function"):
        parse_expr("foo(1)", set())
    with pytest.raises(ParseError, match="must be called"):
        parse_expr("exp", set())
    with pytest.raises(ParseError, match="overflows"):
        parse_expr("1e999", set())
    with pytest.raises(ParseError, match="expected a value"):
        parse_expr("", set())
    with pytest.raises(ParseError, match="trailing"):
        parse_expr("1 2", set())


def test_eval_domain_errors():
    with pytest.raises(EvalError, match="log"):
        evaluate("log(0)")
    with pytest.raises(EvalError, match="log"):
        evaluate("log(0 - 1)")
    with pytest.raises(EvalError, match="sqrt"):
        evaluate("sqrt(0 - 1)")
    with pytest.raises(EvalError, match="division by zero"):
        evaluate("1/0")
    with pytest.raises(EvalError, match="negative base"):
        evaluate("(0 - 2)^0.5")
    with pytest.raises(EvalError, match="failed"):
        evaluate("exp(1000)")


def test_nan_result_raises():
    with pytest.raises(EvalError, match="evaluates to NaN"):
        evaluate("1e308*10 - 1e308*10")
    with pytest.raises(EvalError, match="evaluates to NaN"):
        evaluate("x*0", {"x"}, x=math.inf)
    # an infinite result is not an error
    assert evaluate("1e308*10") == math.inf


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "^"])
def test_leftmost_error_is_raised_first(op):
    # the constant right operand fails too, but only after the left one
    node = parse_expr(f"log(x) {op} sqrt(0 - 1)", {"x"})
    for _ in range(2):
        with pytest.raises(EvalError, match="log of non-positive value 0.0"):
            eval_expr(node, {"x": 0.0})
        with pytest.raises(EvalError, match="sqrt of negative value -1.0"):
            eval_expr(node, {"x": 1.0})


def test_eval_missing_binding():
    node = parse_expr("x", {"x"})
    with pytest.raises(EvalError, match="no value bound"):
        eval_expr(node, {})


@pytest.mark.parametrize(
    "text",
    [
        "1 + x*2",
        "-x^2",
        "(-x)^2",
        "x^(1 + x)",
        "2*(x + 1)",
        "-(x + 1)",
        "exp(-x)/2",
        "abs(x) - e^x",
        "1 - 2 - 3",
        "x/(2*x)",
        "0.5 + x/(1 - exp(-1))",
        "cos(pi*x)",
        "x^2^3",
    ],
)
def test_format_round_trip(text):
    first = parse_expr(text, {"x"})
    rendered = format_expr(first)
    second = parse_expr(rendered, {"x"})
    assert first == second
    # and the round trip is a fixed point of formatting
    assert format_expr(second) == rendered


def test_round_trip_preserves_value():
    text = "0.5 + x/(1 - exp(-1))"
    first = parse_expr(text, {"x"})
    second = parse_expr(format_expr(first), {"x"})
    for x in (0.0, 0.3, 1.0):
        assert eval_expr(first, {"x": x}) == eval_expr(second, {"x": x})


_REFERENCE_CONSTANTS = {"e": math.e, "pi": math.pi}

_REFERENCE_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": abs,
}


def reference_eval(node, bindings):
    """The tree-walking evaluator the compiled one replaced, kept as the oracle."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return _REFERENCE_CONSTANTS[node.name]
    if isinstance(node, Var):
        try:
            return float(bindings[node.name])
        except KeyError:
            raise EvalError(f"no value bound for variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -reference_eval(node.operand, bindings)
    if isinstance(node, Call):
        arg = reference_eval(node.arg, bindings)
        if node.func == "log" and arg <= 0.0:
            raise EvalError(f"log of non-positive value {arg!r}")
        if node.func == "sqrt" and arg < 0.0:
            raise EvalError(f"sqrt of negative value {arg!r}")
        try:
            return float(_REFERENCE_FUNCTIONS[node.func](arg))
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"{node.func}({arg!r}) failed: {exc}") from exc
    if isinstance(node, BinOp):
        left = reference_eval(node.left, bindings)
        right = reference_eval(node.right, bindings)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            if right == 0.0:
                raise EvalError("division by zero")
            return left / right
        if node.op == "^":
            if left < 0.0 and not (math.isfinite(right) and right == math.floor(right)):
                raise EvalError(f"negative base {left!r} with non-integer exponent {right!r}")
            try:
                result = left**right
            except (OverflowError, ZeroDivisionError) as exc:
                raise EvalError(f"{left!r} ^ {right!r} failed: {exc}") from exc
            if isinstance(result, complex):
                raise EvalError(f"{left!r} ^ {right!r} is not real")
            return result
    raise EvalError(f"unknown AST node {node!r}")


_LEAVES = st.one_of(
    st.builds(Num, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
    st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])),
    st.builds(Var, st.just("x")),
    st.builds(Const, st.sampled_from(sorted(_REFERENCE_CONSTANTS))),
)

_ASTS = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(_REFERENCE_FUNCTIONS)), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    ),
    max_leaves=12,
)

_POINTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
)


def outcome(evaluate, node, bindings):
    try:
        return ("value", evaluate(node, bindings))
    except EvalError as exc:
        return ("error", str(exc))


@settings(max_examples=400, deadline=None)
@given(node=_ASTS, x=_POINTS)
def test_compiled_evaluation_matches_the_tree_walk(node, x):
    expected = outcome(reference_eval, node, {"x": x})
    actual = outcome(eval_expr, node, {"x": x})
    if expected[0] == "value" and math.isnan(expected[1]):
        assert actual[0] == "error" and "evaluates to NaN" in actual[1]
    elif expected[0] == "value":
        assert actual[0] == "value"
        assert type(actual[1]) is float
        assert actual[1].hex() == expected[1].hex()
    else:
        assert actual == expected
    # a second call reuses the compiled closure and gives the same outcome
    assert outcome(eval_expr, node, {"x": x}) == actual


@settings(max_examples=300, deadline=None)
@given(node=_ASTS)
def test_format_then_parse_rebuilds_any_ast(node):
    assert parse_expr(format_expr(node), {"x"}) == node


def test_evaluated_ast_keeps_its_value_semantics():
    text = "exp(-x)/2 + log(x)*sqrt(x + 1) - x^2"
    node = parse_expr(text, {"x"})
    with pytest.raises(EvalError, match="log of non-positive value 0.0"):
        eval_expr(node, {"x": 0.0})
    expected = math.exp(-1.0) / 2 + math.log(1.0) * math.sqrt(2.0) - 1.0**2
    assert eval_expr(node, {"x": 1.0}) == expected
    fresh = parse_expr(text, {"x"})
    assert node == fresh
    assert hash(node) == hash(fresh)
    assert repr(node) == repr(fresh)
    assert format_expr(node) == format_expr(fresh)
    assert pickle.dumps(node) == pickle.dumps(fresh)
    copy = pickle.loads(pickle.dumps(node))
    assert copy == fresh
    assert eval_expr(copy, {"x": 1.0}) == expected


def test_a_freed_ast_never_lends_its_closure():
    # Freed ASTs hand their memory, and so their id, to the next parse.
    for i in range(200):
        assert eval_expr(parse_expr(f"{i} + x", {"x"}), {"x": 0.5}) == i + 0.5
    gc.collect()
    node = parse_expr("x", {"x"})
    before = len(exprdsl._COMPILED)
    for i in range(50):
        eval_expr(parse_expr(f"{i}*x", {"x"}), {"x": 1.0})
    eval_expr(node, {"x": 1.0})
    gc.collect()
    assert len(exprdsl._COMPILED) == before + 1
