import gc
import math
import pickle
import re

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
        ("2^-3^2", 0.001953125),
        ("-2^-2", -0.25),
        ("2*-3^2", -18.0),
        ("1 - -2*3", 7.0),
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
        ("2^", 2),
        ("x^-", 3),
        ("2 * / 3", 4),
        ("-", 1),
        ("2^*3", 2),
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


# Mostly constant trees, so that most subtrees are folded at compile time.
_MOSTLY_CONSTANT_ASTS = st.recursive(
    st.one_of(
        st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1e308])),
        st.builds(Num, st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)),
        st.builds(Const, st.sampled_from(sorted(_REFERENCE_CONSTANTS))),
        st.builds(Var, st.just("x")),
    ),
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Call, st.sampled_from(sorted(_REFERENCE_FUNCTIONS)), children),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
    ),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(node=_MOSTLY_CONSTANT_ASTS, x=_POINTS)
def test_folded_evaluation_matches_the_tree_walk(node, x):
    # the oracle's own checks, run on trees whose subtrees mostly fold
    test_compiled_evaluation_matches_the_tree_walk.hypothesis.inner_test(node, x)


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


def test_constant_subtree_is_evaluated_once(monkeypatch):
    calls = []
    exp = exprdsl._FUNCTIONS["exp"]
    monkeypatch.setitem(exprdsl._FUNCTIONS, "exp", lambda value: calls.append(value) or exp(value))
    node = parse_expr("x + exp(1)", {"x"})
    for i in range(100):
        assert eval_expr(node, {"x": float(i)}) == float(i) + math.e
    assert calls == [1.0]


@pytest.mark.parametrize("text", ["log(0)*x", "x^0.5 + log(0)"])
@pytest.mark.parametrize("x", [-1.0, 1.0])
def test_failing_constant_subtree_raises_where_it_did(text, x):
    node = parse_expr(text, {"x"})
    with pytest.raises(EvalError) as expected:
        reference_eval(node, {"x": x})
    for _ in range(2):
        with pytest.raises(EvalError) as actual:
            eval_expr(node, {"x": x})
        assert str(actual.value) == str(expected.value)


def test_constant_nan_subtree_is_folded_and_caught():
    node = parse_expr("(1e308*10 - 1e308*10)*x", {"x"})
    assert math.isnan(reference_eval(node, {"x": 1.0}))
    with pytest.raises(EvalError, match=r"evaluates to NaN at \{'x': 1.0\}"):
        eval_expr(node, {"x": 1.0})


def test_folded_negative_zero_keeps_its_sign_rules():
    node = parse_expr("-(0) + x", {"x"})
    expected = reference_eval(node, {"x": 0.0})
    assert eval_expr(node, {"x": 0.0}).hex() == expected.hex() == (0.0).hex()
    assert eval_expr(parse_expr("-(0)", ()), {}).hex() == (-0.0).hex()


def test_nan_number_root_still_raises():
    with pytest.raises(EvalError, match="evaluates to NaN"):
        eval_expr(Num(math.nan), {})
    assert eval_expr(Num(2.5), {}) == 2.5


# Each shape nests its 'x' n levels deep: the bound admits n = 100 and
# refuses n = 101 at the token that opens or makes the 101st level.
_DEEP_SHAPES = {
    "parentheses": (lambda n: "(" * n + "x" + ")" * n, lambda n: n - 1),
    "calls": (lambda n: "sin(" * n + "x" + ")" * n, lambda n: 4 * (n - 1)),
    "unary minus": (lambda n: "-" * n + "x", lambda n: n - 1),
    "power chain": (lambda n: "x^" * n + "x", lambda n: 2 * n - 1),
    "sum": (lambda n: "x" + " + x" * n, lambda n: 4 * n - 2),
    "product": (lambda n: "x" + "*x" * n, lambda n: 2 * n - 1),
    "power of a group": (lambda n: "(" * (n - 1) + "x" + ")" * (n - 1) + "^2", lambda n: 2 * n - 1),
}


@pytest.mark.parametrize("shape", sorted(_DEEP_SHAPES))
def test_parse_bounds_the_nesting_depth(shape):
    text, position = _DEEP_SHAPES[shape]
    bound = exprdsl._MAX_DEPTH
    assert bound == 100
    node = parse_expr(text(bound), {"x"})
    assert math.isfinite(eval_expr(node, {"x": 0.5}))
    assert parse_expr(format_expr(node), {"x"}) == node
    with pytest.raises(ParseError, match=f"nested more than {bound} levels deep") as excinfo:
        parse_expr(text(bound + 1), {"x"})
    assert excinfo.value.position == position(bound + 1)
    with pytest.raises(ParseError, match=f"nested more than {bound} levels deep"):
        parse_expr(text(1500), {"x"})


def _nested(n, wrap):
    node = Var("x")
    for _ in range(n):
        node = wrap(node)
    return node


_HAND_BUILT_SHAPES = {
    "left sum": lambda node: BinOp("+", node, Var("x")),
    "right difference": lambda node: BinOp("-", Var("x"), node),
    "right quotient": lambda node: BinOp("/", Num(2.0), node),
    "power chain": lambda node: BinOp("^", Num(1.0), node),
    "calls": lambda node: Call("abs", node),
    "negations": Neg,
}


@pytest.mark.parametrize("shape", sorted(_HAND_BUILT_SHAPES))
def test_eval_refuses_a_hand_built_ast_too_deep_to_compile(shape):
    bound = exprdsl._MAX_DEPTH
    node = _nested(bound, _HAND_BUILT_SHAPES[shape])
    assert math.isfinite(eval_expr(node, {"x": 0.5}))
    assert format_expr(_nested(bound - 1, _HAND_BUILT_SHAPES[shape])) in format_expr(node)
    for n in (bound + 1, 5000):
        node = _nested(n, _HAND_BUILT_SHAPES[shape])
        for _ in range(2):
            with pytest.raises(EvalError, match=f"nested more than {bound} levels deep"):
                eval_expr(node, {"x": 0.5})
            with pytest.raises(EvalError, match=f"nested more than {bound} levels deep"):
                format_expr(node)


def test_the_deepest_alternating_expression_compiles():
    # right operands that need parentheses and calls, alternately: the
    # generated source nests one bracket per level
    wraps = [
        lambda node: BinOp("-", Var("x"), node),
        lambda node: Call("cos", node),
        lambda node: BinOp("/", Num(3.0), node),
        lambda node: BinOp("^", node, Num(1.0)),
        lambda node: Neg(node),
    ]
    node = Var("x")
    for i in range(exprdsl._MAX_DEPTH):
        node = wraps[i % len(wraps)](node)
    assert outcome(eval_expr, node, {"x": 0.25}) == outcome(reference_eval, node, {"x": 0.25})


class _ReprInjectingStr(str):
    def __repr__(self):
        return "__import__('os')"


@pytest.mark.parametrize(
    "node,message",
    [
        (BinOp("or", Call("exp", Num(1.0)), Var("x")), "cannot compile BinOp 'or'"),
        (BinOp("); x(", Call("exp", Num(1.0)), Num(2.0)), "cannot compile BinOp '); x('"),
        (Call("__import__", Num(1.0)), "cannot compile Call '__import__'"),
        (Const("tau"), "cannot compile Const 'tau'"),
        (BinOp("+", Call("exp", Num(1.0)), Const("tau")), "cannot compile Const 'tau'"),
        (BinOp("+", Call("exp", Num(1.0)), Var(_ReprInjectingStr("x"))), "cannot compile Var __import__"),
        (Neg(Call("exp", BinOp(_ReprInjectingStr("+"), Num(1.0), Num(2.0)))), "cannot compile BinOp"),
        (Neg("x"), "unknown AST node of type str"),
    ],
)
def test_a_node_the_compiler_cannot_render_runs_nothing(monkeypatch, node, message):
    calls = []
    for name in ("_call", "_power"):
        helper = getattr(exprdsl, name)
        monkeypatch.setattr(exprdsl, name, lambda *args, helper=helper: calls.append(args) or helper(*args))
    monkeypatch.setattr(exprdsl, "eval", lambda *args: calls.append(args), raising=False)
    for _ in range(2):
        with pytest.raises(EvalError, match=re.escape(message)):
            eval_expr(node, {"x": 1.0})
    assert calls == []


def test_folded_constants_call_no_helper_per_point(monkeypatch):
    calls = {"_call": 0, "_power": 0}
    for name in calls:
        helper = getattr(exprdsl, name)

        def counted(*args, name=name, helper=helper):
            calls[name] += 1
            return helper(*args)

        monkeypatch.setattr(exprdsl, name, counted)
    mortality = parse_expr("1.05 + s/(1 - exp(-1))", {"x", "s"})
    fertility = parse_expr("2*exp(x)", {"x", "s"})
    eval_expr(mortality, {"x": 0.0, "s": 0.0})
    eval_expr(fertility, {"x": 0.0, "s": 0.0})
    calls.update(_call=0, _power=0)
    for i in range(50):
        point = {"x": i / 50, "s": i / 7}
        assert eval_expr(mortality, point) == 1.05 + point["s"] / (1 - math.exp(-1))
        assert eval_expr(fertility, point) == 2 * math.exp(point["x"])
    assert calls == {"_call": 50, "_power": 0}


def test_compiled_function_is_one_python_function():
    node = parse_expr("1.05 + s/(1 - exp(-1)) - x^2", {"x", "s"})
    eval_expr(node, {"x": 0.0, "s": 0.0})
    compiled = exprdsl._COMPILED[id(node)]
    # 1 - exp(-1) is folded: k holds 1.05, its value and 2, and only '^' calls a helper
    assert compiled.__code__.co_names == ("k", "float", "_power")
    assert len(compiled.__globals__["k"]) == 3
