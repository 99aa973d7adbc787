"""A small arithmetic language for coefficient functions in config files.

Grammar (whitespace-insensitive)::

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'

'^' binds tighter than unary minus, so ``-2^2`` is ``-(2^2) = -4``; a
negative base needs parentheses.  Names resolve, in order, to the function
table (exp, log, sin, cos, sqrt, abs; one argument each), the constants
``e`` and ``pi``, and finally the caller-supplied variable set.

Each AST is compiled once, on its first evaluation, into a tree of
closures that do the same float operations and checks in the same order.
Compiling folds each subtree that reads no variable into its value, unless
evaluating it raises, and specialises '+' and '*' with a constant left
operand and '/' by a nonzero constant, so they skip a call and a check.
Each :func:`eval_expr` call still evaluates one point, and raises
:class:`EvalError` instead of letting NaN leak: ``log`` of a non-positive
value, ``sqrt`` of a negative value, division by zero, and '^' on a negative
base with a non-integer exponent all fail loudly, and so does a result that
is NaN.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

from .errors import EvalError, ParseError


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "ExprAst"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ExprAst"
    right: "ExprAst"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExprAst"


ExprAst = Union[Num, Var, Const, Neg, BinOp, Call]

_CONSTANTS = {"e": math.e, "pi": math.pi}

_FUNCTIONS = {
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "abs": math.fabs,
}

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.index = 0
        self.allowed_vars = allowed_vars

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def advance(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, symbol: str) -> None:
        kind, text, pos = self.peek()
        if kind != "op" or text != symbol:
            shown = text if kind != "end" else "end of input"
            raise ParseError(f"expected {symbol!r}, found {shown!r}", pos)
        self.advance()

    def parse_sum(self) -> ExprAst:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> ExprAst:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in ("*", "/"):
                self.advance()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> ExprAst:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> ExprAst:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> ExprAst:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows a float", pos)
            return Num(value)
        if kind == "name":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg = self.parse_sum()
                arg_kind, arg_text, arg_pos = self.peek()
                if arg_kind == "op" and arg_text == ",":
                    raise ParseError(f"function {text!r} takes exactly one argument", arg_pos)
                self.expect_op(")")
                return Call(text, arg)
            if text in _CONSTANTS:
                return Const(text)
            if text in self.allowed_vars:
                return Var(text)
            if text in _FUNCTIONS:
                raise ParseError(f"function {text!r} must be called with an argument", pos)
            allowed = ", ".join(sorted(self.allowed_vars)) or "none"
            raise ParseError(f"unknown name {text!r} (allowed variables here: {allowed})", pos)
        if kind == "op" and text == "(":
            node = self.parse_sum()
            self.expect_op(")")
            return node
        shown = text if kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", pos)


def parse_expr(text: str, allowed_vars: Iterable[str]) -> ExprAst:
    """Parse ``text`` into an AST, permitting only the named variables."""
    allowed = frozenset(allowed_vars)
    parser = _Parser(_tokenize(text), allowed)
    node = parser.parse_sum()
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {trailing!r}", pos)
    return node


_Compiled = Callable[[Mapping[str, float]], float]

# id(node) -> closure.  Keyed by identity so a lookup never hashes the
# (recursive, frozen) dataclass, and held apart from the node so an evaluated
# AST still compares, hashes and pickles as before.  A finalizer drops the
# entry when the node is freed, before its id can be reused.
_COMPILED: dict[int, _Compiled] = {}


def _compile(node: ExprAst) -> Union[float, _Compiled]:
    """Compile ``node`` to a closure that evaluates it at given bindings.

    A subtree that reads no variable is folded: its closure runs once, here,
    and its value is returned instead.  If that run raises, the subtree stays
    a closure, so each evaluation raises the same error at the same point.
    """
    match node:
        case Num(value):
            return value
        case Const(name):
            return _CONSTANTS[name]
        case Var(name):

            def variable(bindings: Mapping[str, float]) -> float:
                try:
                    return float(bindings[name])
                except KeyError:
                    raise EvalError(f"no value bound for variable {name!r}") from None

            return variable
        case Neg(operand):
            operands = [_compile(operand)]
            negated = _closure(operands[0])
            compiled = lambda bindings: -negated(bindings)
        case Call(func, arg):
            operands = [_compile(arg)]
            compiled = _compile_call(func, _closure(operands[0]))
        case BinOp(op, left, right):
            operands = [_compile(left), _compile(right)]
            compiled = _compile_binop(op, *operands)
        case _:
            raise EvalError(f"unknown AST node {node!r}")
    if any(map(callable, operands)):
        return compiled
    try:
        return compiled({})
    except EvalError:
        return compiled


def _closure(compiled: Union[float, _Compiled]) -> _Compiled:
    return compiled if callable(compiled) else lambda bindings: compiled


def _compile_call(func: str, arg: _Compiled) -> _Compiled:
    function = _FUNCTIONS[func]

    def call(bindings: Mapping[str, float]) -> float:
        value = arg(bindings)
        if func == "log" and value <= 0.0:
            raise EvalError(f"log of non-positive value {value!r}")
        if func == "sqrt" and value < 0.0:
            raise EvalError(f"sqrt of negative value {value!r}")
        try:
            return function(value)
        except (OverflowError, ValueError) as exc:
            raise EvalError(f"{func}({value!r}) failed: {exc}") from exc

    return call


def _compile_binop(op: str, left: Union[float, _Compiled], right: Union[float, _Compiled]) -> _Compiled:
    # An operand that is not callable is a folded constant, which cannot
    # fail, so taking it inline keeps the same operations in the same order.
    if not callable(left) and callable(right):
        if op == "+":
            return lambda bindings: left + right(bindings)
        if op == "*":
            return lambda bindings: left * right(bindings)
    if callable(left) and not callable(right) and op == "/" and right != 0.0:
        return lambda bindings: left(bindings) / right
    left, right = _closure(left), _closure(right)
    # Both operands are evaluated, left first, before any check, so the
    # first error raised is the leftmost one.
    if op == "+":
        return lambda bindings: left(bindings) + right(bindings)
    if op == "-":
        return lambda bindings: left(bindings) - right(bindings)
    if op == "*":
        return lambda bindings: left(bindings) * right(bindings)
    if op == "/":

        def divide(bindings: Mapping[str, float]) -> float:
            numerator = left(bindings)
            denominator = right(bindings)
            if denominator == 0.0:
                raise EvalError("division by zero")
            return numerator / denominator

        return divide
    if op == "^":

        def power(bindings: Mapping[str, float]) -> float:
            base = left(bindings)
            exponent = right(bindings)
            if base < 0.0 and not (math.isfinite(exponent) and exponent == math.floor(exponent)):
                raise EvalError(
                    f"negative base {base!r} with non-integer exponent {exponent!r}"
                )
            try:
                return base**exponent
            except (OverflowError, ZeroDivisionError) as exc:
                raise EvalError(f"{base!r} ^ {exponent!r} failed: {exc}") from exc

        return power
    raise EvalError(f"unknown operator {op!r}")


def eval_expr(node: ExprAst, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST at a point given as a name -> value mapping.

    The AST is compiled on its first evaluation; later calls reuse the
    closure.  A bare :class:`Num` root skips that lookup.  A NaN result
    raises :class:`EvalError`, checked on every call, a Num root's too.
    """
    if type(node) is Num:
        result = node.value
    else:
        compiled = _COMPILED.get(id(node))
        if compiled is None:
            compiled = _closure(_compile(node))
            weakref.finalize(node, _COMPILED.pop, id(node), None)
            _COMPILED[id(node)] = compiled
        result = compiled(bindings)
    if result != result:
        raise EvalError(f"{format_expr(node)} evaluates to NaN at {dict(bindings)!r}")
    return result


_PREC_SUM = 1
_PREC_TERM = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _PREC_SUM
        if node.op in ("*", "/"):
            return _PREC_TERM
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def format_expr(node: ExprAst) -> str:
    """Render an AST back to text; parsing the result rebuilds the same AST."""

    def wrap(child: ExprAst, minimum: int) -> str:
        text = format_expr(child)
        if _prec(child) < minimum:
            return f"({text})"
        return text

    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({format_expr(node.arg)})"
    if isinstance(node, Neg):
        return "-" + wrap(node.operand, _PREC_NEG)
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return f"{wrap(node.left, _PREC_SUM)} {node.op} {wrap(node.right, _PREC_SUM + 1)}"
        if node.op in ("*", "/"):
            return f"{wrap(node.left, _PREC_TERM)}{node.op}{wrap(node.right, _PREC_TERM + 1)}"
        return f"{wrap(node.left, _PREC_ATOM)}^{wrap(node.right, _PREC_NEG)}"
    raise TypeError(f"not an expression node: {node!r}")  # pragma: no cover
