"""A small arithmetic language for coefficient functions in config files.

Grammar (whitespace-insensitive)::

    sum    := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative
    atom   := NUMBER | NAME | NAME '(' sum ')' | '(' sum ')'

'^' binds tighter than unary minus, so ``-2^2`` is ``-(2^2) = -4``; a
negative base needs parentheses.  How tightly each operator binds is
written once, in ``_BINDS``, which the parser, the formatter and the
compiler all read.  Names resolve, in order, to the function table (exp,
log, sin, cos, sqrt, abs; one argument each), the constants ``e`` and
``pi``, and finally the caller-supplied variable set.

An expression may nest at most 100 levels, where each operator, function
call and pair of parentheses is one; :func:`format_expr` and
:func:`eval_expr` refuse a deeper hand-built AST.  Each AST is compiled
once, on its first evaluation, into one Python function that does the same
float operations and checks in the same order; a subtree that reads no
variable is folded into its value, unless evaluating it raises.  Each
:func:`eval_expr` call still evaluates one point, and raises
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

# The levels an expression may nest; this keeps the parser's, the
# compiler's and Python's own recursion far from their limits.
_MAX_DEPTH = 100

# How tightly each binary operator binds.  Unary minus binds at 3 and a
# number, name, call or group at 5.
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_BINDS = 3
_ATOM_BINDS = 5

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

    # parse_sum parses an expression ``depth`` levels below the root, made
    # of operators that bind at least ``binds`` tightly, and returns it with
    # its reach, the depth of its deepest leaf.  A nested part too deep is
    # refused at its opening token, before the recursion; an operator that
    # deepens the tree too far, at the operator.
    def nest(self, reach: int, pos: int) -> int:
        if reach > _MAX_DEPTH:
            raise ParseError(f"expression is nested more than {_MAX_DEPTH} levels deep", pos)
        return reach

    def parse_sum(self, depth: int, binds: int = 1) -> tuple[ExprAst, int]:
        kind, text, pos = self.peek()
        if kind == "op" and text == "-":  # its operand takes in any '^'
            self.advance()
            operand, reach = self.parse_sum(self.nest(depth + 1, pos), _NEG_BINDS)
            node = Neg(operand)
        else:
            node, reach = self.parse_atom(depth)
        while True:
            kind, text, pos = self.peek()
            if kind != "op" or _BINDS.get(text, 0) < binds:
                return node, reach
            self.advance()
            if text == "^":  # right-associative, and the exponent may be negated
                exponent, exponent_reach = self.parse_sum(self.nest(depth + 1, pos), _NEG_BINDS)
                node, reach = BinOp(text, node, exponent), self.nest(max(reach + 1, exponent_reach), pos)
            else:
                right, right_reach = self.parse_sum(depth, _BINDS[text] + 1)
                node, reach = BinOp(text, node, right), self.nest(max(reach, right_reach) + 1, pos)

    def parse_atom(self, depth: int) -> tuple[ExprAst, int]:
        kind, text, pos = self.advance()
        if kind == "num":
            value = float(text)
            if not math.isfinite(value):
                raise ParseError(f"number literal {text!r} overflows a float", pos)
            return Num(value), depth
        if kind == "name":
            next_kind, next_text, _ = self.peek()
            if next_kind == "op" and next_text == "(":
                if text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                arg, reach = self.parse_sum(self.nest(depth + 1, pos))
                arg_kind, arg_text, arg_pos = self.peek()
                if arg_kind == "op" and arg_text == ",":
                    raise ParseError(f"function {text!r} takes exactly one argument", arg_pos)
                self.expect_op(")")
                return Call(text, arg), reach
            if text in _CONSTANTS:
                return Const(text), depth
            if text in self.allowed_vars:
                return Var(text), depth
            if text in _FUNCTIONS:
                raise ParseError(f"function {text!r} must be called with an argument", pos)
            allowed = ", ".join(sorted(self.allowed_vars)) or "none"
            raise ParseError(f"unknown name {text!r} (allowed variables here: {allowed})", pos)
        if kind == "op" and text == "(":
            node, reach = self.parse_sum(self.nest(depth + 1, pos))
            self.expect_op(")")
            return node, reach
        shown = text if kind != "end" else "end of input"
        raise ParseError(f"expected a value, found {shown!r}", pos)


def parse_expr(text: str, allowed_vars: Iterable[str]) -> ExprAst:
    """Parse ``text`` into an AST, permitting only the named variables."""
    allowed = frozenset(allowed_vars)
    parser = _Parser(_tokenize(text), allowed)
    node, _ = parser.parse_sum(0)
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing input {trailing!r}", pos)
    return node


# id(node) -> compiled function.  Keyed by identity so a lookup never hashes
# the (recursive, frozen) dataclass, and held apart from the node so an
# evaluated AST still compares, hashes and pickles as before.  A finalizer
# drops the entry when the node is freed, before its id can be reused.
_COMPILED: dict[int, Callable] = {}


def _call(func: str, value: float) -> float:
    if func == "log" and value <= 0.0:
        raise EvalError(f"log of non-positive value {value!r}")
    if func == "sqrt" and value < 0.0:
        raise EvalError(f"sqrt of negative value {value!r}")
    try:
        return _FUNCTIONS[func](value)
    except (OverflowError, ValueError) as exc:
        raise EvalError(f"{func}({value!r}) failed: {exc}") from exc


def _power(base: float, exponent: float) -> float:
    if base < 0.0 and not (math.isfinite(exponent) and exponent == math.floor(exponent)):
        raise EvalError(f"negative base {base!r} with non-integer exponent {exponent!r}")
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError) as exc:
        raise EvalError(f"{base!r} ^ {exponent!r} failed: {exc}") from exc


def _compile(node: ExprAst) -> Callable[[Mapping[str, float]], float]:
    """Compile ``node`` to one Python function of the bindings ``b``.

    ``+ - * /`` and unary minus are inline, ``^`` and the functions call the
    checked helpers, a variable is ``float(b[name])`` and a number ``k[i]``.
    A subtree that reads no variable runs once, here, and is folded into one
    constant; if that run raises, it stays code.  Every string written into
    the source is an operator or function name from the fixed tables, or a
    variable name of type str, written as its repr.
    """
    k: list = []
    namespace = {"__builtins__": {}, "float": float, "_call": _call, "_power": _power, "k": k}
    folding = False

    def render(node: ExprAst, minimum: int = 0, depth: int = 0) -> tuple[str, bool]:
        # node's source, parenthesised if it binds looser than minimum, and
        # whether that source is one folded constant k[i]
        if depth > _MAX_DEPTH:
            raise EvalError(f"expression is nested more than {_MAX_DEPTH} levels deep")
        mark = len(k)
        match node:
            case Num(value):
                k.append(value)
                return f"k[{mark}]", True
            case Const(name) if type(name) is str and name in _CONSTANTS:
                k.append(_CONSTANTS[name])
                return f"k[{mark}]", True
            case Var(name) if type(name) is str:
                return f"float(b[{name!r}])", False
            case Neg(operand):
                operand, folded = render(operand, _NEG_BINDS, depth + 1)
                source = "-" + operand
            case Call(func, arg) if type(func) is str and func in _FUNCTIONS:
                arg, folded = render(arg, 0, depth + 1)
                source = f"_call({func!r}, {arg})"
            case BinOp(op, left, right) if type(op) is str and op in _BINDS:
                binds = 0 if op == "^" else _BINDS[op]  # a call's arguments need no parentheses
                left, left_folded = render(left, binds, depth + 1)
                right, right_folded = render(right, binds + 1, depth + 1)
                source = f"_power({left}, {right})" if op == "^" else f"{left} {op} {right}"
                folded = left_folded and right_folded
            case Var(name) | Const(name) | Call(name) | BinOp(name):
                raise EvalError(f"cannot compile {type(node).__name__} {name!r}")
            case _:
                raise EvalError(f"unknown AST node of type {type(node).__name__}")
        if folded and folding:
            try:
                k[mark:] = [eval(source, namespace)]
                return f"k[{mark}]", True
            except (EvalError, ZeroDivisionError):
                pass
        return (f"({source})" if _prec(node) < minimum else source), False

    # A first pass folds nothing, so a node that cannot be rendered, or one
    # nested too deep, raises before anything runs.
    render(node)
    folding = True
    k.clear()
    source, _ = render(node)
    namespace["k"] = tuple(k)
    return eval(f"lambda b: {source}", namespace)


def eval_expr(node: ExprAst, bindings: Mapping[str, float]) -> float:
    """Evaluate an AST at a point given as a name -> value mapping.

    The AST is compiled on its first evaluation; later calls reuse the
    function.  A bare :class:`Num` root skips that lookup.  A NaN result
    raises :class:`EvalError`, checked on every call, a Num root's too.
    """
    if type(node) is Num:
        result = node.value
    else:
        compiled = _COMPILED.get(id(node))
        if compiled is None:
            compiled = _compile(node)
            weakref.finalize(node, _COMPILED.pop, id(node), None)
            _COMPILED[id(node)] = compiled
        try:
            result = compiled(bindings)
        except ZeroDivisionError:
            raise EvalError("division by zero") from None
        except KeyError as exc:
            raise EvalError(f"no value bound for variable {exc.args[0]!r}") from None
    if result != result:
        raise EvalError(f"{format_expr(node)} evaluates to NaN at {dict(bindings)!r}")
    return result


def _prec(node: ExprAst) -> int:
    if isinstance(node, BinOp):
        return _BINDS[node.op]
    return _NEG_BINDS if isinstance(node, Neg) else _ATOM_BINDS


def format_expr(node: ExprAst) -> str:
    """Render an AST back to text.

    Parsing the text of an AST that :func:`parse_expr` returned rebuilds the
    same AST; a hand-built one may read back differently (``Num(-1.0)``
    reads back as ``Neg(Num(1.0))``).  An AST nested more than 100 levels
    raises :class:`EvalError`, as in :func:`eval_expr`.
    """

    def show(node: ExprAst, minimum: int, depth: int) -> str:
        # node's text, parenthesised if it binds looser than minimum
        if depth > _MAX_DEPTH:
            raise EvalError(f"expression is nested more than {_MAX_DEPTH} levels deep")
        match node:
            case Num(value):
                return repr(value)
            case Var(name) | Const(name):
                return name
            case Call(func, arg):
                return f"{func}({show(arg, 0, depth + 1)})"
            case Neg(operand):
                text = "-" + show(operand, _NEG_BINDS, depth + 1)
            case BinOp(op, left, right) if op in _BINDS:
                binds = _BINDS[op]
                # '^' is right-associative and its base an atom
                low, high = (_ATOM_BINDS, _NEG_BINDS) if op == "^" else (binds, binds + 1)
                spaced = f" {op} " if binds == 1 else op
                text = show(left, low, depth + 1) + spaced + show(right, high, depth + 1)
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        return f"({text})" if _prec(node) < minimum else text

    return show(node, 0, 0)
