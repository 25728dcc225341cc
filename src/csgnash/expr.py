"""Shared tokenizer, expression AST, parser, and compiler.

Used by both the model language and the property language.  Numbers are kept
exact: integer literals as ints, decimal literals as Fractions.
`compile_expr` turns an expression into a function of a state tuple once,
folding every constant sub-expression; `eval_expr` evaluates an expression
against a name environment through the same compiler.  Boolean and
arithmetic operators follow the usual precedence

    |  <  &  <  !  <  comparisons  <  + -  <  * /  <  unary -  <  atoms

and the functions min, max, floor, ceil, pow, mod are available.  Division
by zero (`/`, `mod`, `pow(0, e<0)`) raises ModelTypeError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ModelSyntaxError, ModelTypeError, UndeclaredSymbol

__all__ = [
    "Token", "TokenStream", "tokenize",
    "Lit", "Var", "Unary", "Binary", "Call",
    "parse_expression", "eval_expr", "compile_expr", "free_vars",
    "expr_to_text", "integer",
]

_SYMBOLS = [
    "<<", ">>", "<=", ">=", "!=", "=?", "->", "..",
    "&", "|", "!", "(", ")", "[", "]", "{", "}",
    "+", "-", "*", "/", ",", ";", ":", "=", "<", ">", "?", "'",
]


@dataclass(frozen=True)
class Token:
    kind: str          # num | id | str | sym | end
    value: object
    line: int
    col: int


def tokenize(text):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i) or c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise ModelSyntaxError("unterminated string", line, col)
            tokens.append(Token("str", text[i + 1:j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and not text.startswith("..", j):
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
                value = Fraction(text[i:j])
            else:
                value = int(text[i:j])
            tokens.append(Token("num", value, line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("id", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ModelSyntaxError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("end", None, line, col))
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.peek()
        if tok.kind != "end":
            self.pos += 1
        return tok

    def at_sym(self, *symbols):
        tok = self.peek()
        return tok.kind == "sym" and tok.value in symbols

    def take_sym(self, *symbols):
        if self.at_sym(*symbols):
            return self.next()
        return None

    def expect_sym(self, symbol):
        tok = self.next()
        if tok.kind != "sym" or tok.value != symbol:
            raise ModelSyntaxError(
                f"expected {symbol!r}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def expect_id(self):
        tok = self.next()
        if tok.kind != "id":
            raise ModelSyntaxError(
                f"expected a name, got {tok.value!r}", tok.line, tok.col)
        return tok

    def error(self, message):
        tok = self.peek()
        raise ModelSyntaxError(message, tok.line, tok.col)


# --- expression AST -----------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: object


@dataclass(frozen=True)
class Var:
    name: str
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple


_FUNCS = {"min", "max", "floor", "ceil", "pow", "mod"}
_CMP = ("=", "!=", "<=", ">=", "<", ">")


def parse_expression(ts: TokenStream, min_level=0):
    """Precedence-climbing parser; levels: 0 '|', 1 '&', 2 comparisons,
    3 additive, 4 multiplicative."""
    return _parse_or(ts) if min_level == 0 else _LEVELS[min_level](ts)


def _parse_or(ts):
    node = _parse_and(ts)
    while ts.take_sym("|"):
        node = Binary("|", node, _parse_and(ts))
    return node


def _parse_and(ts):
    node = _parse_cmp(ts)
    while ts.take_sym("&"):
        node = Binary("&", node, _parse_cmp(ts))
    return node


def _parse_cmp(ts):
    node = _parse_add(ts)
    if ts.at_sym(*_CMP):
        op = ts.next().value
        node = Binary(op, node, _parse_add(ts))
    return node


def _parse_add(ts):
    node = _parse_mul(ts)
    while ts.at_sym("+", "-"):
        op = ts.next().value
        node = Binary(op, node, _parse_mul(ts))
    return node


def _parse_mul(ts):
    node = _parse_unary(ts)
    while ts.at_sym("*", "/"):
        op = ts.next().value
        node = Binary(op, node, _parse_unary(ts))
    return node


def _parse_unary(ts):
    if ts.take_sym("-"):
        return Unary("-", _parse_unary(ts))
    if ts.take_sym("!"):
        return Unary("!", _parse_unary(ts))
    return _parse_atom(ts)


def _parse_atom(ts):
    tok = ts.peek()
    if tok.kind == "num":
        ts.next()
        return Lit(tok.value)
    if tok.kind == "id":
        ts.next()
        if tok.value in ("true", "false"):
            return Lit(tok.value == "true")
        if tok.value in _FUNCS and ts.at_sym("("):
            ts.next()
            args = [parse_expression(ts)]
            while ts.take_sym(","):
                args.append(parse_expression(ts))
            ts.expect_sym(")")
            return Call(tok.value, tuple(args))
        return Var(tok.value, tok.line, tok.col)
    if ts.take_sym("("):
        node = parse_expression(ts)
        ts.expect_sym(")")
        return node
    ts.error(f"expected an expression, got {tok.value!r}")


_LEVELS = {0: _parse_or, 1: _parse_and, 2: _parse_cmp, 3: _parse_add,
           4: _parse_mul}


def free_vars(node):
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Unary):
        return free_vars(node.operand)
    if isinstance(node, Binary):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Call):
        out = set()
        for a in node.args:
            out |= free_vars(a)
        return out
    return set()


def integer(value, what):
    """`value` as an int: the one rule for what a model integer is.  An int,
    or a Fraction with denominator 1; never a bool or anything else."""
    if type(value) is int:
        return value
    if type(value) is Fraction and value.denominator == 1:
        return value.numerator
    raise ModelTypeError(f"{what} must be an integer")


def _need_num(value, node):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ModelTypeError(f"expected a number in {expr_to_text(node)}")
    return value


def _need_bool(value, node):
    if not isinstance(value, bool):
        raise ModelTypeError(f"expected a boolean in {expr_to_text(node)}")
    return value


def _divisor(value, node):
    if value == 0:
        raise ModelTypeError(f"division by zero in {expr_to_text(node)}")
    return value


_EQUALITY_OPS = {"=": operator.eq, "!=": operator.ne}
_NUMERIC_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
                ">=": operator.ge, "+": operator.add, "-": operator.sub,
                "*": operator.mul}


def _call(func, args, node, text):
    """`func(*args)` for evaluated arguments; `text` renders `node`."""
    if func in ("min", "max"):
        nums = [_need_num(a, node) for a in args]
        return min(nums) if func == "min" else max(nums)
    if func == "floor":
        return math.floor(_need_num(args[0], node))
    if func == "ceil":
        return math.ceil(_need_num(args[0], node))
    if func == "pow":
        base = _need_num(args[0], node)
        exponent = integer(args[1], f"the exponent of {text}")
        if exponent < 0:                  # exact, as division is
            base = Fraction(_divisor(base, node))
        return base ** exponent
    if func == "mod":
        dividend = integer(args[0], f"the dividend of {text}")
        return dividend % _divisor(
            integer(args[1], f"the divisor of {text}"), node)
    raise ModelTypeError(f"cannot evaluate {node!r}")


def eval_expr(node, env):
    """The value of `node` with every name looked up in `env`."""
    return compile_expr(node, env, {})(())


# --- compilation --------------------------------------------------------------
#
# `_compile` returns (closure, value, type).  `value` is the folded value of a
# sub-tree that reads no slot, or one of the two markers below.  `type` is
# what every value the closure returns is: bool, int, Fraction (a rational:
# an int or a Fraction) or None (unknown).  A sub-tree that raises returns
# nothing, so any type is true of it.

_STATEFUL = object()     # the sub-tree reads a slot
_RAISES = object()       # the sub-tree reads no slot, and evaluating it raises
_NUMBERS = (int, Fraction)


def compile_expr(node, constants, slots, types=None):
    """Compile `node` to a function of one state.

    A name in `slots` reads `state[slots[name]]`; any other name is looked up
    in `constants` now, and a name in neither raises UndeclaredSymbol when the
    function reaches it.  Every sub-tree that reads no slot is evaluated once,
    here, and replaced by its value; one whose evaluation raises is kept as a
    function, so its error surfaces only where evaluation reaches it.

    `types` maps a slot name to the type of all its values, bool or int.
    Each node's type follows from these and the constants; a node whose
    operands have the types it needs skips the run-time type checks, and
    any other node keeps them, so an ill-typed node raises the same error
    wherever evaluation reaches it.  Short-circuiting & and |, and exact
    division are the same for every caller.
    """
    return _compile(node, constants, slots, types or {})[0]


def _constant(value):
    kind = type(value)
    return (lambda state: value), value, (
        kind if kind in (bool, int, Fraction) else None)


def _fold(fn, values, kind):
    """`fn` with its value and type, evaluated once if no operand reads a
    slot."""
    if any(v is _STATEFUL for v in values):
        return fn, _STATEFUL, kind
    try:
        value = fn(())
    except Exception:          # raised again wherever `fn` is reached
        return fn, _RAISES, kind
    return _constant(value)


def _checking(f, need, node):
    """`f` with its value checked by `need` on each call, for an operand
    of `node` whose type is not known to be the one `node` needs."""
    def checked(state):
        return need(f(state), node)
    return checked


def _compile(node, constants, slots, types):
    if isinstance(node, Lit):
        return _constant(node.value)
    if isinstance(node, Var):
        if node.name in slots:
            return (operator.itemgetter(slots[node.name]), _STATEFUL,
                    types.get(node.name))
        if node.name in constants:
            return _constant(constants[node.name])

        def unknown(state):
            raise UndeclaredSymbol(f"unknown symbol {node.name!r}",
                                   node.line, node.col)
        return unknown, _RAISES, None
    if isinstance(node, Unary):
        f, v, kind = _compile(node.operand, constants, slots, types)
        if node.op == "-":
            if kind not in _NUMBERS:
                f, kind = _checking(f, _need_num, node), Fraction

            def fn(state):
                return -f(state)
        else:
            if kind is not bool:
                f, kind = _checking(f, _need_bool, node), bool

            def fn(state):
                return not f(state)
        return _fold(fn, (v,), kind)
    if isinstance(node, Binary):
        return _compile_binary(node, constants, slots, types)
    if isinstance(node, Call):
        return _compile_call(node, constants, slots, types)

    def fn(state):
        raise ModelTypeError(f"cannot evaluate {node!r}")
    return fn, _RAISES, None


def _compile_binary(node, constants, slots, types):
    op = node.op
    fl, vl, left = _compile(node.left, constants, slots, types)
    fr, vr, right = _compile(node.right, constants, slots, types)
    kind = bool
    if op in ("&", "|"):
        if left is not bool:
            fl = _checking(fl, _need_bool, node)
        if right is not bool:
            fr = _checking(fr, _need_bool, node)
        if op == "&":
            def fn(state):
                return fl(state) and fr(state)
        else:
            def fn(state):
                return fl(state) or fr(state)
    elif op in _EQUALITY_OPS:
        equal = _EQUALITY_OPS[op]

        def fn(state):
            return equal(fl(state), fr(state))
    else:
        apply = _NUMERIC_OPS.get(op)
        if op == "/":
            def apply(lhs, rhs):
                return Fraction(lhs) / _divisor(rhs, node)
        elif apply is None:
            def apply(lhs, rhs):
                raise ModelTypeError(f"cannot evaluate {node!r}")
        if op in ("+", "-", "*", "/"):
            kind = int if op != "/" and left is int and right is int \
                else Fraction
        if left in _NUMBERS and right in _NUMBERS:
            def fn(state):
                return apply(fl(state), fr(state))
        else:
            def fn(state):
                lhs, rhs = fl(state), fr(state)      # both before either check
                return apply(_need_num(lhs, node), _need_num(rhs, node))
    return _fold(fn, (vl, vr), kind)


def _compile_call(node, constants, slots, types):
    parts = [_compile(a, constants, slots, types) for a in node.args]
    fns = [f for f, _, _ in parts]
    kinds = [kind for _, _, kind in parts]
    func = node.func
    if func in ("min", "max") and all(k in _NUMBERS for k in kinds):
        pick = min if func == "min" else max

        def fn(state):
            return pick([f(state) for f in fns])
    else:
        text = expr_to_text(node)

        def fn(state):
            return _call(func, [f(state) for f in fns], node, text)
    kind = int if func in ("floor", "ceil", "mod") or (
        func in ("min", "max") and all(k is int for k in kinds)) else Fraction
    return _fold(fn, [v for _, v, _ in parts], kind)


def expr_to_text(node):
    if isinstance(node, Lit):
        if isinstance(node.value, bool):
            return "true" if node.value else "false"
        if isinstance(node.value, Fraction) and node.value.denominator != 1:
            # literal Fractions come from decimal tokens, so the denominator
            # is of the form 2^a 5^b and an exact decimal rendering exists
            num, den = node.value.numerator, node.value.denominator
            twos = fives = 0
            while den % 2 == 0:
                den //= 2
                twos += 1
            while den % 5 == 0:
                den //= 5
                fives += 1
            if den != 1:
                return f"{node.value.numerator}/{node.value.denominator}"
            k = max(twos, fives)
            digits = str(abs(num) * 10 ** k // node.value.denominator).rjust(k + 1, "0")
            sign = "-" if num < 0 else ""
            return f"{sign}{digits[:-k]}.{digits[-k:]}"
        return str(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Unary):
        return f"{node.op}({expr_to_text(node.operand)})"
    if isinstance(node, Binary):
        return f"({expr_to_text(node.left)} {node.op} {expr_to_text(node.right)})"
    if isinstance(node, Call):
        return f"{node.func}({', '.join(expr_to_text(a) for a in node.args)})"
    return repr(node)
