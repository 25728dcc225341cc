"""The expression compiler against the tree-walking oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import csgnash.expr as expr
from csgnash.errors import ModelTypeError, UndeclaredSymbol
from csgnash.expr import (
    Binary,
    Call,
    Lit,
    TokenStream,
    Unary,
    Var,
    compile_expr,
    eval_expr,
    expr_to_text,
    parse_expression,
    tokenize,
)

from oracles import walk_expr

F = Fraction

# x and y are state slots, c and d constants, u is unknown.
SLOTS = {"x": 0, "y": 1}
TYPES = {"x": int, "y": bool}
CONSTANTS = {"c": F(3, 4), "d": True}
NAMES = ("x", "y", "c", "d", "u")

values = st.one_of(st.booleans(), st.integers(-3, 3),
                   st.sampled_from([F(1, 2), F(-3, 4), F(2), F(5, 3)]))
leaves = st.one_of(
    values.map(Lit),
    st.builds(Var, st.sampled_from(NAMES), st.integers(1, 9),
              st.integers(1, 9)))
small_leaves = st.one_of(st.integers(-2, 3).map(Lit),
                         st.sampled_from(NAMES).map(Var))


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(["-", "!"]), children),
        st.builds(Binary,
                  st.sampled_from(["+", "-", "*", "/", "=", "!=", "<", "<=",
                                   ">", ">=", "&", "|"]),
                  children, children),
        st.builds(Call, st.sampled_from(["min", "max"]),
                  st.lists(children, min_size=1, max_size=3).map(tuple)),
        st.builds(Call, st.sampled_from(["floor", "ceil"]),
                  st.tuples(children)),
        st.builds(Call, st.just("mod"), st.tuples(children, children)),
        # a small exponent keeps nested powers from exploding
        st.builds(Call, st.just("pow"), st.tuples(children, small_leaves)),
    )


expressions = st.recursive(leaves, _extend, max_leaves=12)


def outcome(fn):
    """The value with its type, or the exception class with its message."""
    try:
        value = fn()
    except Exception as err:
        return ("raises", type(err), str(err))
    return ("value", type(value), value)


def parse(text):
    return parse_expression(TokenStream(tokenize(text)))


class TestAgainstWalker:
    @settings(max_examples=400, deadline=None)
    @given(expressions, values, values)
    def test_compiled_matches_walk(self, node, x, y):
        env = {**CONSTANTS, "x": x, "y": y}
        expected = outcome(lambda: walk_expr(node, env))
        compiled = compile_expr(node, CONSTANTS, SLOTS)
        assert outcome(lambda: compiled((x, y))) == expected
        assert outcome(lambda: eval_expr(node, env)) == expected

    @settings(max_examples=400, deadline=None)
    @given(expressions, st.integers(-3, 3), st.booleans())
    def test_typed_slots_match_walk(self, node, x, y):
        # with the slots' types declared, well-typed nodes skip their checks
        # and ill-typed ones still raise the walker's error
        env = {**CONSTANTS, "x": x, "y": y}
        expected = outcome(lambda: walk_expr(node, env))
        compiled = compile_expr(node, CONSTANTS, SLOTS, TYPES)
        assert outcome(lambda: compiled((x, y))) == expected


class TestSemantics:
    def test_short_circuit_on_a_constant(self):
        node = parse("false & (1 < true)")
        assert walk_expr(node, {}) is False
        assert eval_expr(node, {}) is False
        assert compile_expr(node, {}, {})(()) is False

    def test_short_circuit_with_state(self):
        fn = compile_expr(parse("x > 0 | (1 < true)"), {}, {"x": 0})
        assert fn((1,)) is True
        with pytest.raises(ModelTypeError, match="expected a number"):
            fn((0,))

    def test_constant_error_is_raised_only_when_reached(self):
        fn = compile_expr(parse("x = 0 | 1/0 > 0"), {}, {"x": 0})
        assert fn((0,)) is True
        with pytest.raises(ModelTypeError, match="division by zero"):
            fn((1,))

    def test_unknown_symbol_reports_the_reached_position(self):
        # the two u's are equal sub-trees; the error names the one reached
        node = parse("(false & u > 0) | u > 0")
        with pytest.raises(UndeclaredSymbol) as walked:
            walk_expr(node, {})
        with pytest.raises(UndeclaredSymbol) as compiled:
            compile_expr(node, {}, {})(())
        assert str(compiled.value) == str(walked.value) == \
            "1:19: unknown symbol 'u'"

    def test_negative_powers_are_exact(self):
        for text, value in (("pow(2, -1)", F(1, 2)), ("pow(2/3, -2)", F(9, 4)),
                            ("pow(2, 3)", 8), ("pow(2, 4/2)", 4)):
            node = parse(text)
            for got in (walk_expr(node, {}), compile_expr(node, {}, {})(())):
                assert got == value and type(got) is type(value)

    @pytest.mark.parametrize("text, message", [
        ("pow(2, 0.5)", "the exponent of pow(2, 0.5) must be an integer"),
        ("pow(2, true)", "the exponent of pow(2, true) must be an integer"),
        ("mod(2.5, 2)", "the dividend of mod(2.5, 2) must be an integer"),
        ("mod(5, x)", "the divisor of mod(5, x) must be an integer"),
        ("1 / (x - x)", "division by zero in (1 / (x - x))"),
        ("mod(3, 0)", "division by zero in mod(3, 0)"),
        ("pow(0, -1)", "division by zero in pow(0, -(1))"),
    ])
    def test_integer_rule_and_zero_divisors(self, text, message):
        # the one integer rule and a zero divisor are model errors, named
        # by their expression, never a truncation or a ZeroDivisionError
        node = parse(text)
        for evaluate in (lambda: walk_expr(node, {"x": F(1, 2)}),
                         lambda: compile_expr(node, {}, {"x": 0})((F(1, 2),))):
            with pytest.raises(ModelTypeError) as err:
                evaluate()
            assert str(err.value) == message

    def test_whole_rationals_are_integers(self):
        assert expr.integer(F(6, 3), "n") == 2
        assert type(expr.integer(F(6, 3), "n")) is int
        for bad in (True, F(1, 2), 0.0, "1"):
            with pytest.raises(ModelTypeError, match="n must be an integer"):
                expr.integer(bad, "n")

    def test_division_is_exact(self):
        assert compile_expr(parse("x / 3"), {}, {"x": 0})((2,)) == F(2, 3)

    def test_slots_read_any_container(self):
        fn = compile_expr(parse("t <= D"), {"D": 8}, {"t": "t"})
        assert fn({"t": 8}) is True and fn({"t": 9}) is False

    def test_constants_are_folded_once(self, monkeypatch):
        # q*q*q is evaluated at compile time; the compiled guard evaluates
        # no multiplication per call
        calls = []
        original = expr._NUMERIC_OPS["*"]

        def counting(a, b):
            calls.append((a, b))
            return original(a, b)
        monkeypatch.setitem(expr._NUMERIC_OPS, "*", counting)
        fn = compile_expr(parse("x < q*q*q"), {"q": F(9, 10)}, {"x": 0})
        folded = len(calls)
        assert folded == 2
        assert fn((0,)) is True and fn((1,)) is False
        assert len(calls) == folded

    def test_well_typed_nodes_skip_type_checks(self, monkeypatch):
        calls = []

        def counting(check):
            def wrapped(value, node):
                calls.append(node)
                return check(value, node)
            return wrapped
        for name in ("_need_num", "_need_bool"):
            monkeypatch.setattr(expr, name, counting(getattr(expr, name)))
        node = parse("!y & min(x + 1, c) > 0 | -x = 1")
        typed = compile_expr(node, CONSTANTS, SLOTS, TYPES)
        assert typed((1, False)) is True and typed((-2, False)) is False
        assert not calls
        # untyped slots are checked where they are read
        assert compile_expr(node, CONSTANTS, SLOTS)((1, False)) is True
        assert [expr_to_text(n) for n in calls] == ["!(y)", "(x + 1)",
                                                    "(x + 1)"]
        with pytest.raises(ModelTypeError, match=r"expected a number in -\(y\)"):
            compile_expr(parse("x = 0 | -y > 0"), {}, SLOTS, TYPES)((1, True))
