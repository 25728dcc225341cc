"""Property language: parser, AST, printer, and state-formula evaluation.

State formulae:  true | atom | variable predicates (e.g. ``e1=0``, ``t<=D``)
| ! | & | ``|`` | ``<<C>>P~q[psi]`` | ``<<C>>R{r}~x[rho]`` |
``<<C:C'>>~x(theta)`` | ``<<C:C'>>max=?(theta)``.

Path formulae psi:  ``X phi`` | ``phi U phi`` | ``phi U<=k phi``
(``F phi`` / ``F<=k phi`` are sugar for ``true U phi`` variants).
Reward formulae rho:  ``I=k`` | ``C<=k`` | ``F phi``.
theta pairs two P[...] or two R{r}[...] objectives with ``+``.

Coalitions are player names or ``{a,b}`` sets; in ``<<C:C'>>`` the two sides
must partition the players.  Property files hold one formula per line with
``//`` comments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BadThreshold,
    CoalitionNotPartition,
    PropertySyntaxError,
    UndeclaredSymbol,
    UndefinedConstant,
    UnknownPlayer,
    UnknownReward,
)
from .expr import (
    Binary,
    Lit,
    TokenStream,
    Var,
    compile_expr,
    eval_expr,
    expr_to_text,
    parse_expression,
    tokenize,
)

__all__ = [
    "TrueF", "Atom", "VarPredicate", "Not", "And", "Or", "StateSet",
    "ZeroSumNode", "NashNode", "Objective",
    "parse_property", "parse_property_file", "property_lines", "to_text",
    "classify_horizon", "satisfying_states",
]

_RELATIONS = ("<=", ">=", "<", ">")


@dataclass(frozen=True)
class TrueF:
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class VarPredicate:
    expr: object


@dataclass(frozen=True)
class Not:
    sub: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class StateSet:
    """A state formula already resolved to the states satisfying it."""

    states: frozenset


@dataclass(frozen=True)
class Objective:
    """One side of a Nash pair, or the body of a zero-sum operator.

    kind "P": op "X" (sub2 = next formula) or "U" (sub1 U sub2, bound = k or
    None; F is normalised to U with sub1 = true).
    kind "R": op "I"/"C" (bound = k) or "F" (sub2 = target), reward names the
    structure.
    """

    kind: str
    op: str
    sub1: object = None
    sub2: object = None
    bound: object = None
    reward: str = None

    def is_finite_horizon(self):
        if self.kind == "P":
            return self.op == "X" or self.bound is not None
        return self.op in ("I", "C")


@dataclass(frozen=True)
class ZeroSumNode:
    coalition: tuple
    relation: str               # <, <=, >, >= or "max=?" / "min=?"
    threshold: object           # None for query form
    objective: Objective


@dataclass(frozen=True)
class NashNode:
    """A two-coalition equilibrium operator; doubles as the engine query."""

    coalition1: tuple
    coalition2: tuple
    relation: str               # <, <=, >, >= or "max=?"
    threshold: object
    objectives: tuple           # (Objective, Objective)


class _Parser:
    def __init__(self, ts, model, constants):
        self.ts = ts
        self.model = model
        self.constants = dict(constants or {})
        if model is not None:
            self.constants = {**model.constants, **self.constants}

    # -- state formulae -------------------------------------------------------

    def state_formula(self):
        node = self.and_formula()
        while self.ts.take_sym("|"):
            node = Or(node, self.and_formula())
        return node

    def and_formula(self):
        node = self.unary_formula()
        while self.ts.take_sym("&"):
            node = And(node, self.unary_formula())
        return node

    def unary_formula(self):
        if self.ts.take_sym("!"):
            return Not(self.unary_formula())
        return self.primary_formula()

    def primary_formula(self):
        ts = self.ts
        if ts.at_sym("<<"):
            return self.coalition_node()
        if ts.at_sym("("):
            ts.next()
            node = self.state_formula()
            ts.expect_sym(")")
            return node
        tok = ts.peek()
        if tok.kind == "id" and tok.value == "true":
            ts.next()
            return TrueF()
        if tok.kind == "id" and tok.value == "false":
            ts.next()
            return Not(TrueF())
        if tok.kind not in ("id", "num"):
            raise PropertySyntaxError(
                f"expected a state formula, got {tok.value!r}")
        left = parse_expression(ts, min_level=3)       # additive level
        if ts.at_sym("=", "!=", "<=", ">=", "<", ">"):
            op = ts.next().value
            right = parse_expression(ts, min_level=3)
            return VarPredicate(Binary(op, left, right))
        if isinstance(left, Var):
            return Atom(left.name)
        raise PropertySyntaxError(f"bare expression {expr_to_text(left)!r} "
                                  f"is not a state formula")

    # -- coalition operators --------------------------------------------------

    def coalition_node(self):
        ts = self.ts
        ts.expect_sym("<<")
        side1 = self.coalition_players()
        side2 = None
        if ts.take_sym(":"):
            side2 = self.coalition_players()
        ts.expect_sym(">>")
        if side2 is not None:
            return self.nash_tail(side1, side2)
        return self.zero_sum_tail(side1)

    def coalition_players(self):
        ts = self.ts
        if ts.take_sym("{"):
            names = [ts.expect_id().value]
            while ts.take_sym(","):
                names.append(ts.expect_id().value)
            ts.expect_sym("}")
        else:
            names = [ts.expect_id().value]
        for name in names:
            if self.model is not None and name not in self.model.players:
                raise UnknownPlayer(f"unknown player {name!r}")
        return tuple(names)

    def relation_or_query(self, queries=("max",)):
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "id" and tok.value in queries:
            ts.next()
            ts.expect_sym("=?")
            return f"{tok.value}=?", None
        if ts.at_sym(*_RELATIONS):
            op = ts.next().value
            value = self.number("threshold")
            return op, value
        raise PropertySyntaxError(
            f"expected a threshold or query operator, got {tok.value!r}")

    def number(self, what):
        node = parse_expression(self.ts, min_level=3)
        try:
            value = eval_expr(node, self.constants)
        except UndeclaredSymbol as err:
            raise UndefinedConstant(str(err))
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise BadThreshold(f"{what} must be numeric")
        return value

    def bound(self):
        value = self.number("bound")
        if value != int(value) or value < 0:
            raise BadThreshold(f"bound must be a natural number, got {value}")
        return int(value)

    def reward_name(self):
        ts = self.ts
        ts.expect_sym("{")
        tok = ts.next()
        if tok.kind not in ("id", "str"):
            raise PropertySyntaxError("expected a reward name")
        ts.expect_sym("}")
        name = tok.value
        if self.model is not None and name not in self.model.rewards:
            raise UnknownReward(f"unknown reward structure {name!r}")
        return name

    def zero_sum_tail(self, side):
        ts = self.ts
        tok = ts.expect_id()
        if tok.value in ("Pmax", "Pmin", "P"):
            if tok.value == "P":
                relation, threshold = self.relation_or_query(("max", "min"))
            else:                       # the lexer merges e.g. "Pmax"
                ts.expect_sym("=?")
                relation, threshold = tok.value[1:] + "=?", None
            if threshold is not None and not 0 <= threshold <= 1:
                raise BadThreshold("probability thresholds must lie in [0,1]")
            ts.expect_sym("[")
            objective = self.path_objective()
            ts.expect_sym("]")
            return ZeroSumNode(side, relation, threshold, objective)
        if tok.value == "R":
            reward = self.reward_name()
            relation, threshold = self.relation_or_query(("max", "min"))
            if threshold is not None and threshold < 0:
                raise BadThreshold("reward thresholds must be nonnegative")
            ts.expect_sym("[")
            objective = self.reward_objective(reward)
            ts.expect_sym("]")
            return ZeroSumNode(side, relation, threshold, objective)
        raise PropertySyntaxError(f"expected P or R, got {tok.value!r}")

    def nash_tail(self, side1, side2):
        if self.model is not None:
            union = set(side1) | set(side2)
            if set(side1) & set(side2) or union != set(self.model.players):
                raise CoalitionNotPartition(
                    "the two coalitions must partition the set of players")
        elif set(side1) & set(side2):
            raise CoalitionNotPartition(
                "the two coalitions must partition the set of players")
        relation, threshold = self.relation_or_query(("max",))
        ts = self.ts
        ts.expect_sym("(")
        first = self.theta_objective()
        ts.expect_sym("+")
        second = self.theta_objective()
        ts.expect_sym(")")
        if first.kind != second.kind:
            raise PropertySyntaxError(
                "both objectives of a pair must be P or both R")
        if relation != "max=?":
            if first.kind == "P" and not 0 <= threshold <= 2:
                raise BadThreshold(
                    "probability-sum thresholds must lie in [0,2]")
            if first.kind == "R" and threshold < 0:
                raise BadThreshold("reward thresholds must be nonnegative")
        return NashNode(side1, side2, relation, threshold, (first, second))

    def theta_objective(self):
        ts = self.ts
        tok = ts.expect_id()
        if tok.value == "P":
            ts.expect_sym("[")
            objective = self.path_objective()
            ts.expect_sym("]")
            return objective
        if tok.value == "R":
            reward = self.reward_name()
            ts.expect_sym("[")
            objective = self.reward_objective(reward)
            ts.expect_sym("]")
            return objective
        raise PropertySyntaxError(f"expected P or R, got {tok.value!r}")

    def path_objective(self):
        ts = self.ts
        tok = ts.peek()
        if tok.kind == "id" and tok.value == "X":
            ts.next()
            return Objective("P", "X", sub2=self.state_formula())
        if tok.kind == "id" and tok.value == "F":
            ts.next()
            bound = self.bound() if ts.take_sym("<=") else None
            return Objective("P", "U", sub1=TrueF(), sub2=self.state_formula(),
                             bound=bound)
        left = self.state_formula()
        tok = ts.expect_id()
        if tok.value != "U":
            raise PropertySyntaxError(f"expected U, got {tok.value!r}")
        bound = self.bound() if ts.take_sym("<=") else None
        return Objective("P", "U", sub1=left, sub2=self.state_formula(),
                         bound=bound)

    def reward_objective(self, reward):
        ts = self.ts
        tok = ts.expect_id()
        if tok.value == "I":
            ts.expect_sym("=")
            return Objective("R", "I", bound=self.bound(), reward=reward)
        if tok.value == "C":
            ts.expect_sym("<=")
            return Objective("R", "C", bound=self.bound(), reward=reward)
        if tok.value == "F":
            return Objective("R", "F", sub2=self.state_formula(), reward=reward)
        raise PropertySyntaxError(
            f"expected I=k, C<=k or F, got {tok.value!r}")


def parse_property(text, model=None, constants=None):
    """Parse one property against a model (used for name resolution)."""
    ts = TokenStream(tokenize(text))
    parser = _Parser(ts, model, constants)
    node = parser.state_formula()
    tok = ts.peek()
    if tok.kind != "end":
        raise PropertySyntaxError(f"unexpected trailing input {tok.value!r}")
    return node


def property_lines(text):
    """The properties of a property file's text: one per non-empty line,
    each line cut at its first `//` comment."""
    lines = (raw.split("//", 1)[0].strip() for raw in text.splitlines())
    return [line for line in lines if line]


def parse_property_file(text, model=None, constants=None):
    """Parse every property of a property file's text (`property_lines`)."""
    return [parse_property(line, model, constants)
            for line in property_lines(text)]


# --- printing -----------------------------------------------------------------

def _coalition_text(names):
    if len(names) == 1:
        return names[0]
    return "{" + ",".join(names) + "}"


def _objective_text(obj):
    if obj.kind == "P":
        if obj.op == "X":
            return f"P[X {to_text(obj.sub2)}]"
        bound = f"<={obj.bound}" if obj.bound is not None else ""
        if obj.sub1 == TrueF():
            return f"P[F{bound} {to_text(obj.sub2)}]"
        return f"P[{to_text(obj.sub1)} U{bound} {to_text(obj.sub2)}]"
    head = f'R{{"{obj.reward}"}}'
    if obj.op == "I":
        return f"{head}[I={obj.bound}]"
    if obj.op == "C":
        return f"{head}[C<={obj.bound}]"
    return f"{head}[F {to_text(obj.sub2)}]"


def _threshold_text(relation, threshold):
    if relation.endswith("=?"):
        return relation
    if isinstance(threshold, Fraction) and threshold.denominator != 1:
        rendered = expr_to_text(Lit(threshold))
    else:
        rendered = str(threshold)
    return f"{relation}{rendered}"


def to_text(node):
    if isinstance(node, TrueF):
        return "true"
    if isinstance(node, Atom):
        return node.name
    if isinstance(node, VarPredicate):
        e = node.expr
        return f"{expr_to_text(e.left)}{e.op}{expr_to_text(e.right)}"
    if isinstance(node, Not):
        return f"!({to_text(node.sub)})"
    if isinstance(node, And):
        return f"({to_text(node.left)} & {to_text(node.right)})"
    if isinstance(node, Or):
        return f"({to_text(node.left)} | {to_text(node.right)})"
    if isinstance(node, StateSet):
        # the resolved states by name, which does not parse back
        return "{" + ", ".join(sorted(map(str, node.states))) + "}"
    if isinstance(node, ZeroSumNode):
        obj = node.objective
        body = _objective_text(obj)
        kind, rest = body.split("[", 1)
        return (f"<<{_coalition_text(node.coalition)}>>{kind}"
                f"{_threshold_text(node.relation, node.threshold)}[{rest}")
    if isinstance(node, NashNode):
        return (f"<<{_coalition_text(node.coalition1)}:"
                f"{_coalition_text(node.coalition2)}>>"
                f"{_threshold_text(node.relation, node.threshold)}"
                f"({_objective_text(node.objectives[0])} + "
                f"{_objective_text(node.objectives[1])})")
    raise PropertySyntaxError(f"cannot print {node!r}")


# --- evaluation ---------------------------------------------------------------

def classify_horizon(query: NashNode) -> str:
    first, second = (obj.is_finite_horizon() for obj in query.objectives)
    if first and second:
        return "both-finite"
    if not first and not second:
        return "both-infinite"
    return "mixed-first-finite" if first else "mixed-second-finite"


def satisfying_states(game, formula):
    """The set of states of `game` satisfying a state formula.

    Atoms resolve against state labels first, then against boolean model
    variables when the game names its `variables` (language-built models).
    Coalition operators are delegated to the game engines; a `StateSet` is
    already resolved and is returned as is.
    """
    if isinstance(formula, StateSet):
        return formula.states
    states = game.states
    if isinstance(formula, TrueF):
        return frozenset(states)
    if isinstance(formula, Atom):
        name = formula.name
        if name in game.label_names or any(
                name in labels for labels in game.labels.values()):
            return frozenset(s for s in states if name in game.labels[s])
        if game.variables is not None and name in game.variables:
            slot = game.variables.index(name)
            # a variable's values all have its declared type
            if not isinstance(states[0][slot], bool):
                raise UndeclaredSymbol(
                    f"{name!r} is not a label or boolean variable")
            return frozenset(s for s in states if s[slot])
        raise UndeclaredSymbol(f"unknown atomic proposition {name!r}")
    if isinstance(formula, VarPredicate):
        if game.variables is None:
            raise UndeclaredSymbol(
                "variable predicates need a model with state variables")
        slots = {name: i for i, name in enumerate(game.variables)}
        holds = compile_expr(formula.expr, game.constants, slots)
        return frozenset(s for s in states if holds(s))
    if isinstance(formula, Not):
        return frozenset(states) - satisfying_states(game, formula.sub)
    if isinstance(formula, And):
        return satisfying_states(game, formula.left) & \
            satisfying_states(game, formula.right)
    if isinstance(formula, Or):
        return satisfying_states(game, formula.left) | \
            satisfying_states(game, formula.right)
    if isinstance(formula, (ZeroSumNode, NashNode)):
        from .nash import sat_operator       # local import: avoids a cycle
        return sat_operator(game, formula)
    raise PropertySyntaxError(f"cannot evaluate {formula!r} as a state formula")
