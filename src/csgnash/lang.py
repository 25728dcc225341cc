"""Guarded-command modelling language for concurrent stochastic games.

PRISM-like surface syntax with one extension: commands may be labelled with a
LIST of actions `[a1,a2,...]`, at most one per player, exactly one belonging
to the owning module's player.  Such a command fires only when every named
player picks the listed action, which lets a single command update variables
in a correlated way across players' choices (e.g. a shared channel).

    csg
    const int emax = 10;
    const double q2 = 0.75;
    player p1 user1, channel endplayer
    player p2 user2 endplayer
    module user1
      e1 : [0..emax] init emax;
      [t1] e1>0 -> (e1'=e1-1);
    endmodule
    ...
    rewards "r1"
      [t1,t2] true : q2;      // action reward, unnamed players unconstrained
      e1=0 : 1;               // state reward
    endrewards
    label "sent1" = s1=1;

Semantics per step: every player whose modules have an enabled own-action
command picks one such action (players with none idle); the joint action
fires, in every module, the unique matching enabled command (none: the
module's variables freeze; more than one: UpdateClash).  Updates of firing
commands are sampled independently per module and read the pre-state.  Each
variable is written only by its declaring module, so writes never conflict.

State exploration is breadth-first from the initial valuation with a stable
order, all arithmetic exact (decimal literals become rationals).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    AlphabetViolation,
    CsgError,
    ModelError,
    ModelSyntaxError,
    ModelTypeError,
    ProbabilitySum,
    RangeOverflow,
    UndeclaredSymbol,
    UndefinedConstant,
    UpdateClash,
)
from .expr import (
    Binary,
    Call,
    Lit,
    TokenStream,
    Unary,
    Var,
    compile_expr,
    eval_expr,
    free_vars,
    integer,
    parse_expression,
    tokenize,
)
from .model import IDLE, Csg, RewardStructure

__all__ = ["parse_model", "build_csg", "load_model", "ModelAst",
           "parse_constant_value", "read_text"]


# --- AST -----------------------------------------------------------------------

@dataclass(frozen=True)
class ConstDecl:
    name: str
    type: str           # int | double | bool | None (untyped)
    value: object       # expression AST or None (must be overridden)
    line: int


@dataclass(frozen=True)
class VarDecl:
    name: str
    kind: str           # int | bool
    low: object         # expression (int only)
    high: object
    init: object
    line: int


@dataclass(frozen=True)
class Command:
    actions: tuple      # one or more action names
    guard: object
    updates: tuple      # ((prob expression, ((var, expression), ...)), ...)
    line: int


@dataclass(frozen=True)
class Module:
    name: str
    variables: tuple
    commands: tuple
    line: int


@dataclass(frozen=True)
class PlayerBlock:
    name: str
    modules: tuple
    actions: tuple      # explicitly declared alphabet entries
    line: int


@dataclass(frozen=True)
class RewardItem:
    actions: tuple      # () for state rewards
    guard: object
    value: object
    line: int


@dataclass(frozen=True)
class RewardBlock:
    name: str
    items: tuple


@dataclass(frozen=True)
class ModelAst:
    constants: tuple
    players: tuple
    modules: tuple
    rewards: tuple
    labels: tuple       # (name, expression, line) triples
    alphabets: dict = field(default_factory=dict)   # player -> frozenset
    owner: dict = field(default_factory=dict)       # module -> player
    action_owner: dict = field(default_factory=dict)


# --- parser ----------------------------------------------------------------------

def parse_model(text) -> ModelAst:
    ts = TokenStream(tokenize(text))
    constants, players, modules, rewards, labels = [], [], [], [], []
    tok = ts.peek()
    if tok.kind == "id" and tok.value in ("csg", "smg"):
        ts.next()
    while ts.peek().kind != "end":
        tok = ts.peek()
        if tok.kind != "id":
            ts.error(f"unexpected token {tok.value!r}")
        if tok.value == "const":
            constants.append(_parse_const(ts))
        elif tok.value == "player":
            players.append(_parse_player(ts))
        elif tok.value == "module":
            modules.append(_parse_module(ts))
        elif tok.value == "rewards":
            rewards.append(_parse_rewards(ts))
        elif tok.value == "label":
            labels.append(_parse_label(ts))
        else:
            ts.error(f"unexpected declaration {tok.value!r}")
    ast = ModelAst(tuple(constants), tuple(players), tuple(modules),
                   tuple(rewards), tuple(labels))
    return _check_model(ast)


def _parse_const(ts):
    tok = ts.next()
    line = tok.line
    typ = None
    name_tok = ts.expect_id()
    if name_tok.value in ("int", "double", "bool"):
        typ = name_tok.value
        name_tok = ts.expect_id()
    value = None
    if ts.take_sym("="):
        value = parse_expression(ts)
    ts.expect_sym(";")
    return ConstDecl(name_tok.value, typ, value, line)


def _parse_player(ts):
    tok = ts.next()
    name = ts.expect_id().value
    mods, actions = [], []
    while True:
        item = ts.peek()
        if item.kind == "id" and item.value == "endplayer":
            ts.next()
            break
        if ts.take_sym("["):
            actions.append(ts.expect_id().value)
            ts.expect_sym("]")
        else:
            mods.append(ts.expect_id().value)
        ts.take_sym(",")
    if not mods and not actions:
        raise ModelSyntaxError(f"player {name!r} lists no modules or actions",
                               tok.line, tok.col)
    return PlayerBlock(name, tuple(mods), tuple(actions), tok.line)


def _parse_module(ts):
    tok = ts.next()
    name = ts.expect_id().value
    variables, commands = [], []
    while True:
        nxt = ts.peek()
        if nxt.kind == "id" and nxt.value == "endmodule":
            ts.next()
            break
        if nxt.kind == "end":
            ts.error(f"unterminated module {name!r}")
        if ts.at_sym("["):
            commands.append(_parse_command(ts))
        else:
            variables.append(_parse_vardecl(ts))
    return Module(name, tuple(variables), tuple(commands), tok.line)


def _parse_vardecl(ts):
    name_tok = ts.expect_id()
    ts.expect_sym(":")
    if ts.take_sym("["):
        low = parse_expression(ts)
        ts.expect_sym("..")
        high = parse_expression(ts)
        ts.expect_sym("]")
        kind = "int"
    else:
        tok = ts.expect_id()
        if tok.value != "bool":
            raise ModelSyntaxError("expected a [lo..hi] range or bool",
                                   tok.line, tok.col)
        kind = "bool"
        low = high = None
    init_tok = ts.expect_id()
    if init_tok.value != "init":
        raise ModelSyntaxError("variable ranges are mandatory and need an "
                               "'init' value", init_tok.line, init_tok.col)
    init = parse_expression(ts)
    ts.expect_sym(";")
    return VarDecl(name_tok.value, kind, low, high, init, name_tok.line)


def _parse_action_list(ts):
    ts.expect_sym("[")
    actions = [ts.expect_id().value]
    while ts.take_sym(","):
        actions.append(ts.expect_id().value)
    ts.expect_sym("]")
    return tuple(actions)


def _parse_command(ts):
    tok = ts.peek()
    actions = _parse_action_list(ts)
    guard = parse_expression(ts)
    ts.expect_sym("->")
    updates = [_parse_branch(ts)]
    while ts.take_sym("+"):
        updates.append(_parse_branch(ts))
    ts.expect_sym(";")
    return Command(actions, guard, tuple(updates), tok.line)


def _parse_branch(ts):
    """One update alternative: `prob : assignments` or bare assignments."""
    save = ts.pos
    try:
        prob = parse_expression(ts, min_level=3)
        if ts.take_sym(":"):
            return (prob, _parse_assignments(ts))
    except (ModelSyntaxError, ModelTypeError):
        pass
    ts.pos = save
    return (Lit(1), _parse_assignments(ts))


def _parse_assignments(ts):
    tok = ts.peek()
    if tok.kind == "id" and tok.value == "true":
        ts.next()
        return ()
    assigns = [_parse_assignment(ts)]
    while ts.take_sym("&"):
        assigns.append(_parse_assignment(ts))
    return tuple(assigns)


def _parse_assignment(ts):
    ts.expect_sym("(")
    name = ts.expect_id()
    ts.expect_sym("'")
    ts.expect_sym("=")
    value = parse_expression(ts)
    ts.expect_sym(")")
    return (name.value, value)


def _parse_rewards(ts):
    ts.next()
    tok = ts.next()
    if tok.kind not in ("id", "str"):
        raise ModelSyntaxError("rewards block needs a name", tok.line, tok.col)
    name = tok.value
    items = []
    while True:
        nxt = ts.peek()
        if nxt.kind == "id" and nxt.value == "endrewards":
            ts.next()
            break
        if nxt.kind == "end":
            ts.error(f"unterminated rewards block {name!r}")
        actions = _parse_action_list(ts) if ts.at_sym("[") else ()
        guard = parse_expression(ts)
        ts.expect_sym(":")
        value = parse_expression(ts)
        ts.expect_sym(";")
        items.append(RewardItem(actions, guard, value, nxt.line))
    return RewardBlock(name, tuple(items))


def _parse_label(ts):
    line = ts.next().line
    tok = ts.next()
    if tok.kind != "str":
        raise ModelSyntaxError('labels are declared as label "name" = pred;',
                               tok.line, tok.col)
    ts.expect_sym("=")
    value = parse_expression(ts)
    ts.expect_sym(";")
    return (tok.value, value, line)


# --- static checks ----------------------------------------------------------------

def _check_model(ast: ModelAst) -> ModelAst:
    if not ast.modules:
        raise ModelSyntaxError("a model needs at least one module")
    module_by_name = {}
    for mod in ast.modules:
        if mod.name in module_by_name:
            raise ModelSyntaxError(f"duplicate module {mod.name!r}", mod.line)
        module_by_name[mod.name] = mod

    owner, player_names = {}, set()
    for block in ast.players:
        if block.name in player_names:
            raise ModelSyntaxError(f"duplicate player {block.name!r}",
                                   block.line)
        player_names.add(block.name)
        for mname in block.modules:
            if mname not in module_by_name:
                raise UndeclaredSymbol(f"player {block.name!r} lists unknown "
                                       f"module {mname!r}", block.line)
            if mname in owner:
                raise ModelSyntaxError(f"module {mname!r} belongs to two "
                                       f"players", block.line)
            owner[mname] = block.name
    for mod in ast.modules:
        if mod.name not in owner:
            raise ModelSyntaxError(f"module {mod.name!r} is not assigned to "
                                   f"a player", mod.line)

    # pass 1: alphabets = declared actions + single-labelled command actions
    alphabets = {block.name: set(block.actions) for block in ast.players}
    for mod in ast.modules:
        for cmd in mod.commands:
            if len(cmd.actions) == 1:
                alphabets[owner[mod.name]].add(cmd.actions[0])
    action_owner = {}
    for player, acts in alphabets.items():
        for a in acts:
            if a in action_owner and action_owner[a] != player:
                raise AlphabetViolation(
                    f"action {a!r} appears in the alphabets of "
                    f"{action_owner[a]!r} and {player!r}")
            action_owner[a] = player

    # pass 2: action-list commands
    for mod in ast.modules:
        player = owner[mod.name]
        for cmd in mod.commands:
            if len(cmd.actions) == 1:
                continue
            owners = []
            for a in cmd.actions:
                if a not in action_owner:
                    raise AlphabetViolation(
                        f"action {a!r} in a list command is not in any "
                        f"player's alphabet", cmd.line)
                owners.append(action_owner[a])
            if len(set(owners)) != len(owners):
                raise AlphabetViolation(
                    "a list command may name at most one action per player",
                    cmd.line)
            if owners.count(player) != 1:
                raise AlphabetViolation(
                    f"exactly one action of a list command must belong to "
                    f"the owning module's player {player!r}", cmd.line)

    # every variable written by a module is declared by it; no duplicates
    declared = {}
    for mod in ast.modules:
        for var in mod.variables:
            if var.name in declared:
                raise ModelSyntaxError(f"variable {var.name!r} declared twice",
                                       var.line)
            declared[var.name] = mod.name
    for mod in ast.modules:
        for cmd in mod.commands:
            for _, assigns in cmd.updates:
                for name, _ in assigns:
                    if declared.get(name) != mod.name:
                        raise UndeclaredSymbol(
                            f"module {mod.name!r} writes variable {name!r} "
                            f"which it does not declare", cmd.line)

    # symbol resolution in expressions
    known = set(declared) | {c.name for c in ast.constants}
    def check_expr(node, line):
        for name in free_vars(node):
            if name not in known:
                raise UndeclaredSymbol(f"unknown symbol {name!r}", line)
    for c in ast.constants:
        if c.value is not None:
            check_expr(c.value, c.line)
    for mod in ast.modules:
        for var in mod.variables:
            for part in (var.low, var.high, var.init):
                if part is not None:
                    check_expr(part, var.line)
        for cmd in mod.commands:
            check_expr(cmd.guard, cmd.line)
            for prob, assigns in cmd.updates:
                check_expr(prob, cmd.line)
                for _, value in assigns:
                    check_expr(value, cmd.line)
    for block in ast.rewards:
        for item in block.items:
            check_expr(item.guard, item.line)
            check_expr(item.value, item.line)
            for a in item.actions:
                if a not in action_owner:
                    raise AlphabetViolation(
                        f"reward item names unknown action {a!r}", item.line)
    for _, pred, line in ast.labels:
        check_expr(pred, line)

    return ModelAst(ast.constants, ast.players, ast.modules, ast.rewards,
                    ast.labels,
                    {p: frozenset(a) for p, a in alphabets.items()},
                    owner, action_owner)


# --- constant resolution ------------------------------------------------------------

def parse_constant_value(text):
    """A constant value given as text: true or false (in any case), an int,
    or an exact rational such as 0.25 or 1/4, so that model probabilities
    stay exactly representable.  A value that is not a string is kept."""
    if isinstance(text, str):
        lowered = text.lower()
        if lowered in ("true", "false"):
            return lowered == "true"
        try:
            return int(text)
        except ValueError:
            pass
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ModelTypeError(f"cannot parse constant value {text!r}")
    return text


def resolve_constants(ast: ModelAst, overrides=None):
    overrides = {k: parse_constant_value(v)
                 for k, v in (overrides or {}).items()}
    declared = {c.name: c for c in ast.constants}
    for name in overrides:
        if name not in declared:
            raise UndeclaredSymbol(f"override for unknown constant {name!r}")
    env = {}
    pending = list(ast.constants)
    while pending:
        progress = False
        remaining = []
        for c in pending:
            if c.name in overrides:
                env[c.name] = overrides[c.name]
                progress = True
                continue
            if c.value is None:
                raise UndefinedConstant(
                    f"constant {c.name!r} has no value; supply one with "
                    f"-const {c.name}=...", c.line)
            try:
                env[c.name] = eval_expr(c.value, env)
                progress = True
            except UndeclaredSymbol:
                remaining.append(c)
        if not progress:
            names = ", ".join(c.name for c in remaining)
            raise UndefinedConstant(f"circular constant definitions: {names}")
        pending = remaining
    for name, value in env.items():
        typ = declared[name].type
        if typ == "int":
            env[name] = integer(value, f"constant {name!r}")
        if typ == "double" and (isinstance(value, bool) or
                                not isinstance(value, (int, Fraction))):
            raise ModelTypeError(f"constant {name!r} must be numeric")
        if typ == "bool" and not isinstance(value, bool):
            raise ModelTypeError(f"constant {name!r} must be boolean")
    return env


# --- state-space construction ---------------------------------------------------------

class _VarInfo:
    def __init__(self, decl, constants):
        self.name = decl.name
        self.kind = decl.kind
        self.what = f"variable {decl.name!r}"
        if decl.kind == "int":
            self.low = integer(eval_expr(decl.low, constants),
                               f"the lower bound of {self.what}")
            self.high = integer(eval_expr(decl.high, constants),
                                f"the upper bound of {self.what}")
            if self.low > self.high:
                raise RangeOverflow(f"empty range for {self.what}")
        self.init = self.check(eval_expr(decl.init, constants))

    def check(self, value):
        """`value`, the initial or an assigned value, if the variable can
        hold it: an integer in its range, or a boolean."""
        if self.kind == "bool":
            if value is True or value is False:
                return value
            raise ModelTypeError(f"{self.what} must be boolean")
        value = integer(value, self.what)
        if not self.low <= value <= self.high:
            raise RangeOverflow(
                f"{self.what} leaves its range [{self.low}..{self.high}] "
                f"(value {value})")
        return value


class _Command:
    """A command compiled against one model's constants and state layout.

    `needs` lists the (player index, action) pairs a joint action must
    contain for the command to fire; `own` is the action it makes available
    to its module's player.  `branches` lists each update alternative as
    (probability function, ((slot, check, value), ...)): an assignment of a
    constant that the variable can hold has check None and its checked
    value; any other has the variable's `check` and a value function, both
    called at each state where the command fires.  When
    every probability is a constant that passes the per-state checks and
    sums to 1, `fixed` holds the (branch index, probability) pairs of the
    positive branches; otherwise it is None and the probabilities are
    evaluated and checked at each state where the command fires.
    """

    def __init__(self, index, cmd, player, ast, compiled, slots, infos):
        players = [block.name for block in ast.players]
        self.index = index
        self.line = cmd.line
        self.needs = tuple((players.index(ast.action_owner[a]), a)
                           for a in cmd.actions)
        self.own = next(a for a in cmd.actions
                        if ast.action_owner[a] == player)
        self.branches = [
            (compiled(prob),
             tuple(_assignment(slots[name], infos[slots[name]],
                               compiled(value),
                               not free_vars(value) & slots.keys())
                   for name, value in assigns))
            for prob, assigns in cmd.updates]
        self.fixed = None
        if not any(free_vars(prob) & slots.keys() for prob, _ in cmd.updates):
            try:
                kept, total = self.weigh(())
            except Exception:
                return             # raised again where the command first fires
            if total == 1:
                self.fixed = kept

    def weigh(self, state):
        """The (branch index, probability) pairs of the positive branches at
        `state`, and the sum of all probabilities."""
        kept, total = [], Fraction(0)
        for k, (prob, _) in enumerate(self.branches):
            p = prob(state)
            if isinstance(p, bool) or not isinstance(p, (int, Fraction)):
                raise ModelTypeError(
                    f"probability is not numeric at line {self.line}")
            p = Fraction(p)
            if p < 0:
                raise ProbabilitySum(f"negative probability at line {self.line}")
            total += p
            if p > 0:
                kept.append((k, p))
        return kept, total

    def outcomes(self, state, var_names):
        """(probabilities, updates) of the positive branches at `state`:
        each update lists (slot, new value) pairs."""
        kept = self.fixed
        if kept is None:
            kept, total = self.weigh(state)
            if total != 1:
                raise ProbabilitySum(
                    f"probabilities at line {self.line} sum to {total} at "
                    f"state {dict(zip(var_names, state))}")
        updates = [[(slot, value if check is None else check(value(state)))
                    for slot, check, value in self.branches[k][1]]
                   for k, _ in kept]
        return [p for _, p in kept], updates


def _assignment(slot, info, value, constant):
    """One compiled assignment of `_Command.branches`.  A constant is
    checked once, here.  One the variable cannot hold keeps its check at
    firing, as any other value: the build raises at the first state where
    the command fires, and a command that never fires raises nothing."""
    if constant:
        try:
            return slot, None, info.check(value(()))
        except Exception:
            pass
    return slot, info.check, value


class _Clash:
    """Two commands of one module that fire on the same joint action: the
    build raises UpdateClash at the first state that reaches them."""

    index = fixed = None

    def __init__(self, module, first, second):
        self.module, self.first, self.second = module, first, second

    def outcomes(self, state, var_names):
        raise UpdateClash(
            f"module {self.module!r}: two commands (lines {self.first.line} "
            f"and {self.second.line}) fire together at state "
            f"{dict(zip(var_names, state))}")


def _products(prob_lists):
    """The product of one probability from each list, for every choice in
    lexicographic order."""
    out = [Fraction(1)]
    for probs in prob_lists:
        out = [a * b for a in out for b in probs]
    return out


def build_csg(ast: ModelAst, overrides=None) -> Csg:
    """Explore the reachable state space and return the game.

    Every expression of the model is compiled once, against the constants,
    the state layout and the variable types, before exploration starts; a
    state is a tuple of variable values in declaration order.  The returned
    Csg additionally carries `variables` (the variable names, in slot
    order), `constants` and `label_names`, so that properties compile their
    predicates against the same layout.

    This is the one validation of a language model, so the Csg is
    constructed directly, not through `Csg.create`.  Probabilities, variable
    values, guards, labels and reward values are checked where they are
    evaluated, and the reward totals for being nonnegative.  The state
    space is reachable, and every state's joint actions the full product of
    its per-player actions, by construction; a state where no player acts
    gets the all-idle self-loop.
    """
    constants = resolve_constants(ast, overrides)
    players = tuple(block.name for block in ast.players)
    infos = [_VarInfo(decl, constants)
             for mod in ast.modules for decl in mod.variables]
    var_names = tuple(info.name for info in infos)
    slots = {name: i for i, name in enumerate(var_names)}
    types = {info.name: bool if info.kind == "bool" else int for info in infos}

    def compiled(node):
        return compile_expr(node, constants, slots, types)

    # Commands in the order the availability scan visits them: players, each
    # player's modules, each module's commands.  Equal guards compile to one
    # function, which is evaluated once per state.
    modules = {mod.name: (m, mod) for m, mod in enumerate(ast.modules)}
    scan = []                  # (player, module, guard index, command)
    guards = []                # (function, line of its first command)
    guard_index = {}
    for p, block in enumerate(ast.players):
        for mname in block.modules:
            m, mod = modules[mname]
            for cmd in mod.commands:
                key = _same_expr_key(cmd.guard)
                if key not in guard_index:
                    guard_index[key] = len(guards)
                    guards.append((compiled(cmd.guard), cmd.line))
                scan.append((p, m, guard_index[key],
                             _Command(len(scan), cmd, block.name, ast,
                                      compiled, slots, infos)))
    products = {}              # fired command indices -> branch products

    def plan(held):
        """The joint actions of a state whose guards evaluate to `held`, each
        with the commands it fires in module order and, when they all have
        fixed probabilities, the products of their branch probabilities.
        Where no player acts, the one joint action is all idle and fires no
        command: the deadlock's self-loop."""
        enabled = [[] for _ in ast.modules]
        acts = [set() for _ in players]
        for p, m, g, cmd in scan:
            if held[g]:
                enabled[m].append(cmd)
                acts[p].add(cmd.own)
        steps = []
        for joint in itertools.product(*[sorted(a) or [IDLE] for a in acts]):
            fired = []
            for m, cmds in enumerate(enabled):
                matching = [cmd for cmd in cmds
                            if all(joint[i] == a for i, a in cmd.needs)]
                if len(matching) > 1:
                    fired.append(_Clash(ast.modules[m].name, *matching[:2]))
                    break
                fired += matching
            weights = None
            if all(cmd.fixed is not None for cmd in fired):
                key = tuple(cmd.index for cmd in fired)
                if key not in products:
                    products[key] = _products(
                        [[prob for _, prob in cmd.fixed] for cmd in fired])
                weights = products[key]
            steps.append((joint, fired, weights))
        return steps

    init_state = tuple(info.init for info in infos)
    order = [init_state]
    seen = {init_state}
    trans = {}
    queue = deque(order)
    plans = {}                 # guard values -> plan
    while queue:
        state = queue.popleft()
        held = []
        for guard, line in guards:
            value = guard(state)
            if value is not True and value is not False:
                raise _not_a_condition(line)
            held.append(value)
        held = tuple(held)
        steps = plans.get(held)
        if steps is None:
            steps = plans[held] = plan(held)
        outcomes = {}                  # command index -> its branches here
        state_trans = {}
        for joint, fired, weights in steps:
            for cmd in fired:
                if cmd.index not in outcomes:
                    outcomes[cmd.index] = cmd.outcomes(state, var_names)
            if weights is None:
                weights = _products([outcomes[cmd.index][0] for cmd in fired])
            dist = {}
            for w, combo in zip(weights, itertools.product(
                    *[outcomes[cmd.index][1] for cmd in fired])):
                succ = list(state)
                for updates in combo:
                    for slot, value in updates:
                        succ[slot] = value
                succ = tuple(succ)
                if succ in dist:
                    dist[succ] += w
                else:
                    dist[succ] = w
                    if succ not in seen:
                        seen.add(succ)
                        order.append(succ)
                        queue.append(succ)
            state_trans[joint] = dist
        trans[state] = state_trans

    label_preds = [(name, compiled(pred), line)
                   for name, pred, line in ast.labels]
    labels = {state: frozenset(name for name, pred, line in label_preds
                               if _holds(pred, state, line))
              for state in order}

    # rewards
    rewards = {}
    for block in ast.rewards:
        items = []
        for item in block.items:
            wanted = {players.index(ast.action_owner[a]): a
                      for a in item.actions}
            items.append((compiled(item.guard), compiled(item.value),
                          tuple(wanted.items()), item))
        action_rewards, state_rewards = {}, {}
        for state in order:
            for guard, value_of, wanted, item in items:
                if not _holds(guard, state, item.line):
                    continue
                value = value_of(state)
                if type(value) not in (int, Fraction):    # bool included
                    raise ModelTypeError(
                        f"reward is not numeric at line {item.line}")
                if not item.actions:
                    state_rewards[state] = state_rewards.get(state, 0) + value
                    continue
                for joint in trans[state]:
                    if all(joint[i] == a for i, a in wanted):
                        key = (state, joint)
                        action_rewards[key] = action_rewards.get(key, 0) + value
        rewards[block.name] = RewardStructure(
            _reward_values(action_rewards, "action", block.name),
            _reward_values(state_rewards, "state", block.name))

    return Csg(players, dict(ast.alphabets), tuple(order), (init_state,),
               trans, labels, rewards, variables=var_names,
               constants=dict(constants),
               label_names=frozenset(name for name, _, _ in ast.labels))


def _reward_values(totals, kind, name):
    """The nonzero reward `totals` as Fractions; a negative one is an
    error."""
    values = {}
    for key, total in totals.items():
        if total < 0:
            raise ModelError(f"negative {kind} reward in {name!r}")
        if total:
            values[key] = Fraction(total)
    return values


def _same_expr_key(node):
    """A key equal for two expressions exactly when they are the same
    expression: literals keep their type (1, 1.0 and true differ) and names
    drop their position."""
    if isinstance(node, Lit):
        return Lit, type(node.value), node.value
    if isinstance(node, Var):
        return Var, node.name
    if isinstance(node, Unary):
        return Unary, node.op, _same_expr_key(node.operand)
    if isinstance(node, Binary):
        return (Binary, node.op, _same_expr_key(node.left),
                _same_expr_key(node.right))
    if isinstance(node, Call):
        return (Call, node.func) + tuple(_same_expr_key(a) for a in node.args)
    return node


def _holds(condition, state, line):
    value = condition(state)
    if value is True or value is False:
        return value
    raise _not_a_condition(line)


def _not_a_condition(line):
    return ModelTypeError(f"expected a boolean condition at line {line}")


def read_text(path) -> str:
    """The text of the UTF-8 file `path`; CsgError if it is not UTF-8."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as err:
            raise CsgError(f"{path}: not UTF-8 text: {err}")


def load_model(path, overrides=None) -> Csg:
    return build_csg(parse_model(read_text(path)), overrides)
