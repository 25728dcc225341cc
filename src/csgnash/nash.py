"""Equilibrium engine: social-welfare-optimal Nash values for two-coalition
objective pairs.

Finite-horizon pairs are solved by exact backwards induction, infinite-horizon
pairs by value iteration; both solve one bimatrix game per state and stage,
falling back to single-objective MDP computations at states where one
objective is already settled.  Mixed pairs (one finite, one infinite horizon)
are reduced to infinite-horizon pairs on a step-counter product game.

The number type of a solve is chosen once, in `_solve_nash`, and the solved
game is compiled to it (`model.compile_game`): bounded pairs and games of up
to `_EXACT_STATE_LIMIT` states are exact, larger unbounded and mixed pairs
run in floats end to end.

Vocabulary used below for an objective at a state (`_refine` classifies,
and both engines and synthesis share it):
  "won":     the objective is already satisfied (until target reached /
             reachability-reward target reached, value fixed at 1 resp. 0);
  "lost":    it can no longer be satisfied (until constraint violated);
  "pending": neither;
  settled:   won or lost — only the other objective has stakes left, so both
             coalitions cooperate on its single-objective optimum
             (`_optimum`, which also serves the zero-sum operators).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .bimatrix import BimatrixGame, solve_swne
from .errors import (
    AssumptionViolated,
    NotConverged,
    PropertyError,
    UnsupportedOperator,
)
from .model import (
    CoalitionGame,
    RewardStructure,
    check_assumption,
    coalition_game,
    compile_game,
    joint_mdp,
)
from .mdp import expected_reward, reach_prob, step_prob
from .properties import (
    NashNode,
    Objective,
    StateSet,
    TrueF,
    ZeroSumNode,
    classify_horizon,
    satisfying_states,
)

__all__ = [
    "PairResult",
    "Evaluation",
    "local_game",
    "solve_bounded_pair",
    "solve_unbounded_pair",
    "mixed_horizon_transform",
    "evaluate",
    "sat_operator",
]

DEFAULT_CONV_EPSILON = 1e-6
DEFAULT_MAX_ITERS = 10000
_OSC_TOL = 1e-12
_EXACT_STATE_LIMIT = 64
# value vectors a result keeps: the oscillation check reads two sweeps back,
# and a run stopped at sweep 4 still holds sweeps 0..4
_TRACE_LENGTH = 5

ONE = Fraction(1)
ZERO = Fraction(0)

PENDING, WON, LOST = "pending", "won", "lost"


# --- results ---------------------------------------------------------------------

@dataclass
class PairResult:
    """Outcome of solving one objective pair on a two-coalition game."""

    values: dict                 # state -> (v1, v2)
    iterations: int
    converged: bool
    kind: str                    # "bounded" | "unbounded"
    diagnostic: str = None
    trace: list = None           # last _TRACE_LENGTH vectors, oldest first
    profiles: object = None      # per-state local profiles; bounded: per stage
    aux: dict = field(default_factory=dict)  # "mdp_s": MDP precompute seconds


@dataclass
class Evaluation:
    """Result of evaluating a formula on a game."""

    formula: object
    kind: str                    # state-set | nash-query | nash-threshold |
                                 # zero-sum-query | zero-sum-threshold
    sat: frozenset = None
    values: dict = None          # per-state pair (nash) or scalar (zero-sum)
    initial: dict = None         # initial state -> value(s) / boolean
    solve: PairResult = None
    game: object = None          # the CoalitionGame that was solved
    query: NashNode = None       # the pair solved on it (rewritten if mixed)
    embedding: dict = None       # base state -> solved-game state (mixed only)
    assumption: object = None


# --- helpers ---------------------------------------------------------------------

def _sat(game, formula):
    """Satisfying states, resolving labels on the underlying game."""
    base = game.base if isinstance(game, CoalitionGame) else game
    return satisfying_states(base, formula)


def _with_sets(obj, resolve):
    """`obj` with each state sub-formula replaced by `resolve(sub)`."""
    return replace(obj, **{name: resolve(sub) for name in ("sub1", "sub2")
                           if (sub := getattr(obj, name)) is not None})


def _horizon(obj: Objective):
    if obj.op == "X":
        return 1
    return obj.bound


def _statuses(game, objectives):
    """Per objective: (win set, lose set, settleable flag).  The win set is
    the target `sub2` (a next step's too); only an until has a lose set, and
    only untils and reachability rewards settle."""
    out = []
    for obj in objectives:
        win = frozenset() if obj.sub2 is None else _sat(game, obj.sub2)
        lose = frozenset()
        if obj.op == "U":
            cons = _sat(game, obj.sub1)
            lose = frozenset(s for s in game.states
                             if s not in win and s not in cons)
        out.append((win, lose, obj.op in ("U", "F")))
    return out


def _refine(status_defs, state, statuses):
    """`statuses` with each pending, settleable objective marked won or lost
    where `state` is in its win or lose set."""
    out = []
    for st, (win, lose, can) in zip(statuses, status_defs):
        if st == PENDING and can:
            if state in win:
                st = WON
            elif state in lose:
                st = LOST
        out.append(st)
    return tuple(out)


def _settlement(game, objectives):
    """The statuses of `objectives`, and per state where at least one of them
    is settled, their won/lost/pending statuses there."""
    stat = _statuses(game, objectives)
    settled = {}
    for s in game.states:
        row = _refine(stat, s, (PENDING, PENDING))
        if row != (PENDING, PENDING):
            settled[s] = row
    return stat, settled


def _settled_pair(objectives, row, pending_values, units):
    """Value pair at a state with statuses `row`: a won probability
    objective is worth 1, any other settled objective 0 (`units` holds the
    solve's 0 and 1), and a pending one takes its value from
    `pending_values`."""
    zero, one = units
    return tuple(pending if st == PENDING else
                 one if st == WON and obj.kind == "P" else zero
                 for obj, st, pending in zip(objectives, row, pending_values))


def _optimum(mdp, obj, optimise, status, all_horizons=False,
             with_strategy=False, needed_states=None):
    """Single-objective optimum of `obj` on `mdp`, any MDP whose states the
    sets of `status` range over: a joint MDP, or the (state, mode) nodes of
    a profile under verification.

    `status` is the objective's (win, lose, settleable) entry of `_statuses`:
    the win set is the target of an until, a next step or a reachability
    reward, and the until constraint is every state not lost.  Returns
    per-state values or, with `all_horizons`, the value vectors of horizons
    0..k; with `with_strategy` also the optimal choices (per step for
    bounded objectives, None at horizon 0).  `needed_states` restricts where
    a reachability reward must be finite.
    """
    win, lose, _ = status
    if obj.kind == "R":
        rs = mdp.rewards[obj.reward]
        return expected_reward(mdp, obj.op, k=obj.bound, targets=win,
                               action_rewards=rs.action_rewards,
                               state_rewards=rs.state_rewards,
                               optimise=optimise, with_strategy=with_strategy,
                               all_horizons=all_horizons,
                               needed_states=needed_states)
    if obj.op == "U":
        return reach_prob(mdp, win, optimise, bound=obj.bound,
                          constraint={s for s in mdp.states if s not in lose},
                          with_strategy=with_strategy,
                          all_horizons=all_horizons)
    vals, strategy = step_prob(mdp, win, optimise, with_strategy=True)
    if all_horizons:
        vals = [{s: ONE if s in win else ZERO for s in mdp.states}, vals]
        strategy = [None, strategy]
    return (vals, strategy) if with_strategy else vals


def local_game(game, state, continuation, rewards=(None, None)) -> BimatrixGame:
    """The one-shot game at `state` over coalition actions.

    Each payoff entry is the expected continuation value; per objective,
    `rewards` may name a reward structure whose state and action rewards are
    added (the cumulative and reachability-reward shapes).
    """
    acts1, acts2 = game.actions1(state), game.actions2(state)
    structures = [(l, game.rewards[name]) for l, name in enumerate(rewards)
                  if name is not None]
    z1, z2 = [], []
    for a in acts1:
        row1, row2 = [], []
        for b in acts2:
            dist = game.trans[state][(a, b)]
            vals = [sum(p * continuation[t][l] for t, p in dist.items())
                    for l in (0, 1)]
            for l, rs in structures:
                vals[l] += rs.state(state) + rs.action(state, (a, b))
            row1.append(vals[0])
            row2.append(vals[1])
        z1.append(row1)
        z2.append(row2)
    return BimatrixGame.from_rows(z1, z2)


def _reward_names(objectives):
    return tuple(obj.reward if obj.kind == "R" and obj.op in ("C", "F") else None
                 for obj in objectives)


def _swne_step(game, state, continuation, rewards):
    """Solve the local game at `state`: the SWNE value pair and the profile
    ("mix", acts1, acts2, x, y) that plays it."""
    chosen, _ = solve_swne(local_game(game, state, continuation, rewards))
    return ((chosen.u, chosen.v),
            ("mix", game.actions1(state), game.actions2(state),
             chosen.x, chosen.y))


# --- bounded pairs ----------------------------------------------------------------

def solve_bounded_pair(cg, query: NashNode) -> PairResult:
    """Exact backwards induction for a pair of finite-horizon objectives."""
    o1, o2 = query.objectives
    k1, k2 = _horizon(o1), _horizon(o2)
    k = min(k1, k2)
    pads = (k1 - k, k2 - k)
    jmdp = joint_mdp(cg)
    stat, settled = _settlement(cg, (o1, o2))
    coop = []
    coop_strats = []
    start = time.perf_counter()
    for obj, status in zip((o1, o2), stat):
        family, strats = _optimum(jmdp, obj, "max", status,
                                  all_horizons=True, with_strategy=True)
        coop.append(family)
        coop_strats.append(strats)
    mdp_s = time.perf_counter() - start
    rewards = _reward_names((o1, o2))
    step_rewards = tuple(name if obj.op == "C" else None
                         for name, obj in zip(rewards, (o1, o2)))

    vals = {s: (coop[0][pads[0]][s], coop[1][pads[1]][s]) for s in cg.states}
    history = deque([vals], maxlen=_TRACE_LENGTH)
    stage_profiles = [None]
    for n in range(1, k + 1):
        new = {}
        profiles = {}
        for s in cg.states:
            row = settled.get(s)
            if row is not None:
                new[s] = _settled_pair(
                    (o1, o2), row,
                    [coop[l][n + pads[l]][s] for l in (0, 1)], (ZERO, ONE))
            else:
                new[s], profiles[s] = _swne_step(cg, s, vals, step_rewards)
        vals = new
        history.append(vals)
        stage_profiles.append(profiles)

    return PairResult(
        values=vals, iterations=k, converged=True, kind="bounded",
        trace=list(history), profiles=stage_profiles,
        aux={"coop_strats": coop_strats, "pads": pads, "statuses": stat,
             "horizon": k, "mdp_s": mdp_s})


# --- unbounded pairs --------------------------------------------------------------

def _unbounded_fixed_rows(cg, query, jmdp):
    """Constant value rows, plus single-objective optima and strategies."""
    o1, o2 = query.objectives
    stat, settled = _settlement(cg, (o1, o2))
    aux = {"statuses": stat, "opt_vals": [None, None],
           "opt_strats": [None, None]}
    for l, obj in enumerate((o1, o2)):
        need = None
        if obj.kind == "R":
            # only states where the other objective is won need this optimum
            need = {s for s, row in settled.items() if row[l] == PENDING}
            if not need:
                continue
        aux["opt_vals"][l], aux["opt_strats"][l] = _optimum(
            jmdp, obj, "max", stat[l], with_strategy=True,
            needed_states=need)
    opt = [vals or {} for vals in aux["opt_vals"]]
    units = (cg.number(0), cg.number(1))
    fixed = {s: _settled_pair((o1, o2), row, [vals.get(s) for vals in opt],
                              units)
             for s, row in settled.items()}
    return fixed, aux


def solve_unbounded_pair(cg, query: NashNode, conv_epsilon=DEFAULT_CONV_EPSILON,
                         max_iters=DEFAULT_MAX_ITERS) -> PairResult:
    """Value iteration for a pair of infinite-horizon objectives on a
    `CoalitionGame`, in its number type.

    Converges when the per-state sum of the two values is stable below
    `conv_epsilon` and, guarding against the sum masking oscillation, each
    individual value is stable for two consecutive sweeps.  A detected
    period-two oscillation or exhausting `max_iters` raises NotConverged
    carrying the partial result.
    """
    o1, o2 = query.objectives
    number = cg.number
    jmdp = joint_mdp(cg)
    start = time.perf_counter()
    fixed, aux = _unbounded_fixed_rows(cg, query, jmdp)
    aux["mdp_s"] = time.perf_counter() - start
    rewards = _reward_names((o1, o2)) if o1.kind == "R" else (None, None)
    free = [s for s in cg.states if s not in fixed]

    zero = number(0)
    vals = {s: fixed.get(s, (zero, zero)) for s in cg.states}
    history = deque([vals], maxlen=_TRACE_LENGTH)
    profiles = {}
    stable = 0
    osc = 0
    diagnostic = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        new = dict(vals)
        for s in free:
            # the equilibrium's payoffs are exact; keep the solve's type
            (u, v), profiles[s] = _swne_step(cg, s, vals, rewards)
            new[s] = (number(u), number(v))
        # largest change over the free states: of the sum, of either value,
        # and of either value against two sweeps back
        back2 = history[-2] if len(history) >= 2 else None
        sum_delta = per_delta = back2_delta = 0.0
        for s in free:
            (a, b), (c, d) = new[s], vals[s]
            sum_delta = max(sum_delta, abs((a + b) - (c + d)))
            per_delta = max(per_delta, abs(a - c), abs(b - d))
            if back2 is not None:
                c, d = back2[s]
                back2_delta = max(back2_delta, abs(a - c), abs(b - d))
        history.append(new)
        vals = new
        stable = stable + 1 if per_delta < conv_epsilon else 0
        if sum_delta < conv_epsilon and stable >= 2:
            converged = True
            break
        if back2 is not None:
            osc = osc + 1 if (back2_delta <= _OSC_TOL and
                              per_delta >= conv_epsilon) else 0
            if osc >= 2:
                diagnostic = (
                    "oscillation: individual values repeat with period 2 "
                    "while their sum is constant; no equilibrium value "
                    "vector is being approached")
                break

    result = PairResult(
        values=vals, iterations=iterations, converged=converged,
        kind="unbounded", diagnostic=diagnostic,
        trace=list(history), profiles=profiles, aux=aux)
    if not converged:
        message = diagnostic or (
            f"value iteration did not converge within {iterations} sweeps")
        raise NotConverged(message, result)
    return result


# --- mixed horizons ---------------------------------------------------------------

def mixed_horizon_transform(cg, query: NashNode):
    """Reduce a mixed-horizon pair to an infinite-horizon pair on a product.

    Each state sub-formula is resolved on the base game (a `StateSet` as
    is) and lifted to the product states over it: in every layer for the
    infinite objective, in the layers its bound allows for the finite one.
    Returns (product game, rewritten query, embedding base-state -> product
    state).  The product is a `CoalitionGame` over states (s, layer), the
    layer counting up to an absorbing cap; it has no base game, (s, i) has
    the moves of s, and its initial states are (s, 0) for the initial s.
    Values of the original pair at s equal values of the rewritten pair at
    (s, 0).
    """
    objectives = list(query.objectives)
    fi = 0 if objectives[0].is_finite_horizon() else 1
    obj = objectives[fi]

    if obj.kind == "P" and obj.op == "X":
        cap = 2
    elif obj.kind == "P":                    # bounded until
        cap = obj.bound + 1
    elif obj.op == "I":
        cap = obj.bound + 1
    else:                                    # bounded cumulative
        cap = obj.bound

    states = tuple((s, i) for i in range(cap + 1) for s in cg.states)
    initial = tuple((s, 0) for s in cg.initial)
    trans = {}
    for (s, i) in states:
        nxt = min(i + 1, cap)
        trans[(s, i)] = {pair: {(t, nxt): p for t, p in dist.items()}
                         for pair, dist in cg.trans[s].items()}

    def layered(formula, layers=range(cap + 1)):
        sat = _sat(cg, formula)
        return StateSet(frozenset(p for p in states
                                  if p[0] in sat and p[1] in layers))

    # the finite objective becomes an unbounded one over layer-indexed sets
    if obj.kind == "P" and obj.op == "X":
        new_obj = Objective("P", "U", sub1=layered(TrueF()),
                            sub2=layered(obj.sub2, [1]))
    elif obj.kind == "P":
        k = obj.bound
        new_obj = Objective("P", "U", sub1=layered(obj.sub1, range(k)),
                            sub2=layered(obj.sub2, range(k + 1)))
    else:
        new_obj = Objective("R", "F", sub2=layered(TrueF(), [cap]),
                            reward="__bounded")
    objectives[1 - fi] = _with_sets(objectives[1 - fi], layered)

    def lift(rs, layers):
        return RewardStructure(
            {((s, i), pair): v for (s, pair), v in rs.action_rewards.items()
             for i in layers},
            {(s, i): v for s, v in rs.state_rewards.items() for i in layers})

    rewards = {o.reward: lift(cg.rewards[o.reward], range(cap + 1))
               for o in objectives if o.reward is not None}
    if obj.kind == "R":
        # I=k pays the state reward at layer k only; C<=k pays in layers < k
        bounded = cg.rewards[obj.reward]
        if obj.op == "I":
            bounded = RewardStructure({}, bounded.state_rewards)
        rewards["__bounded"] = lift(
            bounded, [obj.bound] if obj.op == "I" else range(obj.bound))

    objectives[fi] = new_obj
    new_query = NashNode(query.coalition1, query.coalition2, query.relation,
                         query.threshold, tuple(objectives))
    product = CoalitionGame(None, states, initial, trans, rewards,
                            {p: cg.moves[p[0]] for p in states}, cg.number)
    embedding = {s: (s, 0) for s in cg.states}
    return product, new_query, embedding


# --- evaluation and nested operators -----------------------------------------------

def _compare(value, relation, threshold):
    return {"<": value < threshold, "<=": value <= threshold,
            ">": value > threshold, ">=": value >= threshold}[relation]


def _zero_sum_values(game, node: ZeroSumNode):
    """Per-state optimal values for the supported zero-sum fragment: the
    grand coalition (pure cooperation, an MDP problem)."""
    if set(node.coalition) != set(game.players):
        raise UnsupportedOperator(
            "zero-sum coalition operators are supported only for the grand "
            "coalition (general stochastic-game solving is out of scope)")
    optimise = "min" if node.relation in ("<", "<=", "min=?") else "max"
    obj = node.objective
    return _optimum(joint_mdp(game), obj, optimise,
                    _statuses(game, [obj])[0])


def _solve_nash(csg, node: NashNode, conv_epsilon=DEFAULT_CONV_EPSILON,
                max_iters=DEFAULT_MAX_ITERS, strict_assumptions=False):
    """Dispatch a Nash query to the matching solver.

    Each objective's state sub-formulae are resolved once, on the base game,
    to `StateSet`s: the assumption check, the engines and the mixed-horizon
    product read sets only.  `true` stays as is: it holds on every game, and
    a set of every state would stay in the evaluation's query.  The solved
    game (the coalition game, or the
    product of a mixed pair) is compiled once to the solve's number type:
    exact for bounded pairs and for games of at most `_EXACT_STATE_LIMIT`
    states, floats otherwise.  With `strict_assumptions` a failed assumption
    check raises AssumptionViolated before anything is solved.  Returns
    (result, solved game, solved query, embedding, assumption report,
    per-base-state values); a NotConverged raised by the solver carries the
    report."""
    cg = coalition_game(csg, node.coalition1)
    node = replace(node, objectives=tuple(
        _with_sets(obj, lambda sub: sub if sub == TrueF() else
                   StateSet(_sat(csg, sub)))
        for obj in node.objectives))
    horizon = classify_horizon(node)
    if horizon.startswith("mixed"):
        game, query, embedding = mixed_horizon_transform(cg, node)
        report = check_assumption(game, query)
    else:
        game, query, embedding = cg, node, None
        report = check_assumption(csg, node)
    if strict_assumptions and not report.passed:
        raise AssumptionViolated(
            "assumption violated: " + "; ".join(report.messages()), report)
    exact = horizon == "both-finite" or \
        len(game.states) <= _EXACT_STATE_LIMIT
    game = compile_game(game, Fraction if exact else float)
    if horizon == "both-finite":
        result = solve_bounded_pair(game, query)
        return result, game, query, None, report, result.values
    try:
        result = solve_unbounded_pair(game, query, conv_epsilon=conv_epsilon,
                                      max_iters=max_iters)
    except NotConverged as err:
        err.assumption = report
        raise
    values = result.values if embedding is None else \
        {s: result.values[embedding[s]] for s in cg.states}
    return result, game, query, embedding, report, values


def sat_operator(game, node):
    """States satisfying a nested (threshold-form) coalition operator."""
    if node.threshold is None:
        raise PropertyError(
            "a numerical query cannot appear as a state subformula")
    return evaluate(game, node).sat


def evaluate(csg, formula, conv_epsilon=DEFAULT_CONV_EPSILON,
             max_iters=DEFAULT_MAX_ITERS, strict_assumptions=False
             ) -> Evaluation:
    """Evaluate a parsed property on a game.

    Boolean state formulae yield a satisfying set; coalition operators in
    query form yield per-state values with a summary at the initial states,
    in threshold form a satisfying set plus initial-state truth values.
    With `strict_assumptions`, a Nash operator whose assumption check fails
    raises AssumptionViolated instead of being solved.
    """
    if isinstance(formula, ZeroSumNode):
        vals = _zero_sum_values(csg, formula)
        if formula.threshold is None:
            return Evaluation(formula, "zero-sum-query", values=vals,
                              initial={s: vals[s] for s in csg.initial})
        sat = frozenset(s for s in csg.states
                        if _compare(vals[s], formula.relation,
                                    formula.threshold))
        return Evaluation(formula, "zero-sum-threshold", sat=sat, values=vals,
                          initial={s: s in sat for s in csg.initial})
    if isinstance(formula, NashNode):
        result, game, query, embedding, report, values = _solve_nash(
            csg, formula, conv_epsilon=conv_epsilon, max_iters=max_iters,
            strict_assumptions=strict_assumptions)
        solved = dict(values=values, solve=result, game=game, query=query,
                      embedding=embedding, assumption=report)
        if formula.threshold is None:
            return Evaluation(formula, "nash-query", **solved,
                              initial={s: values[s] for s in csg.initial})
        sat = frozenset(s for s in csg.states
                        if _compare(values[s][0] + values[s][1],
                                    formula.relation, formula.threshold))
        return Evaluation(formula, "nash-threshold", sat=sat, **solved,
                          initial={s: s in sat for s in csg.initial})
    sat = satisfying_states(csg, formula)
    return Evaluation(formula, "state-set", sat=sat,
                      initial={s: s in sat for s in csg.initial})
