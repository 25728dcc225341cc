"""Equilibrium engine: social-welfare-optimal Nash values for two-coalition
objective pairs.

Finite-horizon pairs are solved by exact backwards induction, infinite-horizon
pairs by topological value iteration.  The rows of states where an objective
is already settled hold single-objective MDP optima; every other (free)
state solves one bimatrix game per sweep in `_sweep`, which re-solves a
state only when a successor's value pair changed in the previous sweep
(otherwise its game, and so its pair and profile, would repeat), and looks
the game up by its shape and successor pairs before building it, so each
distinct local game is built and solved once per solve (`LocalGameTable`).
Backwards induction sweeps every free state once per stage.  Value
iteration solves the strongly connected components of the free states one
at a time, sinks first: a state off every cycle once, against its
successors' final pairs, and any other component by sweeps over its own
states until its stop rule holds.  A mixed pair (one finite, one infinite
horizon) is solved by backwards induction too, on the coalition game: once
the finite horizon runs out only the infinite objective has stakes left, so
its cooperative optimum is its value at stage 0, and at every stage where
the finite objective is settled.

The number type of a solve is chosen once, in `_solve_nash`, before the game
is regrouped into it (`model.coalition_game`): bounded pairs are exact, and
any other pair is exact when the model's states times its layer count (1,
or for a mixed pair its finite horizon plus 2, or plus 1 for a C<=k
objective) are at most `_EXACT_STATE_LIMIT`; larger pairs run in floats end
to end.  Each engine compiles the states it solves once into a
`LocalGameTable`; on an exact solve every local game is then an integer
game, one denominator per player in lowest terms.

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
from math import lcm
from operator import mul

from .bimatrix import BimatrixGame, solve_swne
from .errors import (
    AssumptionViolated,
    NotConverged,
    PropertyError,
    UnknownReward,
    UnsupportedOperator,
)
from .expr import Lit
from .model import (
    CoalitionGame,
    _sccs,
    check_assumption,
    coalition_game,
    joint_mdp,
)
from .mdp import expected_reward, reach_prob, step_prob
from .properties import (
    NashNode,
    Objective,
    StateSet,
    ZeroSumNode,
    classify_horizon,
    satisfying_states,
)

__all__ = [
    "PairResult",
    "Evaluation",
    "LocalGameTable",
    "local_game",
    "local_game_table",
    "solve_bounded_pair",
    "solve_unbounded_pair",
    "evaluate",
    "sat_operator",
]

DEFAULT_CONV_EPSILON = 1e-6
DEFAULT_MAX_ITERS = 10000
_OSC_TOL = 1e-12
_EXACT_STATE_LIMIT = 64
# value vectors a bounded or failed result keeps: the oscillation check reads
# two sweeps back, and a run stopped at sweep 4 still holds sweeps 0..4
_TRACE_LENGTH = 5

PENDING, WON, LOST = "pending", "won", "lost"


# --- results ---------------------------------------------------------------------

@dataclass
class PairResult:
    """Outcome of solving one objective pair on a two-coalition game, and
    everything synthesis plays from it.  `kind` is "bounded" for a pair
    with a finite horizon, mixed pairs included, whose `iterations` is its
    stage count (its shorter finite horizon); for an unbounded pair,
    `iterations` is the most sweeps any strongly connected component of its
    free states took (1 when none lies on a cycle).  `pads[l]` is how far
    objective l's horizon exceeds the stage count, None for an objective
    with no finite horizon.  `trace` holds a bounded pair's last
    _TRACE_LENGTH stage vectors; a converged unbounded pair's final vector
    alone; a failed one's last _TRACE_LENGTH sweeps of the component that
    failed, as whole vectors.  `single[l]` holds objective l's optimal
    joint choices (state -> joint action) by remaining steps, None at 0: a
    finite objective's per-step list, `[None, strategy]` for an infinite
    one.  A strategy holds only the states where a profile can play it
    (`_coop_optima`): an unbounded pair's the forward closure of the
    settled states where l is pending (None if there are none), a finite
    objective's every state up to step pads[l] and above it the states a
    read reaches, and a mixed pair's infinite objective's every state."""

    values: dict                 # state -> (v1, v2)
    iterations: int
    converged: bool
    kind: str                    # "bounded" | "unbounded"
    diagnostic: str = None
    trace: list = None           # value vectors, oldest first
    profiles: object = None      # per-state local profiles; bounded: per stage
    statuses: tuple = None       # `_statuses` of the pair
    single: tuple = None
    pads: tuple = (None, None)   # how far each horizon exceeds `iterations`
    mdp_s: float = 0.0           # seconds the single-objective optima took


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
    query: NashNode = None       # the pair solved on it, state sets resolved
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
    return tuple(out)


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
             with_strategy=False, reads=None):
    """Single-objective optimum of `obj` on `mdp`, any MDP whose states the
    sets of `status` range over: a joint MDP, or the (state, mode) nodes of
    a profile under verification.

    `status` is the objective's (win, lose, settleable) entry of `_statuses`:
    the win set is the target of an until, a next step or a reachability
    reward, and the until constraint is every state not lost.  Returns
    per-state values or, with `all_horizons`, the value vectors of horizons
    0..k; with `with_strategy` also the optimal choices (per step for
    bounded objectives, None at horizon 0).

    `reads` names what the caller reads, and the optimum is computed only
    where that needs it.  For an unbounded objective it is a set of states
    where a reachability reward must be finite; the values and strategy
    cover every state of `mdp`, so a caller that reads less solves on the
    forward closure of its reads (`model.joint_mdp(game, reads)`).  For a
    bounded objective it is (state, horizon) pairs: a state is backed up at
    a horizon only where a read reaches it (`mdp._backward`), and each
    vector holds its horizon's reads alone.
    """
    win, lose, _ = status
    if obj.kind == "R":
        rs = mdp.rewards[obj.reward]
        return expected_reward(mdp, obj.op, k=obj.bound, targets=win,
                               action_rewards=rs.action_rewards,
                               state_rewards=rs.state_rewards,
                               optimise=optimise, with_strategy=with_strategy,
                               all_horizons=all_horizons, reads=reads)
    if obj.op == "U":
        return reach_prob(mdp, win, optimise, bound=obj.bound,
                          constraint={s for s in mdp.states if s not in lose},
                          with_strategy=with_strategy,
                          all_horizons=all_horizons,
                          reads=None if obj.bound is None else reads)
    vals, strategy = step_prob(mdp, win, optimise, with_strategy=True,
                               reads=reads)
    if all_horizons:
        start = mdp.states if reads is None else \
            [s for s, n in reads if n == 0]
        one, zero = mdp.number(1), mdp.number(0)
        vals = [{s: one if s in win else zero for s in start}, vals]
        strategy = [None, strategy]
    return (vals, strategy) if with_strategy else vals


def _over_lcm(values, exact):
    """`values` over one denominator: on an exact solve, the lcm of their
    denominators and the integer numerators over it; floats are kept, over
    1."""
    if not exact:
        return 1, values
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(q for _, q in ratios))
    return den, [n * (den // q) for n, q in ratios]


@dataclass(frozen=True)
class LocalGameTable:
    """What the local games of one solve are built from, per state, and the
    equilibria selected on them so far.

    `entries[s]` is (moves, successors, D, choices, payments): the state's
    `moves`; the union of its successors; per joint move, row-major over the
    moves, the positions of its successors in that union and their
    probabilities, numerators over D (the lcm of the state's probability
    denominators); and per objective None, or (R, the state plus action
    reward of each move as numerators over R).  In float mode every
    denominator is 1 and the numbers are the game's floats.

    `shapes[s]` numbers the state's (moves, D, choices, payments): states
    with one shape id build equal local games from equal successor pairs,
    taken in their successor order.  `memo` maps such a (shape id,
    successor pairs) key to the pair and profile `_sweep` selected for it,
    so each distinct local game of a solve is built and solved once.  It
    holds at most one key per entry: `_sweep` empties it when it is full.

    `read` holds the states in some successor union: those whose value
    pairs some local game reads.
    """

    exact: bool
    entries: dict
    read: frozenset
    shapes: dict
    memo: dict = field(default_factory=dict, compare=False, repr=False)


def local_game_table(game, states, rewards=(None, None)) -> LocalGameTable:
    """The local-game table of `states`, read off the game's joint MDP (a
    state's row lists its joint moves row-major already); per objective,
    `rewards` may name a reward structure whose state and action rewards
    every entry adds (the cumulative and reachability-reward shapes)."""
    exact = game.number is Fraction
    graph = game.graph
    names, rows, ids = graph.states, graph.rows, graph.ids
    structures = [None if name is None else game.rewards[name]
                  for name in rewards]
    entries, read, shapes, numbered = {}, set(), {}, {}
    for s in states:
        row = rows[ids[s]]
        union = list(dict.fromkeys(t for _, succ, _ in row for t in succ))
        pos = {t: i for i, t in enumerate(union)}
        succ = [names[t] for t in union]
        read.update(succ)
        d, probs = _over_lcm([p for _, _, ps in row for p in ps], exact)
        choices, at = [], 0
        for _, ts, ps in row:
            choices.append((tuple([pos[t] for t in ts]),
                            tuple(probs[at:at + len(ps)])))
            at += len(ps)
        payments = []
        for rs in structures:
            pays = [] if rs is None else [rs.state(s) + rs.action(s, cid)
                                          for cid, _, _ in row]
            if any(pays):
                r, pays = _over_lcm(pays, exact)
                payments.append((r, tuple(pays)))
            else:
                payments.append(None)
        moves = game.moves[s]
        choices, payments = tuple(choices), tuple(payments)
        shapes[s] = numbered.setdefault((moves, d, choices, payments),
                                        len(numbered))
        entries[s] = (moves, succ, d, choices, payments)
    return LocalGameTable(exact, entries, frozenset(read), shapes)


def local_game(table, state, continuation) -> BimatrixGame:
    """The one-shot game at `state` over coalition actions.

    Each payoff entry is the expected continuation value plus, where the
    table has them, the move's rewards.  On an exact solve, objective l's
    entries are integers: with the successors' values over their lcm L, the
    entry sum(p * v) + r is the integer dot product of the probability and
    value numerators times R, plus r's numerator times D*L, over D*L*R;
    `BimatrixGame.from_numerators` divides by the gcd, so games with equal
    payoffs are equal.  A float value in an exact solve (the optimum of a
    settled state's pending objective, from float value iteration) is read
    as the rational it denotes.
    """
    moves, succ, d, choices, payments = table.entries[state]
    cols = len(moves[1])
    matrices = []
    for l, paid in enumerate(payments):
        scale, vals = _over_lcm([continuation[t][l] for t in succ],
                                table.exact)
        get = vals.__getitem__
        entries = [sum(map(mul, probs, map(get, idx)))
                   for idx, probs in choices]
        scale *= d
        if paid is not None:
            r, pays = paid
            entries = [e * r + scale * p for e, p in zip(entries, pays)]
            scale *= r
        matrices.append([tuple(entries[i:i + cols])
                         for i in range(0, len(entries), cols)])
        matrices.append(scale)
    return BimatrixGame.from_numerators(*matrices)


def _reward_names(objectives):
    return tuple(obj.reward if obj.kind == "R" and obj.op in ("C", "F") else None
                 for obj in objectives)


def _coop_optima(cg, objectives, stat, settled, pads=(None, None)):
    """Per objective, its optimum on the joint MDP of `cg` and an optimal
    strategy by remaining steps, and the seconds they took; for an
    objective with a finite horizon (`pads[l]` not None), the optima of
    every horizon.

    An optimum is computed only where it is read.  Both coalitions play
    objective l's optimum only once the other objective is settled and l is
    still pending: from `need`, the settled states where l is pending, and
    the states a play can reach from them.  Nothing else reads it, neither
    the solve's rows nor a synthesised profile's memory, whichever side
    deviates.  So an unbounded pair's optimum is computed on the joint MDP
    of the forward closure of `need`, and not at all when `need` is empty.
    A pair with a finite horizon solves both objectives on one joint MDP of
    every state.  It reads a finite objective at every state at horizons
    0..pads[l], where its stage count starts and where a profile plays it
    once the shared stages run out, and above pads[l] at `need` alone; it
    reads an infinite one at every state, its value once the finite horizon
    runs out.
    """
    start = time.perf_counter()
    optima, strategies = [None, None], [[None, None], [None, None]]
    stages = pads != (None, None)
    jmdp = joint_mdp(cg) if stages else None
    for l, (obj, status) in enumerate(zip(objectives, stat)):
        need = [s for s, row in settled.items() if row[l] == PENDING]
        mdp, reads = jmdp, None
        if pads[l] is not None:
            reads = [(s, n) for n in range(pads[l] + 1) for s in mdp.states]
            reads += [(s, n) for n in range(pads[l] + 1, _horizon(obj) + 1)
                      for s in need]
        elif not stages:
            if not need:
                continue
            reads = set(need)
            mdp = joint_mdp(cg, reads)
        optima[l], strategy = _optimum(
            mdp, obj, "max", status, all_horizons=pads[l] is not None,
            with_strategy=True, reads=reads)
        strategies[l] = strategy if pads[l] is not None else [None, strategy]
    return optima, strategies, time.perf_counter() - start


def _sweep(table, states, vals, changed, profiles):
    """A stage or sweep over `states`: each one's local game against the
    vector `vals` solved (its exact payoffs converted on a float table).
    Returns the new pairs and the profiles ("mix", acts1, acts2, x, y) of
    `states`, in their order.

    A local game is a function of its state and its successors' pairs, so
    a state is re-solved only when a successor is in `changed`, the states
    whose pairs changed in the previous sweep; `changed` None solves them
    all.  A skipped state keeps its pair in `vals` and its profile in
    `profiles`.  The check reads the successors of `states` alone.

    A state that is re-solved first looks its game up in `table.memo`, by
    its shape id and its successors' pairs: on an exact table as integer
    ratios, which `local_game` reads a float as too, so a float and its
    `Fraction` image give one key.  Only a game not found there is built
    and solved."""
    pairs, out = {}, {}
    entries, shapes, memo, exact = \
        table.entries, table.shapes, table.memo, table.exact
    for s in states:
        succ = entries[s][1]
        if changed is not None and changed.isdisjoint(succ):
            pairs[s], out[s] = vals[s], profiles[s]
            continue
        if exact:
            key = (shapes[s], *[(u.as_integer_ratio(), v.as_integer_ratio())
                                for u, v in map(vals.__getitem__, succ)])
        else:
            key = (shapes[s], *map(vals.__getitem__, succ))
        solved = memo.get(key)
        if solved is None:
            chosen = solve_swne(local_game(table, s, vals))
            if len(memo) >= len(entries):
                memo.clear()
            solved = memo[key] = (
                (chosen.u, chosen.v) if exact else
                (float(chosen.u), float(chosen.v)),
                ("mix", *entries[s][0], chosen.x, chosen.y))
        pairs[s], out[s] = solved
    return pairs, out


# --- bounded pairs ----------------------------------------------------------------

def solve_bounded_pair(cg, query: NashNode) -> PairResult:
    """Backwards induction for a pair with at least one finite horizon, in
    the number type of `cg`: exact on an exact game, but for an infinite
    objective's optimum, a value-iteration float where it is not decided
    qualitatively.

    The stage count k is the shorter finite horizon.  Stage 0 holds each
    objective's cooperative optimum: a finite one's at its pad, the steps
    its horizon exceeds k by, and an infinite one's, which is its value at
    every stage where it alone has stakes left.  Each of the k stages then
    solves the free states' local games against the stage before.
    """
    objectives = query.objectives
    horizons = [_horizon(obj) for obj in objectives]
    k = min(h for h in horizons if h is not None)
    pads = tuple(None if h is None else h - k for h in horizons)
    stat, settled = _settlement(cg, objectives)
    coop, coop_strats, mdp_s = _coop_optima(cg, objectives, stat, settled,
                                            pads)
    free = [s for s in cg.states if s not in settled]
    table = local_game_table(cg, free, _reward_names(objectives))
    units = cg.number(0), cg.number(1)

    def optimum(l, n):
        """Objective l's cooperative optimum with n stages left."""
        return coop[l] if pads[l] is None else coop[l][n + pads[l]]

    vals = {s: (optimum(0, 0)[s], optimum(1, 0)[s]) for s in cg.states}
    history = deque([vals], maxlen=_TRACE_LENGTH)
    stage_profiles = [None]
    changed = None
    for n in range(1, k + 1):
        pairs, profiles = _sweep(table, free, vals, changed,
                                 stage_profiles[-1])
        new = dict(vals)
        new.update((s, _settled_pair(
                        objectives, row,
                        [optimum(l, n)[s] if st == PENDING else None
                         for l, st in enumerate(row)], units))
                   for s, row in settled.items())
        new.update(pairs)
        changed = {t for t in table.read if new[t] != vals[t]}
        vals = new
        history.append(vals)
        stage_profiles.append(profiles)

    return PairResult(
        values=vals, iterations=k, converged=True, kind="bounded",
        trace=list(history), profiles=stage_profiles, statuses=stat,
        single=tuple(coop_strats), pads=pads, mdp_s=mdp_s)


# --- unbounded pairs --------------------------------------------------------------

def _components(table, free, settled):
    """The strongly connected components of the free states, over the edges
    from each to the free states among its successors, sinks first (the
    order Tarjan's algorithm emits them in).  Yields each as a list in
    table order, with whether it lies on a cycle: more than one state, or a
    state that is its own successor."""
    edges = {s: [t for t in table.entries[s][1] if t not in settled]
             for s in free}
    position = {s: i for i, s in enumerate(free)}
    for comp in _sccs(free, edges):
        states = sorted(comp, key=position.__getitem__)
        yield states, len(states) > 1 or states[0] in edges[states[0]]


def _iterate(table, states, vals, profiles, conv_epsilon, max_iters):
    """Value iteration on one component on a cycle: sweeps over `states`,
    each against the last, with every successor outside them at its final
    pair in `vals`.  Updates `vals` and `profiles` in place.  Returns the
    sweep count, a diagnostic (None unless the values oscillate), and None
    on convergence, else the component's last _TRACE_LENGTH vectors.

    Converges when the per-state sum of the two values is stable below
    `conv_epsilon` and, guarding against the sum masking oscillation, each
    individual value is stable for two consecutive sweeps."""
    history = deque([{s: vals[s] for s in states}], maxlen=_TRACE_LENGTH)
    changed = None
    stable = osc = sweeps = 0
    for sweeps in range(1, max_iters + 1):
        pairs, out = _sweep(table, states, vals, changed, profiles)
        # largest change: of the sum, of either value, and of either value
        # against two sweeps back
        back2 = history[-2] if len(history) >= 2 else None
        sum_delta = per_delta = back2_delta = 0.0
        changed = set()
        for s in states:
            if pairs[s] != vals[s]:
                changed.add(s)
            (a, b), (c, d) = pairs[s], vals[s]
            sum_delta = max(sum_delta, abs((a + b) - (c + d)))
            per_delta = max(per_delta, abs(a - c), abs(b - d))
            if back2 is not None:
                c, d = back2[s]
                back2_delta = max(back2_delta, abs(a - c), abs(b - d))
        history.append(pairs)
        vals.update(pairs)
        profiles.update(out)
        stable = stable + 1 if per_delta < conv_epsilon else 0
        if sum_delta < conv_epsilon and stable >= 2:
            return sweeps, None, None
        if back2 is not None:
            osc = osc + 1 if (back2_delta <= _OSC_TOL and
                              per_delta >= conv_epsilon) else 0
            if osc >= 2:
                return sweeps, (
                    "oscillation: individual values repeat with period 2 "
                    "while their sum is constant; no equilibrium value "
                    "vector is being approached"), history
    return sweeps, None, history


def solve_unbounded_pair(cg, query: NashNode, conv_epsilon=DEFAULT_CONV_EPSILON,
                         max_iters=DEFAULT_MAX_ITERS) -> PairResult:
    """Topological value iteration for a pair of infinite-horizon objectives
    on a `CoalitionGame`, in its number type.

    The free states are solved one strongly connected component at a time,
    sinks first, so each component reads its successors' final pairs.  A
    single state off every cycle is solved once, exactly.  Every other
    component is iterated (`_iterate`) for at most `max_iters` sweeps; a
    detected period-two oscillation or exhausting `max_iters` raises
    NotConverged carrying the partial result, whose message names the
    component.  `iterations` is the most sweeps any component took (1 when
    no free state lies on a cycle); a converged result's `trace` holds its
    final vector alone, a failed one's the last vectors of the failing
    component, whole, as they stood when it stopped.
    """
    objectives = query.objectives
    stat, settled = _settlement(cg, objectives)
    opt_vals, single, mdp_s = _coop_optima(cg, objectives, stat, settled)
    free = [s for s in cg.states if s not in settled]
    table = local_game_table(cg, free, _reward_names(objectives))

    zero, one = cg.number(0), cg.number(1)
    opt = [optima or {} for optima in opt_vals]
    fixed = {s: _settled_pair(objectives, row,
                              [optima.get(s) for optima in opt], (zero, one))
             for s, row in settled.items()}
    vals = {s: fixed.get(s, (zero, zero)) for s in cg.states}
    profiles = {}
    iterations = 1
    failed = diagnostic = None
    for states, cyclic in _components(table, free, settled):
        if not cyclic:
            pairs, out = _sweep(table, states, vals, None, profiles)
            vals.update(pairs)
            profiles.update(out)
            continue
        sweeps, diagnostic, history = _iterate(
            table, states, vals, profiles, conv_epsilon, max_iters)
        iterations = max(iterations, sweeps)
        if history is not None:
            failed = states
            break

    result = PairResult(
        values=vals, iterations=iterations, converged=failed is None,
        kind="unbounded", diagnostic=diagnostic,
        trace=[vals] if failed is None else
        [{**vals, **pairs} for pairs in history],
        profiles={s: profiles[s] for s in free if s in profiles},
        statuses=stat, single=tuple(single), mdp_s=mdp_s)
    if failed is not None:
        message = diagnostic or (
            f"value iteration did not converge within {sweeps} sweeps")
        names = ", ".join(map(cg.base.state_name, failed[:5]))
        more = ", ..." if len(failed) > 5 else ""
        raise NotConverged(
            f"{message}, in a strongly connected component of "
            f"{len(failed)} free state{'s' if len(failed) > 1 else ''}: "
            f"{names}{more}", result)
    return result


# --- mixed horizons ---------------------------------------------------------------

# Mixed pairs are solved by `solve_bounded_pair`.  The name stays bound
# because perfbench/layers.py traces it; ROADMAP item 9 removes it.
mixed_horizon_transform = None


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
    """Dispatch a Nash query to the matching solver: a pair of infinite
    horizons to value iteration, any other to backwards induction.

    Each objective's state sub-formulae are resolved once, on the base game,
    to `StateSet`s: the assumption check and the engines read sets only.
    `true` stays as is: it holds on every game, and a set of every state
    would stay in the evaluation's query.  The number type is chosen first:
    exact for bounded pairs and where the model's states times the pair's
    layer count are at most `_EXACT_STATE_LIMIT`, floats otherwise.  A
    mixed pair counts its finite horizon plus 2 layers, or plus 1 for a
    C<=k objective, the size of the step-counter product it was once solved
    on.  The coalition game is built once, in that type.  The assumption is
    checked on it; with `strict_assumptions` a failed check raises
    AssumptionViolated before anything is solved.  Returns the
    `Evaluation` fields of the solve by name: `solve`, `game`, `query`,
    `assumption` and `values`; a NotConverged raised by the solver carries
    the assumption report."""
    horizon = classify_horizon(node)
    layers = 1
    if horizon.startswith("mixed"):
        obj = next(o for o in node.objectives if o.is_finite_horizon())
        layers = _horizon(obj) + 1 + (obj.op != "C")
    exact = horizon == "both-finite" or \
        len(csg.states) * layers <= _EXACT_STATE_LIMIT
    game = coalition_game(csg, node.coalition1, Fraction if exact else float)
    query = replace(node, objectives=tuple(
        _with_sets(obj, lambda sub: sub if sub == Lit(True) else
                   StateSet(_sat(csg, sub)))
        for obj in node.objectives))
    report = check_assumption(game, query)
    if strict_assumptions and not report.passed:
        raise AssumptionViolated(
            "assumption violated: " + "; ".join(report.messages()), report)
    try:
        if horizon == "both-infinite":
            result = solve_unbounded_pair(game, query,
                                          conv_epsilon=conv_epsilon,
                                          max_iters=max_iters)
        else:
            result = solve_bounded_pair(game, query)
    except NotConverged as err:
        err.assumption = report
        raise
    return dict(values=result.values, solve=result, game=game, query=query,
                assumption=report)


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
    raises AssumptionViolated instead of being solved.  A coalition
    operator naming a reward structure the game does not declare raises
    UnknownReward before anything is built, as parsing against the model
    would.
    """
    if isinstance(formula, (NashNode, ZeroSumNode)):
        objectives = formula.objectives if isinstance(formula, NashNode) \
            else (formula.objective,)
        for obj in objectives:
            if obj.reward is not None and obj.reward not in csg.rewards:
                raise UnknownReward(
                    f"unknown reward structure {obj.reward!r}")
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
        solved = _solve_nash(csg, formula, conv_epsilon=conv_epsilon,
                             max_iters=max_iters,
                             strict_assumptions=strict_assumptions)
        values = solved["values"]
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
