"""MDP model checking used as a sub-routine by the game engines.

Covers maximal/minimal reachability probabilities (bounded and unbounded,
optionally with an until-style constraint set), one-step probabilities,
expected rewards (instantaneous, cumulative, reachability), qualitative
prob-1 analysis, and extraction of optimal strategies.

Unbounded values are computed by value iteration after qualitative
precomputation of the probability-0 and probability-1 state sets, so states
decided qualitatively carry exact 0/1 values even when iteration runs in
floating point.  Bounded values are backward steps.  On an exact MDP they run
on integers: every probability and reward is a numerator over one common
denominator D, the value vector after n steps holds numerators over a known
power of D, and exact rationals are built only for the vectors returned.  On
an MDP compiled to floats they run in floats.  Fixed 0/1 values are in the
MDP's `number` type: Fractions for an exact model, floats for one compiled to
floats.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import InfiniteValue, SolverError
from .model import Mdp

__all__ = [
    "reach_prob",
    "step_prob",
    "expected_reward",
    "prob1_min_set",
]

DEFAULT_EPSILON = 1e-6
DEFAULT_MAX_ITERS = 100000

# relative slack when recovering argmax/argmin sets from float-valued vectors
_ARG_TOL = 1e-9


def _edges(mdp, allowed=None):
    out = {}
    for s in mdp.states:
        if allowed is not None and s not in allowed:
            out[s] = set()
            continue
        succ = set()
        for _, dist in mdp.choices[s]:
            succ |= set(dist)
        out[s] = succ
    return out


def _backward_reachable(mdp, sources, allowed=None):
    """States with a path to `sources` (path interior restricted to `allowed`)."""
    edges = _edges(mdp, allowed)
    preds = {s: set() for s in mdp.states}
    for s, succ in edges.items():
        for t in succ:
            if t in preds:
                preds[t].add(s)
    reached = set(sources) & set(mdp.states)
    frontier = list(reached)
    while frontier:
        t = frontier.pop()
        for s in preds[t]:
            if s not in reached and (allowed is None or s in allowed):
                reached.add(s)
                frontier.append(s)
    return reached


def prob1_min_set(mdp: Mdp, targets):
    """States from which EVERY strategy reaches `targets` almost surely.

    These are the states with no path, through non-target states, into the
    states where some strategy avoids the targets forever.
    """
    targets, states = set(targets), set(mdp.states)
    never = _prob0_min_set(mdp, targets, states)
    bad = _backward_reachable(mdp, never, allowed=states - targets)
    return {s for s in mdp.states if s not in bad}


def _leaving(mdp, states, inside):
    """The choices of `states`, numbered in order: each one's state, how
    many of its successors lie outside `inside`, and per state of `inside`
    the numbers of the choices leading to it."""
    owner, out, preds = [], [], {t: [] for t in inside}
    for s in states:
        for _, dist in mdp.choices[s]:
            c = len(out)
            owner.append(s)
            n = 0
            for t in dist:
                if t in inside:
                    preds[t].append(c)
                else:
                    n += 1
            out.append(n)
    return owner, out, preds


def _prob1_max_set(mdp, targets, allowed):
    """States from which SOME strategy reaches `targets` almost surely.

    Standard double fixpoint: repeatedly keep only states that can reach the
    targets while never leaving the current candidate set.  A choice stays
    inside while none of its successors has left; each round searches
    backwards from the targets along such choices.
    """
    targets = set(targets)
    universe = {s for s in mdp.states if s in allowed} | targets
    movers = [s for s in mdp.states if s in universe and s not in targets]
    owner, out, preds = _leaving(mdp, movers, universe)
    while True:
        reach = set(targets)
        frontier = list(reach)
        while frontier:
            for c in preds[frontier.pop()]:
                s = owner[c]
                if not out[c] and s not in reach and s in universe:
                    reach.add(s)
                    frontier.append(s)
        if reach == universe:
            return reach
        for t in universe - reach:
            for c in preds[t]:
                out[c] += 1
        universe = reach


def _prob0_min_set(mdp, targets, allowed):
    """States where SOME strategy avoids `targets` forever.

    Greatest fixpoint of "has an action staying inside the set", by a
    worklist: a state leaves once none of its choices stays inside, and
    its leaving counts against the choices leading to it.  States outside
    `allowed` (until-constraint violations) trivially avoid.
    """
    targets = set(targets)
    group = {s for s in mdp.states if s not in targets}
    movers = [s for s in mdp.states if s in group and s in allowed]
    owner, out, preds = _leaving(mdp, movers, group)
    staying = dict.fromkeys(movers, 0)
    for s, n in zip(owner, out):
        if not n:
            staying[s] += 1
    drop = [s for s in movers if not staying[s]]
    while drop:
        t = drop.pop()
        group.discard(t)
        for c in preds[t]:
            out[c] += 1
            if out[c] == 1:
                s = owner[c]
                staying[s] -= 1
                if not staying[s]:
                    drop.append(s)
    return group


def _rows(mdp, ids, states, action_rewards=None, state_rewards=None):
    """The states to back up as indexed rows, in the MDP's own numbers.

    Each row is (state id, choices, state reward or None); each choice is
    (choice-id, successor ids, probabilities, action reward or None), with
    `ids` mapping states to their index in the value vector.
    """
    a_rew = action_rewards or {}
    s_rew = state_rewards or {}
    return [(ids[s], [(cid, [ids[t] for t in dist], list(dist.values()),
                       a_rew.get((s, cid)))
                      for cid, dist in mdp.choices[s]], s_rew.get(s))
            for s in states]


def _on_integers(rows):
    """Rational `rows` over one denominator D, the lcm of the denominators
    of their probabilities and rewards: returns the rows with every number
    replaced by its integer numerator over D, and D."""
    dens = set()
    for _, choices, paid in rows:
        for _, _, probs, a in choices:
            dens.update(p.denominator for p in probs)
            if a is not None:
                dens.add(a.denominator)
        if paid is not None:
            dens.add(paid.denominator)
    d = lcm(*dens)

    def num(r):
        return None if r is None else r.numerator * (d // r.denominator)

    return [(i, [(cid, succ, [num(p) for p in probs], num(a))
                 for cid, succ, probs, a in choices], num(paid))
            for i, choices, paid in rows], d


def _step(rows, vals, maximise, scale=1, grow=1):
    """One Bellman backup of the states in `rows` (see `_rows`).

    `vals` is indexed by state id.  Each row's state gets the best, over its
    choices, of sum(p * v[t]) plus the choice's action reward times `scale`,
    then its state reward times `scale`; ties keep the first choice.  States
    outside `rows` keep their value times `grow`.  Returns the new vector and
    the chosen id per row.
    """
    new = [v * grow for v in vals] if grow != 1 else list(vals)
    get = vals.__getitem__
    pick = max if maximise else min
    chosen = []
    for i, choices, paid in rows:
        totals = [sum(map(mul, probs, map(get, succ))) if a is None else
                  sum(map(mul, probs, map(get, succ))) + a * scale
                  for _, succ, probs, a in choices]
        best = pick(totals)
        new[i] = best if paid is None else best + paid * scale
        chosen.append(choices[totals.index(best)][0])
    return new, chosen


def _iterate(mdp, fixed, undecided, optimise, action_rewards=None,
             state_rewards=None, with_strategy=False):
    """Unbounded value iteration of the undecided states, from 0.0.

    Stops when no undecided value changes by DEFAULT_EPSILON or more,
    relative to its new size (at least 1).  Returns the values and, with
    `with_strategy`, the choices of one more backup of the undecided states
    (else an empty map).
    """
    vals = dict(fixed)
    vals.update(dict.fromkeys(undecided, 0.0))
    if not undecided:
        return vals, {}
    ids = {s: i for i, s in enumerate(vals)}
    rows = _rows(mdp, ids, undecided, action_rewards, state_rewards)
    cur = list(vals.values())
    moving = [ids[s] for s in undecided]
    maximise = optimise == "max"
    for _ in range(DEFAULT_MAX_ITERS):
        new, _ = _step(rows, cur, maximise)
        delta = max(abs(new[i] - cur[i]) / max(1.0, abs(new[i]))
                    for i in moving)
        cur = new
        if delta < DEFAULT_EPSILON:
            break
    else:
        raise SolverError("MDP value iteration exceeded the iteration limit")
    chosen = {}
    if with_strategy:
        chosen = dict(zip(undecided, _step(rows, cur, maximise)[1]))
    return dict(zip(vals, cur)), chosen


def _backward(mdp, vals, k, optimise, pinned=(), action_rewards=None,
              state_rewards=None, all_horizons=False):
    """`k` exact backward steps from the horizon-0 value vector `vals`.

    States in `pinned` keep their value and record no choice.  On an exact
    MDP the steps run on integers: with D from `_on_integers` and S the lcm
    of the denominators in `vals`, the value at horizon n is N/(S·D^n) for
    an integer vector N, rewards enter step n times S·D^(n-1) and pinned
    values are multiplied by D each step.  All choices of one step compare
    at one scale, so they pick as rational arithmetic would.  Returns the
    value vectors of horizons 0..k, or with `all_horizons` off only
    horizon k's, and the chosen ids per step (None at horizon 0).
    """
    states = mdp.states
    ids = {s: i for i, s in enumerate(states)}
    free = [s for s in states if s not in pinned]
    rows = _rows(mdp, ids, free, action_rewards, state_rewards)
    exact = mdp.number is Fraction
    if exact:
        rows, d = _on_integers(rows)
        scale = lcm(*(v.denominator for v in vals.values()))
        cur = [v.numerator * (scale // v.denominator)
               for v in map(vals.__getitem__, states)]
    else:
        d, scale = 1, 1
        cur = [vals[s] for s in states]
    history, steps = [vals], [None]
    maximise = optimise == "max"
    for n in range(1, k + 1):
        cur, chosen = _step(rows, cur, maximise, scale, d)
        scale *= d
        steps.append(dict(zip(free, chosen)))
        if all_horizons or n == k:
            history.append({s: Fraction(v, scale)
                            for s, v in zip(states, cur)} if exact
                           else dict(zip(states, cur)))
    return (history if all_horizons else history[-1]), steps


def reach_prob(mdp: Mdp, targets, optimise="max", bound=None, constraint=None,
               with_strategy=False, all_horizons=False):
    """(Constrained) reachability probabilities, optimised over strategies.

    With `constraint` the event is (constraint U targets); without, plain
    eventual reachability.  `bound=k` gives the k-step bounded variant (exact
    backward steps); `all_horizons` additionally returns the value vectors of
    every horizon 0..k.  With `with_strategy`, also returns the optimal
    strategy: a map state -> choice-id (unbounded, memoryless) or a list
    indexed by remaining steps 1..k (bounded).
    """
    targets = set(targets)
    allowed = set(mdp.states) if constraint is None else (set(constraint) | targets)
    zero, one = mdp.number(0), mdp.number(1)

    if bound is not None:
        vals = {s: one if s in targets else zero for s in mdp.states}
        pinned = {s for s in mdp.states if s in targets or s not in allowed}
        result, steps = _backward(mdp, vals, bound, optimise, pinned,
                                  all_horizons=all_horizons)
        return (result, steps) if with_strategy else result

    # qualitative analysis
    if optimise == "max":
        can = _backward_reachable(mdp, targets, allowed=allowed - targets) | targets
        sure = _prob1_max_set(mdp, targets, allowed)
        never = {s for s in mdp.states if s not in can}
    else:
        never = _prob0_min_set(mdp, targets, allowed)
        bad = _backward_reachable(mdp, never, allowed=allowed - targets)
        sure = {s for s in mdp.states if s not in bad}

    fixed = {}
    for s in mdp.states:
        if s in targets or s in sure:
            fixed[s] = one
        elif s in never or s not in allowed:
            fixed[s] = zero
    undecided = [s for s in mdp.states if s not in fixed]
    vals, _ = _iterate(mdp, fixed, undecided, optimise)
    if not with_strategy:
        return vals
    strategy = _extract_reach_strategy(mdp, vals, targets, allowed, optimise,
                                       never)
    return vals, strategy


def _extract_reach_strategy(mdp, vals, targets, allowed, optimise, zero):
    """Memoryless optimal strategy for (un)constrained reachability.

    Optimal actions attain the best one-step value of their state; for
    maximisation we additionally require positive-probability progress
    towards the targets (assigned in BFS layers), which rules out
    value-conserving cycles.  The best one-step value, not `vals[s]`, is the
    reference: where value iteration stopped short of the fixed point, the
    two differ by more than `_ARG_TOL`.
    """
    strategy = {}
    candidates = {}
    for s in mdp.states:
        if s in targets:
            strategy[s] = mdp.choices[s][0][0]
            continue
        if s not in allowed or s in zero and optimise == "max":
            strategy[s] = mdp.choices[s][0][0]
            continue
        step = [(cid, sum(p * vals[t] for t, p in dist.items()))
                for cid, dist in mdp.choices[s]]
        best = (max if optimise == "max" else min)(val for _, val in step)
        candidates[s] = [cid for cid, val in step
                         if abs(val - best) <= _ARG_TOL * max(1.0, abs(best))]
    if optimise == "min":
        # staying put can only lower reach probability, so any conserving
        # choice is optimal for minimisation
        for s, cand in candidates.items():
            strategy[s] = cand[0]
        return strategy
    # Layers are assigned one state at a time: always the least pending state
    # (by str, then state order) with a candidate reaching an assigned state,
    # which takes the first such candidate.  `ready` is a heap of exactly the
    # pending states that can progress; a state joins it when the first
    # successor of one of its candidates is assigned.
    assigned = set(targets)
    pending = {}
    ready = []
    queued = set()
    waiting = {}                  # successor -> heap entries of states reaching it
    for i, (s, cand) in enumerate(candidates.items()):
        dists = dict(mdp.choices[s])
        pending[s] = [(cid, dists[cid]) for cid in cand]
        entry = (str(s), i, s)
        succ = set().union(*(dist for _, dist in pending[s]))
        if not assigned.isdisjoint(succ):
            heapq.heappush(ready, entry)
            queued.add(s)
        else:
            for t in succ:
                waiting.setdefault(t, []).append(entry)
    while ready:
        _, _, s = heapq.heappop(ready)
        strategy[s] = next(cid for cid, dist in pending.pop(s)
                           if not assigned.isdisjoint(dist))
        assigned.add(s)
        for entry in waiting.pop(s, ()):
            if entry[2] not in queued:
                queued.add(entry[2])
                heapq.heappush(ready, entry)
    # remaining states have value 0 (cannot progress); any choice
    for s in pending:
        strategy[s] = candidates[s][0]
    return strategy


def step_prob(mdp: Mdp, targets, optimise="max", with_strategy=False):
    """One-step (next-state) probabilities of hitting `targets`."""
    targets = set(targets)
    zero, one = mdp.number(0), mdp.number(1)
    start = {s: one if s in targets else zero for s in mdp.states}
    vals, (_, strategy) = _backward(mdp, start, 1, optimise)
    return (vals, strategy) if with_strategy else vals


def expected_reward(mdp: Mdp, kind, *, k=None, targets=None,
                    action_rewards=None, state_rewards=None, optimise="max",
                    with_strategy=False, all_horizons=False,
                    needed_states=None):
    """Optimal expected reward for one of the three reward shapes.

    kind "I": state reward observed after exactly k steps.
    kind "C": state+action rewards accumulated over the first k steps.
    kind "F": rewards accumulated until first hitting `targets`; requires the
        targets to be reached almost surely under every strategy from each
        state in `needed_states` (default: all), else InfiniteValue is raised
        carrying the offending states.
    """
    a_rew = action_rewards or {}
    s_rew = state_rewards or {}
    zero = mdp.number(0)

    if kind in ("I", "C"):
        if k is None or k < 0:
            raise SolverError("bounded reward objectives need a bound k >= 0")
        if kind == "I":
            vals = {s: s_rew.get(s, zero) for s in mdp.states}
            result, steps = _backward(mdp, vals, k, optimise,
                                      all_horizons=all_horizons)
        else:
            vals = {s: zero for s in mdp.states}
            result, steps = _backward(mdp, vals, k, optimise, (), a_rew,
                                      s_rew, all_horizons)
        return (result, steps) if with_strategy else result

    if kind != "F":
        raise SolverError(f"unknown reward objective kind {kind!r}")
    targets = set(targets or ())
    finite = prob1_min_set(mdp, targets)
    wanted = set(needed_states) if needed_states is not None else set(mdp.states)
    bad = sorted((s for s in wanted if s not in finite), key=str)
    if bad:
        raise InfiniteValue(
            "expected reachability reward is infinite: targets are not "
            "reached almost surely under all strategies", states=bad)
    fixed = {s: zero for s in targets}
    undecided = [s for s in mdp.states if s in finite and s not in targets]
    a_rew = {key: float(r) for key, r in a_rew.items()}
    s_rew = {s: float(s_rew.get(s, 0)) for s in undecided}
    vals, chosen = _iterate(mdp, fixed, undecided, optimise, a_rew, s_rew,
                            with_strategy)
    for s in mdp.states:
        vals.setdefault(s, None)        # states with infinite value, unrequested
    if not with_strategy:
        return vals
    # all strategies reach the targets here, so any conserving choice is
    # optimal
    return vals, {s: chosen.get(s, mdp.choices[s][0][0]) for s in mdp.states}
