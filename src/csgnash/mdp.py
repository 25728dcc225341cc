"""MDP model checking used as a sub-routine by the game engines.

Covers maximal/minimal reachability probabilities (bounded and unbounded,
optionally with an until-style constraint set), one-step probabilities,
expected rewards (instantaneous, cumulative, reachability), qualitative
prob-1 analysis, and extraction of optimal strategies.

Every routine takes an MDP in the one id-indexed form, `model.IndexedMdp`,
and solves the graph it is given: states are numbered, each state's choices
are (choice id, successor ids, probabilities), and each state lists the
choices leading to it, for the qualitative sets and the max-reach strategy.
A game is built in that form (`Csg.graph`, by the `.csg` builder or
`Csg.create`), the coalition game regroups it (`model.coalition_game`),
`model.joint_mdp` restricts it to the forward closure of the states a
caller reads, and verification's induced MDPs are folded in it by
`model.induce_mdp`.

Unbounded values are computed by value iteration after qualitative
precomputation of the probability-0 and probability-1 state sets, so states
decided qualitatively carry exact 0/1 values even when iteration runs in
floating point.  Bounded values are backward steps, computed only where they
are read: a caller may name the (state, horizon) pairs it reads, and a state
is then backed up at horizon n only if such a read reaches it in the
remaining steps through unpinned states (`_backward`).  A caller that names
no reads gets every state at every horizon.  On an exact MDP the steps run
on integers: every probability and reward is a numerator over one common
denominator D, the value vector after n steps holds numerators over a known
power of D, and exact rationals are built only for the vectors returned.  On
an MDP compiled to floats they run in floats.  Fixed 0/1 values are in the
MDP's `number` type: Fractions for an exact model, floats for one compiled
to floats.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import chain
from math import lcm
from operator import mul

from .errors import InfiniteValue, NotConverged, SolverError
from .model import IndexedMdp

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


def _id_set(g, states):
    return {g.ids[s] for s in states if s in g.ids}


def _outside(g, inside):
    """Per choice number: how many of its successors lie outside `inside`."""
    return [sum(t not in inside for t in succ)
            for choices in g.rows for _, succ, _ in choices]


def _attractor(g, sources, through, out):
    """`sources` and the states of `through` with a path into them whose
    every step takes a choice c with no successor counted in `out[c]`."""
    owner, preds = g.owner, g.preds
    reached = set(sources)
    frontier = list(reached)
    while frontier:
        for c in preds[frontier.pop()]:
            s = owner[c]
            if not out[c] and s not in reached and s in through:
                reached.add(s)
                frontier.append(s)
    return reached


def prob1_min_set(mdp: IndexedMdp, targets):
    """States from which EVERY strategy reaches `targets` almost surely.

    These are the states with no path, through non-target states, into the
    states where some strategy avoids the targets forever.
    """
    _, sure = _almost_sure(mdp, _id_set(mdp, targets),
                           set(range(len(mdp.rows))))
    return {s for s, i in mdp.ids.items() if i in sure}


def _almost_sure(g, targets, allowed):
    """The states where SOME strategy avoids `targets` forever, and those
    where EVERY strategy satisfies (allowed U targets) almost surely.

    The first set is the greatest fixpoint of "has an action staying inside
    the set", by a worklist: a state leaves once none of its choices stays
    inside, and its leaving counts against the choices leading to it.
    States outside `allowed` (until-constraint violations) trivially avoid.
    The second set is the states with no path, through allowed non-target
    states, into the first.
    """
    owner = g.owner
    never = set(range(len(g.rows))) - targets
    out = _outside(g, never)
    staying = dict.fromkeys(never & allowed, 0)
    for s, n in zip(owner, out):
        if not n and s in staying:
            staying[s] += 1
    drop = [s for s, n in staying.items() if not n]
    while drop:
        t = drop.pop()
        never.discard(t)
        for c in g.preds[t]:
            out[c] += 1
            s = owner[c]
            if out[c] == 1 and s in staying:
                staying[s] -= 1
                if not staying[s]:
                    drop.append(s)
    bad = _attractor(g, never, allowed - targets, bytes(len(owner)))
    return never, set(range(len(g.rows))) - bad


def _prob1_max_set(g, targets, allowed):
    """States from which SOME strategy reaches `targets` almost surely.

    Standard double fixpoint: repeatedly keep only states that can reach the
    targets while never leaving the current candidate set.  A choice stays
    inside while none of its successors has left; each round searches
    backwards from the targets along such choices.
    """
    universe = allowed | targets
    out = _outside(g, universe)
    while True:
        reach = _attractor(g, targets, universe, out)
        if reach == universe:
            return reach
        for t in universe - reach:
            for c in g.preds[t]:
                out[c] += 1
        universe = reach


def _rows(g, free, action_rewards=None, state_rewards=None):
    """The states `free` (ids) to back up, as rows for `_step`.

    Each row is (state id, choices, state reward or None); each choice is
    (choice id, successor ids, probabilities, action reward or None).
    """
    a_rew = action_rewards or {}
    s_rew = state_rewards or {}
    states, rows = g.states, g.rows
    return [(i, [(cid, succ, probs, a_rew.get((states[i], cid)))
                 for cid, succ, probs in rows[i]], s_rew.get(states[i]))
            for i in free]


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


def _step(rows, vals, maximise, scale=1):
    """One Bellman backup of the states in `rows` (see `_rows`).

    `vals` is indexed by state id.  Each row's state gets the best, over its
    choices, of sum(p * v[t]) plus the choice's action reward times `scale`,
    then its state reward times `scale`; ties keep the first choice.  States
    outside `rows` keep their value.  Returns the new vector and the chosen
    id per row.
    """
    new = list(vals)
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


def _iterate(g, start, undecided, optimise, action_rewards=None,
             state_rewards=None, with_strategy=False):
    """Unbounded value iteration of the `undecided` ids from 0.0; the other
    ids keep their value in the vector `start`.

    Stops when no undecided value changes by DEFAULT_EPSILON or more,
    relative to its new size (at least 1), or raises NotConverged after
    DEFAULT_MAX_ITERS sweeps.  Returns the value vector and, with
    `with_strategy`, the choices of one more backup of the undecided states
    (else an empty list).
    """
    cur = list(start)
    for i in undecided:
        cur[i] = 0.0
    rows = _rows(g, undecided, action_rewards, state_rewards)
    maximise = optimise == "max"
    for _ in range(DEFAULT_MAX_ITERS):
        new, _ = _step(rows, cur, maximise)
        moved = [abs(new[i] - cur[i]) / max(1.0, abs(new[i]))
                 for i in undecided]
        cur = new
        if max(moved, default=0.0) < DEFAULT_EPSILON:
            break
    else:
        worst = max(moved)
        raise NotConverged(
            f"MDP value iteration exceeded the iteration limit of "
            f"{DEFAULT_MAX_ITERS} sweeps: state "
            f"{g.states[undecided[moved.index(worst)]]} still changed by "
            f"{worst:.3g} (relative) in the last sweep")
    return cur, _step(rows, cur, maximise)[1] if with_strategy else []


def _demand(g, k, fixed, reads):
    """Which ids a backward run of `k` steps must hold to serve `reads`,
    (state, horizon) pairs with 0 <= horizon <= k.

    An id is needed at horizon n if it is read there or a state backed up
    at step n + 1 has it as a successor; it is backed up at step n >= 1 if
    it is needed there and not in `fixed` (the pinned ids).  Returns, per
    horizon, the ids read there, the pinned ids needed there and the ids
    backed up (None at horizon 0), each in id order.
    """
    read = [set() for _ in range(k + 1)]
    for s, n in reads:
        read[n].add(g.ids[s])
    held, backed = [None] * (k + 1), [None] * (k + 1)
    rows, carry = g.rows, set()
    for n in range(k, -1, -1):
        needed = sorted(read[n] | carry)
        held[n] = [i for i in needed if i in fixed]
        if n:
            backed[n] = [i for i in needed if i not in fixed]
            carry = {t for i in backed[n] for _, succ, _ in rows[i]
                     for t in succ}
    return [sorted(ids) for ids in read], held, backed


def _backward(g, vals, k, optimise, pinned=(), action_rewards=None,
              state_rewards=None, all_horizons=False, reads=None):
    """`k` exact backward steps from the horizon-0 value vector `vals`.

    `reads` names (state, horizon) pairs with 0 <= horizon <= k, by default
    every pair.  States in `pinned` keep their value and record no choice.
    A state is backed up at step n only if a read reaches it in the
    remaining steps through unpinned states (`_demand`), and each returned
    vector holds the states read at its horizon alone.  A value at a read
    does not depend on what else is read.

    On an exact MDP the steps run on integers: with D from `_on_integers`
    and S the lcm of the denominators in `vals`, the value at horizon n is
    N/(S·D^n) for an integer vector N, rewards enter step n times S·D^(n-1)
    and a pinned value's numerator is its horizon-0 one times D^n.  All
    choices of one step compare at one scale, so they pick as rational
    arithmetic would.  Returns the value vectors of horizons 0..k, or with
    `all_horizons` off only horizon k's, and the chosen ids per step (None
    at horizon 0).
    """
    states = g.states
    fixed = {i for i, s in enumerate(states) if s in pinned}
    if reads is None:
        reads = [(s, n) for n in range(k + 1) for s in states]
    shown, held, backed = _demand(g, k, fixed, reads)
    free = sorted(set().union(*backed[1:]))
    rows = _rows(g, free, action_rewards, state_rewards)
    exact = g.number is Fraction
    if exact:
        rows, d = _on_integers(rows)
        scale = lcm(*(v.denominator for v in vals.values()))
        base = [v.numerator * (scale // v.denominator)
                for v in map(vals.__getitem__, states)]
    else:
        d, scale = 1, 1
        base = [vals[s] for s in states]
    row_of = dict(zip(free, rows))
    cur = base
    history = [{states[i]: vals[states[i]] for i in shown[0]}]
    steps = [None]
    maximise = optimise == "max"
    for n in range(1, k + 1):
        cur, chosen = _step([row_of[i] for i in backed[n]], cur, maximise,
                            scale)
        scale *= d
        if d != 1:
            grow = d ** n
            for i in held[n]:
                cur[i] = base[i] * grow
        steps.append(dict(zip(map(states.__getitem__, backed[n]), chosen)))
        if all_horizons or n == k:
            pairs = ((states[i], cur[i]) for i in shown[n])
            history.append({s: Fraction(v, scale) for s, v in pairs}
                           if exact else dict(pairs))
    return (history if all_horizons else history[-1]), steps


def reach_prob(mdp: IndexedMdp, targets, optimise="max", bound=None,
               constraint=None, with_strategy=False, all_horizons=False,
               reads=None):
    """(Constrained) reachability probabilities, optimised over strategies.

    With `constraint` the event is (constraint U targets); without, plain
    eventual reachability.  `bound=k` gives the k-step bounded variant (exact
    backward steps); `all_horizons` additionally returns the value vectors of
    every horizon 0..k.  `reads`, bounded only, names the (state, horizon)
    pairs a caller reads (`_backward`); an unbounded run covers every state
    of `mdp`.  With `with_strategy`, also returns the optimal strategy: a
    map state -> choice-id (unbounded, memoryless) or a list indexed by
    remaining steps 1..k (bounded).
    """
    targets = set(targets)
    allowed = set(mdp.states) if constraint is None else (set(constraint) | targets)
    zero, one = mdp.number(0), mdp.number(1)

    if bound is not None:
        vals = {s: one if s in targets else zero for s in mdp.states}
        pinned = {s for s in mdp.states if s in targets or s not in allowed}
        result, steps = _backward(mdp, vals, bound, optimise, pinned,
                                  all_horizons=all_horizons, reads=reads)
        return (result, steps) if with_strategy else result
    if reads is not None:
        raise SolverError("reads name the (state, horizon) pairs of a "
                          "bounded objective; an unbounded one solves the "
                          "MDP it is given")

    # qualitative analysis, on ids from here on
    targets, allowed = _id_set(mdp, targets), _id_set(mdp, allowed)
    if optimise == "max":
        can = _attractor(mdp, targets, allowed - targets,
                         bytes(len(mdp.owner)))
        never = set(range(len(mdp.rows))) - can
        sure = _prob1_max_set(mdp, targets, allowed)
    else:
        never, sure = _almost_sure(mdp, targets, allowed)

    start = [one if i in targets or i in sure else
             zero if i in never or i not in allowed else None
             for i in range(len(mdp.rows))]
    undecided = [i for i, v in enumerate(start) if v is None]
    vals, _ = _iterate(mdp, start, undecided, optimise)
    # the result lists the decided states first, then the undecided ones
    order = chain((i for i, v in enumerate(start) if v is not None), undecided)
    result = {mdp.states[i]: vals[i] for i in order}
    if not with_strategy:
        return result
    strategy = _extract_reach_strategy(mdp, vals, targets, allowed, optimise,
                                       never)
    return result, strategy


def _extract_reach_strategy(g, vals, targets, allowed, optimise, never):
    """Memoryless optimal strategy for (un)constrained reachability.

    Optimal actions attain the best one-step value of their state; for
    maximisation we additionally require positive-probability progress
    towards the targets (assigned in BFS layers), which rules out
    value-conserving cycles.  The best one-step value, not `vals[i]`, is the
    reference: where value iteration stopped short of the fixed point, the
    two differ by more than `_ARG_TOL`.
    """
    states, rows = g.states, g.rows
    maximise = optimise == "max"
    pick = max if maximise else min
    get = vals.__getitem__
    strategy = {}
    candidates = {}                     # state id -> positions in its row
    wanted = bytearray(len(g.owner))    # per choice number: a candidate?
    c = 0
    for i, choices in enumerate(rows):
        first, c = c, c + len(choices)
        if i in targets or i not in allowed or maximise and i in never:
            strategy[states[i]] = choices[0][0]
            continue
        step = [sum(map(mul, probs, map(get, succ)))
                for _, succ, probs in choices]
        best = pick(step)
        candidates[i] = [j for j, val in enumerate(step)
                         if abs(val - best) <= _ARG_TOL * max(1.0, abs(best))]
        for j in candidates[i]:
            wanted[first + j] = 1
    # Layers are assigned one state at a time: always the least pending state
    # (by str, then state id) with a candidate reaching an assigned state,
    # which takes the first such candidate.  `ready` is a heap of exactly the
    # pending states that can progress; a state joins it when a successor of
    # one of its candidates (a `wanted` choice) is assigned.
    assigned = set(targets)
    ready = [(str(states[i]), i) for i, cand in candidates.items()
             if maximise and any(not assigned.isdisjoint(rows[i][j][1])
                                 for j in cand)]
    heapq.heapify(ready)
    queued = {i for _, i in ready}
    while ready:
        _, i = heapq.heappop(ready)
        strategy[states[i]] = next(
            rows[i][j][0] for j in candidates.pop(i)
            if not assigned.isdisjoint(rows[i][j][1]))
        assigned.add(i)
        for n in g.preds[i]:
            s = g.owner[n]
            if wanted[n] and s not in queued:
                queued.add(s)
                heapq.heappush(ready, (str(states[s]), s))
    # The rest take their first candidate: when minimising, staying put can
    # only lower the reach probability, so any conserving choice is optimal;
    # when maximising, the rest have value 0 (cannot progress).
    for i, cand in candidates.items():
        strategy[states[i]] = rows[i][cand[0]][0]
    return strategy


def step_prob(mdp: IndexedMdp, targets, optimise="max", with_strategy=False,
              reads=None):
    """One-step (next-state) probabilities of hitting `targets`; `reads`
    as for a bounded `reach_prob`."""
    targets = set(targets)
    zero, one = mdp.number(0), mdp.number(1)
    start = {s: one if s in targets else zero for s in mdp.states}
    vals, (_, strategy) = _backward(mdp, start, 1, optimise, reads=reads)
    return (vals, strategy) if with_strategy else vals


def expected_reward(mdp: IndexedMdp, kind, *, k=None, targets=None,
                    action_rewards=None, state_rewards=None, optimise="max",
                    with_strategy=False, all_horizons=False, reads=None):
    """Optimal expected reward for one of the three reward shapes.

    kind "I": state reward observed after exactly k steps.
    kind "C": state+action rewards accumulated over the first k steps.
    kind "F": rewards accumulated until first hitting `targets`, at every
        state of `mdp`; requires the targets to be reached almost surely
        under every strategy from each state in `reads` (default: all), else
        InfiniteValue is raised carrying the offending states.  Other
        states whose value is infinite map to None.

    `all_horizons`, and the (state, horizon) `reads` of "I" and "C", serve
    as in a bounded `reach_prob`.
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
                                      all_horizons=all_horizons, reads=reads)
        else:
            vals = {s: zero for s in mdp.states}
            result, steps = _backward(mdp, vals, k, optimise, (), a_rew,
                                      s_rew, all_horizons, reads)
        return (result, steps) if with_strategy else result

    if kind != "F":
        raise SolverError(f"unknown reward objective kind {kind!r}")
    targets = set(targets or ())
    target_ids = _id_set(mdp, targets)
    # the states reaching the targets almost surely, as `prob1_min_set`
    _, finite = _almost_sure(mdp, target_ids, set(range(len(mdp.rows))))
    wanted = mdp.states if reads is None else reads
    bad = sorted((s for s in wanted if mdp.ids[s] not in finite), key=str)
    if bad:
        raise InfiniteValue(
            "expected reachability reward is infinite: targets are not "
            "reached almost surely under all strategies", states=bad)
    undecided = [i for i in range(len(mdp.rows))
                 if i in finite and i not in target_ids]
    a_rew = {key: float(r) for key, r in a_rew.items()}
    s_rew = {mdp.states[i]: float(s_rew.get(mdp.states[i], 0))
             for i in undecided}
    cur, chosen = _iterate(mdp, [zero] * len(mdp.rows), undecided, optimise,
                           a_rew, s_rew, with_strategy)
    vals = dict.fromkeys((s for s in targets if s in mdp.ids), zero)
    vals.update((mdp.states[i], cur[i]) for i in undecided)
    for s in mdp.states:
        vals.setdefault(s, None)        # states with infinite value, unread
    if not with_strategy:
        return vals
    # all strategies reach the targets here, so any conserving choice is
    # optimal
    chosen = dict(zip(undecided, chosen))
    return vals, {s: chosen.get(i, choices[0][0])
                  for i, (s, choices) in enumerate(zip(mdp.states, mdp.rows))}
