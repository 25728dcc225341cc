"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different algorithms from the
main code so that agreement is meaningful:

- an equilibrium finder based on support-pair enumeration and solving
  indifference equations (the main solver enumerates polytope vertices);
- the package's earlier vertex enumerator, which solves every tight subset
  of the best-response polytopes by Gauss-Jordan elimination on Fractions
  (the package solves the same subsets on integer-scaled polytopes by
  fraction-free elimination), with the SWNE selection rule written out
  again (the package selects on integer vertex pairs);
- a brute-force maximal-end-component search for small models;
- a pure-strategy-profile Markov-chain evaluator for reachability values;
- an exhaustive memoryless-strategy MDP evaluator;
- a plain rational backward recursion for bounded MDP values (the package
  runs it on integer numerators over one common denominator);
- the package's earlier unbounded reachability, which walks the
  `Mdp.trans` dicts once per qualitative set, per value-iteration sweep
  and for the strategy, waking pending states through its own map (the
  package solves on an id-indexed form with predecessor lists);
- a tree-walking expression evaluator (the package compiles expressions to
  closures once, folding constant sub-expressions);
- the package's earlier local-game builder, which sums each payoff entry in
  Fractions (the package builds it as integer numerators over one
  denominator per player);
- the package's earlier pair engines, backwards induction and value
  iteration each with its own per-state loop, settled-row merge and
  single-objective precompute (the package runs both as a loop over one
  sweep helper).  They share the package's local-game, equilibrium and MDP
  primitives, so agreement checks the loops, not those primitives.  Their
  single-objective optima cover every state with a finite value (the
  package's cover only the states a profile can play them at);
- the package's earlier mixed-horizon route, which runs value iteration
  on a step-counter product of the game with one layer per remaining step
  of the finite horizon (the package runs backwards induction on the game
  itself, from the infinite objective's cooperative optimum);
- the package's earlier state-space exploration of a language model, which
  evaluates every guard, every fired command's probabilities and updates,
  every label and every reward item at every state, and builds each
  successor slot by slot from a copy of the state (the package evaluates
  each once per valuation of the slots it reads and concatenates
  module-local tuples);
- the package's earlier folds of an induced MDP and of a profile's chain,
  which build dict `Mdp` records in a breadth-first walk over (state,
  memory mode) nodes, updating the memory once per node and successor (the
  package builds the id-indexed form in that walk, updates the memory once
  per mode and successor, and reads the chain off an induced MDP).
"""

import heapq
import math
import time
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product

from csgnash.bimatrix import BimatrixGame, MixedProfile
from csgnash.errors import (IncompleteStrategy, ModelError, ModelTypeError,
                            NotConverged, ProbabilitySum, UndeclaredSymbol)
from csgnash.model import (IDLE, CoalitionGame, IndexedMdp, MemoryStrategy,
                            RewardStructure)
from csgnash.nash import (DEFAULT_CONV_EPSILON, DEFAULT_MAX_ITERS, PENDING,
                          PairResult, _horizon, _optimum, _OSC_TOL,
                          _reward_names, _sat, _settled_pair, _settlement,
                          _TRACE_LENGTH, _with_sets, joint_mdp, local_game,
                          local_game_table, solve_swne, solve_unbounded_pair)
from csgnash.expr import (Binary, Call, Lit, Unary, Var, compile_expr,
                          expr_to_text, free_vars)
from csgnash.lang import (_Clash, _VarInfo, _holds, _not_a_condition,
                          _products, _reward_values, _same_expr_key,
                          resolve_constants)
from csgnash.mdp import prob1_min_set
from csgnash.properties import NashNode, Objective, StateSet


@dataclass(frozen=True)
class Mdp:
    """A plain dict MDP, the oracles' input form: `trans[s]` maps each
    choice id to a distribution {successor: probability}, in choice-id
    order; `rewards` maps each reward structure name to a RewardStructure
    whose action rewards are keyed by (state, choice id); `number` is the
    type of its probabilities.  Its `graph`, which `model.joint_mdp`
    reads as it reads a game's, is the form the package solves on, built
    from the dicts by `joint_mdp_by_dicts`."""

    states: tuple
    initial: tuple
    trans: dict
    rewards: dict = field(default_factory=dict)
    number: type = Fraction

    @property
    def graph(self):
        return joint_mdp_by_dicts(self)


def regroup(game, coalition, number=Fraction):
    """The package's earlier coalition regrouping, into dicts: returns the
    `Mdp` over `game`'s states whose choice ids are the (a1, a2) pairs of
    each base joint action, split into the coalition's and the rest's
    actions in player order, with its distribution and rewards converted to
    `number`, and the sorted actions of each side per state."""
    members = set(coalition)
    idx1 = [i for i, p in enumerate(game.players) if p in members]
    idx2 = [i for i, p in enumerate(game.players) if p not in members]

    def split(alpha):
        return tuple(alpha[i] for i in idx1), tuple(alpha[i] for i in idx2)

    def value(v):
        return v if number is Fraction else number(v)

    trans, moves = {}, {}
    for s in game.states:
        trans[s] = {split(alpha): {t: value(p) for t, p in dist.items()}
                    for alpha, dist in sorted(
                        game.trans[s].items(),
                        key=lambda item: split(item[0]))}
        moves[s] = (tuple(sorted({a1 for a1, _ in trans[s]})),
                    tuple(sorted({a2 for _, a2 in trans[s]})))
    rewards = {name: RewardStructure(
        {(s, split(alpha)): value(v)
         for (s, alpha), v in rs.action_rewards.items()},
        {s: value(v) for s, v in rs.state_rewards.items()})
        for name, rs in game.rewards.items()}
    return Mdp(game.states, game.initial, trans, rewards, number), moves


def coalition_trans(game):
    """The transitions of a coalition game's joint MDP as dicts: state ->
    {(a1, a2): {successor: probability}}, in row and successor order."""
    graph = game.graph
    return {s: {cid: dict(zip([graph.states[t] for t in succ], probs))
                for cid, succ, probs in row}
            for s, row in zip(graph.states, graph.rows)}


def joint_mdp_by_dicts(mdp, reads=None):
    """The package's earlier joint-MDP build, from the `trans` dicts of
    `mdp` (an `Mdp`): states in order, choices sorted by id, successors in
    distribution order, probabilities a view of each distribution; with
    `reads`, over the forward closure of those states alone."""
    trans, states = mdp.trans, list(mdp.states)
    if reads is not None:
        seen, frontier = set(reads), list(reads)
        while frontier:
            for dist in trans[frontier.pop()].values():
                for t in dist:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        states = [s for s in states if s in seen]
    ids = {s: i for i, s in enumerate(states)}
    rows = [[(cid, tuple([ids[t] for t in dist]), dist.values())
             for cid, dist in sorted(trans[s].items())] for s in states]
    return IndexedMdp(states, ids, rows, mdp.number,
                      tuple(s for s in mdp.initial if s in ids), mdp.rewards)


def choice_numbering(rows):
    """The `owner` and `preds` lists of an IndexedMdp with `rows`, by the
    earlier build's loop: choices numbered in row order, `owner[c]` the
    state of choice c, `preds[t]` the choices with successor t."""
    owner, preds = [], [[] for _ in rows]
    for i, row in enumerate(rows):
        for _, succ, _ in row:
            c = len(owner)
            owner.append(i)
            for t in succ:
                preds[t].append(c)
    return owner, preds


def _solve_unique(matrix, rhs):
    """Return the unique rational solution of matrix @ sol = rhs, else None.

    None is returned both for singular square systems and for non-square
    systems without a unique solution.
    """
    rows = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(matrix, rhs)]
    n_vars = len(matrix[0])
    pivots = []
    r = 0
    for c in range(n_vars):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) < n_vars:
        return None
    for i in range(r, len(rows)):
        if rows[i][n_vars] != 0:
            return None
    sol = [Fraction(0)] * n_vars
    for i, c in enumerate(pivots):
        sol[c] = rows[i][n_vars]
    return sol


def _nonempty_subsets(n):
    return chain.from_iterable(combinations(range(n), k) for k in range(1, n + 1))


def _strategy_candidates(payoffs, n_own, n_other):
    """Best-response-compatible vertex strategies for one side.

    `payoffs[i][j]` is the payoff the OTHER player gets from their pure
    strategy i when this side plays pure strategy j.  For every support S and
    every |S|-subset T of the other player's pure strategies we solve the
    indifference system (payoff of every i in T equals w, strategy sums to 1,
    support S) and keep unique, nonnegative solutions where w is a global
    best response.  This covers degenerate games, where more strategies can
    be tight than the support size alone would pin down.

    Returns a list of (dist, w, tight) where `tight` is the exact set of the
    other player's best responses against `dist`.
    """
    found = {}
    for support in _nonempty_subsets(n_own):
        for tight_rows in combinations(range(n_other), len(support)):
            # unknowns: dist_j for j in support, then w
            a = [[payoffs[i][j] for j in support] + [Fraction(-1)]
                 for i in tight_rows]
            b = [Fraction(0)] * len(tight_rows)
            a.append([Fraction(1)] * len(support) + [Fraction(0)])
            b.append(Fraction(1))
            sol = _solve_unique(a, b)
            if sol is None:
                continue
            probs, w = sol[:-1], sol[-1]
            if any(p < 0 for p in probs):
                continue
            dist = [Fraction(0)] * n_own
            for j, p in zip(support, probs):
                dist[j] = p
            values = [sum(payoffs[i][j] * dist[j] for j in range(n_own))
                      for i in range(n_other)]
            if any(val > w for val in values):
                continue
            tight = frozenset(i for i, val in enumerate(values) if val == w)
            found[tuple(dist)] = (tuple(dist), w, tight)
    return list(found.values())


def nash_equilibria_by_support(z1, z2):
    """All Nash equilibria of the bimatrix game (z1, z2), by support pairs.

    Candidate strategies for each side are generated from indifference
    systems (see `_strategy_candidates`); a pair is an equilibrium exactly
    when each player's support lies inside their set of best responses to
    the other's strategy.  Returns a sorted, deduplicated list of
    (x, y, u, v) tuples of Fractions.
    """
    z1 = [[Fraction(v) for v in row] for row in z1]
    z2 = [[Fraction(v) for v in row] for row in z2]
    l, m = len(z1), len(z1[0])
    z2t = [[z2[i][j] for i in range(l)] for j in range(m)]
    y_cands = _strategy_candidates(z1, m, l)       # row player indifferent
    x_cands = _strategy_candidates(z2t, l, m)      # column player indifferent
    found = {}
    for x, v, tight_cols in x_cands:
        x_support = {i for i, p in enumerate(x) if p > 0}
        for y, u, tight_rows in y_cands:
            if not x_support <= tight_rows:
                continue
            if not all(y[j] == 0 or j in tight_cols for j in range(m)):
                continue
            found[(x, y)] = (x, y, u, v)
    return sorted(found.values())



def _solve_square(matrix, rhs):
    """Solve a square rational system; return None if the matrix is singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _polytope_vertices(constraints, dim):
    """Vertices of {p >= 0 with explicit constraints row . p <= rhs}.

    `constraints` lists every inequality (including the nonnegativity ones),
    each as (coefficient tuple, rhs). A vertex is any feasible point where
    some `dim` of the inequalities are tight and independent.
    """
    verts = set()
    n = len(constraints)
    for combo in combinations(range(n), dim):
        a = [constraints[i][0] for i in combo]
        b = [constraints[i][1] for i in combo]
        point = _solve_square(a, b)
        if point is None:
            continue
        if all(sum(c * p for c, p in zip(row, point)) <= rhs
               for row, rhs in constraints):
            verts.add(tuple(point))
    return verts


def equilibria_by_vertex_subsets(z1, z2):
    """(profiles, best) of the bimatrix game (z1, z2), as the package's
    `enumerate_equilibria` lists them: every completely labelled vertex
    pair of the best-response polytopes, normalised to MixedProfiles and
    sorted by `MixedProfile.sort_key`, with `best` the index of the SWNE
    (`swne_index`).

    Each polytope is built in Fractions and each of its C(l+m, l) tight
    subsets solved by rational Gauss-Jordan elimination.
    """
    z1 = tuple(tuple(Fraction(v) for v in row) for row in z1)
    z2 = tuple(tuple(Fraction(v) for v in row) for row in z2)
    l, m = len(z1), len(z1[0])
    shift1 = 1 - min(min(row) for row in z1)
    shift2 = 1 - min(min(row) for row in z2)
    one = Fraction(1)
    zero = Fraction(0)

    # P = {x >= 0, Z2'^T x <= 1}: labels are i (x_i = 0) and l+j (column j tight).
    p_cons = [(tuple(-one if k == i else zero for k in range(l)), zero)
              for i in range(l)]
    p_cons += [(tuple(z2[i][j] + shift2 for i in range(l)), one)
               for j in range(m)]
    # Q = {y >= 0, Z1' y <= 1}: labels are i (row i tight) and l+j (y_j = 0).
    q_cons = [(tuple(z1[i][j] + shift1 for j in range(m)), one)
              for i in range(l)]
    q_cons += [(tuple(-one if k == j else zero for k in range(m)), zero)
               for j in range(m)]

    full = frozenset(range(l + m))

    x_verts = []
    for xv in _polytope_vertices(p_cons, l):
        if all(c == 0 for c in xv):
            continue
        labels = {i for i in range(l) if xv[i] == 0}
        labels |= {l + j for j in range(m)
                   if sum((z2[i][j] + shift2) * xv[i] for i in range(l)) == 1}
        x_verts.append((xv, frozenset(labels)))

    y_verts = []
    for yv in _polytope_vertices(q_cons, m):
        if all(c == 0 for c in yv):
            continue
        labels = {l + j for j in range(m) if yv[j] == 0}
        labels |= {i for i in range(l)
                   if sum((z1[i][j] + shift1) * yv[j] for j in range(m)) == 1}
        y_verts.append((yv, frozenset(labels)))

    seen = set()
    profiles = []
    for xv, xl in x_verts:
        missing = full - xl
        for yv, yl in y_verts:
            if not (missing <= yl):
                continue
            xs, ys = sum(xv), sum(yv)
            x = tuple(c / xs for c in xv)
            y = tuple(c / ys for c in yv)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            u = sum(x[i] * z1[i][j] * y[j] for i in range(l) for j in range(m))
            v = sum(x[i] * z2[i][j] * y[j] for i in range(l) for j in range(m))
            profiles.append(MixedProfile(x, y, Fraction(u), Fraction(v)))
    profiles.sort(key=MixedProfile.sort_key)
    return tuple(profiles), swne_index(profiles) if profiles else None


def swne_index(profiles):
    """The index of the SWNE in `profiles`, sorted by
    `MixedProfile.sort_key`, by the selection rule written out again: the
    largest payoff sum, then the first equal-payoff profile if there is
    one, and else the first with the largest u among them."""
    best = max(p.u + p.v for p in profiles)
    pool = [i for i, p in enumerate(profiles) if p.u + p.v == best]
    equal = [i for i in pool if profiles[i].u == profiles[i].v]
    if equal:
        return equal[0]
    top = max(profiles[i].u for i in pool)
    return next(i for i in pool if profiles[i].u == top)

def maximal_end_components(transitions):
    """Maximal end components of a small game/MDP, by brute force.

    `transitions` maps state -> {action: {successor: prob}}.  A set of
    states S with a nonempty action selection is an end component if every
    retained action's successors stay in S and the chosen sub-graph is
    strongly connected.  We enumerate all state subsets (so only use this on
    models with a handful of states) and keep the maximal ones.
    """
    states = sorted(transitions)
    candidates = []
    for k in range(1, len(states) + 1):
        for subset in combinations(states, k):
            inside = set(subset)
            keep = {s: [a for a, dist in transitions[s].items()
                        if set(dist) <= inside]
                    for s in subset}
            if any(not acts for acts in keep.values()):
                continue
            # strong connectivity of the retained sub-graph
            edges = {s: set() for s in subset}
            for s in subset:
                for a in keep[s]:
                    edges[s] |= set(transitions[s][a])
            def reaches_all(start):
                seen = {start}
                frontier = [start]
                while frontier:
                    nxt = frontier.pop()
                    for t in edges[nxt]:
                        if t not in seen:
                            seen.add(t)
                            frontier.append(t)
                return seen == inside
            if all(reaches_all(s) for s in subset):
                candidates.append(inside)
    return [c for c in candidates
            if not any(c < other for other in candidates)]


def _until(transitions, targets, allowed):
    """`transitions` with every choice of a state outside `allowed` and
    `targets` looping on that state, so the event (allowed U targets) fails
    there."""
    if allowed is None:
        return transitions
    return {s: acts if s in allowed or s in targets else
            {a: {s: Fraction(1)} for a in acts}
            for s, acts in transitions.items()}


def chain_reach_probability(transitions, choice, targets, source, horizon=None,
                            allowed=None):
    """Probability of reaching `targets` from `source` under pure `choice`.

    `choice` maps state -> action; the induced Markov chain is evaluated by
    exact linear solving (unbounded) or backward iteration (bounded).
    Unbounded evaluation assumes target and non-reaching states are detected
    by graph search, so it is exact.  With `allowed`, the event is
    (allowed U targets): states outside both sets have value 0.
    """
    targets = set(targets)
    transitions = _until(transitions, targets, allowed)
    states = sorted(transitions)
    idx = {s: i for i, s in enumerate(states)}
    succ = {s: transitions[s][choice[s]] for s in states}
    if horizon is not None:
        vals = {s: Fraction(1) if s in targets else Fraction(0) for s in states}
        for _ in range(horizon):
            vals = {s: Fraction(1) if s in targets else
                    sum(Fraction(p) * vals[t] for t, p in succ[s].items())
                    for s in states}
        return vals[source]
    # states that can reach a target at all
    can = set(targets)
    changed = True
    while changed:
        changed = False
        for s in states:
            if s not in can and any(t in can for t in succ[s]):
                can.add(s)
                changed = True
    if source not in can:
        return Fraction(0)
    unknowns = [s for s in states if s in can and s not in targets]
    if not unknowns:
        return Fraction(1) if source in targets else Fraction(0)
    pos = {s: i for i, s in enumerate(unknowns)}
    a, b = [], []
    for s in unknowns:
        row = [Fraction(0)] * len(unknowns)
        row[pos[s]] = Fraction(1)
        rhs = Fraction(0)
        for t, p in succ[s].items():
            p = Fraction(p)
            if t in targets:
                rhs += p
            elif t in pos:
                row[pos[t]] -= p
        a.append(row)
        b.append(rhs)
    sol = _solve_unique(a, b)
    if source in targets:
        return Fraction(1)
    return sol[pos[source]]


def mdp_extreme_reach(transitions, targets, maximise=True, allowed=None):
    """Optimal reachability probabilities over all memoryless strategies.

    Exhaustively evaluates every pure memoryless strategy with
    `chain_reach_probability` and takes the per-state optimum.  Memoryless
    pure strategies suffice for MDP reachability, so this is exact (and
    exponential - small models only).  With `allowed`, the event is
    (allowed U targets).
    """
    transitions = _until(transitions, set(targets), allowed)
    states = sorted(transitions)
    actions = [sorted(transitions[s]) for s in states]
    best = None
    for combo in product(*actions):
        choice = dict(zip(states, combo))
        vals = [chain_reach_probability(transitions, choice, targets, s)
                for s in states]
        if best is None:
            best = vals
        elif maximise:
            best = [max(a, b) for a, b in zip(best, vals)]
        else:
            best = [min(a, b) for a, b in zip(best, vals)]
    return dict(zip(states, best))


def mdp_backward_induction(transitions, start, horizon, maximise=True,
                           pinned=(), action_rewards=None, state_rewards=None):
    """Optimal bounded values of an MDP by plain rational backward recursion.

    `transitions` maps state -> {choice: {successor: prob}}; `start` is the
    horizon-0 value per state.  Each step gives every state outside `pinned`
    the best, over its choices in order, of the expected next value plus the
    choice's action reward (keyed (state, choice)), plus its state reward;
    the first best choice is kept.  Pinned states keep their value.  Returns
    the value dicts of horizons 0..horizon and the chosen choice per state
    and step (None at horizon 0).
    """
    a_rew = action_rewards or {}
    s_rew = state_rewards or {}
    vals = {s: Fraction(v) for s, v in start.items()}
    family, chosen = [vals], [None]
    for _ in range(horizon):
        new, picks = dict(vals), {}
        for s, acts in transitions.items():
            if s in pinned:
                continue
            best = None
            for a, dist in acts.items():
                val = Fraction(a_rew.get((s, a), 0))
                for t, p in dist.items():
                    val += Fraction(p) * vals[t]
                if best is None or (val > best if maximise else val < best):
                    best, picks[s] = val, a
            new[s] = best + Fraction(s_rew.get(s, 0))
        vals = new
        family.append(vals)
        chosen.append(picks)
    return family, chosen


def _choice_edges(mdp, allowed=None):
    out = {}
    for s in mdp.states:
        if allowed is not None and s not in allowed:
            out[s] = set()
            continue
        succ = set()
        for dist in mdp.trans[s].values():
            succ |= set(dist)
        out[s] = succ
    return out


def _backward_reachable(mdp, sources, allowed=None):
    """States with a path to `sources` (path interior restricted to `allowed`)."""
    edges = _choice_edges(mdp, allowed)
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


def _leaving(mdp, states, inside):
    """The choices of `states`, numbered in order: each one's state, how
    many of its successors lie outside `inside`, and per state of `inside`
    the numbers of the choices leading to it."""
    owner, out, preds = [], [], {t: [] for t in inside}
    for s in states:
        for dist in mdp.trans[s].values():
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
    """States from which some strategy reaches `targets` almost surely
    (double fixpoint)."""
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
    """States where some strategy avoids `targets` forever (greatest
    fixpoint by a worklist); states outside `allowed` trivially avoid."""
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


def prob1_min_set_by_dicts(mdp, targets):
    """The package's earlier `prob1_min_set`: states with no path, through
    non-target states, into the states where some strategy avoids the
    targets forever."""
    targets, states = set(targets), set(mdp.states)
    never = _prob0_min_set(mdp, targets, states)
    bad = _backward_reachable(mdp, never, allowed=states - targets)
    return {s for s in mdp.states if s not in bad}


def reach_prob_by_dicts(mdp, targets, optimise="max", constraint=None):
    """The package's earlier unbounded `reach_prob(..., with_strategy=True)`.

    Qualitative sets as above, then Jacobi value iteration from 0.0 over the
    `mdp.trans` dicts, each one-step value summed left to right as
    p * v[t] (the package's order, so float values agree to the bit), with
    the package's stop rule.  Returns the values, fixed states first, and
    the strategy of `_extract_reach_strategy`.
    """
    targets = set(targets)
    allowed = (set(mdp.states) if constraint is None
               else set(constraint) | targets)
    zero, one = mdp.number(0), mdp.number(1)
    if optimise == "max":
        can = _backward_reachable(mdp, targets, allowed - targets) | targets
        sure = _prob1_max_set(mdp, targets, allowed)
        never = {s for s in mdp.states if s not in can}
    else:
        never = _prob0_min_set(mdp, targets, allowed)
        bad = _backward_reachable(mdp, never, allowed - targets)
        sure = {s for s in mdp.states if s not in bad}
    vals = {}
    for s in mdp.states:
        if s in targets or s in sure:
            vals[s] = one
        elif s in never or s not in allowed:
            vals[s] = zero
    undecided = [s for s in mdp.states if s not in vals]
    vals.update(dict.fromkeys(undecided, 0.0))
    pick = max if optimise == "max" else min
    for _ in range(100000 if undecided else 0):
        new = dict(vals)
        for s in undecided:
            new[s] = pick(sum(p * vals[t] for t, p in dist.items())
                          for dist in mdp.trans[s].values())
        delta = max(abs(new[s] - vals[s]) / max(1.0, abs(new[s]))
                    for s in undecided)
        vals = new
        if delta < 1e-6:
            break
    return vals, _extract_reach_strategy(mdp, vals, targets, allowed,
                                         optimise, never)


def _extract_reach_strategy(mdp, vals, targets, allowed, optimise, zero):
    """Memoryless optimal reachability strategy: choices within 1e-9
    (relative) of their state's best one-step value; when maximising,
    assigned in layers towards the targets, least pending state (by str,
    then state order) first, each taking its first candidate reaching an
    assigned state."""
    strategy = {}
    candidates = {}
    for s in mdp.states:
        if s in targets or s not in allowed or s in zero and optimise == "max":
            strategy[s] = next(iter(mdp.trans[s]))
            continue
        step = [(cid, sum(p * vals[t] for t, p in dist.items()))
                for cid, dist in mdp.trans[s].items()]
        best = (max if optimise == "max" else min)(val for _, val in step)
        candidates[s] = [cid for cid, val in step
                         if abs(val - best) <= 1e-9 * max(1.0, abs(best))]
    if optimise == "min":
        for s, cand in candidates.items():
            strategy[s] = cand[0]
        return strategy
    assigned = set(targets)
    pending = {}
    ready = []
    queued = set()
    waiting = {}                  # successor -> heap entries of states reaching it
    for i, (s, cand) in enumerate(candidates.items()):
        dists = mdp.trans[s]
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
    for s in pending:
        strategy[s] = candidates[s][0]
    return strategy


def local_game_by_fractions(game, state, continuation, rewards=(None, None)):
    """The one-shot game at `state` of a coalition game, over its actions.

    Each payoff entry is sum(p * continuation[t][l]) over the successors;
    per objective l, `rewards` may name a reward structure whose state and
    action rewards are added.  Built in the game's own numbers.
    """
    acts1, acts2 = game.actions1(state), game.actions2(state)
    trans = coalition_trans(game)[state]
    structures = [(l, game.rewards[name]) for l, name in enumerate(rewards)
                  if name is not None]
    z1, z2 = [], []
    for a in acts1:
        row1, row2 = [], []
        for b in acts2:
            dist = trans[(a, b)]
            vals = [sum(p * continuation[t][l] for t, p in dist.items())
                    for l in (0, 1)]
            for l, rs in structures:
                vals[l] += rs.state(state) + rs.action(state, (a, b))
            row1.append(vals[0])
            row2.append(vals[1])
        z1.append(row1)
        z2.append(row2)
    return BimatrixGame.from_rows(z1, z2)


def swne_value(z1, z2):
    """The (u, v) pair of the welfare-optimal equilibrium of (z1, z2).

    Selection mirrors the documented rule — maximum payoff sum, preferring an
    equal-payoff equilibrium, else one maximal for the first player — but is
    computed from this module's independent equilibrium finder.  The chosen
    value pair is unique under that rule, so no tie-breaking on strategies is
    needed.
    """
    equilibria = nash_equilibria_by_support(z1, z2)
    best_sum = max(u + v for _, _, u, v in equilibria)
    pool = [(u, v) for _, _, u, v in equilibria if u + v == best_sum]
    equal = [(u, v) for u, v in pool if u == v]
    if equal:
        return equal[0]
    best_u = max(u for u, _ in pool)
    return next((u, v) for u, v in pool if u == best_u)


def bounded_max_reach(transitions, targets, horizon):
    """Cooperative max probabilities of reaching `targets` within h steps.

    `transitions` maps state -> {joint-action: {successor: prob}}.  Returns a
    list of per-state value dicts indexed by horizon 0..horizon.
    """
    targets = set(targets)
    states = sorted(transitions)
    vals = {s: Fraction(1) if s in targets else Fraction(0) for s in states}
    family = [vals]
    for _ in range(horizon):
        vals = {s: Fraction(1) if s in targets else
                max(sum(Fraction(p) * vals[t] for t, p in dist.items())
                    for dist in transitions[s].values())
                for s in states}
        family.append(vals)
    return family


def bounded_reach_pair(transitions, targets1, targets2, horizon):
    """Equilibrium values of a bounded reachability-objective pair.

    Backwards induction over `horizon` stages: states inside a target are
    settled for that objective (value 1, the other objective continued
    cooperatively at the remaining horizon); elsewhere the one-shot game over
    the joint actions' continuation values is solved for its welfare-optimal
    equilibrium.  Joint actions must be (side-1 action, side-2 action) pairs.
    Exact rationals throughout.
    """
    states = sorted(transitions)
    coop1 = bounded_max_reach(transitions, targets1, horizon)
    coop2 = bounded_max_reach(transitions, targets2, horizon)
    targets1, targets2 = set(targets1), set(targets2)
    vals = {s: (Fraction(s in targets1), Fraction(s in targets2))
            for s in states}
    for n in range(1, horizon + 1):
        new = {}
        for s in states:
            in1, in2 = s in targets1, s in targets2
            if in1 and in2:
                new[s] = (Fraction(1), Fraction(1))
            elif in1:
                new[s] = (Fraction(1), coop2[n][s])
            elif in2:
                new[s] = (coop1[n][s], Fraction(1))
            else:
                acts1 = sorted({pair[0] for pair in transitions[s]})
                acts2 = sorted({pair[1] for pair in transitions[s]})
                z1 = [[sum(Fraction(p) * vals[t][0]
                           for t, p in transitions[s][(a, b)].items())
                       for b in acts2] for a in acts1]
                z2 = [[sum(Fraction(p) * vals[t][1]
                           for t, p in transitions[s][(a, b)].items())
                       for b in acts2] for a in acts1]
                new[s] = swne_value(z1, z2)
        vals = new
    return vals


def bounded_cumulative_pair(transitions, rewards1, rewards2, horizon):
    """Equilibrium values of a pair of bounded cumulative-reward objectives.

    `rewards_l` maps (state, joint-action) to the reward that objective l
    collects in that step (state plus action share).  Neither objective ever
    settles, so every stage of the backwards induction is a one-shot
    equilibrium solve over reward-plus-continuation payoffs.
    """
    states = sorted(transitions)
    vals = {s: (Fraction(0), Fraction(0)) for s in states}
    for _ in range(horizon):
        new = {}
        for s in states:
            acts1 = sorted({pair[0] for pair in transitions[s]})
            acts2 = sorted({pair[1] for pair in transitions[s]})
            z1 = [[Fraction(rewards1.get((s, (a, b)), 0)) +
                   sum(Fraction(p) * vals[t][0]
                       for t, p in transitions[s][(a, b)].items())
                   for b in acts2] for a in acts1]
            z2 = [[Fraction(rewards2.get((s, (a, b)), 0)) +
                   sum(Fraction(p) * vals[t][1]
                       for t, p in transitions[s][(a, b)].items())
                   for b in acts2] for a in acts1]
            new[s] = swne_value(z1, z2)
        vals = new
    return vals


def bounded_pair_by_stage_loop(cg, query):
    """Backwards induction for a pair with a finite horizon, one stage at a
    time: settled states take their rows from the cooperative optima, every
    other state solves its local game against the previous stage.  A mixed
    pair's infinite objective is solved once, and its optimum is its value
    at every stage."""
    o1, o2 = query.objectives
    horizons = (_horizon(o1), _horizon(o2))
    k = min(h for h in horizons if h is not None)
    pads = tuple(None if h is None else h - k for h in horizons)
    jmdp = joint_mdp(cg)
    stat, settled = _settlement(cg, (o1, o2))
    coop = []
    coop_strats = []
    start = time.perf_counter()
    for l, (obj, status) in enumerate(zip((o1, o2), stat)):
        family, strats = _optimum(jmdp, obj, "max", status,
                                  all_horizons=True, with_strategy=True)
        if pads[l] is None:
            family, strats = [family] * (k + 1), [None, strats]
        else:
            family = family[pads[l]:]
        coop.append(family)
        coop_strats.append(strats)
    mdp_s = time.perf_counter() - start
    table = local_game_table(
        cg, [s for s in cg.states if s not in settled],
        _reward_names((o1, o2)))
    units = (cg.number(0), cg.number(1))

    vals = {s: (coop[0][0][s], coop[1][0][s]) for s in cg.states}
    history = deque([vals], maxlen=_TRACE_LENGTH)
    stage_profiles = [None]
    for n in range(1, k + 1):
        new = {}
        profiles = {}
        for s in cg.states:
            row = settled.get(s)
            if row is not None:
                new[s] = _settled_pair(
                    (o1, o2), row, [coop[l][n][s] for l in (0, 1)], units)
            else:
                chosen = solve_swne(local_game(table, s, vals))
                acts1, acts2 = table.entries[s][0]
                new[s] = (chosen.u, chosen.v) if table.exact else \
                    (float(chosen.u), float(chosen.v))
                profiles[s] = ("mix", acts1, acts2, chosen.x, chosen.y)
        vals = new
        history.append(vals)
        stage_profiles.append(profiles)

    return PairResult(
        values=vals, iterations=k, converged=True, kind="bounded",
        trace=list(history), profiles=stage_profiles, statuses=stat,
        single=tuple(coop_strats), pads=pads, mdp_s=mdp_s)


def unbounded_pair_by_sweep_loop(cg, query,
                                 conv_epsilon=DEFAULT_CONV_EPSILON,
                                 max_iters=DEFAULT_MAX_ITERS):
    """Value iteration for an infinite-horizon pair: settled states keep
    fixed rows, every other state solves its local game against the
    previous sweep, until the stop rule of the package's engine holds."""
    o1, o2 = query.objectives
    number = cg.number
    jmdp = joint_mdp(cg)
    start = time.perf_counter()
    stat, settled = _settlement(cg, (o1, o2))
    opt_vals, opt_strats = [None, None], [None, None]
    for l, obj in enumerate((o1, o2)):
        reads = None
        if obj.kind == "R":
            # only states where the other objective is won need this
            # optimum finite; it is computed wherever it is finite
            need = {s for s, row in settled.items() if row[l] == PENDING}
            if not need:
                continue
            reads = need | prob1_min_set(jmdp, stat[l][0])
        opt_vals[l], opt_strats[l] = _optimum(
            jmdp if reads is None else joint_mdp(cg, reads), obj, "max",
            stat[l], with_strategy=True, reads=reads)
    opt = [vals or {} for vals in opt_vals]
    units = (cg.number(0), cg.number(1))
    fixed = {s: _settled_pair((o1, o2), row, [vals.get(s) for vals in opt],
                              units)
             for s, row in settled.items()}
    mdp_s = time.perf_counter() - start
    free = [s for s in cg.states if s not in fixed]
    table = local_game_table(
        cg, free, _reward_names((o1, o2)) if o1.kind == "R" else (None, None))

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
            chosen = solve_swne(local_game(table, s, vals))
            acts1, acts2 = table.entries[s][0]
            new[s] = (number(chosen.u), number(chosen.v))
            profiles[s] = ("mix", acts1, acts2, chosen.x, chosen.y)
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
        trace=list(history), profiles=profiles, statuses=stat,
        single=tuple([None, strategy] for strategy in opt_strats),
        mdp_s=mdp_s)
    if not converged:
        message = diagnostic or (
            f"value iteration did not converge within {iterations} sweeps")
        raise NotConverged(message, result)
    return result


def mixed_horizon_transform(cg, query: NashNode):
    """Reduce a mixed-horizon pair to an infinite-horizon pair on a product.

    Each state sub-formula is resolved on the base game (a `StateSet` as
    is) and lifted to the product states over it: in every layer for the
    infinite objective, in the layers its bound allows for the finite one.
    Returns (product game, rewritten query, embedding base-state -> product
    state).  The product is a `CoalitionGame` over states (s, layer), the
    layer counting up to an absorbing cap (one past the finite horizon, or
    at it for C<=k, which pays below it), with `cg`'s numbers; it has no
    base game, (s, i) has the moves of s, and its initial states are (s, 0)
    for the initial s.  Values of the original pair at s equal values of
    the rewritten pair at (s, 0).
    """
    objectives = list(query.objectives)
    fi = 0 if objectives[0].is_finite_horizon() else 1
    obj = objectives[fi]
    cap = _horizon(obj) + (obj.op != "C")
    states = tuple((s, i) for i in range(cap + 1) for s in cg.states)
    initial = tuple((s, 0) for s in cg.initial)
    trans, base = {}, coalition_trans(cg)
    for (s, i) in states:
        nxt = min(i + 1, cap)
        trans[(s, i)] = {pair: {(t, nxt): p for t, p in dist.items()}
                         for pair, dist in base[s].items()}

    def layered(formula, layers=range(cap + 1)):
        sat = _sat(cg, formula)
        return StateSet(frozenset(p for p in states
                                  if p[0] in sat and p[1] in layers))

    # the finite objective becomes an unbounded one over layer-indexed sets
    if obj.kind == "P" and obj.op == "X":
        new_obj = Objective("P", "U", sub1=layered(Lit(True)),
                            sub2=layered(obj.sub2, [1]))
    elif obj.kind == "P":
        k = obj.bound
        new_obj = Objective("P", "U", sub1=layered(obj.sub1, range(k)),
                            sub2=layered(obj.sub2, range(k + 1)))
    else:
        new_obj = Objective("R", "F", sub2=layered(Lit(True), [cap]),
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
    product = CoalitionGame(
        None, {p: cg.moves[p[0]] for p in states},
        joint_mdp_by_dicts(Mdp(states, initial, trans, rewards, cg.number)))
    embedding = {s: (s, 0) for s in cg.states}
    return product, new_query, embedding


def mixed_pair_by_product(cg, query):
    """The package's earlier mixed-horizon route: the values of a mixed pair
    at every state of `cg`, read off value iteration on the step-counter
    product (`mixed_horizon_transform`)."""
    product, rewritten, embedding = mixed_horizon_transform(cg, query)
    values = solve_unbounded_pair(product, rewritten).values
    return {s: values[embedding[s]] for s in cg.states}


def _need_num(value, node):
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ModelTypeError(f"expected a number in {expr_to_text(node)}")
    return value


def _need_bool(value, node):
    if not isinstance(value, bool):
        raise ModelTypeError(f"expected a boolean in {expr_to_text(node)}")
    return value


def _whole(value, what):
    """`value` as an int: ints and whole Fractions, never bools."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)) \
            or value != math.floor(value):
        raise ModelTypeError(f"{what} must be an integer")
    return math.floor(value)


def walk_expr(node, env):
    """Evaluate an expression AST by walking it, every name read from `env`."""
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise UndeclaredSymbol(f"unknown symbol {node.name!r}",
                                   node.line, node.col)
        return env[node.name]
    if isinstance(node, Unary):
        val = walk_expr(node.operand, env)
        if node.op == "-":
            return -_need_num(val, node)
        return not _need_bool(val, node)
    if isinstance(node, Binary):
        lhs = walk_expr(node.left, env)
        if node.op == "&":
            return _need_bool(lhs, node) and \
                _need_bool(walk_expr(node.right, env), node)
        if node.op == "|":
            return _need_bool(lhs, node) or \
                _need_bool(walk_expr(node.right, env), node)
        rhs = walk_expr(node.right, env)
        if node.op == "=":
            return lhs == rhs
        if node.op == "!=":
            return lhs != rhs
        if node.op in ("<", "<=", ">", ">="):
            lhs, rhs = _need_num(lhs, node), _need_num(rhs, node)
            return {"<": lhs < rhs, "<=": lhs <= rhs,
                    ">": lhs > rhs, ">=": lhs >= rhs}[node.op]
        lhs, rhs = _need_num(lhs, node), _need_num(rhs, node)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            if rhs == 0:
                raise ModelTypeError(
                    f"division by zero in {expr_to_text(node)}")
            return Fraction(lhs) / rhs
    if isinstance(node, Call):
        args = [walk_expr(a, env) for a in node.args]
        if node.func in ("min", "max"):
            nums = [_need_num(a, node) for a in args]
            return min(nums) if node.func == "min" else max(nums)
        if node.func == "floor":
            return math.floor(_need_num(args[0], node))
        if node.func == "ceil":
            return math.ceil(_need_num(args[0], node))
        text = expr_to_text(node)
        if node.func == "pow":
            base = _need_num(args[0], node)
            exponent = _whole(args[1], f"the exponent of {text}")
            if exponent < 0 and base == 0:
                raise ModelTypeError(f"division by zero in {text}")
            return base ** exponent if exponent >= 0 else \
                Fraction(base) ** exponent
        if node.func == "mod":
            dividend = _whole(args[0], f"the dividend of {text}")
            divisor = _whole(args[1], f"the divisor of {text}")
            if divisor == 0:
                raise ModelTypeError(f"division by zero in {text}")
            return dividend % divisor
    raise ModelTypeError(f"cannot evaluate {node!r}")


# --- dict folds of induced MDPs ----------------------------------------------

def _dict_fold(game, start, node_choices, update) -> Mdp:
    """The MDP over reachable (state, memory-mode) nodes of `game` under
    strategies whose memory starts in mode `start(s)` at each initial state
    s and moves by `update`.

    `node_choices(state, mode)` lists the node's choices as (choice-id,
    {joint action: weight}) pairs; a choice mixes the distributions and the
    action rewards of its joint actions by weight.  Every reward structure of
    the game is folded, state rewards carried over per node.  Weights are
    converted once to the game's number type, and `update` runs once per
    node and successor state.
    """
    number = game.number
    game_trans = coalition_trans(game)
    rewards = {name: RewardStructure() for name in game.rewards}
    init = [(s, start(s)) for s in game.initial]
    states = []
    seen = set(init)
    frontier = deque(init)
    choices = {}
    while frontier:
        node = frontier.popleft()
        states.append(node)
        s, mode = node
        trans = game_trans[s]
        node_choices_out = []
        successors = {}                 # state -> its node from this one
        for cid, weights in node_choices(s, mode):
            if number is not Fraction:
                weights = {pair: number(w) for pair, w in weights.items()}
            dist = {}
            for pair, w in weights.items():
                if pair not in trans:
                    raise IncompleteStrategy(
                        f"strategy plays unavailable action {pair!r} at {s!r}")
                for t, pt in trans[pair].items():
                    succ = successors.get(t)
                    if succ is None:
                        succ = successors[t] = (t, update(mode, t))
                    p = w * pt
                    dist[succ] = dist[succ] + p if succ in dist else p
            node_choices_out.append((cid, dist))
            for name, rs in game.rewards.items():
                folded = sum(w * rs.action_rewards[(s, pair)]
                             for pair, w in weights.items()
                             if (s, pair) in rs.action_rewards)
                if folded:
                    rewards[name].action_rewards[(node, cid)] = folded
            for succ in dist:
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        choices[node] = dict(node_choices_out)
        for name, rs in game.rewards.items():
            if rs.state_rewards.get(s):
                rewards[name].state_rewards[node] = rs.state_rewards[s]
    return Mdp(tuple(states), tuple(init), choices, rewards, number)


def induce_mdp_by_dict_fold(cg: CoalitionGame, fixed: int,
                            strategy: MemoryStrategy) -> Mdp:
    """Fold one side's strategy into the game, leaving the other side free.

    `fixed` is 1 or 2 (which side follows `strategy`).  The result is an MDP
    over reachable (state, memory-mode) pairs whose choices are the free
    side's actions; transition probabilities and action rewards are averaged
    over the fixed side's randomisation, and `Mdp.rewards` holds every folded
    reward structure of the game.
    """
    if fixed not in (1, 2):
        raise ModelError("fixed side must be 1 or 2")

    def node_choices(s, mode):
        sigma = strategy.distribution(s, mode)
        if sigma is None:
            raise IncompleteStrategy(
                f"no strategy entry for state {s!r}, mode {mode!r}")
        free = cg.actions2(s) if fixed == 1 else cg.actions1(s)
        return [(b, {((a, b) if fixed == 1 else (b, a)): pa
                     for a, pa in sigma.items() if pa != 0})
                for b in free]

    return _dict_fold(cg, strategy.start, node_choices, strategy.update)


def chain_by_dict_fold(cg, mdp, strategy1, strategy2) -> Mdp:
    """The profile's Markov chain folded from the game into a dict `Mdp`, as
    verification folded it before the chain was read off an induced MDP;
    `mdp` is ignored (the arguments are those of `model.induced_chain`)."""

    def joint_choice(state, mode):
        # the induced chain has one choice, both strategies' product
        d1 = strategy1.distribution(state, mode)
        d2 = strategy2.distribution(state, mode)
        return [("step", {(a, b): pa * pb for a, pa in d1.items()
                          for b, pb in d2.items()})]

    return _dict_fold(cg, strategy1.start, joint_choice, strategy1.update)


class _ExploredCommand:
    """A command as the earlier builder compiled it: `outcomes` evaluates and
    checks every probability (unless `fixed`) and every assigned value at
    each state where the command fires."""

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
             tuple((slots[name], infos[slots[name]].check, compiled(value))
                   for name, value in assigns))
            for prob, assigns in cmd.updates]
        self.fixed = None
        if not any(free_vars(prob) & slots.keys() for prob, _ in cmd.updates):
            try:
                kept, total = self.weigh(())
            except Exception:
                return
            if total == 1:
                self.fixed = kept

    def weigh(self, state):
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
        kept = self.fixed
        if kept is None:
            kept, total = self.weigh(state)
            if total != 1:
                raise ProbabilitySum(
                    f"probabilities at line {self.line} sum to {total} at "
                    f"state {dict(zip(var_names, state))}")
        updates = [[(slot, check(value(state)))
                    for slot, check, value in self.branches[k][1]]
                   for k, _ in kept]
        return [p for _, p in kept], updates


def explore_csg(ast, overrides=None):
    """The language model `ast` explored as the earlier builder explored it:
    (states in discovery order, rows, labels, rewards), the parts of
    `lang.build_csg`'s game graph.  Each row lists a state's (joint action,
    successor ids, probabilities) in sorted joint-action order; each label
    maps to a frozenset of states; each reward structure is a
    RewardStructure keyed by states."""
    constants = resolve_constants(ast, overrides)
    players = tuple(block.name for block in ast.players)
    infos = [_VarInfo(decl, constants)
             for mod in ast.modules for decl in mod.variables]
    var_names = tuple(info.name for info in infos)
    slots = {name: i for i, name in enumerate(var_names)}
    types = {info.name: bool if info.kind == "bool" else int for info in infos}

    def compiled(node):
        return compile_expr(node, constants, slots, types)

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
                             _ExploredCommand(len(scan), cmd, block.name,
                                              ast, compiled, slots, infos)))
    products = {}              # fired command indices -> branch products

    def plan(held):
        enabled = [[] for _ in ast.modules]
        acts = [set() for _ in players]
        for p, m, g, cmd in scan:
            if held[g]:
                enabled[m].append(cmd)
                acts[p].add(cmd.own)
        steps = []
        for joint in product(*[sorted(a) or [IDLE] for a in acts]):
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
    ids = {init_state: 0}
    rows = []
    plans = {}                 # guard values -> plan
    for state in order:
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
        row = []
        for joint, fired, weights in steps:
            for cmd in fired:
                if cmd.index not in outcomes:
                    outcomes[cmd.index] = cmd.outcomes(state, var_names)
            if weights is None:
                weights = _products([outcomes[cmd.index][0] for cmd in fired])
            dist = {}                  # successor id -> probability
            for w, combo in zip(weights, product(
                    *[outcomes[cmd.index][1] for cmd in fired])):
                succ = list(state)
                for updates in combo:
                    for slot, value in updates:
                        succ[slot] = value
                succ = tuple(succ)
                t = ids.get(succ)
                if t is None:
                    t = ids[succ] = len(order)
                    order.append(succ)
                if t in dist:
                    dist[t] += w
                else:
                    dist[t] = w
            probs = weights if len(dist) == len(weights) else \
                tuple(dist.values())
            row.append((joint, tuple(dist), probs))
        rows.append(row)

    labels = {}
    for name, pred, line in ast.labels:
        holds = compiled(pred)
        labels[name] = frozenset([state for state in order
                                  if _holds(holds, state, line)])

    rewards = {}
    for block in ast.rewards:
        items = []
        for item in block.items:
            wanted = {players.index(ast.action_owner[a]): a
                      for a in item.actions}
            items.append((compiled(item.guard), compiled(item.value),
                          tuple(wanted.items()), item))
        action_rewards, state_rewards = {}, {}
        for state, row in zip(order, rows):
            for guard, value_of, wanted, item in items:
                if not _holds(guard, state, item.line):
                    continue
                value = value_of(state)
                if type(value) not in (int, Fraction):
                    raise ModelTypeError(
                        f"reward is not numeric at line {item.line}")
                if not item.actions:
                    state_rewards[state] = state_rewards.get(state, 0) + value
                    continue
                for joint, _, _ in row:
                    if all(joint[i] == a for i, a in wanted):
                        key = (state, joint)
                        action_rewards[key] = action_rewards.get(key, 0) + value
        rewards[block.name] = RewardStructure(
            _reward_values(action_rewards, "action", block.name),
            _reward_values(state_rewards, "state", block.name))
    return tuple(order), rows, labels, rewards
