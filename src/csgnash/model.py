"""Core model types: concurrent stochastic games, coalition reduction, the
one MDP form (`IndexedMdp`: the joint-action MDP and the MDPs a strategy
induces), and end-component analysis on it.  A coalition game is its
joint-action MDP, built in one pass over the base game as it is regrouped;
the assumption check, the solvers and the strategy folds all read it.

A game has players 1..n with pairwise-disjoint action alphabets plus a shared
idle symbol.  At each state a player's available actions are the enabled
actions belonging to their alphabet, or idle if they have none; the defined
joint actions are exactly the product of the per-player availability sets.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from typing import ClassVar

from .errors import (
    EmptyCoalition,
    FullCoalition,
    IncompleteStrategy,
    ModelError,
    UnknownPlayer,
)

IDLE = "-"

__all__ = [
    "IDLE",
    "Csg",
    "RewardStructure",
    "CoalitionGame",
    "EndComponent",
    "IndexedMdp",
    "MemoryStrategy",
    "AssumptionReport",
    "coalition_game",
    "enumerate_mecs",
    "check_assumption",
    "joint_mdp",
    "induce_mdp",
    "induced_chain",
]


@dataclass(frozen=True)
class RewardStructure:
    """Nonnegative action rewards r_A(s, alpha) and state rewards r_S(s).

    Action rewards are keyed by (state, the holder's own choice id): a joint
    action in a Csg, an (a1, a2) pair in a coalition game, a
    choice id in an `IndexedMdp`.  Missing entries mean zero (an int, so
    that adding one keeps the other operand's number type).
    """

    action_rewards: dict = field(default_factory=dict)
    state_rewards: dict = field(default_factory=dict)

    def action(self, state, joint):
        return self.action_rewards.get((state, joint), 0)

    def state(self, state):
        return self.state_rewards.get(state, 0)


def _forward_closure(trans, sources):
    """The states a play can reach from `sources` in `trans` (state ->
    action -> distribution), `sources` included."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for dist in trans[frontier.pop()].values():
            for t in dist:
                if t not in seen:
                    seen.add(t)
                    frontier.append(t)
    return seen


def _exact(value, what, where):
    """`value` as a Fraction; a float would make every later result inexact."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ModelError(f"{what} {value!r} at {where} is a float; models "
                         f"hold exact numbers only")
    return Fraction(value)


@dataclass(frozen=True)
class Csg:
    """A concurrent stochastic game over named players and states.

    `trans[s][alpha]` maps each defined joint action tuple `alpha` (one entry
    per player, idle written as IDLE) to a probability distribution
    {successor: probability}.  Every game is validated once, where it is
    made: `lang.build_csg` checks what it builds and constructs the Csg
    directly; explicit files and direct calls go through `Csg.create`, which
    checks all of it and normalises.  Language-built games also carry
    `variables`, the variable names in slot order (each state is the tuple
    of their values; None for explicit games), the model constants and the
    declared label names.
    """

    players: tuple
    alphabets: dict
    states: tuple
    initial: tuple
    trans: dict
    labels: dict
    rewards: dict = field(default_factory=dict)
    variables: tuple = None
    constants: dict = field(default_factory=dict)
    label_names: frozenset = frozenset()
    number: ClassVar[type] = Fraction      # models hold exact numbers only

    @classmethod
    def create(cls, players, alphabets, states, initial, trans, labels=None,
               rewards=None):
        """The game given by unchecked parts, validated and normalised.

        Players and alphabets must be distinct and disjoint; every joint
        action set must be the full product of the players' available
        actions; probabilities are positive exact rationals summing to 1
        over known successors; rewards are nonnegative exact rationals on
        defined actions.  Deadlocks get an all-idle self-loop, labels become
        frozensets, zero rewards are dropped and unreachable states pruned.
        """
        players = tuple(players)
        if not players or len(set(players)) != len(players):
            raise ModelError("players must be a nonempty list of distinct names")
        alphabets = {p: frozenset(alphabets.get(p, ())) for p in players}
        seen_actions = set()
        for p in players:
            if IDLE in alphabets[p]:
                raise ModelError(f"idle symbol {IDLE!r} may not appear in an alphabet")
            if seen_actions & alphabets[p]:
                raise ModelError("player alphabets must be pairwise disjoint")
            seen_actions |= alphabets[p]

        states = tuple(states)
        state_set = set(states)
        if not states or len(state_set) != len(states):
            raise ModelError("states must be a nonempty list of distinct names")
        initial = tuple(initial)
        if not initial or not set(initial) <= state_set:
            raise ModelError("initial states must be a nonempty subset of states")

        trans = {s: dict(trans.get(s, {})) for s in states}
        for s in states:
            if not trans[s]:
                # idle-deadlock normalisation: an all-idle self-loop
                trans[s] = {(IDLE,) * len(players): {s: Fraction(1)}}
            per_player = [set() for _ in players]
            for alpha, dist in trans[s].items():
                if len(alpha) != len(players):
                    raise ModelError(f"joint action {alpha} has wrong arity at {s}")
                for i, a in enumerate(alpha):
                    if a != IDLE and a not in alphabets[players[i]]:
                        raise ModelError(
                            f"action {a!r} not in alphabet of {players[i]} at {s}")
                    per_player[i].add(a)
                dist = {t: _exact(p, "probability", (s, alpha))
                        for t, p in dist.items()}
                trans[s][alpha] = dist
                if any(p <= 0 for p in dist.values()):
                    raise ModelError(f"non-positive probability at {s}, {alpha}")
                den = lcm(*(p.denominator for p in dist.values()))
                if sum(p.numerator * (den // p.denominator)
                       for p in dist.values()) != den:
                    raise ModelError(f"distribution at {s}, {alpha} does not sum to 1")
                if not set(dist) <= state_set:
                    raise ModelError(f"unknown successor at {s}, {alpha}")
            for i, avail in enumerate(per_player):
                if IDLE in avail and len(avail) > 1:
                    raise ModelError(
                        f"player {players[i]} both idles and acts at {s}")
            expected = 1
            for avail in per_player:
                expected *= len(avail)
            if len(trans[s]) != expected:
                raise ModelError(
                    f"joint actions at {s} are not a full product of "
                    f"per-player availability sets")

        labels = {s: frozenset(labels.get(s, ())) if labels else frozenset()
                  for s in states}

        reward_structs = {}
        for name, rs in (rewards or {}).items():
            action_rewards, state_rewards = {}, {}
            for (s, alpha), val in rs.action_rewards.items():
                val = _exact(val, "action reward", (name, s, alpha))
                if val < 0:
                    raise ModelError(f"negative action reward in {name!r}")
                if s not in state_set or alpha not in trans[s]:
                    raise ModelError(f"reward {name!r} on undefined action {s}, {alpha}")
                if val != 0:
                    action_rewards[(s, alpha)] = val
            for s, val in rs.state_rewards.items():
                val = _exact(val, "state reward", (name, s))
                if val < 0:
                    raise ModelError(f"negative state reward in {name!r}")
                if s not in state_set:
                    raise ModelError(f"reward {name!r} on unknown state {s}")
                if val != 0:
                    state_rewards[s] = val
            reward_structs[name] = RewardStructure(action_rewards, state_rewards)

        # prune unreachable states, preserving declaration order
        reached = _forward_closure(trans, initial)
        if reached != state_set:
            states = tuple(s for s in states if s in reached)
            trans = {s: trans[s] for s in states}
            labels = {s: labels[s] for s in states}
            reward_structs = {
                name: RewardStructure(
                    {k: v for k, v in rs.action_rewards.items() if k[0] in reached},
                    {s: v for s, v in rs.state_rewards.items() if s in reached})
                for name, rs in reward_structs.items()}

        return cls(players, alphabets, states, initial, trans, labels,
                   reward_structs)


@dataclass(frozen=True)
class IndexedMdp:
    """An MDP in the id-indexed form that the solvers of `mdp` run on.

    State i is `states[i]` (`ids` maps it back) and `rows[i]` lists its
    choices as (choice id, successor ids, probabilities), the probabilities
    a tuple of type `number`.  Choices are also numbered in row order:
    `owner[c]` is the state id of choice c, and `preds[i]` lists the numbers
    of the choices leading to state i (one entry per choice, shared by all
    of its successors).  `initial` holds the initial states among `states`,
    and `rewards` maps each reward structure name to a RewardStructure whose
    action rewards are keyed by (state, choice id).
    """

    states: list
    ids: dict
    rows: list
    owner: list
    preds: list
    number: type
    initial: tuple
    rewards: dict


@dataclass(frozen=True)
class CoalitionGame:
    """Two-player regrouping of a game: side 1 is the coalition, side 2 the rest.

    Actions of each side are tuples over the members' actions in ascending
    player-index order, and `moves[s]` holds the sorted side-1 and side-2
    actions at s.  `graph` is the game's joint MDP, the one form in which
    every layer reads its transitions: the choices of state s are the pairs
    (a1, a2) of the base game's joint actions, each with its base
    distribution, listed row-major over `moves[s]`, so that (a1, a2) sits at
    position i1 * len(actions2) + i2 of s's row.  Its rewards are the base
    reward structures with action rewards keyed by (state, (a1, a2)).
    Every probability and reward is a `number`.  `base` is the game it
    regroups, whose labels state formulae resolve on.
    """

    base: Csg
    moves: dict            # state -> (sorted actions1, sorted actions2)
    graph: IndexedMdp

    @property
    def states(self):
        return self.graph.states

    @property
    def initial(self):
        return self.graph.initial

    @property
    def rewards(self):
        return self.graph.rewards

    @property
    def number(self):
        return self.graph.number

    def actions1(self, state):
        return self.moves[state][0]

    def actions2(self, state):
        return self.moves[state][1]


def _first(choice):
    return choice[0]


def _index(game: Csg, split, number) -> IndexedMdp:
    """The joint MDP of `game`, each joint action renamed by `split` (kept
    if None), its probabilities and rewards in `number`, in one pass.

    States keep `game.states` order, rows are sorted by choice id, and
    successors keep distribution order.  The base game's numbers are kept
    where `number` is its type, else each distinct number object is
    converted once (objects are keyed by identity, which is stable while
    the game holds them); equal numbers, renamed actions and probability
    tuples are stored once."""
    same = number is game.number
    states = game.states
    ids = {s: i for i, s in enumerate(states)}
    rows, owner, preds = [], [], [[] for _ in states]
    names, converted, numbers, by_objects, tuples = {}, {}, {}, {}, {}

    def name(alpha):
        cid = names.get(alpha)
        if cid is None:
            cid = names[alpha] = alpha if split is None else split(alpha)
        return cid

    def value(v):
        if same:
            return v
        w = converted.get(id(v))
        if w is None:
            w = number(v)
            w = converted[id(v)] = numbers.setdefault(w, w)
        return w

    for i, s in enumerate(states):
        row = []
        for alpha, dist in game.trans[s].items():
            values = dist.values()
            key = tuple(map(id, values))
            probs = by_objects.get(key)
            if probs is None:
                probs = tuple(map(value, values))
                probs = by_objects[key] = tuples.setdefault(probs, probs)
            row.append((name(alpha), tuple([ids[t] for t in dist]), probs))
        row.sort(key=_first)
        for _, succ, _ in row:
            c = len(owner)
            owner.append(i)
            for t in succ:
                preds[t].append(c)
        rows.append(row)
    rewards = {label: RewardStructure(
        {(s, names[alpha]): value(v)
         for (s, alpha), v in rs.action_rewards.items()},
        {s: value(v) for s, v in rs.state_rewards.items()})
        for label, rs in game.rewards.items()}
    return IndexedMdp(states, ids, rows, owner, preds, number, game.initial,
                      rewards)


def coalition_game(game: Csg, coalition, number=Fraction) -> CoalitionGame:
    """Regroup an n-player game into the two-player coalition game, its
    probabilities and rewards in `number`.  They are the base game's own in
    its type, else converted here (the one place a game changes type).  The
    joint MDP is built in the same pass over the base game (`_index`);
    equal action lists are stored once."""
    members = list(coalition)
    for p in members:
        if p not in game.players:
            raise UnknownPlayer(f"unknown player {p!r}")
    if not members:
        raise EmptyCoalition("coalition must contain at least one player")
    member_set = set(members)
    if len(member_set) == len(game.players):
        raise FullCoalition("coalition must be a proper subset of the players")
    idx1 = [i for i, p in enumerate(game.players) if p in member_set]
    idx2 = [i for i, p in enumerate(game.players) if p not in member_set]

    def split(alpha):
        return tuple(alpha[i] for i in idx1), tuple(alpha[i] for i in idx2)

    graph = _index(game, split, number)
    moves, shared = {}, {}
    for s, row in zip(graph.states, graph.rows):
        acts1 = tuple(dict.fromkeys(a1 for (a1, _), _, _ in row))
        pair = (acts1, tuple(a2 for (_, a2), _, _ in
                             row[:len(row) // len(acts1)]))
        moves[s] = shared.setdefault(pair, pair)
    return CoalitionGame(game, moves, graph)


@dataclass(frozen=True)
class EndComponent:
    """A sub-MDP (states, retained choices) that is strongly connected and
    closed under the retained choices; non_terminal records whether the MDP
    can still leave it by some choice.  `sub_trans` holds the MDP's numbers:
    in a solve's assumption check, the solved game's."""

    states: frozenset
    sub_trans: dict        # (state, choice id) -> {successor: probability}
    non_terminal: bool


def _reach(rows, sources, through=None):
    """The ids a play can reach in `rows` from the ids `sources`, moving on
    only from ids in `through` (from every id if None); `sources` included."""
    seen = set(sources)
    frontier = [i for i in seen if through is None or i in through]
    while frontier:
        for _, succ, _ in rows[frontier.pop()]:
            for t in succ:
                if t not in seen:
                    seen.add(t)
                    if through is None or t in through:
                        frontier.append(t)
    return seen


def joint_mdp(game, reads=None) -> IndexedMdp:
    """The MDP where one controller picks whole joint actions of `game`, in
    the id-indexed form: a CoalitionGame's own `graph`, or for a Csg one
    built from its joint actions (`_index`), whose choice ids are the joint
    actions and whose reward structures and number type are the game's.

    With `reads`, a set of states, the MDP holds only their forward closure,
    which is all their values depend on.  States keep their order, so ties
    broken by id fall as on the whole game, and rows keep their choices,
    successors and probability tuples.
    """
    graph = game.graph if isinstance(game, CoalitionGame) else \
        _index(game, None, game.number)
    if reads is None:
        return graph
    keep = sorted(_reach(graph.rows, [graph.ids[s] for s in reads]))
    new = dict(zip(keep, range(len(keep))))
    states = [graph.states[i] for i in keep]
    rows, owner, preds = [], [], [[] for _ in keep]
    for n, i in enumerate(keep):
        row = []
        for cid, succ, probs in graph.rows[i]:
            succ = tuple([new[t] for t in succ])
            c = len(owner)
            owner.append(n)
            for t in succ:
                preds[t].append(c)
            row.append((cid, succ, probs))
        rows.append(row)
    ids = {s: n for n, s in enumerate(states)}
    return IndexedMdp(states, ids, rows, owner, preds, graph.number,
                      tuple(s for s in graph.initial if s in ids),
                      graph.rewards)


def _sccs(nodes, edges):
    """Strongly connected components (iterative Tarjan), as a list of sets."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    result = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(edges.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges.get(succ, ()))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    t = stack.pop()
                    on_stack.discard(t)
                    comp.add(t)
                    if t == node:
                        break
                result.append(comp)
    return result


def _mec_id_sets(rows):
    """Maximal end components of an MDP given by its id-indexed `rows`, as
    id sets.  A state keeps the choices whose successors all lie in its
    candidate set, and the edges of those choices."""
    candidates = [set(range(len(rows)))]
    final = []
    while candidates:
        group = candidates.pop()
        while True:
            edges = {i: [t for _, succ, _ in rows[i]
                         if group.issuperset(succ) for t in succ]
                     for i in group}
            dropped = {i for i, succ in edges.items() if not succ}
            if dropped:
                group -= dropped
                if not group:
                    break
                continue
            comps = _sccs(sorted(group), edges)
            if len(comps) == 1:
                final.append(group)
                break
            candidates.extend(comps)
            break
    return final


def enumerate_mecs(mdp: IndexedMdp):
    """All maximal end components of `mdp` (a `joint_mdp`), flagged
    (non-)terminal, each with its states and retained choices by name."""
    states, rows = mdp.states, mdp.rows
    name = states.__getitem__
    mecs = []
    for group in _mec_id_sets(rows):
        sub, non_terminal = {}, False
        for i in group:
            for cid, succ, probs in rows[i]:
                if group.issuperset(succ):
                    sub[states[i], cid] = dict(zip(map(name, succ), probs))
                else:
                    non_terminal = True
        mecs.append(EndComponent(frozenset(map(name, group)), sub,
                                 non_terminal))
    mecs.sort(key=lambda ec: sorted(map(str, ec.states)))
    return mecs


class MemoryStrategy:
    """Interface for a finite-memory randomised strategy of one side.

    The memory mode is consulted before acting in a state and updated on
    observing the successor state.
    """

    initial_mode = None

    def start(self, state):
        """Memory mode at the initial state `state`."""
        return self.initial_mode

    def distribution(self, state, mode):
        """Map from this side's action to probability; None if undefined."""
        raise NotImplementedError

    def update(self, mode, next_state):
        """Memory mode after moving to `next_state`.

        The result must depend on `mode` and `next_state` alone, not on the
        state moved from: `induce_mdp` calls it once per mode and successor
        state and reuses the result at every node in that mode.
        """
        raise NotImplementedError


def _fold(game, start, node_choices, update) -> IndexedMdp:
    """The MDP over reachable (state, memory-mode) nodes of `game` under
    strategies whose memory starts in mode `start(s)` at each initial state
    s and moves by `update`, built in the id-indexed form in one
    breadth-first pass.

    `node_choices(state, mode)` lists the node's choices as (choice-id,
    {joint action: weight}) pairs, each weight in the game's number type; a
    choice mixes the distributions and the action rewards of its joint
    actions by weight.  Nodes are numbered in the order they are found.  A
    choice lists its successors in the order its joint actions, and their
    distributions, first reach them, and each successor's probability sums
    the weighted game probabilities in that order.  Every reward structure
    of the game is folded, action rewards keyed by (node, choice id) and
    state rewards carried over per node.  `update` runs once per mode and
    successor state (`MemoryStrategy.update`).  The game is read in its
    `graph`: a joint action's row position comes from the state's moves,
    and a successor id of the graph maps to a node id once per mode.
    """
    graph = game.graph
    positions = {}              # moves -> {joint action: row position}
    structures = list(game.rewards.items())
    rewards = {name: RewardStructure() for name in game.rewards}
    states = [(s, start(s)) for s in game.initial]
    initial = tuple(states)
    ids = {node: i for i, node in enumerate(states)}
    rows, owner, preds = [], [], [[] for _ in states]
    found = {}                  # mode -> {successor's graph id: node id}
    for i, node in enumerate(states):           # `states` grows as we go
        s, mode = node
        joint = graph.rows[graph.ids[s]]
        moves = game.moves[s]
        at = positions.get(moves)
        if at is None:
            at = positions[moves] = {pair: k for k, pair in
                                     enumerate(product(*moves))}
        succ_ids = found.get(mode)
        if succ_ids is None:
            succ_ids = found[mode] = {}
        row = []
        for cid, weights in node_choices(s, mode):
            dist = {}
            for pair, w in weights.items():
                k = at.get(pair)
                if k is None:
                    raise IncompleteStrategy(
                        f"strategy plays unavailable action {pair!r} at {s!r}")
                _, succ, probs = joint[k]
                for t, pt in zip(succ, probs):
                    j = succ_ids.get(t)
                    if j is None:
                        u = graph.states[t]
                        nxt = (u, update(mode, u))
                        j = ids.get(nxt)
                        if j is None:
                            j = ids[nxt] = len(states)
                            states.append(nxt)
                            preds.append([])
                        succ_ids[t] = j
                    p = w * pt
                    dist[j] = dist[j] + p if j in dist else p
            c = len(owner)
            owner.append(i)
            for j in dist:
                preds[j].append(c)
            row.append((cid, tuple(dist), tuple(dist.values())))
            for name, rs in structures:
                folded = sum(w * rs.action_rewards[(s, pair)]
                             for pair, w in weights.items()
                             if (s, pair) in rs.action_rewards)
                if folded:
                    rewards[name].action_rewards[(node, cid)] = folded
        rows.append(row)
        for name, rs in structures:
            if rs.state_rewards.get(s):
                rewards[name].state_rewards[node] = rs.state_rewards[s]
    return IndexedMdp(states, ids, rows, owner, preds, game.number, initial,
                      rewards)


def induce_mdp(cg: CoalitionGame, fixed: int,
               strategy: MemoryStrategy) -> IndexedMdp:
    """Fold one side's strategy into the game, leaving the other side free.

    `fixed` is 1 or 2 (which side follows `strategy`).  The result is an MDP
    over reachable (state, memory-mode) pairs, in the id-indexed form
    (`_fold`), whose choices are the free side's actions; transition
    probabilities and action rewards are averaged over the fixed side's
    randomisation, its weights converted once to the game's number type,
    and `rewards` holds every folded reward structure of the game.
    """
    if fixed not in (1, 2):
        raise ModelError("fixed side must be 1 or 2")
    number = cg.number
    convert = number is not Fraction

    def node_choices(s, mode):
        sigma = strategy.distribution(s, mode)
        if sigma is None:
            raise IncompleteStrategy(
                f"no strategy entry for state {s!r}, mode {mode!r}")
        sigma = [(a, number(pa) if convert else pa)
                 for a, pa in sigma.items() if pa != 0]
        free = cg.actions2(s) if fixed == 1 else cg.actions1(s)
        return [(b, {((a, b) if fixed == 1 else (b, a)): pa
                     for a, pa in sigma})
                for b in free]

    return _fold(cg, strategy.start, node_choices, strategy.update)


def induced_chain(cg: CoalitionGame, mdp: IndexedMdp,
                  strategy1: MemoryStrategy,
                  strategy2: MemoryStrategy) -> IndexedMdp:
    """The Markov chain of the profile (`strategy1`, `strategy2`), read off
    `mdp = induce_mdp(cg, 2, strategy2)`.

    The two strategies must start and move their memory alike, as the two
    sides of a synthesised profile do, else ModelError is raised.  Then the
    chain's nodes are nodes of `mdp`, and its memory moves are those `mdp`'s
    edges record: `strategy2.update` does not run again, and
    `strategy1.update` runs once per mode and successor state, to check
    the move.  Each node has one choice, "step", which mixes the joint
    actions (a, b) of positive weight σ1(a)·σ2(b), each weight converted
    once to the game's number type, a-major (`_fold`).
    """
    number = cg.number
    convert = number is not Fraction
    nodes = mdp.states
    moves = {(mode, nodes[j][0]): nodes[j][1]
             for (_, mode), row in zip(nodes, mdp.rows)
             for _, succ, _ in row for j in succ}
    for s, mode in mdp.initial:
        if strategy1.start(s) != mode:
            raise ModelError(
                f"the strategies start in different memory modes at {s!r}")

    def update(mode, t):
        if (mode, t) not in moves or strategy1.update(mode, t) != \
                moves[mode, t]:
            raise ModelError(f"the strategies move their memory differently "
                             f"from mode {mode!r} to state {t!r}")
        return moves[mode, t]

    def node_choices(s, mode):
        d1 = strategy1.distribution(s, mode)
        d2 = strategy2.distribution(s, mode)
        if d1 is None or d2 is None:
            raise IncompleteStrategy(
                f"no strategy entry for state {s!r}, mode {mode!r}")
        return [("step", {(a, b): number(pa * pb) if convert else pa * pb
                          for a, pa in d1.items() if pa
                          for b, pb in d2.items() if pb})]

    return _fold(cg, dict(mdp.initial).__getitem__, node_choices, update)


@dataclass(frozen=True)
class AssumptionReport:
    """Result of checking the convergence assumption for a query.

    nonterminal_mecs: non-terminal maximal end components (relevant to
        infinite-horizon probabilistic objectives).
    reward_issues: list of (objective index, states from which the target is
        not reached almost surely under every profile) for infinite-horizon
        reward objectives.
    """

    nonterminal_mecs: tuple
    reward_issues: tuple

    @property
    def passed(self):
        return not self.nonterminal_mecs and not self.reward_issues

    @property
    def severity(self):
        return "ok" if self.passed else "warning"

    def messages(self):
        out = []
        for ec in self.nonterminal_mecs:
            names = ", ".join(sorted(map(str, ec.states)))
            out.append(f"non-terminal end component {{{names}}} may prevent "
                       f"value-iteration convergence")
        for idx, states in self.reward_issues:
            names = ", ".join(sorted(map(str, states)))
            out.append(f"objective {idx + 1}: target not reached almost surely "
                       f"under all profiles (offending states: {names})")
        return out


def check_assumption(game, query) -> AssumptionReport:
    """Check the no-nonterminal-end-component assumption for a query on
    `game`, a Csg or a CoalitionGame.

    Finite-horizon-only queries pass trivially.  Otherwise every check runs
    on the joint-action MDP (`joint_mdp`: a coalition game's own graph, a
    Csg's built once).  A pair of infinite-horizon objectives, one of them
    probabilistic, triggers a report of the non-terminal maximal end
    components that can stall the pair's value iteration: those with a
    state from which each probabilistic objective's target can be reached
    (through its until constraint's states).  In any other, some objective
    is worth 0 at each of its states, so it cannot stall the pair.  A mixed pair runs no such check (it is backwards
    induction from one MDP optimum).  Every infinite-horizon reward
    objective requires the target to be reached with probability 1 under
    all strategy profiles (once per target set).  All checks are
    qualitative.
    """
    from .mdp import prob1_min_set          # local import: avoids a cycle
    from .properties import satisfying_states

    objectives = query.objectives
    infinite = [obj for obj in objectives if not obj.is_finite_horizon()]
    if not infinite:
        return AssumptionReport((), ())
    mdp = joint_mdp(game)
    if isinstance(game, CoalitionGame) and game.base is not None:
        game = game.base            # whose labels state formulae resolve on
    nonterminal = ()
    if len(infinite) == len(objectives) and \
            any(obj.kind == "P" for obj in infinite):
        stakes = []                 # per P objective: (targets, through)
        for obj in infinite:
            if obj.kind == "P":
                targets = {mdp.ids[s] for s in
                           satisfying_states(game, obj.sub2)}
                stakes.append((targets, {
                    mdp.ids[s] for s in satisfying_states(game, obj.sub1)}
                    - targets))

        def stalls(ec):
            ids = [mdp.ids[s] for s in ec.states]
            return all(not targets.isdisjoint(_reach(
                mdp.rows, [i for i in ids if i in through or i in targets],
                through)) for targets, through in stakes)

        nonterminal = tuple(ec for ec in enumerate_mecs(mdp)
                            if ec.non_terminal and stalls(ec))
    reward_issues, sure = [], {}
    for idx, obj in enumerate(objectives):
        if obj.kind != "R" or obj.is_finite_horizon():
            continue
        targets = frozenset(satisfying_states(game, obj.sub2))
        if targets not in sure:
            sure[targets] = prob1_min_set(mdp, targets)
        bad = [s for s in game.states if s not in sure[targets]]
        if bad:
            reward_issues.append((idx, tuple(bad)))
    return AssumptionReport(nonterminal, tuple(reward_issues))
