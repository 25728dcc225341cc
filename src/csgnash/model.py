"""Core model types: concurrent stochastic games, coalition reduction, the
one MDP form (`IndexedMdp`: a game's joint-action MDP and the MDPs a
strategy induces), and end-component analysis on it.  A game holds its
transitions in that form alone: a `Csg` is its joint-action MDP on state
ids, as the builder or `Csg.create` indexes it, and a coalition game
regroups that MDP's choices into (a1, a2) pairs, sharing its states and
successor tuples; the assumption check, the solvers and the strategy folds
all read it.

A game has players 1..n with pairwise-disjoint action alphabets plus a shared
idle symbol.  At each state a player's available actions are the enabled
actions belonging to their alphabet, or idle if they have none; the defined
joint actions are exactly the product of the per-player availability sets.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import lcm

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


@dataclass(frozen=True)
class IndexedMdp:
    """An MDP in the id-indexed form that the solvers of `mdp` run on.

    State i is `states[i]` (`ids` maps it back) and `rows[i]` lists its
    choices as (choice id, successor ids, probabilities), the probabilities
    a tuple of type `number`.  Choices are also numbered in row order:
    `owner[c]` is the state id of choice c, and `preds[i]` lists the numbers
    of the choices leading to state i (one entry per choice, shared by all
    of its successors); both are derived from the rows when first read.
    `initial` holds the initial states among `states`, and `rewards` maps
    each reward structure name to a RewardStructure whose action rewards are
    keyed by (state, choice id).
    """

    states: list
    ids: dict
    rows: list
    number: type
    initial: tuple
    rewards: dict

    @cached_property
    def owner(self):
        return [i for i, row in enumerate(self.rows) for _ in row]

    @cached_property
    def preds(self):
        preds, c = [[] for _ in self.rows], 0
        for row in self.rows:
            for _, succ, _ in row:
                for t in succ:
                    preds[t].append(c)
                c += 1
        return preds


def _first(choice):
    return choice[0]


def _exact(value, what, where):
    """`value` as a Fraction; a float would make every later result inexact."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise ModelError(f"{what} {value!r} at {where} is a float; models "
                         f"hold exact numbers only")
    return Fraction(value)


class _Transitions(Mapping):
    """A game's graph read as state -> {joint action: {successor:
    probability}}, each state's dicts built per lookup."""

    def __init__(self, graph):
        self._graph = graph

    def __getitem__(self, state):
        graph = self._graph
        name = graph.states.__getitem__
        return {joint: dict(zip(map(name, succ), probs))
                for joint, succ, probs in graph.rows[graph.ids[state]]}

    def __iter__(self):
        return iter(self._graph.states)

    def __len__(self):
        return len(self._graph.states)


class _OnGraph:
    """The parts of a game that its graph holds."""

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


@dataclass(frozen=True)
class Csg(_OnGraph):
    """A concurrent stochastic game over named players and states.

    `graph` is the game's joint-action MDP, the one form in which it holds
    its transitions: the choices of a state are its defined joint actions
    (one entry per player, idle written as IDLE), sorted, each with its
    successor ids in distribution order and its exact probabilities, in a
    tuple shared by every choice with the same probability objects.  Its
    rewards are the game's, action rewards keyed by (state, joint action).
    `trans` reads the graph back as dicts, state -> {joint action:
    {successor: probability}}, built per lookup.

    `labels` maps each label to the frozenset of states where it holds;
    every label a model declares is a key, even one that holds nowhere.

    Every game is validated once, where it is made: `lang.build_csg` checks
    what it builds and indexes it as it explores; explicit files and direct
    calls go through `Csg.create`, which checks all of it and normalises.
    Language-built games also carry `variables`, the variable names in slot
    order (each state is the tuple of their values; None for explicit
    games), and the model constants.
    """

    players: tuple
    alphabets: dict
    graph: IndexedMdp          # of exact numbers only
    labels: dict               # label -> frozenset of states
    variables: tuple = None
    constants: dict = field(default_factory=dict)

    @property
    def trans(self):
        return _Transitions(self.graph)

    def state_name(self, state):
        """`state` as messages name it: `(x=1,y=0)`, its variables and their
        values, in a language-built game; its name in an explicit one."""
        if self.variables is None:
            return str(state)
        return "(" + ",".join(
            f"{v}={str(x).lower() if type(x) is bool else x}"
            for v, x in zip(self.variables, state)) + ")"

    @classmethod
    def create(cls, players, alphabets, states, initial, trans, labels=None,
               rewards=None):
        """The game given by unchecked parts, validated and normalised.

        Players and alphabets must be distinct and disjoint; every joint
        action set must be the full product of the players' available
        actions; probabilities are positive exact rationals summing to 1
        over known successors; rewards are nonnegative exact rationals on
        defined actions, and `labels` maps each label to states of the game
        where it holds.  Deadlocks get an all-idle self-loop, each label's
        states become a frozenset and zero rewards are dropped.  Each
        state's choices are indexed into the game's graph as they are
        checked, and unreachable states are pruned by restricting the graph
        to the forward closure of the initial states, with their labels and
        rewards.
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
        ids = {s: i for i, s in enumerate(states)}
        if not states or len(ids) != len(states):
            raise ModelError("states must be a nonempty list of distinct names")
        initial = tuple(initial)
        if not initial or not set(initial) <= ids.keys():
            raise ModelError("initial states must be a nonempty subset of states")

        rows, tuples, defined = [], {}, set()
        for s in states:
            # idle-deadlock normalisation: an all-idle self-loop
            choices = trans.get(s) or {(IDLE,) * len(players): {s: 1}}
            per_player = [set() for _ in players]
            row = []
            for alpha, dist in choices.items():
                if len(alpha) != len(players):
                    raise ModelError(f"joint action {alpha} has wrong arity at {s}")
                for i, a in enumerate(alpha):
                    if a != IDLE and a not in alphabets[players[i]]:
                        raise ModelError(
                            f"action {a!r} not in alphabet of {players[i]} at {s}")
                    per_player[i].add(a)
                dist = {t: _exact(p, "probability", (s, alpha))
                        for t, p in dist.items()}
                if any(p <= 0 for p in dist.values()):
                    raise ModelError(f"non-positive probability at {s}, {alpha}")
                den = lcm(*(p.denominator for p in dist.values()))
                if sum(p.numerator * (den // p.denominator)
                       for p in dist.values()) != den:
                    raise ModelError(f"distribution at {s}, {alpha} does not sum to 1")
                if not dist.keys() <= ids.keys():
                    raise ModelError(f"unknown successor at {s}, {alpha}")
                defined.add((s, alpha))
                # one tuple per set of probability objects, keyed by their
                # identities (stable while the stored tuple holds them)
                values = dist.values()
                probs = tuples.setdefault(tuple(map(id, values)),
                                          tuple(values))
                row.append((alpha, tuple([ids[t] for t in dist]), probs))
            for i, avail in enumerate(per_player):
                if IDLE in avail and len(avail) > 1:
                    raise ModelError(
                        f"player {players[i]} both idles and acts at {s}")
            expected = 1
            for avail in per_player:
                expected *= len(avail)
            if len(row) != expected:
                raise ModelError(
                    f"joint actions at {s} are not a full product of "
                    f"per-player availability sets")
            rows.append(sorted(row, key=_first))

        labels = {name: frozenset(holds)
                  for name, holds in (labels or {}).items()}
        for name, holds in labels.items():
            if not holds <= ids.keys():
                raise ModelError(f"label {name!r} on unknown state "
                                 f"{min(holds - ids.keys(), key=str)}")

        reward_structs = {}
        for name, rs in (rewards or {}).items():
            action_rewards, state_rewards = {}, {}
            for (s, alpha), val in rs.action_rewards.items():
                val = _exact(val, "action reward", (name, s, alpha))
                if val < 0:
                    raise ModelError(f"negative action reward in {name!r}")
                if (s, alpha) not in defined:
                    raise ModelError(f"reward {name!r} on undefined action {s}, {alpha}")
                if val != 0:
                    action_rewards[(s, alpha)] = val
            for s, val in rs.state_rewards.items():
                val = _exact(val, "state reward", (name, s))
                if val < 0:
                    raise ModelError(f"negative state reward in {name!r}")
                if s not in ids:
                    raise ModelError(f"reward {name!r} on unknown state {s}")
                if val != 0:
                    state_rewards[s] = val
            reward_structs[name] = RewardStructure(action_rewards, state_rewards)

        graph = IndexedMdp(states, ids, rows, Fraction, initial,
                           reward_structs)
        # prune unreachable states, preserving declaration order
        reached = _reach(rows, [ids[s] for s in initial])
        if len(reached) < len(states):
            graph = _restrict(graph, sorted(reached))
            kept = graph.ids
            labels = {name: frozenset(s for s in holds if s in kept)
                      for name, holds in labels.items()}
            graph = replace(graph, states=tuple(graph.states), rewards={
                name: RewardStructure(
                    {k: v for k, v in rs.action_rewards.items()
                     if k[0] in kept},
                    {s: v for s, v in rs.state_rewards.items() if s in kept})
                for name, rs in reward_structs.items()})
        return cls(players, alphabets, graph, labels)


@dataclass(frozen=True)
class CoalitionGame(_OnGraph):
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

    def actions1(self, state):
        return self.moves[state][0]

    def actions2(self, state):
        return self.moves[state][1]


def _index(game: Csg, split, number) -> IndexedMdp:
    """The graph of `game` regrouped: each joint action renamed by `split`,
    each row sorted by the new choice ids, probabilities and rewards in
    `number`.  States, ids and successor tuples are the base graph's, and so
    are the probability tuples where `number` is the base's type; else each
    distinct tuple object and number object is converted once (keyed by
    identity), and equal converted numbers and tuples are stored once."""
    base = game.graph
    same = number is base.number
    names, converted, numbers, by_objects, tuples = {}, {}, {}, {}, {}

    def name(alpha):
        cid = names.get(alpha)
        if cid is None:
            cid = names[alpha] = split(alpha)
        return cid

    def value(v):
        if same:
            return v
        w = converted.get(id(v))
        if w is None:
            w = number(v)
            w = converted[id(v)] = numbers.setdefault(w, w)
        return w

    rows = []
    for row in base.rows:
        regrouped = []
        for alpha, succ, probs in row:
            if not same:
                done = by_objects.get(id(probs))
                if done is None:
                    done = tuple(map(value, probs))
                    done = by_objects[id(probs)] = tuples.setdefault(done,
                                                                     done)
                probs = done
            regrouped.append((name(alpha), succ, probs))
        regrouped.sort(key=_first)
        rows.append(regrouped)
    rewards = {label: RewardStructure(
        {(s, names[alpha]): value(v)
         for (s, alpha), v in rs.action_rewards.items()},
        {s: value(v) for s, v in rs.state_rewards.items()})
        for label, rs in game.rewards.items()}
    return IndexedMdp(base.states, base.ids, rows, number, base.initial,
                      rewards)


def coalition_game(game: Csg, coalition, number=Fraction) -> CoalitionGame:
    """Regroup an n-player game into the two-player coalition game, its
    probabilities and rewards in `number`.  They are the base game's own in
    its type, else converted here (the one place a game changes type).  Its
    graph regroups the base game's (`_index`), sharing its states, ids and
    successor tuples; equal action lists are stored once."""
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
    the id-indexed form: the game's own `graph`, whose choice ids are a
    Csg's joint actions or a CoalitionGame's (a1, a2) pairs.

    With `reads`, a set of states, the MDP holds only their forward closure,
    which is all their values depend on (`_restrict`).
    """
    graph = game.graph
    if reads is None:
        return graph
    return _restrict(graph, sorted(_reach(graph.rows,
                                          [graph.ids[s] for s in reads])))


def _restrict(graph, keep) -> IndexedMdp:
    """`graph` over the ids `keep` alone, ascending and closed under
    successors.  States keep their order, so ties broken by id fall as on
    the whole graph, and rows keep their choices, successors and
    probability tuples."""
    new = dict(zip(keep, range(len(keep))))
    states = [graph.states[i] for i in keep]
    rows = [[(cid, tuple([new[t] for t in succ]), probs)
             for cid, succ, probs in graph.rows[i]] for i in keep]
    ids = {s: n for n, s in enumerate(states)}
    return IndexedMdp(states, ids, rows, graph.number,
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
    rows = []
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
                        succ_ids[t] = j
                    p = w * pt
                    dist[j] = dist[j] + p if j in dist else p
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
    return IndexedMdp(states, ids, rows, game.number, initial, rewards)


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
    on the game's joint-action MDP, its own graph (`joint_mdp`).  A pair of
    infinite-horizon objectives, one of them probabilistic, triggers a
    report of the non-terminal maximal end components that can stall the
    pair's value iteration: those with a state from which each
    probabilistic objective's target can be reached (through its until
    constraint's states).  In any other, some objective is worth 0 at each
    of its states, so it cannot stall the pair.  A mixed pair runs no such
    check (it is backwards induction from one MDP optimum).  Every
    infinite-horizon reward objective requires the target to be reached
    with probability 1 under all strategy profiles (once per target set).
    All checks are qualitative.
    """
    from .mdp import prob1_min_set          # local import: avoids a cycle
    from .properties import satisfying_states

    objectives = query.objectives
    infinite = [obj for obj in objectives if not obj.is_finite_horizon()]
    if not infinite:
        return AssumptionReport((), ())
    mdp = joint_mdp(game)
    if isinstance(game, CoalitionGame):
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
