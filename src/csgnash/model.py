"""Core model types: concurrent stochastic games, coalition reduction, the
one MDP form (`IndexedMdp`: the joint-action MDP and the MDPs a strategy
induces), and end-component analysis on it.

A game has players 1..n with pairwise-disjoint action alphabets plus a shared
idle symbol.  At each state a player's available actions are the enabled
actions belonging to their alphabet, or idle if they have none; the defined
joint actions are exactly the product of the per-player availability sets.
All types are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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
class CoalitionGame:
    """Two-player regrouping of a game: side 1 is the coalition, side 2 the rest.

    Actions of each side are tuples over the members' actions in ascending
    player-index order; `trans[s][(a1, a2)]` carries the base distribution of
    the flattened joint action, `rewards` the base reward structures with
    action rewards keyed by (state, (a1, a2)), and `moves[s]` the sorted
    side-1 and side-2 actions at s.  Every probability and reward is a
    `number`.  `base` is the game it regroups, whose labels state
    formulae resolve on.
    """

    base: Csg
    states: tuple
    initial: tuple
    trans: dict            # state -> {(a1, a2): {successor: number}}
    rewards: dict          # name -> RewardStructure over (a1, a2) pairs
    moves: dict            # state -> (sorted actions1, sorted actions2)
    number: type = Fraction

    def actions1(self, state):
        return self.moves[state][0]

    def actions2(self, state):
        return self.moves[state][1]


def coalition_game(game: Csg, coalition, number=Fraction) -> CoalitionGame:
    """Regroup an n-player game into the two-player coalition game, its
    probabilities and rewards in `number`.  They are the base game's own in
    its type, else converted here (the one place a game changes type); equal
    numbers, distributions and action lists are stored once."""
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
    same, numbers, dists = number is game.number, {}, {}

    def split(alpha):
        return tuple(alpha[i] for i in idx1), tuple(alpha[i] for i in idx2)

    def value(v):
        if same:
            return v
        v = number(v)
        return numbers.setdefault(v, v)

    def convert(dist):
        items = tuple([(t, value(p)) for t, p in dist.items()])
        return dists.get(items) or dists.setdefault(items, dict(items))

    trans, moves, shared = {}, {}, {}
    for s in game.states:
        trans[s] = row = {split(alpha): dist if same else convert(dist)
                          for alpha, dist in game.trans[s].items()}
        pair = (tuple(sorted({a1 for a1, _ in row})),
                tuple(sorted({a2 for _, a2 in row})))
        moves[s] = shared.setdefault(pair, pair)
    rewards = {name: RewardStructure(
        {(s, split(alpha)): value(v)
         for (s, alpha), v in rs.action_rewards.items()},
        {s: value(v) for s, v in rs.state_rewards.items()})
        for name, rs in game.rewards.items()}
    return CoalitionGame(game, game.states, game.initial, trans, rewards,
                         moves, number)


@dataclass(frozen=True)
class EndComponent:
    """A sub-MDP (states, retained choices) that is strongly connected and
    closed under the retained choices; non_terminal records whether the MDP
    can still leave it by some choice.  `sub_trans` holds the MDP's numbers:
    in a solve's assumption check, the solved game's."""

    states: frozenset
    sub_trans: dict        # (state, choice id) -> {successor: probability}
    non_terminal: bool


@dataclass(frozen=True)
class IndexedMdp:
    """An MDP in the id-indexed form that the solvers of `mdp` run on.

    State i is `states[i]` (`ids` maps it back) and `rows[i]` lists its
    choices as (choice id, successor ids, probabilities), the probabilities
    of type `number`.  Choices are also numbered in row order: `owner[c]` is
    the state id of choice c, and `preds[i]` lists the numbers of the
    choices leading to state i (one entry per choice, shared by all of its
    successors).  `initial` holds the initial states among `states`, and
    `rewards` maps each reward structure name to a RewardStructure whose
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


def joint_mdp(game, reads=None) -> IndexedMdp:
    """The MDP where one controller picks whole joint actions of `game` (a
    Csg or a CoalitionGame), in the id-indexed form; the only place a game
    becomes an MDP.

    Choice ids are the sorted joint-action keys, so the game's reward
    structures and number type carry over.  With `reads`, a set of states,
    the MDP holds only their forward closure, which is all their values
    depend on.  States keep `game.states` order, so ties broken by id fall
    as on the whole game; successors keep distribution order, and a row's
    probabilities are a view of the distribution's values.
    """
    trans, states = game.trans, list(game.states)
    if reads is not None:
        seen = _forward_closure(trans, reads)
        states = [s for s in states if s in seen]
    ids = {s: i for i, s in enumerate(states)}
    rows, owner, preds = [], [], [[] for _ in states]
    for i, s in enumerate(states):
        row = []
        for cid, dist in sorted(trans[s].items()):
            succ = tuple([ids[t] for t in dist])
            c = len(owner)
            owner.append(i)
            for t in succ:
                preds[t].append(c)
            row.append((cid, succ, dist.values()))
        rows.append(row)
    return IndexedMdp(states, ids, rows, owner, preds, game.number,
                      tuple(s for s in game.initial if s in ids), game.rewards)


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
    successor state (`MemoryStrategy.update`).
    """
    structures = list(game.rewards.items())
    rewards = {name: RewardStructure() for name in game.rewards}
    states = [(s, start(s)) for s in game.initial]
    initial = tuple(states)
    ids = {node: i for i, node in enumerate(states)}
    rows, owner, preds = [], [], [[] for _ in states]
    found = {}                  # mode -> {successor state: its node's id}
    for i, node in enumerate(states):           # `states` grows as we go
        s, mode = node
        trans = game.trans[s]
        succ_ids = found.get(mode)
        if succ_ids is None:
            succ_ids = found[mode] = {}
        row = []
        for cid, weights in node_choices(s, mode):
            dist = {}
            for pair, w in weights.items():
                if pair not in trans:
                    raise IncompleteStrategy(
                        f"strategy plays unavailable action {pair!r} at {s!r}")
                for t, pt in trans[pair].items():
                    j = succ_ids.get(t)
                    if j is None:
                        succ = (t, update(mode, t))
                        j = ids.get(succ)
                        if j is None:
                            j = ids[succ] = len(states)
                            states.append(succ)
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

    Finite-horizon-only queries pass trivially.  Otherwise the joint-action
    MDP (`joint_mdp`) is built once, and every check runs on it.  A pair of
    infinite-horizon objectives, one of them probabilistic, triggers a
    report of every non-terminal maximal end component, which can stall the
    pair's value iteration; a mixed pair runs none (it is backwards
    induction from one MDP optimum), so it gets no such report.  Every
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
    nonterminal = ()
    if len(infinite) == len(objectives) and \
            any(obj.kind == "P" for obj in infinite):
        nonterminal = tuple(ec for ec in enumerate_mecs(mdp) if ec.non_terminal)
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
