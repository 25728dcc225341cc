"""Strategy synthesis from solved objective pairs, and ε-equilibrium
verification of the synthesised profiles.

A synthesised profile is a finite-memory stochastic strategy pair.  Memory
tracks the remaining step count (1 throughout an infinite-horizon pair) and
each objective's status (pending / won / lost).  While both objectives are
pending with stages left the coalitions play the local equilibrium recorded
at each state during the solve; once exactly one objective has stakes left
both sides follow a joint strategy optimal for it alone; with nothing at
stake they play the first available actions.

Verification fixes one coalition's strategy, computes the free coalition's
best-response value in the induced MDP, and compares it with the value the
profile itself achieves (the fully induced chain), at the initial nodes and
at every node of the chain where the local equilibria are played.  Both
values come from `nash._optimum`, the engine's own objective dispatcher,
run on the (state, mode) nodes of those MDPs, so every objective shape the
engine solves is verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfiniteValue
from .expr import rational_text
from .model import MemoryStrategy, induce_mdp, induced_chain
# unused here: perfbench/layers.py wraps these two names in this module
from .mdp import expected_reward, reach_prob
from .nash import LOST, PENDING, WON, PairResult, _optimum, _refine
from .properties import NashNode, to_text

__all__ = [
    "SynthesisedProfile",
    "TableStrategy",
    "VerificationReport",
    "synthesise_profile",
    "verify_epsilon_ne",
]

def _first_pair(game, state):
    acts1, acts2 = game.moves[state]
    return acts1[0], acts2[0]


@dataclass
class SynthesisedProfile:
    """Joint strategy pair for a solved two-coalition query; it plays from
    the solve's record (`PairResult`) as it is."""

    query: NashNode
    game: object
    result: PairResult

    def choice(self, state, step, statuses):
        """The joint behaviour at a state for memory contents `statuses`
        refined at that state and `step` stages left (1 throughout an
        unbounded pair): ("mix", acts1, acts2, x, y), ("pure", a1, a2), or
        None where no play reaches the memory.  Where both objectives are
        pending the state is free, so the solve recorded a "mix" profile
        there.  Where one is pending with steps left, both sides play its
        strategy, which holds the states a play can reach with that memory
        (`nash._coop_optima`); an objective with no finite horizon always
        has steps left, and plays its one strategy.  Where both are pending
        below step 1, the longer horizon is played, and its strategy holds
        every state where both are pending."""
        result = self.result
        pending = [l for l, st in enumerate(statuses) if st == PENDING]
        if len(pending) == 2 and step >= 1:
            return (result.profiles[step] if result.kind == "bounded" else
                    result.profiles)[state]
        for l in pending:
            pad = result.pads[l]
            remaining = 1 if pad is None else step + pad
            if remaining > 0:
                cid = (result.single[l][remaining] or {}).get(state)
                return None if cid is None else ("pure",) + tuple(cid)
        return ("pure",) + _first_pair(self.game, state)

    def strategy(self, side) -> "TableStrategy":
        return TableStrategy(self, side)

    def export(self):
        """JSON-shaped description: query, memory modes, per-entry choices.

        The memory is walked from its initial step down to its floor
        (`TableStrategy`), with a `step` key for a pair with a finite
        horizon alone.  A mode marks an objective won or lost only if that
        objective can settle and its win or lose set is not empty, and it
        is listed at a state that settles no objective it leaves pending,
        where `choice` plays it."""
        entries = []
        result = self.result
        bounded = result.kind == "bounded"
        statuses_seen = [
            statuses for statuses in [(PENDING, PENDING), (WON, PENDING),
                                      (LOST, PENDING), (PENDING, WON),
                                      (PENDING, LOST)]
            if all(st == PENDING or can and (win if st == WON else lose)
                   for st, (win, lose, can) in zip(statuses,
                                                   result.statuses))]
        memory = TableStrategy(self, 1)
        steps = range(memory.initial_mode[0], memory._floor - 1, -1)
        for state in self.game.states:
            for step in steps:
                for statuses in statuses_seen:
                    if _refine(result.statuses, state, statuses) != statuses:
                        continue        # the memory settles at this state
                    ch = self.choice(state, step, statuses)
                    if ch is None:
                        continue
                    entry = {"state": _name(state), "mode": list(statuses)}
                    if bounded:
                        entry["step"] = step
                    if ch[0] == "mix":
                        _, acts1, acts2, x, y = ch
                        entry["x"] = {_name(a): _num(p)
                                      for a, p in zip(acts1, x) if p}
                        entry["y"] = {_name(b): _num(p)
                                      for b, p in zip(acts2, y) if p}
                    else:
                        entry["action1"] = _name(ch[1])
                        entry["action2"] = _name(ch[2])
                    entries.append(entry)
        return {
            "query": to_text(self.query),
            "kind": result.kind,
            "modes": ["pending", "won", "lost"],
            "values": {_name(s): [_num(v) for v in result.values[s]]
                       for s in self.game.initial},
            "entries": entries,
        }

    def export_json(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.export(), handle, indent=2)


def _name(obj):
    if isinstance(obj, tuple):
        return "(" + ",".join(_name(o) for o in obj) + ")"
    return str(obj)


def _num(value):
    if isinstance(value, Fraction):
        return rational_text(value) if value.denominator != 1 else int(value)
    return float(value)


class TableStrategy(MemoryStrategy):
    """One coalition's side of a synthesised profile.

    A memory mode is (step, status1, status2): the stages left and each
    objective's status.  A bounded pair's step, a mixed pair's included,
    counts down from its stage count to its floor, minus the largest pad of
    a finite horizon, where the longer horizon's last steps are played; an
    unbounded pair's step is 1 and stays 1.  The start mode is refined
    against the initial state and each update against the successor, so a
    mode's statuses are always refined at the state it is consulted in.
    Where `choice` finds no play reaching a mode, the coalitions play the
    first available actions.
    """

    def __init__(self, profile: SynthesisedProfile, side):
        self.profile = profile
        self.side = side
        result = profile.result
        bounded = result.kind == "bounded"
        self.initial_mode = (result.iterations if bounded else 1,
                             PENDING, PENDING)
        self._floor = -max(pad for pad in result.pads
                           if pad is not None) if bounded else 1

    def start(self, state):
        return (self.initial_mode[0],) + _refine(
            self.profile.result.statuses, state, self.initial_mode[1:])

    def distribution(self, state, mode):
        ch = self.profile.choice(state, mode[0], mode[1:]) or \
            ("pure",) + _first_pair(self.profile.game, state)
        if ch[0] == "pure":
            return {ch[self.side]: Fraction(1)}
        _, acts1, acts2, x, y = ch
        acts, weights = (acts1, x) if self.side == 1 else (acts2, y)
        return {a: p for a, p in zip(acts, weights) if p}

    def update(self, mode, next_state):
        return (max(mode[0] - 1, self._floor),) + _refine(
            self.profile.result.statuses, next_state, mode[1:])


def synthesise_profile(game, query: NashNode, result: PairResult
                       ) -> SynthesisedProfile:
    """Package a solved pair into an executable strategy profile."""
    return SynthesisedProfile(query, game, result)


# --- verification -----------------------------------------------------------------

@dataclass
class VerificationReport:
    """Best-response gaps of a synthesised profile.

    gap1/gap2: the most any coalition could gain at an initial state by
    unilaterally deviating.  subgame_gap1/subgame_gap2: the same check at
    every node of the profile's chain where both objectives are pending
    with stages left, the nodes where it plays its local equilibria; None
    where a deviation makes the objective unbounded.
    """

    epsilon: float
    gap1: float
    gap2: float
    subgame_gap1: float = None
    subgame_gap2: float = None

    @property
    def passed(self):
        return self.gap1 <= self.epsilon and self.gap2 <= self.epsilon


def _lift(status, mdp):
    """`status` over the (state, mode) nodes of `mdp`."""
    win, lose, can = status
    return (frozenset(n for n in mdp.states if n[0] in win),
            frozenset(n for n in mdp.states if n[0] in lose), can)


def verify_epsilon_ne(cg, profile: SynthesisedProfile, query: NashNode,
                      epsilon=1e-4) -> VerificationReport:
    """Check the profile is an ε-Nash equilibrium of the objective pair
    `query` on `cg`, and report its subgame gaps.  Each objective is read
    at every node of the profile's chain, in the MDP where its coalition
    deviates and in the chain: an infinite one at the node, a finite one at
    the steps the node's memory has left, `max(0, step + pads[l])`.  The
    two strategies of `profile.strategy` must start and move their memory
    alike, as a synthesised profile's do; ModelError is raised where they
    do not (`model.induced_chain`)."""
    s1, s2 = profile.strategy(1), profile.strategy(2)
    # coalition 1 deviates in the MDP where side 2 plays its strategy, and
    # the profile's own chain is read off that MDP
    induced = induce_mdp(cg, 2, s2)
    chain = induced_chain(cg, induced, s1, s2)
    # a synthesised mode is refined at its node's state already
    played = [n for n in chain.states
              if n[1][1:] == (PENDING, PENDING) and n[1][0] >= 1]
    gaps = []
    sub_gaps = []
    for obj, status, fixed, pad in zip(query.objectives,
                                       profile.result.statuses, (2, 1),
                                       profile.result.pads):
        if fixed == 1:
            # one induced MDP at a time: side 2's, and the optima read on
            # it, are dropped before side 1's is folded
            induced = best = achieved = None
            induced = induce_mdp(cg, 1, s1)
        left = None if pad is None else \
            {n: max(0, n[1][0] + pad) for n in chain.states}
        try:
            best, achieved = [
                _optimum(mdp, obj, "max", _lift(status, mdp),
                         all_horizons=left is not None,
                         reads=chain.states if left is None else left.items())
                for mdp in (induced, chain)]
        except InfiniteValue:
            # a unilateral deviation can make the objective unbounded, so
            # no finite gap exists
            gaps.append(float("inf"))
            sub_gaps.append(None)
            continue
        if left is not None:
            best, achieved = ({n: vals[h][n] for n, h in left.items()}
                              for vals in (best, achieved))
        def gap(n):
            return float(best[n]) - float(achieved[n])
        gaps.append(max(map(gap, chain.initial)))
        sub_gaps.append(max(map(gap, played), default=0.0))
    return VerificationReport(epsilon, gaps[0], gaps[1],
                              sub_gaps[0], sub_gaps[1])
