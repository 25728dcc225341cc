"""Strategy synthesis from solved objective pairs, and ε-equilibrium
verification of the synthesised profiles.

A synthesised profile is a finite-memory stochastic strategy pair.  Memory
tracks each objective's status (pending / won / lost) and, for finite-horizon
pairs, the remaining step count.  While both objectives are pending the
coalitions play the local equilibrium recorded at each state during the
solve; once exactly one objective is settled both sides follow a joint
strategy optimal for the single remaining objective; with nothing at stake
they play the first available actions.

Verification fixes one coalition's strategy, computes the free coalition's
best-response value in the induced MDP, and compares it with the value the
profile itself achieves (the fully induced chain).  Both values come from
`nash._optimum`, the engine's own objective dispatcher, run on the
(state, mode) nodes of those MDPs, so every objective shape the engine
solves is verified.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfiniteValue
from .model import MemoryStrategy, _fold, induce_mdp
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
    return min(game.trans[state])


@dataclass
class SynthesisedProfile:
    """Joint strategy pair for a solved two-coalition query."""

    query: NashNode
    game: object
    result: PairResult
    values: dict                 # initial state -> achieved value pair
    status_defs: tuple           # per objective: (win set, lose set, flag)
    kind: str                    # "bounded" | "unbounded"
    horizon: int = None          # bounded only
    pads: tuple = (0, 0)

    def choice(self, state, step, statuses):
        """The joint behaviour at a state for memory contents `statuses`
        refined at that state: either ("mix", acts1, acts2, x, y) or
        ("pure", a1, a2).  Where both objectives are pending the state is
        free, so the solve recorded a "mix" profile there."""
        pending = [l for l, st in enumerate(statuses) if st == PENDING]
        if self.kind == "unbounded":
            if len(pending) == 2:
                return self.result.profiles[state]
            if len(pending) == 1:
                return self._single_pending(state, pending[0])
            return ("pure",) + _first_pair(self.game, state)

        if len(pending) == 2 and step >= 1:
            return self.result.profiles[step][state]
        if pending:
            # either one objective settled, or the shared stage count ran
            # out with one objective's longer horizon still live
            for l in pending:
                remaining = step + self.pads[l]
                if remaining > 0 or len(pending) == 1:
                    return self._coop(state, l, max(remaining, 0))
        return ("pure",) + _first_pair(self.game, state)

    def _single_pending(self, state, l):
        strat = self.result.aux["opt_strats"][l]
        cid = strat.get(state) if strat else None
        if cid is None:
            cid = _first_pair(self.game, state)
        return ("pure",) + tuple(cid)

    def _coop(self, state, l, remaining):
        steps = self.result.aux["coop_strats"][l]
        remaining = min(remaining, len(steps) - 1)
        if remaining < 1 or steps[remaining] is None:
            return ("pure",) + _first_pair(self.game, state)
        cid = steps[remaining].get(state)
        if cid is None:
            cid = _first_pair(self.game, state)
        return ("pure",) + tuple(cid)

    def strategy(self, side) -> "TableStrategy":
        return TableStrategy(self, side)

    def export(self):
        """JSON-shaped description: query, memory modes, per-entry choices.
        A state (s, layer) of a mixed pair's product (a game with no base)
        is named by s, with its layer beside it."""

        def place(state):
            if self.game.base is None:
                return {"state": _name(state[0]), "layer": state[1]}
            return {"state": _name(state)}

        entries = []
        statuses_seen = [(PENDING, PENDING), (WON, PENDING), (LOST, PENDING),
                         (PENDING, WON), (PENDING, LOST)]
        steps = [None] if self.kind == "unbounded" else \
            list(range(self.horizon, -1, -1))
        for state in self.game.states:
            for step in steps:
                for statuses in statuses_seen:
                    if _refine(self.status_defs, state, statuses) != statuses:
                        continue        # not a reachable memory for this state
                    entry = {**place(state), "mode": list(statuses)}
                    if step is not None:
                        entry["step"] = step
                    ch = self.choice(state, step, statuses)
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
            "kind": self.kind,
            "modes": ["pending", "won", "lost"],
            "values": {place(s)["state"]: [_num(v) for v in pair]
                       for s, pair in self.values.items()},
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
        return str(value) if value.denominator != 1 else int(value)
    return float(value)


class TableStrategy(MemoryStrategy):
    """One coalition's side of a synthesised profile.

    Memory modes are (status1, status2) tuples, prefixed with the remaining
    step count for finite-horizon pairs.  Updates refine statuses against the
    successor state, so only initial modes can be unrefined.
    """

    def __init__(self, profile: SynthesisedProfile, side):
        self.profile = profile
        self.side = side
        statuses = (PENDING, PENDING)
        if profile.kind == "bounded":
            self.initial_mode = (profile.horizon,) + statuses
            self._floor = -max(profile.pads)
        else:
            self.initial_mode = statuses

    def _split(self, mode):
        if self.profile.kind == "bounded":
            return mode[0], mode[1:]
        return None, mode

    def distribution(self, state, mode):
        step, statuses = self._split(mode)
        statuses = _refine(self.profile.status_defs, state, statuses)
        ch = self.profile.choice(state, step, statuses)
        if ch[0] == "pure":
            return {ch[self.side]: Fraction(1)}
        _, acts1, acts2, x, y = ch
        acts, weights = (acts1, x) if self.side == 1 else (acts2, y)
        return {a: p for a, p in zip(acts, weights) if p}

    def update(self, mode, next_state):
        step, statuses = self._split(mode)
        statuses = _refine(self.profile.status_defs, next_state, statuses)
        if step is None:
            return statuses
        return (max(step - 1, self._floor),) + statuses


def synthesise_profile(game, query: NashNode, result: PairResult
                       ) -> SynthesisedProfile:
    """Package a solved pair into an executable strategy profile."""
    aux = result.aux
    return SynthesisedProfile(
        query, game, result, {s: result.values[s] for s in game.initial},
        tuple(aux["statuses"]), result.kind, horizon=aux.get("horizon"),
        pads=tuple(aux.get("pads", (0, 0))))


# --- verification -----------------------------------------------------------------

@dataclass
class VerificationReport:
    """Best-response gaps of a synthesised profile.

    gap1/gap2: the most any coalition could gain at an initial state by
    unilaterally deviating.  subgame_gaps: the same check at every reachable
    node where both objectives are still pending (None for bounded pairs,
    where remaining horizons differ per node).
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
    """Check the profile is an ε-Nash equilibrium of the objective pair.
    `query` is the pair solved on `cg`: for a mixed pair, the product's
    rewritten query (`Evaluation.query`)."""
    s1, s2 = profile.strategy(1), profile.strategy(2)

    def joint_choice(state, mode):
        # the induced chain has one choice, both strategies' product
        d1, d2 = s1.distribution(state, mode), s2.distribution(state, mode)
        return [("step", {(a, b): pa * pb for a, pa in d1.items()
                          for b, pb in d2.items()})]

    chain = _fold(cg, s1.initial_mode, joint_choice, s1.update)
    chain_nodes = set(chain.states)
    gaps = []
    sub_gaps = []
    for idx, obj in enumerate(query.objectives):
        fixed_side = 2 if idx == 0 else 1
        status = profile.status_defs[idx]
        induced = induce_mdp(cg, fixed_side, profile.strategy(fixed_side))
        try:
            best, achieved = [_optimum(mdp, obj, "max", _lift(status, mdp),
                                       needed_states=chain_nodes)
                              for mdp in (induced, chain)]
        except InfiniteValue:
            # a unilateral deviation can make the objective unbounded, so
            # no finite gap exists
            gaps.append(float("inf"))
            sub_gaps.append(None)
            continue
        gap = max(float(best[n]) - float(achieved[n]) for n in chain.initial)
        gaps.append(gap)
        if profile.kind == "unbounded":
            pend = [n for n in chain.states
                    if _refine(profile.status_defs, n[0], n[1])
                    == (PENDING, PENDING)]
            sub = max((float(best[n]) - float(achieved[n]) for n in pend
                       if n in best and n in achieved), default=0.0)
            sub_gaps.append(sub)
        else:
            sub_gaps.append(None)
    return VerificationReport(epsilon, gaps[0], gaps[1],
                              sub_gaps[0], sub_gaps[1])
