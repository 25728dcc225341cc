import os
import sys
from fractions import Fraction
from itertools import product

from hypothesis import strategies as st

from csgnash.model import IDLE, Csg, RewardStructure
from csgnash.properties import NashNode, Objective, StateSet, TrueF

sys.path.insert(0, os.path.dirname(__file__))

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def model_path(name):
    return os.path.abspath(os.path.join(MODELS, name))


# A small acyclic fixture (depth 2, then absorbing) shared by the consistency
# tests: bounded solving at the depth must agree with unbounded solving.
ACYCLIC_GAME = """\
player p1 a1 a2
player p2 b1 b2
init s0
label t1 g1 end
label t2 g2 end
label b g1 g2 end
s0 (a1,b1) -> 1:m1
s0 (a1,b2) -> 1/2:m1 + 1/2:m2
s0 (a2,b1) -> 1:m2
s0 (a2,b2) -> 1:d
m1 (a1,b1) -> 1:t1
m1 (a1,b2) -> 1/2:t1 + 1/2:t2
m2 (a1,b1) -> 1:t2
m2 (a1,b2) -> 1:b
d (-,-) -> 1:b
t1 (-,-) -> 1:t1
t2 (-,-) -> 1:t2
b (-,-) -> 1:b
reward r1 action s0 (a1,b1) 2
reward r1 action m1 (a1,b2) 1
reward r1 state m2 3
reward r2 action s0 (a2,b1) 1
reward r2 state m1 1
"""


# x=0 reaches the goal with probability 1/N per step and otherwise stays: at
# N=1 it is off every cycle and solved once; above, its self-loop needs about
# 6 / log10(N / (N - 1)) sweeps to move by less than 1e-6 (20 at N=2, 34 at
# N=3).
LEAKY_LOOP = """\
const int N;
player p1 m endplayer
player p2 w endplayer
module m
  x : [0..1] init 0;
  [a] x=0 -> 1/N:(x'=1) + 1-1/N:(x'=0);
  [a] x=1 -> true;
endmodule
module w
  [b] true -> true;
endmodule
label "goal" = x=1;
"""

# A small game with both state and action rewards; every profile reaches
# `goal` almost surely (the s1/s2 cycle and the s0 self-loop each leak to g),
# so reachability rewards are finite.  Hand-checked values are in the tests.
REWARD_GAME = """\
player p1 a b
player p2 c d
init s0
label g goal
s0 (a,c) -> 1/2:s1 + 1/2:s2
s0 (a,d) -> 1:s1
s0 (b,c) -> 1:s2
s0 (b,d) -> 1/2:s0 + 1/2:g
s1 (a,-) -> 1:g
s1 (b,-) -> 1/2:s2 + 1/2:g
s2 (-,c) -> 1:g
s2 (-,d) -> 1:s1
g (-,-) -> 1:g
reward r state s0 1
reward r state s1 2
reward r action s0 (a,c) 3
reward r action s1 (b,-) 1
reward r action s2 (-,d) 1/2
reward r2 state s2 4
reward r2 action s0 (b,d) 2
"""


@st.composite
def small_csgs(draw):
    """A small random CSG and a random proper coalition of its players.

    2-3 players with 1-3 actions each; at each state every player has a
    nonempty subset of its actions available, or idles.  2-5 states; each
    joint action's successors are drawn with integer weights 0-3.  Labels
    `t1` and `t2` and the state and action rewards of `r1` and `r2` (0-2)
    are drawn per state and joint action.
    """
    players = [f"p{i}" for i in range(1, draw(st.integers(2, 3)) + 1)]
    alphabets = {p: [f"{p}{c}" for c in "abc"[:draw(st.integers(1, 3))]]
                 for p in players}
    states = [f"s{i}" for i in range(draw(st.integers(2, 5)))]

    def dist():
        weights = draw(st.lists(st.integers(0, 3), min_size=len(states),
                                max_size=len(states)))
        if not any(weights):
            weights[draw(st.integers(0, len(states) - 1))] = 1
        return {s: Fraction(w, sum(weights))
                for s, w in zip(states, weights) if w}

    trans = {}
    for s in states:
        avail = [sorted(draw(st.sets(st.sampled_from(alphabets[p]))))
                 or [IDLE] for p in players]
        trans[s] = {joint: dist() for joint in product(*avail)}
    labels = {s: {name for name in ("t1", "t2") if draw(st.booleans())}
              for s in states}
    rewards = {name: RewardStructure(
        {(s, joint): draw(st.integers(0, 2))
         for s in states for joint in trans[s]},
        {s: draw(st.integers(0, 2)) for s in states})
        for name in ("r1", "r2")}
    csg = Csg.create(players, alphabets, states, states[:1], trans, labels,
                     rewards)
    members = draw(st.sets(st.sampled_from(players), min_size=1,
                           max_size=len(players) - 1))
    return csg, tuple(p for p in players if p in members)


@st.composite
def acyclic_csgs(draw):
    """A random CSG on which every play is absorbed within k steps, a random
    proper coalition of its players, and k.

    Players, actions and labels are drawn as in `small_csgs`.  The states
    lie in layers 0..k (k 1-3), 1-2 states each; a state below layer k
    moves only to deeper layers, with integer weights 0-3, and the states of
    layer k are deadlocks (`Csg.create` gives them an idle self-loop).
    """
    k = draw(st.integers(1, 3))
    players = [f"p{i}" for i in range(1, draw(st.integers(2, 3)) + 1)]
    alphabets = {p: [f"{p}{c}" for c in "abc"[:draw(st.integers(1, 3))]]
                 for p in players}
    layers = [[f"s{i}_{j}" for j in range(draw(st.integers(1, 2)))]
              for i in range(k + 1)]
    trans = {s: {} for s in layers[-1]}
    for i, layer in enumerate(layers[:-1]):
        deeper = [t for later in layers[i + 1:] for t in later]
        for s in layer:
            avail = [sorted(draw(st.sets(st.sampled_from(alphabets[p]))))
                     or [IDLE] for p in players]
            trans[s] = {}
            for joint in product(*avail):
                weights = draw(st.lists(st.integers(0, 3),
                                        min_size=len(deeper),
                                        max_size=len(deeper)))
                if not any(weights):
                    weights[draw(st.integers(0, len(deeper) - 1))] = 1
                trans[s][joint] = {t: Fraction(w, sum(weights))
                                   for t, w in zip(deeper, weights) if w}
    states = [s for layer in layers for s in layer]
    labels = {s: {name for name in ("t1", "t2") if draw(st.booleans())}
              for s in states}
    csg = Csg.create(players, alphabets, states, states[:1], trans, labels)
    members = draw(st.sets(st.sampled_from(players), min_size=1,
                           max_size=len(players) - 1))
    return csg, tuple(p for p in players if p in members), k

def labelled(csg, name):
    """The states of `csg` labelled `name`, as a resolved state formula."""
    return StateSet(frozenset(s for s in csg.states if name in csg.labels[s]))


def pair_query(csg, coalition, kind, bounds):
    """The query `coalition` against the other players of `csg` for a pair
    of objectives on labels t1 and t2 or rewards r1 and r2: kind "P" is
    P[F<=k t1] + P[F<=k t2], "C" is R[C<=k] and "F" is R[F t1] + R[F t2],
    with the bounds k in `bounds` (None: unbounded)."""
    rest = tuple(p for p in csg.players if p not in coalition)
    objectives = tuple(
        Objective("P", "U", sub1=TrueF(), sub2=labelled(csg, name),
                  bound=bound) if kind == "P" else
        Objective("R", kind, sub2=labelled(csg, name) if kind == "F"
                  else None, reward=reward, bound=bound)
        for name, reward, bound in zip(("t1", "t2"), ("r1", "r2"), bounds))
    return NashNode(coalition, rest, "max=?", None, objectives)
