import os
import sys

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
