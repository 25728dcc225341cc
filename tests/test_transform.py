"""Mixed-horizon objective pairs: one finite horizon, one infinite.

The engine solves them by backwards induction on the coalition game, from
the infinite objective's cooperative optimum.  The package's earlier route,
value iteration on a step-counter product (`oracles.mixed_pair_by_product`),
is the oracle they are checked against, beside bounded pairs on acyclic
games."""

import math
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (ACYCLIC_GAME, acyclic_csgs, labelled, model_path,
                      pair_query, small_csgs)
from csgnash.errors import InfiniteValue
from csgnash.explicit import loads_explicit
from csgnash.lang import build_csg, parse_model
from csgnash.model import coalition_game
from csgnash.nash import evaluate, solve_bounded_pair
from csgnash.properties import NashNode, Objective, TrueF, parse_property


def initial_pair(evaluation):
    return next(iter(evaluation.initial.values()))


class TestConstructions:
    def test_declared_label_that_never_holds_stays_known(self):
        # the solve must know the declared label names: "never" holds in
        # no reachable state, so only the declaration makes it a label
        with open(model_path("robot.csg"), encoding="utf-8") as handle:
            text = handle.read() + '\nlabel "never" = x1=l & y1=l;\n'
        csg = build_csg(parse_model(text), {"l": 3})
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F<=4 goal1] + P[F never])", csg))
        assert initial_pair(ev) == (1, 0)


class TestValueAgreement:
    """On an acyclic game of depth d, a mixed pair must agree with the
    bounded pair whose infinite objective is re-expressed with bound d."""

    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def agree(self, mixed, bounded):
        got = evaluate(self.csg, parse_property(mixed))
        direct = evaluate(self.csg, parse_property(bounded))
        for s in self.csg.states:
            assert got.values[s] == direct.values[s]

    def test_next_with_eventuality(self):
        self.agree("<<p1:p2>>max=? (P[X g1] + P[F g2])",
                   "<<p1:p2>>max=? (P[X g1] + P[F<=2 g2])")

    def test_bounded_until_with_eventuality(self):
        self.agree("<<p1:p2>>max=? (P[F<=1 g1] + P[F g2])",
                   "<<p1:p2>>max=? (P[F<=1 g1] + P[F<=2 g2])")

    def test_finite_objective_in_second_position(self):
        self.agree("<<p1:p2>>max=? (P[F g1] + P[X g2])",
                   "<<p1:p2>>max=? (P[F<=2 g1] + P[X g2])")

    def test_nested_operator_in_the_infinite_objective(self):
        # the inner operator is solved on the base game first
        nested = "(g2 & <<{p1,p2}>>P>=1 [F g1])"
        self.agree(f"<<p1:p2>>max=? (P[F<=2 g1] + P[F {nested}])",
                   f"<<p1:p2>>max=? (P[F<=2 g1] + P[F<=2 {nested}])")


class TestRandomAcyclicGames:
    """Where every play is absorbed within k steps, an unbounded reachability
    objective is worth what its k-step bound is, so the unbounded pair and
    both mixed pairs equal the both-bounded pair at horizon k, the
    fixture's check on random games; and a next step paired with an
    eventuality equals it paired with the eventuality bounded at k."""

    @settings(max_examples=150, deadline=None)
    @given(acyclic_csgs())
    def test_unbounded_and_mixed_equal_bounded(self, case):
        csg, coalition, k = case
        want = evaluate(csg, pair_query(csg, coalition, "P", (k, k))).values
        for bounds in ((None, None), (k, None), (None, k)):
            got = evaluate(csg, pair_query(csg, coalition, "P", bounds))
            assert got.solve.converged
            assert got.values == want, bounds

    @settings(max_examples=100, deadline=None)
    @given(acyclic_csgs())
    def test_next_with_eventuality_equals_it_bounded(self, case):
        csg, coalition, k = case
        nxt = Objective("P", "X", sub2=labelled(csg, "t1"))
        values = []
        for bound in (None, k):
            query = pair_query(csg, coalition, "P", (None, bound))
            query = replace(query, objectives=(nxt, query.objectives[1]))
            values.append(evaluate(csg, query).values)
        assert values[0] == values[1]


def mixed_pair(csg, coalition, shape, k, finite_first):
    """P[F<=k t1] + P[F t2] (shape "P") or R{r1}[C<=k] + R{r2}[F t2]
    (shape "R") for `coalition` on `csg`, the finite objective first or
    second."""
    if shape == "P":
        finite = Objective("P", "U", sub1=TrueF(), sub2=labelled(csg, "t1"),
                           bound=k)
        infinite = Objective("P", "U", sub1=TrueF(),
                             sub2=labelled(csg, "t2"))
    else:
        finite = Objective("R", "C", reward="r1", bound=k)
        infinite = Objective("R", "F", sub2=labelled(csg, "t2"),
                             reward="r2")
    rest = tuple(p for p in csg.players if p not in coalition)
    pair = (finite, infinite) if finite_first else (infinite, finite)
    return NashNode(coalition, rest, "max=?", None, pair)


def values_or_infinite(solve, cg, query):
    try:
        return solve(cg, query)
    except InfiniteValue:
        return "InfiniteValue"


class TestAgainstTheProductRoute:
    """Backwards induction on the game gives the values value iteration on
    the step-counter product gave, at every state, or both routes find an
    infinite reward.  These shapes settle the product's cap layer, so the
    product route never iterates a free state."""

    @settings(max_examples=150, deadline=None)
    @given(small_csgs(), st.sampled_from("PR"), st.integers(1, 3),
           st.booleans())
    def test_random_games(self, case, shape, k, finite_first):
        csg, coalition = case
        cg = coalition_game(csg, coalition)
        query = mixed_pair(csg, coalition, shape, k, finite_first)
        got = values_or_infinite(
            lambda *args: solve_bounded_pair(*args).values, cg, query)
        want = values_or_infinite(oracles.mixed_pair_by_product, cg, query)
        if isinstance(want, str):
            assert got == want
            return
        assert not isinstance(got, str)
        for s in cg.states:
            assert all(math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
                       for a, b in zip(got[s], want[s])), s


# s1 is the goal and s0 leaves for it with probability 2/3 a step, so
# P[F goal] is 1 everywhere and P[X goal] is 2/3 at s0.
NEXT_AND_EVENTUALLY = """\
player p1 a
player p2 b
init s0
label s1 goal
s0 (-,-) -> 1/3:s0 + 2/3:s1
s1 (-,-) -> 1:s0
"""

# Every state pays r1 1, so I=2 is worth 1 whatever is played: p2 is
# indifferent on it, and the SWNE maximises r2's reachability reward, 35/9
# at s3.
INSTANT_AND_REACH = """\
player p1 p1a
player p2 p2a p2b p2c
init s0
label s1 t1 t2
label s2 t2
label s3 t1
s0 (p1a,p2c) -> 2/5:s1 + 2/5:s2 + 1/5:s3
s1 (-,p2b) -> 1/4:s0 + 3/4:s3
s2 (-,-) -> 3/7:s0 + 2/7:s1 + 2/7:s2
s3 (-,p2b) -> 1/2:s0 + 1/2:s2
s3 (-,p2c) -> 1/3:s0 + 1/9:s1 + 1/3:s2 + 2/9:s3
reward r1 action s3 (-,p2b) 2
reward r1 state s0 1
reward r1 state s1 1
reward r1 state s2 1
reward r1 state s3 1
reward r2 action s0 (p1a,p2c) 2
reward r2 action s2 (-,-) 1
reward r2 action s3 (-,p2b) 1
reward r2 state s0 1
reward r2 state s2 1
reward r2 state s3 1
"""


class TestProductRouteErrors:
    """Two mixed shapes the step-counter product solved wrongly."""

    def test_next_step_pair_is_exact(self):
        # the product iterated its cap layer 15 sweeps in Fractions and
        # stopped at v2 = 129140162/129140163
        ev = evaluate(loads_explicit(NEXT_AND_EVENTUALLY), parse_property(
            "<<p1:p2>>max=? (P[X goal] + P[F goal])"))
        assert ev.values["s0"] == (F(2, 3), F(1))
        assert ev.solve.iterations == 1

    def test_instantaneous_reward_keeps_its_indifference(self):
        # the product read I=2 through a float reachability reward, whose
        # 0.9999999999999998 at s2 broke p2's indifference: (1, 3.1235)
        ev = evaluate(loads_explicit(INSTANT_AND_REACH), parse_property(
            '<<p2:p1>>max=? (R{"r1"}[I=2] + R{"r2"}[F t2])'))
        v1, v2 = ev.values["s3"]
        assert type(v1) is F and v1 == 1
        assert v2 == pytest.approx(F(35, 9), abs=1e-6)

class TestRewardValuesByHand:
    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def test_instantaneous_zero_bound_forces_the_other_objective_maximal(self):
        # I=0 pays the current state's reward whatever is played, so the
        # welfare-optimal profile maximises the reachability reward alone
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[I=0] + R{"r2"}[F end])'))
        assert ev.values["s0"] == (0, 1)
        assert ev.values["m2"] == (3, 0)

    def test_one_step_cumulative_with_reachability_reward(self):
        # (a1,b1) at s0 collects the r1 action reward 2 and routes through
        # m1 whose r2 state reward is 1; no unilateral deviation improves
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[C<=1] + R{"r2"}[F end])'))
        assert ev.values["s0"] == (2, 1)
