"""Backwards induction for finite-horizon objective pairs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REWARD_GAME, model_path
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import Csg, coalition_game
from csgnash.nash import evaluate, solve_bounded_pair
from csgnash.properties import (NashNode, Not, Objective, TrueF, Atom,
                                parse_property)
from oracles import bounded_cumulative_pair, bounded_reach_pair


def pair_query(obj1, obj2):
    return NashNode(("p1",), ("p2",), "max=?", None, (obj1, obj2))


def initial_pair(evaluation):
    return next(iter(evaluation.initial.values()))


class TestBaseCases:
    def test_zero_bound_reachability_is_the_indicator(self):
        csg = load_explicit(model_path("fig1.csgx"))
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F<=0 sent1] + P[F<=0 sent2])"))
        assert ev.values["s0"] == (0, 0)
        assert ev.values["s1"] == (1, 1)
        assert ev.values["s3"] == (1, 0)
        assert ev.values["s4"] == (0, 1)

    def test_zero_bound_cumulative_is_zero(self):
        csg = load_model(model_path("mac.csg"), {"emax": 2})
        ev = evaluate(csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[C<=0] + R{"r2"}[C<=0])'))
        assert all(pair == (0, 0) for pair in ev.values.values())

    def test_instantaneous_pair_with_unequal_bounds(self):
        # r is paid in s0 (1) and s1 (2), r2 in s2 (4).  The r2 objective is
        # padded by one cooperative step: r2[I=1] is 4 at s0 and 2 at s1.
        # At s0, a strictly dominates b for p1 and p2 answers d, so both
        # move to s1 and collect (2, 2); at s2, p2 plays d into s1 likewise.
        csg = loads_explicit(REWARD_GAME)
        ev = evaluate(csg, parse_property(
            '<<p1:p2>>max=? (R{"r"}[I=1] + R{"r2"}[I=2])', csg))
        assert ev.values == {"s0": (2, 2), "s1": (0, 0), "s2": (2, 2),
                             "g": (0, 0)}
        assert all(isinstance(v, F) for pair in ev.values.values()
                   for v in pair)


class TestChannelTables:
    """One-shot shared channel: success only pays off within the horizon."""

    def setup_method(self):
        self.csg = load_explicit(model_path("fig1.csgx"))

    def value_at(self, text):
        return initial_pair(evaluate(self.csg, parse_property(text)))

    def test_one_step_pair_is_the_collision_probability(self):
        # only simultaneous transmission can finish within one step
        assert self.value_at(
            "<<p1:p2>>max=? (P[F<=1 sent1] + P[F<=1 sent2])") == \
            (F(3, 4), F(3, 4))

    def test_two_steps_allow_taking_turns(self):
        assert self.value_at(
            "<<p1:p2>>max=? (P[F<=2 sent1] + P[F<=2 sent2])") == (1, 1)

    def test_longer_horizons_stay_at_one(self):
        assert self.value_at(
            "<<p1:p2>>max=? (P[F<=5 sent1] + P[F<=5 sent2])") == (1, 1)

    def test_next_pair(self):
        assert self.value_at(
            "<<p1:p2>>max=? (P[X sent1] + P[X sent2])") == (F(3, 4), F(3, 4))

    def test_asymmetric_bounds_pad_the_shorter_objective(self):
        # user 1 transmits alone in step 1 (certain success), user 2 follows
        # in step 2 - so asymmetric bounds beat the symmetric 1-step pair
        v1, v2 = self.value_at(
            "<<p1:p2>>max=? (P[F<=1 sent1] + P[F<=2 sent2])")
        assert (v1, v2) == (1, 1)


class TestMediumAccessCumulative:
    """Cumulative-reward pairs against the independent game-tree oracle."""

    def setup_method(self):
        self.csg = load_model(model_path("mac.csg"), {"emax": 5})
        self.cg = coalition_game(self.csg, ("p1",))
        # with p1 first of two players, a pair ((a,), (b,)) is the base
        # joint action (a, b): the oracle reads the base rewards directly
        self.rew = {}
        for name in ("r1", "r2"):
            self.rew[name] = {
                (s, pair): self.csg.rewards[name].action(s, pair[0] + pair[1])
                for s in self.cg.states for pair in self.cg.trans[s]}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_game_tree_oracle(self, k):
        ev = evaluate(self.csg, parse_property(
            f'<<p1:p2>>max=? (R{{"r1"}}[C<={k}] + R{{"r2"}}[C<={k}])'))
        oracle = bounded_cumulative_pair(
            self.cg.trans, self.rew["r1"], self.rew["r2"], k)
        for s in self.cg.states:
            assert ev.values[s] == oracle[s]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_small_horizon_sum_is_per_slot_success_times_two(self, k):
        # while energy lasts, both transmitting every slot is the SWNE and
        # each slot contributes q2 to each player's expected reward
        ev = evaluate(self.csg, parse_property(
            f'<<p1:p2>>max=? (R{{"r1"}}[C<={k}] + R{{"r2"}}[C<={k}])'))
        v1, v2 = initial_pair(ev)
        assert v1 + v2 == 2 * k * F(3, 4)


def random_game(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    states = [f"s{i}" for i in range(n)]

    def dist():
        weights = draw(st.lists(st.integers(min_value=0, max_value=3),
                                min_size=n, max_size=n))
        if sum(weights) == 0:
            weights = [1] + [0] * (n - 1)
        total = sum(weights)
        return {s: F(w, total) for s, w in zip(states, weights) if w}

    trans = {s: {(a, b): dist() for a in ("a0", "a1") for b in ("b0", "b1")}
             for s in states}
    targets1 = {s for s in states if draw(st.booleans())}
    targets2 = {s for s in states if draw(st.booleans())}
    labels = {s: {name for name, members in
                  (("t1", targets1), ("t2", targets2)) if s in members}
              for s in states}
    csg = Csg.create(("p1", "p2"), {"p1": {"a0", "a1"}, "p2": {"b0", "b1"}},
                     states, states, trans, labels)
    return csg, targets1, targets2


class TestAgainstBackwardsInductionOracle:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_reachability_pairs_match_exactly(self, data):
        csg, targets1, targets2 = random_game(data.draw)
        horizon = data.draw(st.integers(min_value=0, max_value=3))
        cg = coalition_game(csg, ("p1",))
        # an unlabelled atom is rejected by the property checker, so an
        # empty target set is spelled "false"
        sub1 = Atom("t1") if targets1 else Not(TrueF())
        sub2 = Atom("t2") if targets2 else Not(TrueF())
        query = pair_query(
            Objective("P", "U", sub1=TrueF(), sub2=sub1, bound=horizon),
            Objective("P", "U", sub1=TrueF(), sub2=sub2, bound=horizon))
        result = solve_bounded_pair(cg, query)
        oracle = bounded_reach_pair(cg.trans, targets1, targets2, horizon)
        assert {s: tuple(v) for s, v in result.values.items()} == oracle


class TestBoundedUnboundedConsistency:
    def test_unbounded_equals_depth_bounded(self):
        from conftest import ACYCLIC_GAME
        from csgnash.explicit import loads_explicit
        csg = loads_explicit(ACYCLIC_GAME)
        unbounded = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F g1] + P[F g2])"))
        bounded = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F<=2 g1] + P[F<=2 g2])"))
        assert unbounded.values == bounded.values
        assert unbounded.solve.converged
