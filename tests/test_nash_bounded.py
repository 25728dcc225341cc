"""Backwards induction for finite-horizon objective pairs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import REWARD_GAME, labelled, model_path, small_csgs
from csgnash import mdp
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import coalition_game
from csgnash.nash import evaluate, solve_bounded_pair
from csgnash.properties import NashNode, Objective, TrueF, parse_property
from oracles import (bounded_cumulative_pair, bounded_reach_pair,
                     coalition_trans)


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
                for s in self.cg.states
                for pair in coalition_trans(self.cg)[s]}

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_game_tree_oracle(self, k):
        ev = evaluate(self.csg, parse_property(
            f'<<p1:p2>>max=? (R{{"r1"}}[C<={k}] + R{{"r2"}}[C<={k}])'))
        oracle = bounded_cumulative_pair(
            coalition_trans(self.cg), self.rew["r1"], self.rew["r2"], k)
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


class TestAgainstBackwardsInductionOracle:
    """Random CSGs of 2-3 players, every coalition split, against the plain
    rational backward recursion of `oracles`."""

    @settings(max_examples=75, deadline=None)
    @given(small_csgs(), st.integers(min_value=0, max_value=3))
    def test_reachability_pairs_match_exactly(self, case, horizon):
        csg, coalition = case
        cg = coalition_game(csg, coalition)
        query = pair_query(
            Objective("P", "U", sub1=TrueF(), sub2=labelled(csg, "t1"),
                      bound=horizon),
            Objective("P", "U", sub1=TrueF(), sub2=labelled(csg, "t2"),
                      bound=horizon))
        result = solve_bounded_pair(cg, query)
        oracle = bounded_reach_pair(
            coalition_trans(cg), labelled(csg, "t1").states,
            labelled(csg, "t2").states, horizon)
        assert result.values == oracle

    @settings(max_examples=75, deadline=None)
    @given(small_csgs(), st.integers(min_value=0, max_value=3))
    def test_cumulative_pairs_match_exactly(self, case, horizon):
        csg, coalition = case
        cg = coalition_game(csg, coalition)
        query = pair_query(Objective("R", "C", reward="r1", bound=horizon),
                           Objective("R", "C", reward="r2", bound=horizon))
        result = solve_bounded_pair(cg, query)
        # each step pays the state reward plus the joint action's reward
        trans = coalition_trans(cg)
        paid = [{(s, joint): rs.state(s) + rs.action(s, joint)
                 for s in cg.states for joint in trans[s]}
                for rs in (cg.rewards["r1"], cg.rewards["r2"])]
        oracle = bounded_cumulative_pair(trans, *paid, horizon)
        assert result.values == oracle


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


def backed_up(monkeypatch):
    """The number of rows of each `mdp._step` call, in call order."""
    rows = []
    original = mdp._step

    def spy(step_rows, *args):
        rows.append(len(step_rows))
        return original(step_rows, *args)

    monkeypatch.setattr(mdp, "_step", spy)
    return rows


class TestHorizonCap:
    """An objective paired with one that never settles is read only up to
    its pad, so the solve computes it that far and no further."""

    def setup_method(self):
        self.csg = load_model(model_path("mac.csg"), {"emax": 2})

    def test_equal_cumulative_horizons_back_up_nothing(self, monkeypatch):
        rows = backed_up(monkeypatch)
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=4])'))
        assert ev.solve.pads == (0, 0)
        assert rows == [0] * 8

    def test_longer_horizon_backs_up_to_its_pad(self, monkeypatch):
        rows = backed_up(monkeypatch)
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=6])'))
        assert ev.solve.pads == (0, 2)
        states = len(ev.game.states)
        assert rows == [0] * 4 + [states] * 2 + [0] * 4
        single = ev.solve.single[1]
        assert [len(step) for step in single[1:]] == [states] * 2 + [0] * 4
