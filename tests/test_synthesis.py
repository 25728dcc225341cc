"""Strategy-profile synthesis and ε-equilibrium verification."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import REWARD_GAME, model_path, pair_query, small_csgs
from csgnash import nash, synthesis
from csgnash.errors import IncompleteStrategy, InfiniteValue, NotConverged
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import MemoryStrategy, induce_mdp, joint_mdp
from csgnash.nash import evaluate
from csgnash.properties import classify_horizon, parse_property
from csgnash.synthesis import (SynthesisedProfile, _name,
                               synthesise_profile, verify_epsilon_ne)
from oracles import (bounded_reach_pair, chain_by_dict_fold,
                     induce_mdp_by_dict_fold)
from test_golden import CASES


def solved_profile(csg, text):
    formula = parse_property(text)
    ev = evaluate(csg, formula)
    return ev, synthesise_profile(ev.game, formula, ev.solve)


class TestSharedChannelProfiles:
    def setup_method(self):
        self.csg = load_explicit(model_path("fig1.csgx"))

    def test_eventual_send_profile_is_an_equilibrium(self):
        ev, profile = solved_profile(
            self.csg, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        report = verify_epsilon_ne(ev.game, profile, ev.formula, 1e-4)
        assert report.passed
        assert report.gap1 == report.gap2 == 0
        assert report.subgame_gap1 == report.subgame_gap2 == 0

    def test_until_profile_is_an_equilibrium(self):
        ev, profile = solved_profile(
            self.csg,
            "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])")
        report = verify_epsilon_ne(ev.game, profile, ev.formula, 1e-4)
        assert report.passed
        assert report.gap1 == report.gap2 == 0

    def test_modes_refine_when_a_target_is_newly_satisfied(self):
        ev, profile = solved_profile(
            self.csg, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        strategy = profile.strategy(1)
        # an unbounded pair's step is 1 and stays 1
        assert strategy.initial_mode == (1, "pending", "pending")
        # s3 satisfies sent1 only; s1 satisfies both
        assert strategy.update((1, "pending", "pending"), "s3") == \
            (1, "won", "pending")
        assert strategy.update((1, "won", "pending"), "s1") == \
            (1, "won", "won")

    def test_export_round_trips_through_json(self, tmp_path):
        ev, profile = solved_profile(
            self.csg, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        path = tmp_path / "profile.json"
        profile.export_json(path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data == profile.export()
        assert data["kind"] == "unbounded"
        by_state = {(e["state"], tuple(e["mode"])): e
                    for e in data["entries"]}
        start = by_state[("s0", ("pending", "pending"))]
        assert "x" in start and "y" in start
        # single-pending entries are deterministic joint actions
        assert "action1" in by_state[("s3", ("won", "pending"))]


EXPORTED = [
    ("mac.csg", {"emax": 2}, '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=4])'),
    ("mac.csg", {"emax": 2}, '<<p1:p2>>max=? (R{"r1"}[C<=4] + R{"r2"}[C<=6])'),
    ("robot.csg", {"l": 3}, "<<p1:p2>>max=? (P[F<=4 goal1] + P[F<=6 goal2])"),
    ("fig1.csgx", {}, "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])"),
    ("robot.csg", {"l": 3}, "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"),
    ("power.csg", {}, '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])'),
    ("robot.csg", {"l": 3}, "<<p1:p2>>max=? (P[F<=4 goal1] + P[F goal2])"),
]


@pytest.mark.parametrize("model,consts,prop", EXPORTED)
def test_exported_modes_are_reachable(model, consts, prop):
    """An export lists a mode only if the memory can hold it: every
    objective it marks won or lost can settle, into a set that is not
    empty.  It lists every node with something at stake that a deviation
    reaches, the steps below 0 that a padded bounded profile plays
    included."""
    csg = (load_model(model_path(model), consts) if model.endswith(".csg")
           else load_explicit(model_path(model)))
    ev, profile = solved_profile(csg, prop)
    result = ev.solve
    entries = profile.export()["entries"]
    settles = [can for _, _, can in result.statuses]
    sets = [{"won": win, "lost": lose} for win, lose, _ in result.statuses]
    assert all(st == "pending" or settles[l] and sets[l][st]
               for e in entries for l, st in enumerate(e["mode"]))
    # an unbounded export writes no step: its memory's step is 1 throughout
    listed = {(e["state"], e.get("step", 1), tuple(e["mode"]))
              for e in entries}
    for side in (1, 2):
        for state, mode in induce_mdp(ev.game, side,
                                      profile.strategy(side)).states:
            step, statuses = mode[0], mode[1:]
            if "pending" in statuses:
                assert (_name(state), step, statuses) in listed
    if not any(settles):
        assert all(e["mode"] == ["pending", "pending"] for e in entries)
        assert len(entries) == len(ev.game.states) * (
            result.iterations + 1 + max(result.pads))


class AlwaysWait(MemoryStrategy):
    """Degenerate one-mode strategy: the coalition never transmits."""

    initial_mode = ("pending", "pending")

    def __init__(self, action):
        self.action = action

    def distribution(self, state, mode):
        return {(self.action,): F(1)}

    def update(self, mode, next_state):
        return self.initial_mode


class TestFailingProfile:
    def test_both_always_waiting_has_gap_one(self):
        csg = load_explicit(model_path("fig1.csgx"))
        formula = parse_property(
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        ev = evaluate(csg, formula)
        lazy = SynthesisedProfile(formula, ev.game, ev.solve)
        lazy.strategy = lambda side: AlwaysWait("w1" if side == 1 else "w2")
        report = verify_epsilon_ne(ev.game, lazy, formula, 1e-4)
        assert report.gap1 == report.gap2 == 1
        assert not report.passed

    @pytest.mark.parametrize("side", [1, 2])
    def test_an_unavailable_action_is_an_incomplete_strategy(self, side):
        # either side's unavailable action is found, in the chain or in the
        # MDP the chain is read off
        csg = load_explicit(model_path("fig1.csgx"))
        formula = parse_property(
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        ev = evaluate(csg, formula)
        broken = SynthesisedProfile(formula, ev.game, ev.solve)
        waits = {1: "w1", 2: "w2"}
        broken.strategy = lambda s: AlwaysWait(
            "bogus" if s == side else waits[s])
        with pytest.raises(IncompleteStrategy, match="unavailable action"):
            verify_epsilon_ne(ev.game, broken, formula, 1e-4)

    def test_any_profile_passes_with_epsilon_one(self):
        csg = load_explicit(model_path("fig1.csgx"))
        formula = parse_property(
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        ev = evaluate(csg, formula)
        lazy = SynthesisedProfile(formula, ev.game, ev.solve)
        lazy.strategy = lambda side: AlwaysWait("w1" if side == 1 else "w2")
        assert verify_epsilon_ne(ev.game, lazy, formula, 1.0).passed


class TestGridProfiles:
    def setup_method(self):
        self.csg = load_model(model_path("robot.csg"))

    def test_unbounded_profile_is_an_equilibrium(self):
        ev, profile = solved_profile(
            self.csg, "<<p1:p2>>max=? (P[F goal1] + P[F goal2])")
        report = verify_epsilon_ne(ev.game, profile, ev.formula, 1e-4)
        assert report.passed
        assert report.gap1 <= 1e-4 and report.gap2 <= 1e-4

    def test_bounded_profile_is_an_equilibrium_and_matches_the_oracle(self):
        formula = parse_property(
            "<<p1:p2>>max=? (P[F<=3 goal1] + P[F<=3 goal2])")
        ev = evaluate(self.csg, formula)
        profile = synthesise_profile(ev.game, formula, ev.solve)
        report = verify_epsilon_ne(ev.game, profile, formula, 1e-4)
        assert report.passed

        cg = ev.game
        targets1 = {s for s in self.csg.states
                    if "goal1" in self.csg.labels[s]}
        targets2 = {s for s in self.csg.states
                    if "goal2" in self.csg.labels[s]}
        oracle = bounded_reach_pair(cg.trans, targets1, targets2, 3)
        for s in cg.states:
            assert tuple(ev.values[s]) == oracle[s]

    def test_bounded_export_carries_step_indices(self, tmp_path):
        ev, profile = solved_profile(
            self.csg, "<<p1:p2>>max=? (P[F<=3 goal1] + P[F<=3 goal2])")
        data = profile.export()
        assert data["kind"] == "bounded"
        steps = {e["step"] for e in data["entries"]}
        assert steps == {0, 1, 2, 3}

    def test_float_export_keeps_exact_weights(self, monkeypatch):
        # a float solve exports float values, but the equilibrium weights of
        # each local game are exact: ints or "p/q" strings
        monkeypatch.setattr(nash, "_EXACT_STATE_LIMIT", 0)
        ev, profile = solved_profile(
            load_model(model_path("robot.csg"), {"l": 3}),
            "<<p1:p2>>max=? (P[F goal1] + P[F goal2])")
        assert ev.game.number is float
        data = json.loads(json.dumps(profile.export()))
        assert data["values"] and all(
            type(v) is float for pair in data["values"].values() for v in pair)
        weights = [w for e in data["entries"] for side in ("x", "y")
                   for w in e.get(side, {}).values()]
        assert weights and all(
            type(w) is int or (type(w) is str and F(w).denominator > 1)
            for w in weights)


class TestDemandDrivenVerification:
    """Verification computes a bounded objective only where the initial
    nodes need it; a deviation deep in the horizon must still show."""

    def test_late_deviation_keeps_the_full_gap(self, monkeypatch):
        csg = load_model(model_path("robot.csg"), {"l": 3})
        ev, profile = solved_profile(
            csg, "<<p1:p2>>max=? (P[F<=6 goal1] + P[F<=6 goal2])")
        game, result = ev.game, ev.solve
        # p1 at (1,1,2,2) with 4 of 6 stages left: first reached at step 2
        late, step = (1, 1, 2, 2), 4
        (start,) = game.initial
        early = {start} | {t for dist in game.trans[start].values()
                           for t in dist}
        assert late not in early
        _, acts1, acts2, x, y = result.profiles[step][late]
        assert acts1 == (("d1",), ("e1",), ("n1",)) and x == (0, 1, 0)
        result.profiles[step][late] = ("mix", acts1, acts2, (1, 0, 0), y)
        report = verify_epsilon_ne(game, profile, ev.formula, 1e-4)

        def full(*args, reads=None, **kwargs):
            return nash._optimum(*args, **kwargs)

        monkeypatch.setattr(synthesis, "_optimum", full)
        assert report == verify_epsilon_ne(game, profile, ev.formula, 1e-4)
        assert report.gap1 > 0 and not report.passed


BOUNDED_CASES = [case[:3] for case in CASES
                 if classify_horizon(parse_property(case[2])) != "both-infinite"]


class TestBoundedSubgameGaps:
    """A pair with a finite horizon reports subgame gaps too: each
    objective is read at every node of the profile's chain, at the steps
    the node's memory has left."""

    @pytest.mark.parametrize("model,consts,prop", BOUNDED_CASES)
    def test_bundled_queries_have_none(self, model, consts, prop):
        csg = load_model(model_path(model),
                         dict(c.split("=") for c in consts))
        ev, profile = solved_profile(csg, prop)
        report = verify_epsilon_ne(ev.game, profile, ev.query)
        assert ev.solve.kind == "bounded" and report.passed
        assert report.subgame_gap1 == report.subgame_gap2 == 0

    def test_a_stage_off_equilibrium_shows(self):
        # at fig1's start with 3 steps left both wait, an equilibrium still:
        # each transmits alone later.  With 2 left both transmit, which
        # succeeds with probability 3/4 only; a coalition that waits there
        # lets the other succeed alone and transmits alone next, so it
        # gains 1/4 at a node of the chain past the start
        csg = load_model(model_path("fig1.csg"))
        ev, profile = solved_profile(
            csg, "<<p1:p2>>max=? (P[F<=3 sent1] + P[F<=3 sent2])")
        (start,) = ev.game.initial
        _, acts1, acts2, _, _ = ev.solve.profiles[3][start]
        assert acts1 == (("t1",), ("w1",)) and acts2 == (("t2",), ("w2",))
        profiles = ev.solve.profiles
        profiles[3][start] = ("mix", acts1, acts2, (0, 1), (0, 1))
        report = verify_epsilon_ne(ev.game, profile, ev.query)
        assert report.gap1 == report.gap2 == 0
        assert report.subgame_gap1 == report.subgame_gap2 == 0
        profiles[2][start] = ("mix", acts1, acts2, (1, 0), (1, 0))
        report = verify_epsilon_ne(ev.game, profile, ev.query)
        assert report.subgame_gap1 == report.subgame_gap2 == 0.25


def strategy_lookups(monkeypatch):
    """Spy on `SynthesisedProfile.choice`: records, for each call where an
    objective is pending with steps left and the other is settled or its
    steps have run out, whether the profile found that objective's
    strategy entry (False: `choice` found no entry and returned None).  An
    objective with no finite horizon (pad None) always has steps left."""
    lookups = []
    choice = SynthesisedProfile.choice

    def spy_choice(self, state, step, statuses):
        pending = [l for l, st in enumerate(statuses) if st == "pending"]
        pads = self.result.pads
        at_stake = [l for l in pending
                    if pads[l] is None or step + pads[l] > 0]
        played = choice(self, state, step, statuses)
        if at_stake and (len(pending) == 1 or step < 1):
            lookups.append(played is not None)
        return played

    monkeypatch.setattr(SynthesisedProfile, "choice", spy_choice)
    return lookups


# t1 is won at w; the play then passes m, which settles nothing, before p1
# can move on to the t2 target g: t2's optimum is played at m, outside the
# states where t1 is settled
AFTER_A_WIN = (loads_explicit("""\
player p1 a b
player p2 x
init s0
label w t1
label g t2
s0 (a,-) -> 1:w
s0 (b,-) -> 1:m
w (-,-) -> 1:m
m (a,-) -> 1:g
m (b,-) -> 1/2:m + 1/2:w
g (-,-) -> 1:g
"""), ("p1",))


class TestOptimaCoverEveryPlay:
    """The engines compute a single-objective optimum only where a profile
    can play it (`nash._coop_optima`).  Verification folds the profile with
    each coalition free to deviate, so every memory a deviation reaches is
    looked up: each lookup must find its strategy entry."""

    @pytest.mark.parametrize("model,consts,prop", [case[:3] for case in CASES])
    def test_golden_queries(self, monkeypatch, model, consts, prop):
        csg = load_model(model_path(model),
                         dict(c.split("=") for c in consts))
        ev, profile = solved_profile(csg, prop)
        lookups = strategy_lookups(monkeypatch)
        assert verify_epsilon_ne(ev.game, profile, ev.query).passed
        assert all(lookups)
        # robot's goals settle where a play reaches them
        if model == "robot.csg" or any(ev.solve.pads):
            assert lookups

    @settings(max_examples=150, deadline=None)
    @given(small_csgs(), st.sampled_from([
        ("P", (2, 2)), ("P", (2, 3)), ("P", (None, None)), ("P", (2, None)),
        ("C", (2, 3)), ("F", (None, None))]))
    @example(AFTER_A_WIN, ("P", (None, None)))
    @example(AFTER_A_WIN, ("P", (3, 3)))
    def test_random_games(self, case, shape):
        csg, coalition = case
        query = pair_query(csg, coalition, *shape)
        try:
            ev = evaluate(csg, query)
        except (NotConverged, InfiniteValue):
            return              # the pair has no profile to play
        profile = synthesise_profile(ev.game, query, ev.solve)
        with pytest.MonkeyPatch.context() as patch:
            lookups = strategy_lookups(patch)
            try:
                verify_epsilon_ne(ev.game, profile, ev.query)
            except InfiniteValue:
                pass
        assert all(lookups)


class TestRewardProfiles:
    def test_reachability_reward_profile_is_an_equilibrium(self):
        csg = load_model(model_path("power.csg"))
        ev, profile = solved_profile(
            csg, '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])')
        report = verify_epsilon_ne(ev.game, profile, ev.formula, 1e-4)
        assert report.passed

    def test_state_and_action_rewards_verify_with_zero_gaps(self):
        # at s0, (a,c) is the equilibrium: r collects 1 + 3 + (13/2 + 7)/2
        # and r2 collects (4 + 8)/2, with p2 looping s2 -> s1 for r2's 4
        csg = loads_explicit(REWARD_GAME)
        ev, profile = solved_profile(
            csg, '<<p1:p2>>max=? (R{"r"}[F goal] + R{"r2"}[F goal])')
        v1, v2 = ev.values["s0"]
        assert abs(v1 - F(43, 4)) < 1e-5 and abs(v2 - 6) < 1e-5
        report = verify_epsilon_ne(ev.game, profile, ev.formula, 1e-4)
        assert report.passed
        assert (report.gap1, report.gap2) == (0, 0)
        assert (report.subgame_gap1, report.subgame_gap2) == (0, 0)


# At s0, p2 stays (p2a) or moves to the target s1 (p2b).  The pair
# P[F t1] + P[F t2] with coalition {p1} has value 1 for p2, and the last
# sweep values the self-loop p2a at 1 too.
STAY_OR_GO = (loads_explicit("""\
player p1 p1a
player p2 p2a p2b
init s0
label s1 t2
s0 (-,p2a) -> 1:s0
s0 (-,p2b) -> 1:s1
s1 (-,-) -> 1:s1
"""), ("p1",))


# s0 satisfies t1 at step 0; at s1, p1 returns to s0 (a) or moves to the
# t2 target g (b).  With t1 already won, P[F<=2 t1] + P[F<=3 t2] has value
# (1, 1), and p1 should play b.
INITIAL_TARGET = (loads_explicit("""\
player p1 a b
player p2 x y
init s0
label s0 t1
label g t2
s0 (-,y) -> 1/2:g + 1/2:s1
s0 (-,x) -> 1:s1
s1 (a,-) -> 1:s0
s1 (b,-) -> 1:g
g (-,-) -> 1:g
"""), ("p1",))


class TestRandomGames:
    # every synthesised profile verifies: P[F<=k1 t1] + P[F<=k2 t2] for the
    # given bounds (None: unbounded) on a random game and coalition split
    @staticmethod
    def verified(case, bounds):
        csg, coalition = case
        query = pair_query(csg, coalition, "P", bounds)
        ev = evaluate(csg, query)
        profile = synthesise_profile(ev.game, query, ev.solve)
        report = verify_epsilon_ne(ev.game, profile, ev.query, 1e-4)
        # the same report on the dict MDPs of the reference folds
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(synthesis, "induce_mdp", lambda *args: joint_mdp(
                induce_mdp_by_dict_fold(*args)))
            patch.setattr(synthesis, "induced_chain", lambda *args: joint_mdp(
                chain_by_dict_fold(*args)))
            assert verify_epsilon_ne(ev.game, profile, ev.query,
                                     1e-4) == report
        return report

    @settings(max_examples=75, deadline=None)
    @given(small_csgs())
    @example(INITIAL_TARGET)
    def test_bounded_profiles_have_no_gap(self, case):
        report = self.verified(case, (2, 3))
        assert report.gap1 == report.gap2 == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "an unbounded profile can take a self-loop whose value ties with "
        "the action that reaches the target: on STAY_OR_GO p2 plays p2a "
        "for ever, so gap2 is 1"))
    @settings(max_examples=75, deadline=None)
    @given(small_csgs())
    @example(STAY_OR_GO)
    def test_unbounded_profiles_are_subgame_equilibria(self, case):
        try:
            report = self.verified(case, (None, None))
        except NotConverged:
            return              # the pair has no value to verify
        assert report.passed
        assert report.subgame_gap1 <= 1e-4 and report.subgame_gap2 <= 1e-4

    @settings(max_examples=75, deadline=None)
    @given(small_csgs())
    def test_mixed_profiles_pass(self, case):
        assert self.verified(case, (2, None)).passed
