from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csgnash.errors import InfiniteValue, SolverError
from csgnash.explicit import load_explicit
from csgnash.model import coalition_game, joint_mdp
from csgnash.mdp import expected_reward, prob1_min_set, reach_prob, step_prob

from conftest import model_path
from oracles import (Mdp, chain_reach_probability, mdp_backward_induction,
                     mdp_extreme_reach, prob1_min_set_by_dicts,
                     reach_prob_by_dicts)

F = Fraction


def fig1_mdp():
    g = load_explicit(model_path("fig1.csgx"))
    return g, joint_mdp(coalition_game(g, ["p1"]))


def appendix_b_mdp():
    g = load_explicit(model_path("appendix_b.csgx"))
    return g, joint_mdp(coalition_game(g, ["p1"]))


def appendix_c_mdp():
    g = load_explicit(model_path("appendix_c.csgx"))
    return g, joint_mdp(coalition_game(g, ["p1"]))


def simple_record(trans, number=F):
    """trans: state -> {action: {succ: prob}}, first state initial, as the
    oracles' dict record."""
    states = tuple(trans)
    return Mdp(states, (states[0],),
               {s: {a: {t: number(p) for t, p in dist.items()}
                    for a, dist in sorted(trans[s].items())}
                for s in states}, number=number)


def simple_mdp(trans, number=F):
    """The MDP of `simple_record` in the form the package solves on."""
    return joint_mdp(simple_record(trans, number))


def dict_choices(mdp):
    """The choices of an indexed MDP, as state -> {choice id: {successor:
    probability}}."""
    return {s: {cid: dict(zip(map(mdp.states.__getitem__, succ), probs))
                for cid, succ, probs in row}
            for s, row in zip(mdp.states, mdp.rows)}


# the ways to split one choice's probability over 1, 2 or 3 successors
SPLITS = {1: [(F(1),)],
          2: [(F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))],
          3: [(F(1, 3),) * 3]}


@st.composite
def small_mdps(draw):
    """(trans, targets, constraint or None): up to 5 states, 3 choices per
    state and 3 successors per choice."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    subsets = st.lists(st.sampled_from(states), unique=True).map(set)
    trans = {}
    for s in states:
        trans[s] = {}
        for a in range(draw(st.integers(1, 3))):
            succ = draw(st.lists(st.sampled_from(states), min_size=1,
                                 max_size=3, unique=True))
            probs = draw(st.sampled_from(SPLITS[len(succ)]))
            trans[s][f"a{a}"] = dict(zip(succ, probs))
    return trans, draw(subsets), draw(st.none() | subsets)


def risky_chain(n, risky):
    """s0 -> ... -> s(n-1) -> goal, each step sure ("fwd") or taken with
    probability 1/2 ("wait"); s(risky) can also fall into an absorbing
    trap."""
    trans = {"goal": {"stay": {"goal": F(1)}},
             "trap": {"stay": {"trap": F(1)}}}
    for i in range(n):
        ahead = f"s{i + 1}" if i + 1 < n else "goal"
        trans[f"s{i}"] = {"fwd": {ahead: F(1)},
                          "wait": {f"s{i}": F(1, 2), ahead: F(1, 2)}}
    trans[f"s{risky}"]["risk"] = {"trap": F(1, 2), f"s{risky + 1}": F(1, 2)}
    return trans


# value iteration reaches s0's value only in the limit, at rate 1/3 in
# GEOMETRIC and 2/3 in SLOW
GEOMETRIC = {"s0": {"a0": {"g": F(1, 3), "sink": F(1, 3), "s0": F(1, 3)}},
             "g": {"a0": {"g": F(1)}}, "sink": {"a0": {"sink": F(1)}}}
SLOW = {"s0": {"a0": {"s0": F(2, 3), "s1": F(1, 3)}},
        "s1": {"a0": {"g": F(1, 2), "sink": F(1, 2)}},
        "g": {"a0": {"g": F(1)}}, "sink": {"a0": {"sink": F(1)}}}
# two states whose str is equal: the max-reach strategy assigns its layers
# by str, then by state order, so 1 moves to g and "1" follows it
TWINS = {1: {"a0": {"1": F(1)}, "a1": {"g": F(1)}},
         "1": {"a0": {1: F(1)}, "a1": {"g": F(1)}},
         "g": {"a0": {"g": F(1)}}}


class TestReachability:
    def test_fig1_pmax_sent1(self):
        g, mdp = fig1_mdp()
        targets = [s for s in g.states if s in g.labels["sent1"]]
        vals = reach_prob(mdp, targets, "max")
        assert vals["s0"] == 1
        assert vals["s2"] == 0
        assert vals["s4"] == 1

    def test_appendix_b_pmax_a1(self):
        g, mdp = appendix_b_mdp()
        vals = reach_prob(mdp, ["t1"], "max")
        assert abs(vals["s1"] - 0.75) < 1e-9
        assert abs(vals["s2"] - 0.75) < 1e-9
        assert vals["t2"] == 0

    def test_targets_all_states(self):
        _, mdp = fig1_mdp()
        for opt in ("max", "min"):
            vals = reach_prob(mdp, mdp.states, opt)
            assert all(v == 1 for v in vals.values())

    def test_fig1_pmin_sent1(self):
        g, mdp = fig1_mdp()
        targets = [s for s in g.states if s in g.labels["sent1"]]
        vals = reach_prob(mdp, targets, "min")
        assert all(v == 0 for s, v in vals.items() if s not in targets)

    def test_until_constraint(self):
        g, mdp = fig1_mdp()
        send1 = [s for s in g.states if s in g.labels["send1"]]
        not_send2 = [s for s in g.states if s not in g.labels["send2"]]
        vals = reach_prob(mdp, send1, "max", constraint=not_send2)
        # transmitting alone wins; the joint branch succeeds with prob 3/4
        assert vals["s0"] == 1
        assert vals["s4"] == 0      # p2 already transmitted first

    def test_bounded_exact(self):
        g, mdp = fig1_mdp()
        targets = [s for s in g.states if s in g.labels["sent1"]]
        all_vals = reach_prob(mdp, targets, "max", bound=3, all_horizons=True)
        assert all_vals[0]["s0"] == 0
        assert all_vals[1]["s0"] == 1          # (t1,w2) hits s3 surely
        assert all_vals[1]["s2"] == 0
        assert isinstance(all_vals[1]["s0"], Fraction)

    def test_bounded_matches_oracle_chains(self):
        g, mdp = fig1_mdp()
        targets = {s for s in g.states if s in g.labels["sent2"]}
        trans = dict_choices(mdp)
        for k in range(4):
            vals = reach_prob(mdp, targets, "max", bound=k)
            actions = [sorted(trans[s]) for s in sorted(trans)]
            best = {s: F(0) for s in trans}
            for combo in product(*actions):
                choice = dict(zip(sorted(trans), combo))
                for s in trans:
                    v = chain_reach_probability(trans, choice, targets, s,
                                                horizon=k)
                    best[s] = max(best[s], v)
            assert vals == best, k

    def test_unbounded_matches_strategy_enumeration(self):
        for maker in (fig1_mdp, appendix_b_mdp):
            g, mdp = maker()
            targets = set().union(*g.labels.values())
            trans = dict_choices(mdp)
            for opt in ("max", "min"):
                ours = reach_prob(mdp, targets, opt)
                brute = mdp_extreme_reach(trans, targets, maximise=opt == "max")
                for s in mdp.states:
                    assert abs(ours[s] - brute[s]) < 1e-9, (s, opt)

    def test_duality_min_equals_one_minus_max_avoid(self):
        # Pmin(F T) = 1 - Pmax(G not-T); the right side equals max
        # probability of forever staying in an end component avoiding T.
        g, mdp = appendix_b_mdp()
        targets = {"t1", "t2"}
        vals = reach_prob(mdp, targets, "min")
        # choosing to cycle s1 <-> s2 avoids both targets forever
        assert vals["s1"] == 0 and vals["s2"] == 0

    def test_strategy_achieves_max(self):
        g, mdp = fig1_mdp()
        targets = {s for s in g.states if s in g.labels["sent1"]}
        vals, strat = reach_prob(mdp, targets, "max", with_strategy=True)
        trans = dict_choices(mdp)
        for s in mdp.states:
            achieved = chain_reach_probability(trans, strat, targets, s)
            assert abs(achieved - vals[s]) < 1e-9, s

    def test_max_strategy_leaves_value_conserving_cycles(self):
        # every choice keeps value 1, but only stepping forward reaches goal
        n = 40
        trans = {"goal": {"stay": {"goal": F(1)}}}
        for i in range(n):
            ahead = f"s{i + 1}" if i + 1 < n else "goal"
            trans[f"s{i}"] = {"back": {f"s{max(i - 1, 0)}": F(1)},
                              "fwd": {ahead: F(1)}, "stay": {f"s{i}": F(1)}}
        mdp = simple_mdp(trans)
        vals, strat = reach_prob(mdp, {"goal"}, "max", with_strategy=True)
        assert all(vals[s] == 1 for s in mdp.states)
        assert all(strat[f"s{i}"] == "fwd" for i in range(n))
        assert chain_reach_probability(trans, strat, {"goal"}, "s0") == 1

    def test_iteration_limit_names_the_slowest_state(self):
        # s0's value 1/2 is approached at rate 1 - 2e: after the sweep limit
        # it still moves by e * (1 - 2e)^99999, about 1.35e-6
        e = 1 / 100000
        mdp = simple_mdp({"s0": {"a0": {"s0": 1 - 2 * e, "g": e, "x": e}},
                          "g": {"a0": {"g": 1}}, "x": {"a0": {"x": 1}}},
                         float)
        with pytest.raises(SolverError, match=r"limit of 100000 sweeps: "
                           r"state s0 still changed by 1\.35e-06"):
            reach_prob(mdp, {"g"})

    def test_strategy_achieves_min(self):
        g, mdp = appendix_b_mdp()
        targets = {"t1"}
        vals, strat = reach_prob(mdp, targets, "min", with_strategy=True)
        trans = dict_choices(mdp)
        for s in mdp.states:
            achieved = chain_reach_probability(trans, strat, targets, s)
            assert abs(achieved - vals[s]) < 1e-9, s


class TestAgainstOracles:
    """Random small MDPs against exhaustive memoryless-strategy search."""

    @settings(max_examples=60, deadline=None)
    @given(small_mdps(), st.sampled_from([F, float]))
    @example((GEOMETRIC, {"g"}, None), F)
    @example((GEOMETRIC, {"g"}, None), float)
    @example((SLOW, {"g"}, None), float)
    def test_values_strategies_and_prob1_min_set(self, case, number):
        trans, targets, constraint = case
        mdp = simple_mdp(trans, number)
        allowed = None if constraint is None else constraint | targets
        pmin = mdp_extreme_reach(trans, targets, maximise=False)
        assert prob1_min_set(mdp, targets) == \
            {s for s, v in pmin.items() if v == 1}
        for opt in ("max", "min"):
            best = mdp_extreme_reach(trans, targets, opt == "max", allowed)
            vals, strat = reach_prob(mdp, targets, opt, constraint=constraint,
                                     with_strategy=True)
            for s in mdp.states:
                # 1e-4, not 1e-6: value iteration stops once a sweep changes
                # no value by 1e-6, which leaves s0 of SLOW 1.7e-6 short
                assert abs(vals[s] - best[s]) < 1e-4, (s, opt)
                achieved = chain_reach_probability(trans, strat, targets, s,
                                                   allowed=allowed)
                assert abs(achieved - vals[s]) < 1e-4, (s, opt)


class TestAgainstDictReference:
    """The id-indexed routines against the earlier ones that walk the
    dict record's `trans`: the same values, number types and strategies."""

    @settings(max_examples=100, deadline=None)
    @given(small_mdps(), st.sampled_from([F, float]))
    @example((TWINS, {"g"}, None), F)
    def test_values_types_and_strategies(self, case, number):
        trans, targets, constraint = case
        record = simple_record(trans, number)
        mdp = joint_mdp(record)
        assert prob1_min_set(mdp, targets) == \
            prob1_min_set_by_dicts(record, targets)
        for opt in ("max", "min"):
            vals, strat = reach_prob(mdp, targets, opt, constraint=constraint,
                                     with_strategy=True)
            want, want_strat = reach_prob_by_dicts(record, targets, opt,
                                                   constraint)
            assert list(vals.items()) == list(want.items())
            assert list(map(type, vals.values())) == \
                list(map(type, want.values()))
            assert strat == want_strat


# reward denominators that do not divide the probabilities' (1, 2 or 3)
REWARDS = st.sampled_from([F(1), F(2, 5), F(3, 7), F(5, 4)])


@st.composite
def rewarded_mdps(draw):
    """`small_mdps` plus action rewards and state rewards."""
    trans, targets, constraint = draw(small_mdps())
    pairs = [(s, a) for s in trans for a in trans[s]]
    action = draw(st.dictionaries(st.sampled_from(pairs), REWARDS))
    state = draw(st.dictionaries(st.sampled_from(sorted(trans)), REWARDS))
    return trans, targets, constraint, action, state


class TestBoundedAgainstOracle:
    """Bounded backups against plain rational backward recursion."""

    @settings(max_examples=80, deadline=None)
    @given(rewarded_mdps(), st.integers(0, 4), st.sampled_from(["max", "min"]))
    def test_values_and_choices_every_horizon(self, case, k, opt):
        trans, targets, constraint, action, state = case
        mdp = simple_mdp(trans)
        choices = dict_choices(mdp)
        maximise = opt == "max"
        allowed = set(trans) if constraint is None else constraint | targets
        start = {s: F(s in targets) for s in mdp.states}
        zeros = dict.fromkeys(mdp.states, F(0))
        vals, strat = step_prob(mdp, targets, opt, with_strategy=True)
        runs = [
            (reach_prob(mdp, targets, opt, bound=k, constraint=constraint,
                        with_strategy=True, all_horizons=True),
             mdp_backward_induction(choices, start, k, maximise, {
                 s for s in mdp.states if s in targets or s not in allowed})),
            (([start, vals], [None, strat]),
             mdp_backward_induction(choices, start, 1, maximise)),
            (expected_reward(mdp, "I", k=k, state_rewards=state,
                             optimise=opt, with_strategy=True,
                             all_horizons=True),
             mdp_backward_induction(choices, {s: state.get(s, 0)
                                              for s in mdp.states},
                                    k, maximise)),
            (expected_reward(mdp, "C", k=k, action_rewards=action,
                             state_rewards=state, optimise=opt,
                             with_strategy=True, all_horizons=True),
             mdp_backward_induction(choices, zeros, k, maximise, (), action,
                                    state)),
        ]
        for (family, steps), (want, want_steps) in runs:
            assert family == want
            assert steps == want_steps
            # horizon 0 is the given vector: I's holds int 0 where a state
            # has no reward
            assert all(isinstance(v, Fraction)
                       for vec in family[1:] for v in vec.values())


class TestDemandDrivenBackups:
    """With `reads`, a bounded run backs up a state only where a read needs
    it; every read must equal the full run's value, with its type, and
    every recorded choice the full run's choice."""

    @settings(max_examples=120, deadline=None)
    @given(rewarded_mdps(), st.integers(0, 8),
           st.sampled_from(["max", "min"]), st.sampled_from([F, float]),
           st.data())
    def test_reads_equal_the_full_run(self, case, k, opt, number, data):
        trans, targets, constraint, action, state = case
        mdp = simple_mdp(trans, number)
        action = {key: number(r) for key, r in action.items()}
        state = {s: number(r) for s, r in state.items()}
        reads = data.draw(st.lists(st.tuples(st.sampled_from(mdp.states),
                                             st.integers(0, k)),
                                   max_size=6))
        families = [
            lambda **kw: reach_prob(mdp, targets, opt, bound=k,
                                    constraint=constraint,
                                    with_strategy=True, **kw),
            lambda **kw: expected_reward(mdp, "I", k=k, state_rewards=state,
                                         optimise=opt, with_strategy=True,
                                         **kw),
            lambda **kw: expected_reward(mdp, "C", k=k, action_rewards=action,
                                         state_rewards=state, optimise=opt,
                                         with_strategy=True, **kw),
        ]

        def typed(vector):
            return {s: (v, type(v)) for s, v in vector.items()}

        def at(vector, n):
            return {s: (vector[s], type(vector[s]))
                    for s, h in reads if h == n}

        for family in families:
            full, full_steps = family(all_horizons=True)
            demand, steps = family(all_horizons=True, reads=reads)
            last, _ = family(reads=reads)
            assert len(demand) == len(steps) == k + 1
            for n in range(k + 1):
                assert typed(demand[n]) == at(full[n], n)
            assert typed(last) == at(full[k], k)
            for n in range(1, k + 1):
                assert steps[n].items() <= full_steps[n].items()

    @settings(max_examples=40, deadline=None)
    @given(small_mdps(), st.sampled_from(["max", "min"]), st.data())
    def test_one_step_reads(self, case, opt, data):
        trans, targets, _ = case
        mdp = simple_mdp(trans)
        reads = data.draw(st.lists(st.tuples(st.sampled_from(mdp.states),
                                             st.integers(0, 1))))
        full, full_strat = step_prob(mdp, targets, opt, with_strategy=True)
        vals, strat = step_prob(mdp, targets, opt, with_strategy=True,
                                reads=reads)
        read = {s for s, n in reads if n == 1}
        assert vals == {s: full[s] for s in read}
        assert strat.items() <= full_strat.items() and read <= set(strat)

    def test_unread_states_are_not_backed_up(self):
        # a chain s0 -> s1 -> ... -> s5 -> goal: read at s0 after 3 steps,
        # only s0, s1 and s2 are backed up, once each
        trans = {f"s{i}": {"go": {f"s{i + 1}": F(1, 2), "goal": F(1, 2)}}
                 for i in range(5)}
        trans["s5"] = {"go": {"goal": F(1)}}
        trans["goal"] = {"stay": {"goal": F(1)}}
        mdp = simple_mdp(trans)
        vals, steps = reach_prob(mdp, {"goal"}, bound=3, with_strategy=True,
                                 all_horizons=True, reads=[("s0", 3)])
        assert vals == [{}, {}, {}, {"s0": F(7, 8)}]
        assert [list(step) for step in steps[1:]] == [["s2"], ["s1"], ["s0"]]


class TestQualitative:
    def test_appendix_c_prob1_min(self):
        g, mdp = appendix_c_mdp()
        sure = prob1_min_set(mdp, {"t1", "t2"})
        assert "s1" not in sure and "s2" not in sure
        assert "t1" in sure and "t2" in sure

    def test_absorbing_chain(self):
        mdp = simple_mdp({
            "a": {"go": {"b": F(1)}},
            "b": {"go": {"t": F(1)}},
            "t": {"go": {"t": F(1)}},
        })
        assert prob1_min_set(mdp, {"t"}) == {"a", "b", "t"}

    def test_empty_targets(self):
        _, mdp = fig1_mdp()
        assert prob1_min_set(mdp, set()) == set()

    def test_long_chain(self):
        # each state leaves the fixpoints only after its successor did
        mdp = simple_mdp(risky_chain(3000, 1500))
        states = [f"s{i}" for i in range(3000)]
        assert prob1_min_set(mdp, {"goal"}) == set(states[1501:]) | {"goal"}
        vals = reach_prob(mdp, {"goal"}, "max")
        assert vals == {s: F(s != "trap") for s in mdp.states}


class TestStepProb:
    def test_one_step(self):
        g, mdp = fig1_mdp()
        targets = {s for s in g.states if s in g.labels["sent1"]}
        vals, strat = step_prob(mdp, targets, "max", with_strategy=True)
        assert vals["s0"] == 1 and strat["s0"] == (("t1",), ("w2",))
        assert vals["s2"] == 0  # dead state: no successor is ever labelled
        assert vals["s4"] == 1


def forward_closure(trans, reads):
    reach, frontier = set(reads), list(reads)
    while frontier:
        for dist in trans[frontier.pop()].values():
            for t in dist:
                if t not in reach:
                    reach.add(t)
                    frontier.append(t)
    return reach


def close(got, want):
    """Same keys, and values within the stop rule's reach: a run stops
    once no value it iterates changes by 1e-6 in a sweep, so a run over
    more states can stop later, with values nearer their limit.  An
    infinite reward is None."""
    return got.keys() == want.keys() and \
        all(got[s] is want[s] is None or abs(got[s] - want[s]) < 1e-4
            for s in got)


class TestForwardClosure:
    """`joint_mdp(game, reads)` holds only the forward closure of the read
    states, the states a play can reach from them, so an unbounded run on
    it covers exactly that closure.  Their values depend on the closure
    alone, and equal the full run's up to where each run stopped."""

    @settings(max_examples=150, deadline=None)
    @given(rewarded_mdps(), st.sampled_from(["max", "min"]), st.data())
    def test_reads_cover_their_forward_closure(self, case, opt, data):
        trans, targets, constraint, action, state = case
        record = simple_record(trans)
        mdp = joint_mdp(record)
        reads = data.draw(st.sets(st.sampled_from(mdp.states), min_size=1))
        closure = forward_closure(trans, reads)
        closed = joint_mdp(record, reads)
        assert closed.states == [s for s in mdp.states if s in closure]
        full = reach_prob(mdp, targets, opt, constraint=constraint,
                          with_strategy=True)
        vals, strat = reach_prob(closed, targets, opt, constraint=constraint,
                                 with_strategy=True)
        assert close(vals, {s: full[0][s] for s in closure})
        assert strat == {s: full[1][s] for s in closure}
        # a reward is finite where every strategy reaches the targets
        finite = prob1_min_set(mdp, targets)
        action = {key: F(r) for key, r in action.items()}
        state = {s: F(r) for s, r in state.items()}
        if not reads <= finite:
            with pytest.raises(InfiniteValue) as err:
                expected_reward(closed, "F", targets=targets, reads=reads)
            assert set(err.value.states) == reads - finite
            return
        full = expected_reward(mdp, "F", targets=targets,
                               action_rewards=action, state_rewards=state,
                               optimise=opt, with_strategy=True,
                               reads=finite)
        vals, strat = expected_reward(closed, "F", targets=targets,
                                      action_rewards=action,
                                      state_rewards=state, optimise=opt,
                                      with_strategy=True, reads=reads)
        assert close(vals, {s: full[0][s] for s in closure})
        assert strat == {s: full[1][s] for s in closure}

    def test_closure_keeps_the_model_order(self):
        # read at s2, the closure is s2 and goal, listed in model order
        record = simple_record(risky_chain(3, 1))
        vals = reach_prob(joint_mdp(record, {"s2"}), {"goal"})
        assert list(vals) == [s for s in record.states
                              if s in ("s2", "goal")]
        assert vals["s2"] == 1 and vals["goal"] == 1

    def test_unbounded_reach_takes_no_reads(self):
        # an unbounded run solves the MDP it is given; reads would be ignored
        with pytest.raises(SolverError, match="bounded objective"):
            reach_prob(simple_mdp(risky_chain(3, 1)), {"goal"}, reads={"s2"})


class TestExpectedReward:
    def reward_maps(self, g, mdp, name):
        cg = coalition_game(g, ["p1"])
        action = {}
        for s in mdp.states:
            for cid in dict_choices(mdp)[s]:
                val = cg.rewards[name].action(s, cid)
                if val:
                    action[(s, cid)] = val
        state = {s: cg.rewards[name].state(s) for s in mdp.states
                 if cg.rewards[name].state(s)}
        return action, state

    def test_cumulative_zero_horizon(self):
        g, mdp = appendix_c_mdp()
        a, s = self.reward_maps(g, mdp, "r1")
        vals = expected_reward(mdp, "C", k=0, action_rewards=a, state_rewards=s)
        assert all(v == 0 for v in vals.values())

    def test_instantaneous_zero_horizon(self):
        mdp = simple_mdp({"a": {"go": {"a": F(1)}}})
        vals = expected_reward(mdp, "I", k=0, state_rewards={"a": F(5)})
        assert vals["a"] == 5

    def test_cumulative_exact(self):
        g, mdp = appendix_c_mdp()
        a, s = self.reward_maps(g, mdp, "r1")
        vals = expected_reward(mdp, "C", k=2, action_rewards=a, state_rewards=s)
        # best two steps from s1: move to s2 (0), then send (2)
        assert vals["s1"] == F(2)
        assert isinstance(vals["s1"], Fraction)

    def test_reach_reward_simple_chain(self):
        mdp = simple_mdp({
            "s": {"go": {"t": F(1)}},
            "t": {"go": {"t": F(1)}},
        })
        vals = expected_reward(mdp, "F", targets={"t"},
                               state_rewards={"s": F(1)})
        assert vals["s"] == 1 and vals["t"] == 0

    def test_infinite_value_reported(self):
        g, mdp = appendix_c_mdp()
        a, s = self.reward_maps(g, mdp, "r1")
        with pytest.raises(InfiniteValue) as err:
            expected_reward(mdp, "F", targets={"t1", "t2"},
                            action_rewards=a, state_rewards=s)
        assert set(err.value.states) == {"s1", "s2"}

    def test_infinite_value_respects_reads(self):
        # the targets reach neither s1 nor s2, whose values are infinite:
        # read at the targets alone, on their closure, the values cover the
        # targets alone; on the whole MDP, s1 and s2 map to None
        g, mdp = appendix_c_mdp()
        closed = joint_mdp(coalition_game(g, ["p1"]), {"t1", "t2"})
        vals = expected_reward(closed, "F", targets={"t1", "t2"},
                               reads={"t1", "t2"})
        assert vals == {"t1": 0, "t2": 0}
        vals = expected_reward(mdp, "F", targets={"t1", "t2"},
                               reads={"t1", "t2"})
        assert vals == {"t1": 0, "t2": 0, "s1": None, "s2": None}
        with pytest.raises(InfiniteValue) as err:
            expected_reward(mdp, "F", targets={"t1", "t2"}, reads={"s2"})
        assert err.value.states == ("s2",)

    def test_geometric_accumulation(self):
        # stay with prob 1/2 gathering reward 1 per step: expected total 2
        mdp = simple_mdp({
            "s": {"go": {"s": F(1, 2), "t": F(1, 2)}},
            "t": {"go": {"t": F(1)}},
        })
        vals = expected_reward(mdp, "F", targets={"t"},
                               state_rewards={"s": F(1)})
        assert abs(vals["s"] - 2.0) < 1e-4
