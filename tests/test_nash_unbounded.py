"""Value iteration for infinite-horizon objective pairs, including the
non-convergence regression fixtures."""

from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import example, given, settings

from conftest import (ACYCLIC_GAME, REWARD_GAME, acyclic_csgs, model_path,
                      pair_query)
from csgnash import nash
from csgnash.errors import (AssumptionViolated, NotConverged,
                             UnsupportedOperator)
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import check_assumption
from csgnash.nash import evaluate
from csgnash.properties import parse_property
from csgnash.synthesis import synthesise_profile, verify_epsilon_ne
from oracles import chain_reach_probability


def initial_pair(evaluation):
    return next(iter(evaluation.initial.values()))


class TestSharedChannel:
    def setup_method(self):
        self.csg = load_explicit(model_path("fig1.csgx"))

    def test_eventual_send_pair_is_one_one(self):
        ev = evaluate(self.csg, parse_property(
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"))
        v1, v2 = initial_pair(ev)
        assert (v1, v2) == (1, 1)       # exact mode on a 6-state game
        assert ev.solve.converged

    def test_until_pair_is_the_simultaneous_success_probability(self):
        ev = evaluate(self.csg, parse_property(
            "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])"))
        assert initial_pair(ev) == (F(3, 4), F(3, 4))

    def test_until_pair_matches_pure_profile_enumeration(self):
        """Brute force over pure stationary profiles of the 6-state game.

        Every profile is evaluated exactly on its induced chain; profiles
        with a profitable unilateral pure deviation are discarded; the best
        equilibrium sum must match the engine (mixed strategies cannot beat
        the best pure deviation, so the equilibrium filter is sound)."""
        csg = self.csg
        until = {}
        for l, (blocked, target) in enumerate(
                [("send2", "send1"), ("send1", "send2")]):
            # the constraint is the negated label: a state falsifies the
            # until objective once `blocked` holds without the target, and
            # is then replaced by an absorbing dead end
            cons_states = {s for s in csg.states
                           if blocked not in csg.labels[s]
                           or target in csg.labels[s]}
            trans = {}
            for s in csg.states:
                if s in cons_states or s == "s0":
                    trans[s] = {a: dict(d) for a, d in csg.trans[s].items()}
                else:
                    trans[s] = {a: {s: F(1)} for a in csg.trans[s]}
            targets = {s for s in csg.states if target in csg.labels[s]}
            until[l] = (trans, targets)

        def actions(side, s):
            idx = 0 if side == 1 else 1
            return sorted({a[idx] for a in csg.trans[s]})

        states = list(csg.states)
        choices1 = list(product(*[actions(1, s) for s in states]))
        choices2 = list(product(*[actions(2, s) for s in states]))

        def value(c1, c2, l):
            trans, targets = until[l]
            choice = {s: (a, b) for s, a, b in zip(states, c1, c2)}
            return chain_reach_probability(trans, choice, targets, "s0")

        equilibria = []
        for c1 in choices1:
            for c2 in choices2:
                v1 = value(c1, c2, 0)
                v2 = value(c1, c2, 1)
                if any(value(d1, c2, 0) > v1 for d1 in choices1):
                    continue
                if any(value(c1, d2, 1) > v2 for d2 in choices2):
                    continue
                equilibria.append((v1, v2))
        best = max(u + v for u, v in equilibria)
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])"))
        v1, v2 = initial_pair(ev)
        assert v1 + v2 == best == F(3, 2)

    def test_fixed_row_states_hold_one_one_throughout(self):
        # wherever both targets are already satisfied the iterates must pin
        # the pair at exactly (1,1) in every sweep
        ev = evaluate(self.csg, parse_property(
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"))
        both = [s for s in self.csg.states
                if {"sent1", "sent2"} <= self.csg.labels[s]]
        assert both
        for sweep in ev.solve.trace:
            for s in both:
                assert sweep[s] == (1, 1)

    def test_unsatisfiable_targets_give_zero(self):
        ev = evaluate(self.csg, parse_property(
            "<<p1:p2>>max=? (P[F (sent1 & !sent1)] + P[F (sent2 & !sent2)])"))
        assert initial_pair(ev) == (0, 0)


class TestOscillatingEventualities:
    """Four-state fixture where per-state values oscillate with period 2."""

    def setup_method(self):
        self.csg = load_explicit(model_path("appendix_b.csgx"))
        self.query = parse_property(
            "<<p1:p2>>max=? (P[F a1] + P[F a2])")

    def test_assumption_reports_the_nonterminal_end_component(self):
        report = check_assumption(self.csg, self.query)
        assert not report.passed
        assert any(set(ec.states) == {"s1", "s2"}
                   for ec in report.nonterminal_mecs)

    def test_iterates_oscillate_and_the_run_does_not_converge(self):
        with pytest.raises(NotConverged) as excinfo:
            evaluate(self.csg, self.query)
        result = excinfo.value.result
        assert not result.converged
        assert "oscillation" in result.diagnostic
        printed = [(F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)),
                   (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]
        assert [result.trace[n]["s1"] for n in (1, 2, 3, 4)] == printed


class TestOscillatingRewards:
    """Deterministic fixture whose reward targets can be avoided forever."""

    def setup_method(self):
        self.csg = load_explicit(model_path("appendix_c.csgx"))
        self.query = parse_property(
            '<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])')

    def test_assumption_reports_targets_not_almost_surely_reached(self):
        report = check_assumption(self.csg, self.query)
        assert not report.passed
        assert report.reward_issues
        for _, states in report.reward_issues:
            assert {"s1", "s2"} <= set(states)

    def test_iterates_alternate_and_the_run_does_not_converge(self):
        with pytest.raises(NotConverged) as excinfo:
            evaluate(self.csg, self.query)
        result = excinfo.value.result
        assert [result.trace[n]["s1"] for n in (1, 2, 3, 4)] == \
            [(F(1, 3), 1), (2, F(1, 3)), (F(1, 3), 1), (2, F(1, 3))]


class TestTraceIsBounded:
    """A result keeps at most five value vectors, however long the run: a
    failed unbounded run the last five sweeps of the component that failed,
    as whole vectors; a converged one its final vector alone."""

    # s0 halves its distance to the goal each sweep: 1 - 2**-n at sweep n
    HALVING = loads_explicit("player p1 a\nplayer p2 b\ninit s0\n"
                             "label g goal\ns0 (-,-) -> 1/2:s0 + 1/2:g\n"
                             "g (-,-) -> 1:g\n")

    def test_unbounded_pair_keeps_the_last_five_sweeps(self):
        with pytest.raises(NotConverged) as excinfo:
            evaluate(self.HALVING, parse_property(
                "<<p1:p2>>max=? (P[F goal] + P[F goal])"), max_iters=8)
        result = excinfo.value.result
        assert result.iterations == 8
        assert [sweep["s0"] for sweep in result.trace] == \
            [(1 - F(1, 2 ** n),) * 2 for n in range(4, 9)]
        assert all(sweep["g"] == (1, 1) for sweep in result.trace)
        assert result.trace[-1] == result.values

    def test_converged_unbounded_pair_keeps_its_final_vector(self):
        csg = load_model(model_path("robot.csg"))
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"))
        assert ev.solve.iterations == 2
        assert ev.solve.trace == [ev.solve.values]

    def test_bounded_pair_keeps_the_last_five_stages(self):
        csg = load_model(model_path("robot.csg"), {"l": 6})
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F<=15 goal1] + P[F<=15 goal2])"))
        assert ev.solve.iterations == 15
        assert len(ev.solve.trace) == 5
        assert ev.solve.trace[-1] == ev.solve.values


class TestZeroSumOperators:
    def setup_method(self):
        self.csg = load_explicit(model_path("fig1.csgx"))

    def test_grand_coalition_max_reachability(self):
        ev = evaluate(self.csg, parse_property(
            "<<{p1,p2}>>Pmax=? [F sent1]"))
        assert next(iter(ev.initial.values())) == 1

    def test_grand_coalition_threshold(self):
        ev = evaluate(self.csg, parse_property(
            "<<{p1,p2}>>P>=1 [F (sent1 & sent2)]"))
        assert all(ev.initial.values())

    def test_proper_subcoalition_is_rejected(self):
        with pytest.raises(UnsupportedOperator):
            evaluate(self.csg, parse_property("<<p1>>Pmax=? [F sent1]"))

    def reward_values(self, text):
        game = loads_explicit(REWARD_GAME)
        return evaluate(game, parse_property(text, game)).values

    def test_grand_coalition_cumulative_reward(self):
        # one step: s0 pays 1 plus 3 for (a,c); s1 pays 2 plus 1 for b
        vals = self.reward_values('<<{p1,p2}>>R{"r"}max=? [C<=1]')
        assert vals == {"s0": 4, "s1": 3, "s2": F(1, 2), "g": 0}
        # two steps from s0: 1 + 3 + (3 + 1/2) / 2 via (a,c)
        vals = self.reward_values('<<{p1,p2}>>R{"r"}max=? [C<=2]')
        assert vals == {"s0": F(23, 4), "s1": F(13, 4), "s2": F(7, 2),
                        "g": 0}
        assert all(isinstance(v, F) for v in vals.values())

    def test_grand_coalition_instantaneous_reward(self):
        # only state rewards count: s1 is worth 2 after two steps from s0
        # via (b,c) then d, and s1 reaches s2 -> s1 only with probability 1/2
        vals = self.reward_values('<<{p1,p2}>>R{"r"}max=? [I=2]')
        assert vals == {"s0": 2, "s1": 1, "s2": 0, "g": 0}

    def test_grand_coalition_min_reachability_reward(self):
        # cheapest route to g: s0 -(b,c)-> s2 -c-> g pays only s0's 1;
        # s1 must pay its state reward 2 and then leaves by a
        vals = self.reward_values('<<{p1,p2}>>R{"r"}min=? [F goal]')
        assert vals["g"] == 0
        for state, want in (("s0", 1), ("s1", 2), ("s2", 0)):
            assert abs(vals[state] - want) < 1e-9


class TestNestedOperatorsOnAcyclicGame:
    """Zero-sum `P[X]`, nested operators and plain state formulae.

    The inner `<<{p1,p2}>>P>=1 [F g1]` holds everywhere but t2, so the
    nested target of the second objective is {b}, which m1 cannot reach."""

    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def evaluate(self, text):
        return evaluate(self.csg, parse_property(text, self.csg))

    def test_grand_coalition_next_step(self):
        vals = self.evaluate("<<{p1,p2}>>Pmax=? [X g1]").values
        assert vals["s0"] == 0 and vals["m1"] == 1

    def test_nested_zero_sum_inside_a_nash_objective(self):
        vals = self.evaluate(
            "<<p1:p2>>max=? (P[F g1] + P[F (g2 & <<{p1,p2}>>P>=1 [F g1])])"
        ).values
        assert vals["s0"] == (1, 1)
        assert vals["m1"] == (1, 0)
        assert vals["t2"] == (0, 0)

    def test_nested_nash_threshold_inside_a_zero_sum_objective(self):
        vals = self.evaluate(
            "<<{p1,p2}>>Pmax=? [F (<<p1:p2>> >=2 (P[F g1] + P[F g2]))]"
        ).values
        assert vals["s0"] == 1 and vals["m1"] == 0

    def test_plain_state_formula(self):
        ev = self.evaluate("g1 & !g2")
        assert ev.kind == "state-set"
        assert ev.sat == {"t1"}


def test_nested_reward_target_is_solved_once(monkeypatch):
    # the sub-formula is resolved on the base game before the assumption
    # check, which then reads the same set as the engine
    calls = []
    original = nash._zero_sum_values

    def counted(game, node):
        calls.append(node)
        return original(game, node)

    monkeypatch.setattr(nash, "_zero_sum_values", counted)
    csg = loads_explicit(REWARD_GAME)
    evaluate(csg, parse_property(
        '<<p1:p2>>max=? (R{"r"}[F (goal & <<{p1,p2}>>P>=1 [F goal])]'
        ' + R{"r"}[F goal])', csg))
    assert len(calls) == 1


class TestAssumptionCheckedOnTheSolvedGame:
    """The solve checks the assumption once, on the coalition game it
    solves; regrouping players keeps every distribution, so the report is
    the one the base game gives."""

    CASES = [
        ("robot.csg", {"l": 3}, "<<p1:p2>>max=? (P[F goal1] + P[F goal2])",
         0),
        ("power.csg", None,
         '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])', 0),
        ("appendix_b.csgx", None, "<<p1:p2>>max=? (P[F a1] + P[F a2])", 1),
        ("appendix_c.csgx", None,
         '<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])', 2),
        ("fig1.csgx", None, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])", 3),
        ("aloha.csg", {"D": 3}, "<<p1:{p2,p3}>>max=? "
         "(P[F (sent1 & t<=8)] + P[F (sent2 & sent3 & t<=8)])", 189),
    ]

    @pytest.mark.parametrize("name,consts,prop,count", CASES)
    def test_report_matches_the_base_game(self, name, consts, prop, count):
        csg = load_explicit(model_path(name)) if name.endswith(".csgx") \
            else load_model(model_path(name), consts)
        query = parse_property(prop, csg)
        base = check_assumption(csg, query)
        try:
            solved = evaluate(csg, query, strict_assumptions=True).assumption
        except AssumptionViolated as err:
            solved = err.report
        assert solved.messages() == base.messages()
        assert len(base.messages()) == count


class TestExactStateLimit:
    """A solve is exact when the model's states times the pair's layer count
    are at most `_EXACT_STATE_LIMIT`.  A mixed pair counts its finite
    horizon plus 2 layers, or plus 1 for C<=k, so C<=0 counts one.  The
    type is chosen before the coalition game is built, and that game is
    the model's size in either type."""

    CASES = [
        ("fig1.csg", "<<p1:p2>>max=? (P[F<=2 sent1] + P[F sent2])", 20),
        ("fig1.csg", "<<p1:p2>>max=? (P[X sent1] + P[F sent2])", 15),
        ("power.csg",
         '<<p1:p2>>max=? (R{"r1"}[I=1] + R{"r2"}[F done2])', 123),
        ("power.csg",
         '<<p1:p2>>max=? (R{"r1"}[C<=0] + R{"r2"}[F done2])', 41),
        ("fig1.csg", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])", 5),
    ]

    @pytest.mark.parametrize("name,prop,size", CASES)
    def test_exact_up_to_the_limit(self, name, prop, size, monkeypatch):
        csg = load_model(model_path(name))
        formula = parse_property(prop, csg)
        for limit, number in ((size, F), (size - 1, float)):
            monkeypatch.setattr(nash, "_EXACT_STATE_LIMIT", limit)
            ev = evaluate(csg, formula)
            assert ev.game.states == csg.states
            assert ev.game.number is number
            assert all(type(p) is number for row in ev.game.trans.values()
                       for dist in row.values() for p in dist.values())


# At s0, p2 goes to the t2 target s2 (a) or through t1's s1 w.p. 1/3 (b);
# both reach s2 surely, so p2 is indifferent and the SWNE plays b for values
# (1/3, 1).  In floats, 1/3 + 1/2 + 1/6 sums to 0.9999999999999999 < 1, p2
# strictly prefers a, and the float solve gives (0, 1).
ROUNDED_INDIFFERENCE = (loads_explicit("""\
player p1 w
player p2 a b
init s0
label s1 t1
label s2 t2
s0 (-,a) -> 1:s2
s0 (-,b) -> 1/3:s1 + 1/2:m + 1/6:s2
s1 (-,-) -> 1:s2
m (-,-) -> 1:s2
s2 (-,-) -> 1:s2
"""), ("p1",), 2)


class TestExactAndFloatEnginesAgree:
    """The same query solved exactly and, with the exact limit lowered to 0,
    in floats: values agree, and the float solve is float throughout."""

    CASES = [
        ("robot.csg", "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"),
        ("fig1.csgx", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"),
        ("power.csg",
         '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])'),
        ("robot.csg", "<<p1:p2>>max=? (P[F<=4 goal1] + P[F goal2])"),
    ]

    @staticmethod
    def load(name):
        if name.endswith(".csgx"):
            return load_explicit(model_path(name))
        return load_model(model_path(name), {"l": 3} if name == "robot.csg"
                          else None)

    @pytest.mark.parametrize("name,prop", CASES)
    def test_float_solve_matches_the_exact_one(self, name, prop, monkeypatch):
        csg = self.load(name)
        formula = parse_property(prop, csg)
        monkeypatch.setattr(nash, "_EXACT_STATE_LIMIT", 10 ** 6)
        exact = evaluate(csg, formula)
        monkeypatch.setattr(nash, "_EXACT_STATE_LIMIT", 0)
        ev = evaluate(csg, formula)

        assert exact.game.number is F and ev.game.number is float
        for s in csg.states:
            assert all(abs(a - b) <= 1e-6
                       for a, b in zip(ev.values[s], exact.values[s]))
        assert all(isinstance(v, float)
                   for pair in ev.solve.values.values() for v in pair)
        assert all(isinstance(p, float) for s in ev.game.states
                   for dist in ev.game.trans[s].values()
                   for p in dist.values())

        # a mixed pair is verified on the solved query
        profile = synthesise_profile(ev.game, formula, ev.solve)
        assert verify_epsilon_ne(ev.game, profile, ev.query, 1e-4).passed

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a float solve can lose an exact indifference to rounding and pick "
        "another SWNE: on ROUNDED_INDIFFERENCE the exact solve gives "
        "(1/3, 1) at s0 and the float one (0, 1)"))
    @settings(max_examples=75, deadline=None)
    @given(acyclic_csgs())
    @example(ROUNDED_INDIFFERENCE)
    def test_random_acyclic_games(self, case):
        # acyclic games converge in both number types, so their values can
        # be compared at every state: the unbounded pair and both mixed ones
        csg, coalition, k = case
        for bounds in ((None, None), (k, None), (None, k)):
            query = pair_query(csg, coalition, "P", bounds)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nash, "_EXACT_STATE_LIMIT", 10 ** 6)
                exact = evaluate(csg, query)
                patch.setattr(nash, "_EXACT_STATE_LIMIT", 0)
                rounded = evaluate(csg, query)
            assert exact.game.number is F and rounded.game.number is float
            for s in csg.states:
                assert all(abs(a - b) <= 1e-6 for a, b in
                           zip(rounded.values[s], exact.values[s])), \
                    (bounds, s)
