"""Both pair engines run as loops over one sweep helper.  On random CSGs
the bounded engine must give exactly what its earlier per-stage loop gives
(`oracles.bounded_pair_by_stage_loop`): every `PairResult` field with the
same number types, or the same error with the same message (and, for
`NotConverged`, the same partial result).  The unbounded engine solves one
strongly connected component of the free states at a time, sinks first,
where `oracles.unbounded_pair_by_sweep_loop` sweeps the whole game: off
cycles it must give the loop's values and profiles exactly, on them the same
limit within the stop rule's reach, or the same oscillation.  The sweep
re-solves a state only when a successor's pair changed, and looks its local
game up in the table's memo before building it, so a game that repeats
within a solve is built once.  So both engines build fewer local games than
those loops, which build every state's game every time and so stay an
independent path.  The engines compute each single-objective optimum only
where a profile can play it, the loops everywhere, so `PairResult.single`
is compared at the entries a profile reads (`same_result`)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import LEAKY_LOOP, labelled, model_path, small_csgs
from csgnash import nash
from csgnash.errors import InfiniteValue, NotConverged
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import build_csg, load_model, parse_model
from csgnash.model import coalition_game
from csgnash.nash import (PENDING, PairResult, _horizon, _refine, _sweep,
                          evaluate, local_game_table, solve_bounded_pair,
                          solve_unbounded_pair)
from csgnash.expr import Lit
from csgnash.properties import NashNode, Objective, parse_property

MAX_ITERS = 25


def typed(obj):
    """`obj` with every number tagged by its type and every dict as its
    ordered items, so that equality also compares types and key order."""
    if isinstance(obj, dict):
        return [(key, typed(value)) for key, value in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [typed(value) for value in obj]
    if isinstance(obj, (int, float, Fraction)) and not isinstance(obj, bool):
        return (type(obj).__name__, obj)
    return obj


FIELDS = ("values", "iterations", "converged", "kind", "diagnostic", "trace",
          "profiles", "statuses", "single", "pads")


def fields(result, names=FIELDS):
    """The `names` fields of a `PairResult`; by default everything it holds
    except its MDP timing."""
    return typed([getattr(result, name) for name in names])


# what the unbounded engine's order changes: the sweep count is per
# component, and a converged result keeps its final vector alone
SWEEP_ORDER_FREE = tuple(name for name in FIELDS
                         if name not in ("iterations", "trace"))


def read_entries(cg, query, result):
    """Per objective l, the (remaining steps, state) entries of
    `result.single[l]` that a profile reads, all at states that leave l
    pending: at the states where the other objective is settled, and at
    every state an unbounded play reaches from them; a finite objective's
    every state up to step pads[l], and above it those settled states; a
    mixed pair's infinite objective's every state."""
    rows = {s: _refine(result.statuses, s, (PENDING, PENDING))
            for s in cg.states}
    entries = []
    for l, obj in enumerate(query.objectives):
        live = {s for s, row in rows.items() if row[l] == PENDING}
        need = {s for s in live if rows[s] != (PENDING, PENDING)}
        pad = result.pads[l]
        if result.kind == "bounded" and pad is None:
            entries.append({(1, s) for s in live})
            continue
        if result.kind == "bounded":
            entries.append({(n, s) for n in range(1, pad + 1)
                            for s in live} |
                           {(n, s) for n in range(pad + 1, _horizon(obj) + 1)
                            for s in need})
            continue
        reach, frontier = set(need), list(need)
        trans = oracles.coalition_trans(cg)
        while frontier:
            for dist in trans[frontier.pop()].values():
                for t in dist:
                    if t not in reach:
                        reach.add(t)
                        frontier.append(t)
        entries.append({(1, s) for s in reach & live})
    return entries


def same_result(cg, query, got, want, names=FIELDS):
    """Whether two `PairResult`s agree on the fields `names`: typed-equal,
    except that `single` must hold every entry a profile reads
    (`read_entries`), and each entry it holds must equal `want`'s."""
    if fields(got, [n for n in names if n != "single"]) != \
            fields(want, [n for n in names if n != "single"]):
        return False
    if "single" not in names:
        return True
    for l, reads in enumerate(read_entries(cg, query, want)):
        held = {(n, s): choice for n, strat in enumerate(got.single[l])
                if strat for s, choice in strat.items()}
        full = {(n, s): choice for n, strat in enumerate(want.single[l])
                if strat for s, choice in strat.items()}
        if not reads <= held.keys() or \
                typed(held) != typed({key: full[key] for key in held}):
            return False
    return True


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except NotConverged as err:
        return "NotConverged", str(err), err.result
    except InfiniteValue as err:
        return "InfiniteValue", str(err), err.states


def same_outcome(cg, query, got, want, names=FIELDS):
    """Whether two `outcome`s are the same result, or the same error with
    the same message (and, for NotConverged, the same partial result)."""
    if isinstance(want, PairResult):
        return isinstance(got, PairResult) and \
            same_result(cg, query, got, want, names)
    if isinstance(got, PairResult) or got[:2] != want[:2]:
        return False
    if want[0] == "NotConverged":
        return same_result(cg, query, got[2], want[2], names)
    return got[2] == want[2]


def reach(csg, name, bound=None):
    return Objective("P", "U", sub1=Lit(True), sub2=labelled(csg, name),
                     bound=bound)


def pair(csg, coalition, objectives):
    rest = tuple(p for p in csg.players if p not in coalition)
    return NashNode(coalition, rest, "max=?", None, objectives)


@st.composite
def bounded_cases(draw):
    csg, coalition = draw(small_csgs())
    k = draw(st.integers(0, 3))
    objectives = draw(st.sampled_from([
        (reach(csg, "t1", k), reach(csg, "t2", draw(st.integers(0, 3)))),
        (Objective("R", "C", reward="r1", bound=k),
         Objective("R", "C", reward="r2", bound=k)),
        (Objective("R", "I", reward="r1", bound=k),
         Objective("R", "C", reward="r2", bound=k + 2)),
    ]))
    return csg, coalition, objectives


@st.composite
def unbounded_cases(draw):
    csg, coalition = draw(small_csgs())
    objectives = draw(st.sampled_from([
        (reach(csg, "t1"), reach(csg, "t2")),
        (Objective("R", "F", sub2=labelled(csg, "t1"), reward="r1"),
         Objective("R", "F", sub2=labelled(csg, "t2"), reward="r2")),
    ]))
    return csg, coalition, objectives, draw(st.sampled_from([Fraction,
                                                             float]))


class TestAgainstPerEngineLoops:
    @settings(max_examples=150, deadline=None)
    @given(bounded_cases())
    def test_bounded_pairs(self, case):
        csg, coalition, objectives = case
        cg = coalition_game(csg, coalition)
        query = pair(csg, coalition, objectives)
        assert same_outcome(
            cg, query, outcome(solve_bounded_pair, cg, query),
            outcome(oracles.bounded_pair_by_stage_loop, cg, query))

    @settings(max_examples=150, deadline=None)
    @given(unbounded_cases())
    def test_unbounded_pairs(self, case):
        csg, coalition, objectives, number = case
        cg = coalition_game(csg, coalition, number)
        query = pair(csg, coalition, objectives)
        got = solved(solve_unbounded_pair, cg, query)
        want = solved(oracles.unbounded_pair_by_sweep_loop, cg, query)
        if isinstance(want, tuple):
            assert got == want
        elif not lies_on_cycle(cg, want.profiles):
            assert same_result(cg, query, got, want, SWEEP_ORDER_FREE)
        elif want.converged:
            assert got.converged
            assert all(abs(a - b) <= 1e-5 for s in want.values
                       for a, b in zip(got.values[s], want.values[s]))
        elif "oscillation" in (want.diagnostic or ""):
            assert "oscillation" in (got.diagnostic or "")


def solved(solve, cg, query):
    """The result of an unbounded solve, converged or not, or the
    InfiniteValue error it raised as (message, states)."""
    try:
        return solve(cg, query, max_iters=MAX_ITERS)
    except NotConverged as err:
        return err.result
    except InfiniteValue as err:
        return str(err), err.states


def lies_on_cycle(cg, free):
    """Whether a state of `free` reaches itself through `free` states."""
    trans = oracles.coalition_trans(cg)
    succ = {s: {t for dist in trans[s].values() for t in dist if t in free}
            for s in free}
    for s in free:
        seen, stack = set(), list(succ[s])
        while stack:
            t = stack.pop()
            if t == s:
                return True
            if t not in seen:
                seen.add(t)
                stack.extend(succ[t])
    return False


def swept(monkeypatch):
    """The states and the `changed` set of each `nash._sweep` call, in call
    order."""
    calls = []
    original = nash._sweep

    def spy(table, states, vals, changed, profiles):
        calls.append((list(states), changed))
        return original(table, states, vals, changed, profiles)

    monkeypatch.setattr(nash, "_sweep", spy)
    return calls


def counted(monkeypatch, module):
    """The state of each `local_game` call made from `module`, in call
    order."""
    calls = []
    original = module.local_game

    def spy(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(module, "local_game", spy)
    return calls


# s0 reads w and d only.  w is settled (it satisfies t1) and its t2 optimum
# grows every stage (1/2, 3/4, ...); d is free and keeps (0, 0).  So only
# a settled row can wake s0, and d is solved once.
SETTLED_WAKES = loads_explicit("""\
player p1 a b
player p2 x y
init s0
label w t1
label g t2
s0 (a,x) -> 1:w
s0 (a,y) -> 1:d
s0 (b,x) -> 1:d
s0 (b,y) -> 1:w
w (-,-) -> 1/2:w + 1/2:g
g (-,-) -> 1:g
d (-,-) -> 1:d
""")


class TestChangeDrivenSweeps:
    @pytest.mark.parametrize("prop", [
        "<<p1:p2>>max=? (P[F<=6 goal1] + P[F<=6 goal2])",
        "<<p1:p2>>max=? (P[F goal1] + P[F goal2])",
        "<<p1:p2>>max=? (P[F<=4 goal1] + P[F goal2])",
    ])
    def test_fewer_solves_same_result(self, prop, monkeypatch):
        ev = evaluate(load_model(model_path("robot.csg"), {"l": 3}),
                      parse_property(prop))
        solve, loop = (
            (solve_bounded_pair, oracles.bounded_pair_by_stage_loop)
            if ev.solve.kind == "bounded" else
            (solve_unbounded_pair, oracles.unbounded_pair_by_sweep_loop))
        names = FIELDS if ev.solve.kind == "bounded" else SWEEP_ORDER_FREE
        engine = counted(monkeypatch, nash)
        oracle = counted(monkeypatch, oracles)
        assert same_result(ev.game, ev.query, solve(ev.game, ev.query),
                           loop(ev.game, ev.query), names)
        assert 0 < len(engine) < len(oracle)

    def test_acyclic_states_are_solved_once(self, monkeypatch):
        # a mixed pair's step-counter product has no cycle through a free
        # state: its layers only count up, and the cap layer is settled
        ev = evaluate(load_model(model_path("robot.csg"), {"l": 3}),
                      parse_property(
                          "<<p1:p2>>max=? (P[F<=4 goal1] + P[F goal2])"))
        game, query, _ = oracles.mixed_horizon_transform(ev.game, ev.query)
        visits = swept(monkeypatch)
        solves = counted(monkeypatch, nash)
        result = solve_unbounded_pair(game, query)
        assert all(changed is None for _, changed in visits)
        assert sorted(s for states, _ in visits for s in states) == \
            sorted(result.profiles)
        # states with equal local games share one build
        assert 0 < len(solves) < len(result.profiles)
        assert result.iterations == 1
        assert same_result(
            game, query, result,
            oracles.unbounded_pair_by_sweep_loop(game, query),
            SWEEP_ORDER_FREE)

    def test_a_component_on_a_cycle_gives_the_loops_result(self):
        # s0 has a self-loop (both wait); its component is iterated alone
        csg = load_explicit(model_path("fig1.csgx"))
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])"))
        result = solve_unbounded_pair(ev.game, ev.query)
        assert lies_on_cycle(ev.game, result.profiles)
        assert result.values["s0"] == (Fraction(3, 4), Fraction(3, 4))
        names = SWEEP_ORDER_FREE + ("iterations",)
        assert same_result(
            ev.game, ev.query, result,
            oracles.unbounded_pair_by_sweep_loop(ev.game, ev.query), names)

    def test_settled_rows_wake_their_readers(self, monkeypatch):
        query = pair(SETTLED_WAKES, ("p1",),
                     (reach(SETTLED_WAKES, "t1", 4),
                      reach(SETTLED_WAKES, "t2", 4)))
        cg = coalition_game(SETTLED_WAKES, ("p1",))
        solves = counted(monkeypatch, nash)
        result = solve_bounded_pair(cg, query)
        assert same_result(cg, query, result,
                           oracles.bounded_pair_by_stage_loop(cg, query))
        assert result.values["s0"] == (1, Fraction(7, 8))
        assert solves.count("s0") == 4 and solves.count("d") == 1


# s0 and s1 are the same game over different successors: g and h are
# targets of t1, d and e are dead ends.
TWINS = loads_explicit("""\
player p1 a b
player p2 x y
init s0 s1
label g t1
label h t1
s0 (a,x) -> 1:g
s0 (a,y) -> 1:d
s0 (b,x) -> 1:d
s0 (b,y) -> 1/2:g + 1/2:d
s1 (a,x) -> 1:h
s1 (a,y) -> 1:e
s1 (b,x) -> 1:e
s1 (b,y) -> 1/2:h + 1/2:e
g (-,-) -> 1:g
h (-,-) -> 1:h
d (-,-) -> 1:d
e (-,-) -> 1:e
""")


class TestLocalGameMemo:
    def test_equal_games_are_built_once(self, monkeypatch):
        query = pair(TWINS, ("p1",), (reach(TWINS, "t1", 1),
                                      reach(TWINS, "t2", 1)))
        cg = coalition_game(TWINS, ("p1",))
        solves = counted(monkeypatch, nash)
        result = solve_bounded_pair(cg, query)
        # s1 repeats s0's game, e repeats d's
        assert solves == ["s0", "d"]
        assert result.values["s1"] == result.values["s0"] == (1, 0)
        assert result.profiles[1]["s1"] == result.profiles[1]["s0"]
        assert same_result(cg, query, result,
                           oracles.bounded_pair_by_stage_loop(cg, query))

    @pytest.mark.parametrize("image, builds", [
        (Fraction(0.1), ["s0"]),
        (Fraction(1, 10), ["s0", "s1"]),
    ])
    def test_a_float_and_its_fraction_share_a_key(self, monkeypatch, image,
                                                  builds):
        # a settled state's optimum can reach an exact solve as a float;
        # local_game reads it as the rational it denotes, and so does the key
        cg = coalition_game(TWINS, ("p1",))
        table = local_game_table(cg, ["s0", "s1"])
        one, zero = Fraction(1), Fraction(0)
        vals = {"g": (one, 0.1), "h": (one, image),
                "d": (zero, zero), "e": (zero, zero)}
        solves = counted(monkeypatch, nash)
        pairs, profiles = _sweep(table, ["s0", "s1"], vals, None, {})
        assert solves == builds
        assert len(table.memo) == len(builds)
        assert (pairs["s0"] == pairs["s1"]) == (len(builds) == 1)

    def test_memo_holds_at_most_one_game_per_state(self, monkeypatch):
        # the loop's one free state changes its pair on every sweep, so each
        # sweep builds a new game, and the memo is emptied before each insert
        ev = evaluate(build_csg(parse_model(LEAKY_LOOP), {"N": 3}),
                      parse_property("<<p1:p2>>max=? (P[F goal] + P[F goal])"))
        held = []
        original = nash._sweep

        def spy(table, *args):
            swept = original(table, *args)
            held.append((len(table.memo), len(table.entries)))
            return swept

        monkeypatch.setattr(nash, "_sweep", spy)
        solves = counted(monkeypatch, nash)
        result = solve_unbounded_pair(ev.game, ev.query)
        assert result.iterations > 30
        assert len(solves) == len(held) == result.iterations
        assert all(size <= states for size, states in held)
        assert same_result(
            ev.game, ev.query, result,
            oracles.unbounded_pair_by_sweep_loop(ev.game, ev.query),
            SWEEP_ORDER_FREE + ("iterations",))
