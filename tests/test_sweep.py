"""Both pair engines run as loops over one sweep helper; on random CSGs they
must give exactly what their earlier per-engine loops give
(`oracles.bounded_pair_by_stage_loop`, `oracles.unbounded_pair_by_sweep_loop`):
every `PairResult` field with the same number types, or the same error with
the same message (and, for `NotConverged`, the same partial result).  The
sweep re-solves a state only when a successor's pair changed, so it solves
fewer local games than those loops, which solve every state every time."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import labelled, model_path, small_csgs
from csgnash import nash
from csgnash.errors import InfiniteValue, NotConverged
from csgnash.explicit import loads_explicit
from csgnash.lang import load_model
from csgnash.model import coalition_game, compile_game
from csgnash.nash import evaluate, solve_bounded_pair, solve_unbounded_pair
from csgnash.properties import NashNode, Objective, TrueF, parse_property

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


def fields(result):
    """Everything a `PairResult` holds except its MDP timing."""
    return typed((result.values, result.iterations, result.converged,
                  result.kind, result.diagnostic, result.trace,
                  result.profiles, result.statuses, result.single,
                  result.pads))


def outcome(solve, *args, **kwargs):
    try:
        return "solved", fields(solve(*args, **kwargs))
    except NotConverged as err:
        return "NotConverged", str(err), fields(err.result)
    except InfiniteValue as err:
        return "InfiniteValue", str(err), err.states


def reach(csg, name, bound=None):
    return Objective("P", "U", sub1=TrueF(), sub2=labelled(csg, name),
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
        assert outcome(solve_bounded_pair, cg, query) == \
            outcome(oracles.bounded_pair_by_stage_loop, cg, query)

    @settings(max_examples=150, deadline=None)
    @given(unbounded_cases())
    def test_unbounded_pairs(self, case):
        csg, coalition, objectives, number = case
        cg = compile_game(coalition_game(csg, coalition), number)
        query = pair(csg, coalition, objectives)
        assert outcome(solve_unbounded_pair, cg, query,
                       max_iters=MAX_ITERS) == \
            outcome(oracles.unbounded_pair_by_sweep_loop, cg, query,
                    max_iters=MAX_ITERS)


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
        engine = counted(monkeypatch, nash)
        oracle = counted(monkeypatch, oracles)
        assert fields(solve(ev.game, ev.query)) == \
            fields(loop(ev.game, ev.query))
        assert 0 < len(engine) < len(oracle)

    def test_settled_rows_wake_their_readers(self, monkeypatch):
        query = pair(SETTLED_WAKES, ("p1",),
                     (reach(SETTLED_WAKES, "t1", 4),
                      reach(SETTLED_WAKES, "t2", 4)))
        cg = coalition_game(SETTLED_WAKES, ("p1",))
        solves = counted(monkeypatch, nash)
        result = solve_bounded_pair(cg, query)
        assert fields(result) == \
            fields(oracles.bounded_pair_by_stage_loop(cg, query))
        assert result.values["s0"] == (1, Fraction(7, 8))
        assert solves.count("s0") == 4 and solves.count("d") == 1
