"""Both pair engines run as loops over one sweep helper; on random CSGs they
must give exactly what their earlier per-engine loops give
(`oracles.bounded_pair_by_stage_loop`, `oracles.unbounded_pair_by_sweep_loop`):
every `PairResult` field with the same number types, or the same error with
the same message (and, for `NotConverged`, the same partial result)."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import labelled, small_csgs
from csgnash.errors import InfiniteValue, NotConverged
from csgnash.model import coalition_game, compile_game
from csgnash.nash import solve_bounded_pair, solve_unbounded_pair
from csgnash.properties import NashNode, Objective, TrueF

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
