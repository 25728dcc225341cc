"""Permutation invariance: the order in which a model declares its states and
its actions must not change any value.

On random CSGs, the game with its states declared in reverse and every
player's actions renamed so that their sorted order reverses has the same
values as the original at every state.  `select_swne` picks an equilibrium
by value before it picks by index, so orders may change the profile but not
the values.  Bounded pairs are exact and must give typed-equal values.
Unbounded and mixed pairs are solved in floats (exact value iteration can
stall on a cyclic component), whose sweeps may stop at slightly different
iterates; they must agree within 1e-5, or fail alike."""

import pytest
from hypothesis import given, settings

from conftest import pair_query, small_csgs
from csgnash import nash
from csgnash.errors import InfiniteValue, NotConverged
from csgnash.model import IDLE, Csg, RewardStructure
from csgnash.nash import evaluate

SHAPES = [("P", (2, 3)), ("C", (2, 3)), ("P", (None, None)),
          ("F", (None, None)), ("P", (2, None)), ("P", (None, 1))]


def permuted(csg):
    """`csg` with its states declared in reverse order and each player's
    k-th of n sorted actions renamed to the (n-1-k)-th of n new names."""
    rename = {IDLE: IDLE}
    for p in csg.players:
        acts = sorted(csg.alphabets[p])
        rename.update({a: f"{p}_{len(acts) - 1 - k}"
                       for k, a in enumerate(acts)})

    def joint(alpha):
        return tuple(rename[a] for a in alpha)

    return Csg.create(
        csg.players,
        {p: [rename[a] for a in csg.alphabets[p]] for p in csg.players},
        reversed(csg.states), csg.initial,
        {s: {joint(alpha): dist for alpha, dist in row.items()}
         for s, row in csg.trans.items()},
        csg.labels,
        {name: RewardStructure(
            {(s, joint(alpha)): v for (s, alpha), v in rs.action_rewards.items()},
            rs.state_rewards) for name, rs in csg.rewards.items()})


def solved(csg, coalition, shape):
    """Per-state values of the pair `shape` (see `pair_query`), or the type
    of the error that stopped its solve.  An R[F] pair whose target can be
    missed diverges, so value iteration stops at 1,000 sweeps, not 10,000."""
    try:
        return evaluate(csg, pair_query(csg, coalition, *shape),
                        max_iters=1000).values
    except (NotConverged, InfiniteValue) as err:
        return type(err)


@pytest.mark.parametrize("shape", SHAPES)
@settings(max_examples=40, deadline=None)
@given(small_csgs())
def test_values_do_not_depend_on_declaration_order(shape, case):
    csg, coalition = case
    other = permuted(csg)
    assert list(other.states) == list(reversed(csg.states))
    bounded = None not in shape[1]
    with pytest.MonkeyPatch.context() as patch:
        if not bounded:
            patch.setattr(nash, "_EXACT_STATE_LIMIT", 0)
        want = solved(csg, coalition, shape)
        got = solved(other, coalition, shape)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
    elif bounded:
        assert {s: [(type(v), v) for v in pair] for s, pair in got.items()} \
            == {s: [(type(v), v) for v in pair] for s, pair in want.items()}
    else:
        assert got.keys() == want.keys()
        assert all(abs(a - b) <= 1e-5 for s in want
                   for a, b in zip(got[s], want[s]))
