"""Local games of the equilibrium engines against the Fraction builder."""

from fractions import Fraction as F
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from csgnash.bimatrix import solve_swne
from csgnash.model import Csg, RewardStructure, coalition_game
from csgnash.nash import local_game, local_game_table
from oracles import local_game_by_fractions

REWARDS = st.sampled_from([F(0), F(1), F(2, 5), F(3, 7), F(5, 4), F(7, 6)])


@st.composite
def distributions(draw, states):
    """A distribution over distinct states whose probabilities share a
    denominator of at most 6."""
    den = draw(st.integers(1, 6))
    succ = draw(st.lists(st.sampled_from(states), min_size=1,
                         max_size=min(den, len(states)), unique=True))
    cuts = sorted(draw(st.lists(st.integers(1, den - 1), unique=True,
                                min_size=len(succ) - 1,
                                max_size=len(succ) - 1))) if den > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return {t: F(n, den) for t, n in zip(succ, parts)}


@st.composite
def two_player_games(draw):
    """A two-player game of up to 6 states and 3 actions per player, with
    optional state and action rewards "r1" and "r2"."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 6)))]
    acts = {p: [f"{p}{i}" for i in range(draw(st.integers(1, 3)))]
            for p in ("a", "b")}
    trans = {s: {(a, b): draw(distributions(states))
                 for a in acts["a"] for b in acts["b"]} for s in states}
    rewards = {}
    for name in ("r1", "r2"):
        if draw(st.booleans()):
            rewards[name] = RewardStructure(
                draw(st.dictionaries(
                    st.tuples(st.sampled_from(states),
                              st.tuples(st.sampled_from(acts["a"]),
                                        st.sampled_from(acts["b"]))),
                    REWARDS)),
                draw(st.dictionaries(st.sampled_from(states), REWARDS)))
    return Csg.create(("p1", "p2"), {"p1": acts["a"], "p2": acts["b"]},
                      states, states[:1], trans, rewards=rewards)


exact_values = st.fractions(0, 8, max_denominator=2 ** 40)
float_values = st.floats(min_value=0, max_value=8, allow_nan=False)


class TestAgainstFractionBuilder:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_local_game_equals_the_fraction_game(self, data):
        csg = data.draw(two_player_games())
        exact = data.draw(st.booleans())
        cg = coalition_game(csg, ("p1",), F if exact else float)
        values = exact_values if exact else float_values
        rewards = tuple(data.draw(st.sampled_from((None, name)))
                        if name in cg.rewards else None
                        for name in ("r1", "r2"))
        continuation = {s: (data.draw(values), data.draw(values))
                        for s in cg.states}
        state = data.draw(st.sampled_from(cg.states))
        game = local_game(local_game_table(cg, [state], rewards), state,
                          continuation)
        oracle = local_game_by_fractions(cg, state, continuation, rewards)
        for z, den, expected in ((game.z1, game.den1, oracle.z1),
                                 (game.z2, game.den2, oracle.z2)):
            assert [[F(v) / den for v in row] for row in z] == \
                [[F(v) for v in row] for row in expected]
            if exact:
                assert gcd(den, *(v for row in z for v in row)) == 1
            else:
                assert den == 1
        assert solve_swne(game) == solve_swne(oracle)
