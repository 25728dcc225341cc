import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgnash.bimatrix import (
    BimatrixGame,
    MixedProfile,
    _enumerate_cached,
    _lift,
    eliminate_dominated,
    enumerate_equilibria,
    is_equilibrium,
    select_swne,
    solve_swne,
)
from csgnash.errors import (DimensionMismatch, EmptyList, NonFinitePayoff,
                            SolverError)

from oracles import (equilibria_by_vertex_subsets,
                     nash_equilibria_by_support)
from small_games import every_game, mismatch

F = Fraction

STAG_Z1 = [[2, 2, 2], [0, 4, 6]]
STAG_Z2 = [[4, 2, 0], [4, 6, 9]]


def as_tuples(profiles):
    return sorted((p.x, p.y, p.u, p.v) for p in profiles)


class TestKnownGames:
    def test_stag_hunt_equilibria(self):
        # [DERIVED] by hand and confirmed by the support-enumeration oracle:
        # two pure equilibria and one mixed one.
        game = BimatrixGame.from_rows(STAG_Z1, STAG_Z2)
        eqs = as_tuples(enumerate_equilibria(game))
        assert eqs == [
            ((F(0), F(1)), (F(0), F(0), F(1)), F(6), F(9)),
            ((F(5, 9), F(4, 9)), (F(2, 3), F(0), F(1, 3)), F(2), F(4)),
            ((F(1), F(0)), (F(1), F(0), F(0)), F(2), F(4)),
        ]

    def test_stag_hunt_swne(self):
        game = BimatrixGame.from_rows(STAG_Z1, STAG_Z2)
        best = solve_swne(game)
        assert (best.u, best.v) == (F(6), F(9))
        assert best.x == (F(0), F(1)) and best.y == (F(0), F(0), F(1))

    def test_matching_pennies(self):
        # [DERIVED] unique fully mixed equilibrium at (1/2, 1/2) each.
        game = BimatrixGame.from_rows([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        eqs = enumerate_equilibria(game)
        assert len(eqs) == 1
        (p,) = eqs
        assert p.x == (F(1, 2), F(1, 2)) and p.y == (F(1, 2), F(1, 2))
        assert p.u == 0 and p.v == 0

    def test_degenerate_constant_game(self):
        # Every profile is an equilibrium; the solver must return the
        # finitely many vertices (all pure/vertex combinations) and still
        # select deterministically.
        game = BimatrixGame.from_rows([[1, 1], [1, 1]], [[1, 1], [1, 1]])
        eqs = enumerate_equilibria(game)
        assert all(is_equilibrium(game, p.x, p.y, p.u, p.v) for p in eqs)
        best = select_swne(eqs)
        assert (best.u, best.v) == (F(1), F(1))
        assert best.x == (F(1), F(0)) and best.y == (F(1), F(0))

    def test_prisoners_dilemma_dominance(self):
        game = BimatrixGame.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])
        reduced, row_map, col_map = eliminate_dominated(game)
        assert row_map == (1,) and col_map == (1,)
        best = solve_swne(game)
        assert len(enumerate_equilibria(game)) == 1
        assert best.x == (F(0), F(1)) and best.y == (F(0), F(1))
        assert (best.u, best.v) == (F(1), F(1))

    def test_single_cell_game(self):
        game = BimatrixGame.from_rows([[F(7, 3)]], [[-2]])
        best = solve_swne(game)
        assert len(enumerate_equilibria(game)) == 1
        assert best.x == (F(1),) and best.y == (F(1),)
        assert (best.u, best.v) == (F(7, 3), F(-2))


class TestSwneSelection:
    def make(self, x, y, u, v):
        return MixedProfile(tuple(map(F, x)), tuple(map(F, y)), F(u), F(v))

    def test_max_sum_wins(self):
        a = self.make([1, 0], [1, 0], 3, 3)
        b = self.make([0, 1], [0, 1], 5, 2)
        assert select_swne([a, b]) is b

    def test_equal_payoff_preferred_among_max_sum(self):
        a = self.make([1, 0], [1, 0], 5, 2)  # sum 7
        b = self.make([0, 1], [0, 1], F(7, 2), F(7, 2))  # sum 7, equal
        assert select_swne([a, b]) is b

    def test_player_one_breaks_unequal_ties(self):
        a = self.make([1, 0], [1, 0], 5, 2)
        b = self.make([0, 1], [0, 1], 4, 3)
        assert select_swne([a, b]) is a

    def test_lexicographic_last_resort(self):
        a = self.make([0, 1], [1, 0], 4, 4)
        b = self.make([1, 0], [1, 0], 4, 4)
        assert select_swne([a, b]) is b  # support (0,) < support (1,)

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyList):
            select_swne([])


class TestValidation:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BimatrixGame.from_rows([[1, 2]], [[1], [2]])

    def test_empty_matrix(self):
        with pytest.raises(DimensionMismatch):
            BimatrixGame.from_rows([], [])

    def test_lcp_check_shape(self):
        game = BimatrixGame.from_rows([[1]], [[1]])
        with pytest.raises(DimensionMismatch):
            is_equilibrium(game, (1, 0), (1,), 1, 1)

    def test_lcp_rejects_non_equilibrium(self):
        game = BimatrixGame.from_rows([[3, 0], [5, 1]], [[3, 5], [0, 1]])
        assert not is_equilibrium(game, (1, 0), (1, 0), 3, 3)

    def test_lcp_tolerance(self):
        game = BimatrixGame.from_rows([[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        x = (0.5 + 1e-7, 0.5 - 1e-7)
        assert not is_equilibrium(game, x, (0.5, 0.5), 0, 0, tolerance=1e-8)
        assert is_equilibrium(game, x, (0.5, 0.5), 0, 0, tolerance=1e-6)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_payoffs_are_rejected(self, bad):
        # NaN and infinities have no rational image to enumerate on
        with pytest.raises(NonFinitePayoff) as err:
            BimatrixGame.from_rows([[1.0, bad]], [[0.0, 1.0]])
        assert isinstance(err.value, SolverError)
        with pytest.raises(NonFinitePayoff):
            BimatrixGame.from_rows([[1.0, 0.0]], [[bad, 1.0]])


def random_game(rng, max_dim=4, lo=-5, hi=5):
    l = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)
    z1 = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(l)]
    z2 = [[rng.randint(lo, hi) for _ in range(m)] for _ in range(l)]
    return z1, z2


def random_rational_game(rng, max_dim=4):
    """A game whose entries have unequal denominators, so each player's
    common denominator is a true lcm."""
    l = rng.randint(1, max_dim)
    m = rng.randint(1, max_dim)

    def entry():
        return F(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 5, 7)))

    z1 = [[entry() for _ in range(m)] for _ in range(l)]
    z2 = [[entry() for _ in range(m)] for _ in range(l)]
    return z1, z2


class TestAgainstOracle:
    def test_random_games_match_support_oracle(self):
        # 200 random integer games and 100 rational ones up to 4x4: the
        # polytope-vertex solver and the independent support-pair oracle
        # must produce identical equilibrium sets, and every equilibrium
        # must pass the exact LCP check (tolerance 0).
        rng = random.Random(20240817)
        drawn = [random_game(rng) for _ in range(200)]
        drawn += [random_rational_game(rng) for _ in range(100)]
        for z1, z2 in drawn:
            game = BimatrixGame.from_rows(z1, z2)
            ours = as_tuples(enumerate_equilibria(game))
            theirs = nash_equilibria_by_support(z1, z2)
            assert ours == theirs, (z1, z2)
            for x, y, u, v in ours:
                assert is_equilibrium(game, x, y, u, v, tolerance=0)

    def test_dominance_preserves_equilibria(self):
        # the reduced game's equilibria, lifted back, are the full game's,
        # in the same order, so the selection is the full game's too
        rng = random.Random(99)
        for _ in range(60):
            z1, z2 = random_game(rng, max_dim=3)
            game = BimatrixGame.from_rows(z1, z2)
            reduced, row_map, col_map = eliminate_dominated(game)
            with_filter = [_lift(p, row_map, col_map, game.rows, game.cols)
                           for p in enumerate_equilibria(reduced)]
            without = enumerate_equilibria(game)
            assert with_filter == without, (z1, z2)
            assert solve_swne(game) == select_swne(without), (z1, z2)


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def games(draw, max_dim=3, entries=small_entries):
    l = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    z1 = [[draw(entries) for _ in range(m)] for _ in range(l)]
    z2 = [[draw(entries) for _ in range(m)] for _ in range(l)]
    return z1, z2


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(games())
    def test_equilibria_satisfy_lcp(self, zz):
        game = BimatrixGame.from_rows(*zz)
        for p in enumerate_equilibria(game):
            assert is_equilibrium(game, p.x, p.y, p.u, p.v, tolerance=0)
            assert sum(p.x) == 1 and sum(p.y) == 1
            assert all(c >= 0 for c in p.x + p.y)

    @settings(max_examples=40, deadline=None)
    @given(games(max_dim=2), st.integers(-3, 3))
    def test_constant_sum_invariant(self, zz, c):
        # In a game where z1 + z2 == c everywhere, all equilibria have u+v==c.
        z1, _ = zz
        z2 = [[c - v for v in row] for row in z1]
        game = BimatrixGame.from_rows(z1, z2)
        for p in enumerate_equilibria(game):
            assert p.u + p.v == c

    @settings(max_examples=40, deadline=None)
    @given(games(max_dim=2), st.integers(-3, 3))
    def test_payoff_shift_invariance(self, zz, c):
        # Adding a constant to both matrices shifts values, not strategies.
        z1, z2 = zz
        base = as_tuples(enumerate_equilibria(BimatrixGame.from_rows(z1, z2)))
        s1 = [[v + c for v in row] for row in z1]
        s2 = [[v + c for v in row] for row in z2]
        shifted = as_tuples(enumerate_equilibria(BimatrixGame.from_rows(s1, s2)))
        assert [(x, y, u - c, v - c) for x, y, u, v in shifted] == base


float_entries = st.one_of(
    st.sampled_from([-1.5, -0.25, 0.0, 0.1, 1 / 3, 0.75, 2.0]),
    st.floats(min_value=-4, max_value=4, allow_nan=False))


class TestFloatPayoffs:
    @settings(max_examples=60, deadline=None)
    @given(games(entries=float_entries))
    def test_float_game_solves_as_its_fraction_image(self, zz):
        # float payoffs stay floats up to the cache, which the exact image
        # of the same game then hits
        z1, z2 = zz
        floats = BimatrixGame.from_rows(z1, z2)
        image = BimatrixGame.from_rows(
            [[F(v) for v in row] for row in z1],
            [[F(v) for v in row] for row in z2])
        assert all(isinstance(v, float)
                   for row in floats.z1 + floats.z2 for v in row)
        chosen = solve_swne(floats)
        before = _enumerate_cached.cache_info()
        assert solve_swne(image) == chosen
        after = _enumerate_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        equilibria = enumerate_equilibria(floats)
        assert enumerate_equilibria(image) == equilibria
        assert all(isinstance(c, Fraction) for p in equilibria + [chosen]
                   for c in p.x + p.y + (p.u, p.v))


@st.composite
def oracle_games(draw, entries):
    """Games up to 4x4, at times with a repeated row or column, or constant."""
    z1, z2 = draw(games(max_dim=4, entries=entries))
    shape = draw(st.sampled_from(("plain", "row", "column", "constant")))
    if shape == "row":
        z1[-1], z2[-1] = list(z1[0]), list(z2[0])
    elif shape == "column":
        for r1, r2 in zip(z1, z2):
            r1[-1], r2[-1] = r1[0], r2[0]
    elif shape == "constant":
        z1 = [[z1[0][0]] * len(row) for row in z1]
        z2 = [[z2[0][0]] * len(row) for row in z2]
    return z1, z2


class TestAgainstVertexSubsetOracle:
    # The earlier Fraction enumerator, kept in the oracles: the integer
    # polytopes must give the same list, in the same order, with the same
    # selection.
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        oracle_games(st.integers(-2, 2)),
        oracle_games(st.fractions(-4, 4, max_denominator=2 ** 40)),
        oracle_games(st.one_of(
            st.sampled_from([1 / 3, 1e-9, 0.5 + 1e-12, -0.75, 2.0]),
            st.floats(min_value=-4, max_value=4, allow_nan=False)))))
    def test_enumeration_equals_the_oracle(self, zz):
        game = BimatrixGame.from_rows(*zz)
        profiles, best = equilibria_by_vertex_subsets(game.z1, game.z2)
        assert enumerate_equilibria(game) == list(profiles)
        assert solve_swne(game) == profiles[best]


@st.composite
def three_by_three(draw, entries):
    return tuple([[draw(entries) for _ in range(3)] for _ in range(3)]
                 for _ in range(2))


# 2x2 games, most of whose vertices have one coordinate, and lines 1xn and
# nx1 with n <= 3, all of whose vertices have one coordinate
SMALL_SHAPES = ((2, 2), (1, 1), (1, 2), (1, 3), (2, 1), (3, 1))


class TestSmallGames:
    # Exhaustive over small payoff sets, where ties and degenerate games
    # are the rule: the SWNE selected on integer vertex pairs is the one
    # selected from the full list.  tests/small_games.py runs the oracle
    # over every 2x2 game with payoffs in {0, 1, 2}.
    def test_every_small_game_selects_from_its_equilibria(self):
        for rows, cols in SMALL_SHAPES:
            for z1, z2 in every_game(rows, cols, (0, 1, 2)):
                game = BimatrixGame.from_rows(z1, z2)
                assert solve_swne(game) == \
                    select_swne(enumerate_equilibria(game)), (z1, z2)

    def test_every_small_game_matches_the_oracle(self):
        for rows, cols in SMALL_SHAPES:
            for z1, z2 in every_game(rows, cols, (0, 1)):
                assert mismatch(z1, z2) is None, (z1, z2)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        three_by_three(st.one_of(
            st.sampled_from([F(0), F(1, 2), F(1), F(-2, 3)]),
            st.fractions(-3, 3, max_denominator=12))),
        three_by_three(float_entries)))
    def test_three_by_three_games_match_the_oracle(self, zz):
        assert mismatch(*zz) is None, zz


@st.composite
def dominated_games(draw, entries, gaps):
    """A game with up to two strictly dominated rows and columns inserted
    at random positions, so the selected profile must be lifted back."""
    z1, z2 = draw(games(entries=entries))
    for _ in range(draw(st.integers(0, 2))):
        base, at = draw(st.integers(0, len(z1) - 1)), \
            draw(st.integers(0, len(z1)))
        z1.insert(at, [v - draw(gaps) for v in z1[base]])
        z2.insert(at, [draw(entries) for _ in z2[0]])
    for _ in range(draw(st.integers(0, 2))):
        base, at = draw(st.integers(0, len(z1[0]) - 1)), \
            draw(st.integers(0, len(z1[0])))
        for r1, r2 in zip(z1, z2):
            r2.insert(at, r2[base] - draw(gaps))
            r1.insert(at, draw(entries))
    return z1, z2


class TestSelectedProfile:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        dominated_games(small_entries, st.integers(1, 3)),
        dominated_games(st.integers(0, 1), st.just(1)),      # degenerate
        dominated_games(float_entries, st.sampled_from([0.5, 1.25, 3.0]))))
    def test_solve_swne_selects_from_its_equilibria(self, zz):
        game = BimatrixGame.from_rows(*zz)
        chosen = solve_swne(game)
        assert chosen == select_swne(enumerate_equilibria(game))
        before = _enumerate_cached.cache_info()
        assert solve_swne(game) == chosen
        after = _enumerate_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def over(z, den):
    return tuple(map(tuple, z)), den


@st.composite
def integer_games(draw):
    """A game of integer numerators over denominators 2..12, with dominated
    rows and columns inserted."""
    z1, z2 = draw(dominated_games(small_entries, st.integers(1, 3)))
    return BimatrixGame(tuple(map(tuple, z1)), tuple(map(tuple, z2)),
                        draw(st.integers(2, 12)), draw(st.integers(2, 12)))


def fraction_image(game):
    return BimatrixGame.from_rows(
        [[F(v, game.den1) for v in row] for row in game.z1],
        [[F(v, game.den2) for v in row] for row in game.z2])


class TestDenominators:
    @settings(max_examples=100, deadline=None)
    @given(integer_games())
    def test_den_game_agrees_with_its_fraction_image(self, game):
        image = fraction_image(game)
        reduced, row_map, col_map = eliminate_dominated(game)
        image_reduced, image_rows, image_cols = eliminate_dominated(image)
        assert (row_map, col_map) == (image_rows, image_cols)
        assert fraction_image(reduced) == image_reduced
        pure = [(tuple(F(int(i == k)) for k in range(game.rows)),
                 tuple(F(int(j == k)) for k in range(game.cols)),
                 image.z1[i][j], image.z2[i][j])
                for i in range(game.rows) for j in range(game.cols)]
        mixed = [(p.x, p.y, p.u, p.v) for p in enumerate_equilibria(image)]
        for x, y, u, v in pure + mixed:
            assert is_equilibrium(game, x, y, u, v) == \
                is_equilibrium(image, x, y, u, v)
        assert all(is_equilibrium(game, *profile) for profile in mixed)

    def test_reduced_games_share_their_lowest_terms(self):
        # both reduce, after their third row goes, to the same 2x2 game
        # over 2; the full games have denominators 6 and 10
        first = BimatrixGame.from_numerators(
            [[3, 0], [0, 3], [-2, -2]], 6, [[0, 3], [3, 0], [2, 2]], 6)
        second = BimatrixGame.from_numerators(
            [[5, 0], [0, 5], [-2, -2]], 10, [[0, 5], [5, 0], [2, 4]], 10)
        assert (first.den1, second.den1) == (6, 10)
        reduced, rows, _ = eliminate_dominated(first)
        assert rows == (0, 1)
        assert (reduced.z1, reduced.den1) == over([[1, 0], [0, 1]], 2)
        assert eliminate_dominated(second)[0] == reduced
        chosen = solve_swne(first)
        before = _enumerate_cached.cache_info()
        assert solve_swne(second) == chosen
        after = _enumerate_cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_from_numerators_divides_by_the_gcd(self):
        game = BimatrixGame.from_numerators([[4, 6]], 8, [[3, 0]], 9)
        assert (game.z1, game.den1) == over([[2, 3]], 4)
        assert (game.z2, game.den2) == over([[1, 0]], 3)
