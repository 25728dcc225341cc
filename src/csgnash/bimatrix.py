"""Exact equilibrium analysis of two-player normal-form (bimatrix) games.

Equilibria are characterised by the linear complementarity conditions

    x^T (1u - Z1 y) = 0,   y^T (1v - Z2^T x) = 0,
    1u - Z1 y >= 0,        1v - Z2^T x >= 0,

and enumerated geometrically: after shifting both payoff matrices to be
strictly positive, the completely labelled vertex pairs of the two
best-response polytopes

    P = {x' >= 0 | Z2'^T x' <= 1}   and   Q = {y' >= 0 | Z1' y' <= 1}

are exactly the Nash equilibria (after normalising x', y' to distributions).
Each polytope is scaled to integers over one denominator per player: with
D the lcm of the denominators of the shifted matrix Z', B = D Z' is an
integer matrix and {p >= 0 | B p <= D 1} is the same polytope.  A vertex
with one nonzero coordinate f is e_f, tight where column f of B is
largest; every other vertex is found for its set of tight inequalities by
Bareiss's fraction-free elimination, as integer numerators over a
determinant, so degenerate games yield the finitely many vertices of each
equilibrium component.  In a game with one row or one column every vertex
has one nonzero coordinate, so no elimination runs.

Vertex pairs stay integers up to selection: each equilibrium is kept as
its two numerator vectors with their sums and its exact payoffs u and v,
and `select_swne` picks the SWNE on those, reading strategies as Fractions
only to break a tie.  On the solve path (`solve_swne`) only the selected
profile is built in Fractions; `enumerate_equilibria` builds the full
sorted list on request.  Strategies, payoffs and the selection stay exact
rationals; only the polytope constraints are scaled, never the payoffs.

Each player's payoffs are numerators over one denominator: entry (i, j) of
player k is z_k[i][j] / den_k.  The local games of an exact solve are
integer games, each player's numerators and den over their least common
denominator (`BimatrixGame.from_numerators` divides by the gcd), so two
games with equal payoffs have equal numerators, and dominance elimination
compares integers.  `BimatrixGame.from_rows` builds a game over 1 from
Fractions or floats (the normal-form solver's and the tests' form).  Float
payoffs stay floats through dominance elimination and the equilibrium-cache
key: a float's order, equality and hash are exactly those of the dyadic
rational it denotes, so a float game and its Fraction image share one cache
entry, and a cache miss reads each float as that rational (its D is a
power of two).  Returned profiles are always Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isfinite, lcm
from operator import gt, methodcaller
from typing import NamedTuple

from .errors import DimensionMismatch, EmptyList, NonFinitePayoff, SolverError

__all__ = [
    "BimatrixGame",
    "MixedProfile",
    "eliminate_dominated",
    "enumerate_equilibria",
    "is_equilibrium",
    "select_swne",
    "solve_swne",
]


def _frac(value) -> Fraction:
    """Rationalise a payoff entry exactly (floats become dyadic rationals)."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def _payoff(value):
    """A payoff entry as stored: floats and Fractions as they are, any other
    number as a Fraction.  NaN and infinities have no rational image."""
    if isinstance(value, float):
        if not isfinite(value):
            raise NonFinitePayoff(f"payoff {value!r} is not a finite number")
        return value
    return value if isinstance(value, Fraction) else Fraction(value)


def _lowest(z, den):
    """The integer matrix `z` over `den` as row tuples, both divided by
    their gcd."""
    if den != 1:
        g = gcd(den, *(v for row in z for v in row))
        if g != 1:
            return tuple(tuple(v // g for v in row) for row in z), den // g
    return tuple(map(tuple, z)), den


@dataclass(frozen=True)
class BimatrixGame:
    """An l x m two-player game in matrix form (row player 1, column player 2).

    Player k's payoff at (i, j) is z_k[i][j] / den_k: integers over den_k
    (see `from_numerators`), or Fractions or floats over 1 (see the module
    docstring)."""

    z1: tuple[tuple[int | Fraction | float, ...], ...]
    z2: tuple[tuple[int | Fraction | float, ...], ...]
    den1: int = 1
    den2: int = 1

    @classmethod
    def from_rows(cls, z1, z2) -> "BimatrixGame":
        t1 = tuple(tuple(_payoff(v) for v in row) for row in z1)
        t2 = tuple(tuple(_payoff(v) for v in row) for row in z2)
        if not t1 or not t1[0]:
            raise DimensionMismatch("payoff matrices must be at least 1x1")
        if len(t1) != len(t2) or any(len(r1) != len(t1[0]) or len(r2) != len(t1[0])
                                     for r1, r2 in zip(t1, t2)):
            raise DimensionMismatch("Z1 and Z2 must have identical l x m shape")
        return cls(t1, t2)

    @classmethod
    def from_numerators(cls, z1, den1, z2, den2) -> "BimatrixGame":
        """The game z1/den1, z2/den2, each player's integer numerators and
        denominator divided by their gcd, so that equal games are equal
        objects.  Over 1 the entries may be floats and are kept as given."""
        z1, den1 = _lowest(z1, den1)
        z2, den2 = _lowest(z2, den2)
        return cls(z1, z2, den1, den2)

    @property
    def rows(self) -> int:
        return len(self.z1)

    @property
    def cols(self) -> int:
        return len(self.z1[0])


@dataclass(frozen=True)
class MixedProfile:
    """A mixed-strategy pair with its expected payoffs u = x^T Z1 y, v = x^T Z2 y."""

    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]
    u: Fraction
    v: Fraction

    @property
    def support_x(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.x) if p > 0)

    @property
    def support_y(self) -> tuple[int, ...]:
        return tuple(j for j, p in enumerate(self.y) if p > 0)

    def sort_key(self):
        return _order(self.x, self.y)


def _order(x, y):
    """The key `select_swne` breaks ties by: supports, then probabilities."""
    return (tuple(i for i, p in enumerate(x) if p),
            tuple(j for j, q in enumerate(y) if q), x, y)


class _Pair(NamedTuple):
    """An equilibrium as its integer vertex pair: x = xn/sx and y = yn/sy,
    with the payoffs u and v."""

    xn: tuple[int, ...]
    sx: int
    yn: tuple[int, ...]
    sy: int
    u: Fraction
    v: Fraction

    def profile(self) -> MixedProfile:
        return MixedProfile(tuple(Fraction(c, self.sx) for c in self.xn),
                            tuple(Fraction(c, self.sy) for c in self.yn),
                            self.u, self.v)

    def sort_key(self):
        return _order(_shares(self.xn, self.sx), _shares(self.yn, self.sy))


def _shares(nums, total):
    """The probabilities nums/total for a tie-break: a pure strategy's
    numerators are its probabilities already (ints and Fractions compare
    exactly), so only a mixed one is divided out."""
    return nums if total == 1 else tuple(Fraction(c, total) for c in nums)


# --- fraction-free vertex enumeration ----------------------------------------

def _integer_matrix(z, den):
    """A payoff matrix z/den over one common denominator.

    Entries are ints, Fractions or floats, read through `as_integer_ratio`.
    Returns (a, den', b, d): a = den'*Z is the integer image of the payoffs
    Z = z/den over den', `den` times the lcm of the entries' own
    denominators (a power of two for floats), and b = d*(Z + shift) with
    shift = 1 - min Z is the shifted matrix over d, the lcm of its own
    denominators, so every entry of b is at least d.
    """
    ratios = [[v.as_integer_ratio() for v in row] for row in z]
    q = lcm(*(q for row in ratios for _, q in row))
    a = [[n * (q // r) for n, r in row] for row in ratios]
    den *= q
    low = min(map(min, a))
    b = [[v - low + den for v in row] for row in a]
    g = gcd(den, *(v for row in b for v in row))
    return a, den, [[v // g for v in row] for row in b], den // g


def _fraction_free_solve(m):
    """Solve the square system given by its augmented integer rows [A | c].

    Bareiss's fraction-free Gauss-Jordan elimination: every intermediate
    entry is an integer minor of [A | c], so each division is exact.  Returns
    (det, numerators) with det > 0 and A . numerators = det * c, or None if A
    is singular.  The rows of `m` are overwritten.
    """
    s = len(m)
    prev = 1
    for k in range(s):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, s) if m[r][k]), None)
            if swap is None:
                return None
            m[k], m[swap] = m[swap], m[k]
        pivot_row = m[k]
        pivot = pivot_row[k]
        for i in range(s):
            if i != k:
                row = m[i]
                factor = row[k]
                for j in range(k + 1, s + 1):
                    row[j] = (pivot * row[j] - factor * pivot_row[j]) // prev
        prev = pivot
    nums = [row[s] for row in m]
    if prev < 0:
        return -prev, [-v for v in nums]
    return prev, nums


def _vertices(rows, d):
    """Nonzero vertices of {p >= 0 : r . p <= d for every r in rows}.

    `rows` are integer vectors with positive entries.  A vertex has s free
    coordinates F and s rows T tight at it with rows[T][F] nonsingular, for
    some s >= 1; on F it is N/det for the Cramer numerators N of
    rows[T][F] p = d*1, and 0 elsewhere.  With s = 1, coordinate f gives
    the point e_f (scaled by d over the column's maximum), tight at the rows
    where column f is largest; every larger (F, T) is solved.  Each vertex
    is kept once, keyed by its numerator vector divided by its gcd
    (distinct nonzero vertices never lie on one ray).  Returns a dict from
    that key to (bitmask of zero coordinates, bitmask of tight rows).
    """
    n, k = len(rows[0]), len(rows)
    found = {}
    for f in range(n):
        column = [r[f] for r in rows]
        top = max(column)
        key = [0] * n
        key[f] = 1
        found[tuple(key)] = (((1 << n) - 1) & ~(1 << f),
                             sum(1 << t for t, c in enumerate(column)
                                 if c == top))
    for size in range(2, min(n, k) + 1):
        for free in combinations(range(n), size):
            sub = [[r[f] for f in free] for r in rows]
            for tight in combinations(range(k), size):
                solved = _fraction_free_solve([sub[t] + [d] for t in tight])
                if solved is None:
                    continue
                det, nums = solved
                if min(nums) < 0:
                    continue
                bound = d * det
                tight_mask = 0
                for t, row in enumerate(sub):
                    lhs = sum(c * v for c, v in zip(row, nums))
                    if lhs > bound:
                        break
                    if lhs == bound:
                        tight_mask |= 1 << t
                else:
                    g = gcd(*nums)
                    point = [0] * n
                    for f, v in zip(free, nums):
                        point[f] = v // g
                    key = tuple(point)
                    if key not in found:
                        zero_mask = sum(1 << i for i, v in enumerate(key)
                                        if v == 0)
                        found[key] = (zero_mask, tight_mask)
    return found


def _bilinear(x, a, y):
    """x^T a y for integer vectors x, y and an integer matrix a."""
    return sum(xi * sum(c * yj for c, yj in zip(row, y))
               for xi, row in zip(x, a))


# --- public operations -------------------------------------------------------

def _undominated(lines, keep, over):
    """The members i of `keep` whose line, lines[i] read at the indices
    `over`, no other member's line beats strictly at every index."""
    if len(keep) < 2:
        return keep
    vectors = [[lines[i][j] for j in over] for i in keep]
    return [i for i, v in zip(keep, vectors)
            if not any(all(map(gt, w, v)) for w in vectors)]


def eliminate_dominated(game: BimatrixGame):
    """Iterated elimination of strictly dominated pure strategies.

    Only strict dominance by pure strategies is used, which preserves the
    equilibrium set exactly.  Each player's entries share one positive
    denominator, so numerators are compared.  Returns the reduced game,
    divided by its gcd where strategies were removed, plus maps from reduced
    row/column indices back to the original ones.
    """
    z1, z2 = game.z1, game.z2
    columns2 = tuple(zip(*z2))
    rows, cols = list(range(game.rows)), list(range(game.cols))
    while True:
        keep_rows = _undominated(z1, rows, cols)
        keep_cols = _undominated(columns2, cols, keep_rows)
        if len(keep_rows) == len(rows) and len(keep_cols) == len(cols):
            break
        rows, cols = keep_rows, keep_cols
    if len(rows) == game.rows and len(cols) == game.cols:
        return game, tuple(rows), tuple(cols)
    reduced = BimatrixGame.from_numerators(
        [[z1[i][j] for j in cols] for i in rows], game.den1,
        [[z2[i][j] for j in cols] for i in rows], game.den2)
    return reduced, tuple(rows), tuple(cols)


def enumerate_equilibria(game: BimatrixGame) -> list[MixedProfile]:
    """All Nash equilibria of the game (vertices of equilibrium components),
    sorted by `MixedProfile.sort_key`.

    Every returned profile satisfies `is_equilibrium` with tolerance 0; the
    list is never empty (finite games always admit an equilibrium).
    """
    pairs, _ = _enumerate_cached(game.z1, game.den1, game.z2, game.den2)
    return sorted((p.profile() for p in pairs), key=MixedProfile.sort_key)


@lru_cache(maxsize=65536)
def _enumerate_cached(z1, den1, z2, den2):
    """(pairs, swne) of the game z1/den1, z2/den2: its equilibria as
    `_Pair`s, and the one `select_swne` picks among them, the only one
    built as a MixedProfile."""
    pairs = _vertex_pairs(z1, den1, z2, den2)
    if not pairs:
        raise SolverError(
            "internal error: no equilibrium found (finite games always have one)")
    return tuple(pairs), select_swne(pairs).profile()


def _vertex_pairs(z1, den1, z2, den2):
    """The completely labelled vertex pairs of the game's best-response
    polytopes, on integers up to their payoffs."""
    l = len(z1)
    a1, den1, b1, d1 = _integer_matrix(z1, den1)
    a2, den2, b2, d2 = _integer_matrix(z2, den2)
    # P = {x >= 0 : B2^T x <= d2}: labels are i (x_i = 0) and l+j (column j
    # tight); Q = {y >= 0 : B1 y <= d1}: labels are i (row i tight) and l+j
    # (y_j = 0).
    x_verts = [(nums, zero | tight << l)
               for nums, (zero, tight) in _vertices(list(zip(*b2)), d2).items()]
    y_verts = [(nums, sum(nums), tight | zero << l)
               for nums, (zero, tight) in _vertices(b1, d1).items()]
    full = (1 << (l + len(z1[0]))) - 1
    # payoffs from the unshifted integer image: u = x^T Z1 y with
    # x = xn/sx, y = yn/sy and Z1 = a1/den1
    pairs = []
    for xn, x_labels in x_verts:
        missing = full & ~x_labels
        sx = sum(xn)
        for yn, sy, y_labels in y_verts:
            if missing & ~y_labels:
                continue
            pairs.append(_Pair(
                xn, sx, yn, sy,
                Fraction(_bilinear(xn, a1, yn), den1 * sx * sy),
                Fraction(_bilinear(xn, a2, yn), den2 * sx * sy)))
    return pairs


def is_equilibrium(game: BimatrixGame, x, y, u, v, tolerance=0) -> bool:
    """Check the four LCP conditions within `tolerance` (0 for rational data)."""
    if len(x) != game.rows or len(y) != game.cols:
        raise DimensionMismatch(
            f"profile shape {len(x)}x{len(y)} does not match game "
            f"{game.rows}x{game.cols}")
    x = [_frac(p) for p in x]
    y = [_frac(p) for p in y]
    u, v, tol = _frac(u), _frac(v), _frac(tolerance)
    z1 = [[_frac(w) / game.den1 for w in row] for row in game.z1]
    z2 = [[_frac(w) / game.den2 for w in row] for row in game.z2]
    z1y = [sum(z1[i][j] * y[j] for j in range(game.cols))
           for i in range(game.rows)]
    z2tx = [sum(z2[i][j] * x[i] for i in range(game.rows))
            for j in range(game.cols)]
    slack1 = [u - w for w in z1y]
    slack2 = [v - w for w in z2tx]
    if any(s < -tol for s in slack1) or any(s < -tol for s in slack2):
        return False
    comp1 = sum(p * s for p, s in zip(x, slack1))
    comp2 = sum(q * s for q, s in zip(y, slack2))
    return abs(comp1) <= tol and abs(comp2) <= tol


def select_swne(equilibria):
    """Pick a social-welfare-optimal equilibrium from a nonempty list.

    Among maximum-sum equilibria, an equal-payoff one is preferred if any
    exists; otherwise the one maximal for player 1. Remaining ties go to the
    lexicographically smallest (x, y) by support indices then probabilities,
    so selection is deterministic.

    The candidates are MixedProfiles or anything else with payoffs `u` and
    `v` and a `sort_key()`, such as the integer vertex pairs of an
    enumeration; a sort key is read only where the payoffs tie.
    """
    pool = list(equilibria)
    if not pool:
        raise EmptyList("cannot select from an empty equilibrium list")
    sums = [p.u + p.v for p in pool]
    best_sum = max(sums)
    pool = [p for p, total in zip(pool, sums) if total == best_sum]
    pool = [p for p in pool if p.u == p.v] or pool
    best_u = max(p.u for p in pool)
    pool = [p for p in pool if p.u == best_u]
    return pool[0] if len(pool) == 1 else min(pool, key=methodcaller("sort_key"))


_ZERO = Fraction(0)


def _lift(profile: MixedProfile, row_map, col_map, rows, cols) -> MixedProfile:
    x = [_ZERO] * rows
    y = [_ZERO] * cols
    for i, p in zip(row_map, profile.x):
        x[i] = p
    for j, q in zip(col_map, profile.y):
        y[j] = q
    return MixedProfile(tuple(x), tuple(y), profile.u, profile.v)


def solve_swne(game: BimatrixGame) -> MixedProfile:
    """The SWNE of the game that `select_swne` picks among its equilibria.

    Strictly dominated strategies are eliminated first, and the profile
    selected in the reduced game is lifted back to the index space of the
    original game (lifting keeps the order `select_swne` breaks ties by).
    """
    reduced, row_map, col_map = eliminate_dominated(game)
    _, chosen = _enumerate_cached(reduced.z1, reduced.den1,
                                  reduced.z2, reduced.den2)
    if len(row_map) != game.rows or len(col_map) != game.cols:
        chosen = _lift(chosen, row_map, col_map, game.rows, game.cols)
    return chosen
