"""Exact equilibrium analysis of two-player normal-form (bimatrix) games.

Equilibria are characterised by the linear complementarity conditions

    x^T (1u - Z1 y) = 0,   y^T (1v - Z2^T x) = 0,
    1u - Z1 y >= 0,        1v - Z2^T x >= 0,

and enumerated geometrically: after shifting both payoff matrices to be
strictly positive, the completely labelled vertex pairs of the two
best-response polytopes

    P = {x' >= 0 | Z2'^T x' <= 1}   and   Q = {y' >= 0 | Z1' y' <= 1}

are exactly the Nash equilibria (after normalising x', y' to distributions).
Vertices are found by support enumeration over the defining inequalities,
with exact rational arithmetic throughout, so degenerate games yield the
finitely many vertices of each equilibrium component.

Payoffs are Fractions or floats.  Float payoffs stay floats through
dominance elimination and the equilibrium-cache key: a float's order,
equality and hash are exactly those of the dyadic rational it denotes, so a
float game and its Fraction image share one cache entry.  Only a cache miss
converts the payoffs to Fractions, for the exact vertex enumeration, and
returned profiles are always Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .errors import DimensionMismatch, EmptyList, SolverError

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
    number as a Fraction."""
    return value if isinstance(value, (float, Fraction)) else Fraction(value)


@dataclass(frozen=True)
class BimatrixGame:
    """An l x m two-player game in matrix form (row player 1, column player 2).

    Payoffs are Fractions or floats (see the module docstring)."""

    z1: tuple[tuple[Fraction | float, ...], ...]
    z2: tuple[tuple[Fraction | float, ...], ...]

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
        return (self.support_x, self.support_y, self.x, self.y)


# --- exact linear algebra ----------------------------------------------------

def _solve_square(matrix, rhs):
    """Solve a square rational system; return None if the matrix is singular."""
    n = len(matrix)
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _polytope_vertices(constraints, dim):
    """Vertices of {p >= 0 with explicit constraints row . p <= rhs}.

    `constraints` lists every inequality (including the nonnegativity ones),
    each as (coefficient tuple, rhs). A vertex is any feasible point where
    some `dim` of the inequalities are tight and independent.
    """
    verts = set()
    n = len(constraints)
    for combo in combinations(range(n), dim):
        a = [constraints[i][0] for i in combo]
        b = [constraints[i][1] for i in combo]
        point = _solve_square(a, b)
        if point is None:
            continue
        if all(sum(c * p for c, p in zip(row, point)) <= rhs
               for row, rhs in constraints):
            verts.add(tuple(point))
    return verts


# --- public operations -------------------------------------------------------

def eliminate_dominated(game: BimatrixGame):
    """Iterated elimination of strictly dominated pure strategies.

    Only strict dominance by pure strategies is used, which preserves the
    equilibrium set exactly. Returns the reduced game plus maps from reduced
    row/column indices back to the original ones.
    """
    rows = list(range(game.rows))
    cols = list(range(game.cols))
    changed = True
    while changed:
        changed = False
        keep = [i for i in rows
                if not any(p != i and all(game.z1[p][j] > game.z1[i][j] for j in cols)
                           for p in rows)]
        if len(keep) < len(rows):
            rows, changed = keep, True
        keep = [j for j in cols
                if not any(q != j and all(game.z2[i][q] > game.z2[i][j] for i in rows)
                           for q in cols)]
        if len(keep) < len(cols):
            cols, changed = keep, True
    reduced = BimatrixGame(
        tuple(tuple(game.z1[i][j] for j in cols) for i in rows),
        tuple(tuple(game.z2[i][j] for j in cols) for i in rows),
    )
    return reduced, tuple(rows), tuple(cols)


def enumerate_equilibria(game: BimatrixGame, *, with_swne=False):
    """All Nash equilibria of the game (vertices of equilibrium components).

    Every returned profile satisfies `is_equilibrium` with tolerance 0; the
    list is never empty (finite games always admit an equilibrium).  With
    `with_swne`, returns (equilibria, i) where equilibria[i] is the profile
    `select_swne` picks, selected once per distinct game.
    """
    profiles, best = _enumerate_cached(game.z1, game.z2)
    if not profiles:
        raise SolverError(
            "internal error: no equilibrium found (finite games always have one)")
    return (list(profiles), best) if with_swne else list(profiles)


@lru_cache(maxsize=65536)
def _enumerate_cached(z1, z2):
    z1 = tuple(tuple(_frac(v) for v in row) for row in z1)
    z2 = tuple(tuple(_frac(v) for v in row) for row in z2)
    l, m = len(z1), len(z1[0])
    shift1 = 1 - min(min(row) for row in z1)
    shift2 = 1 - min(min(row) for row in z2)
    one = Fraction(1)
    zero = Fraction(0)

    # P = {x >= 0, Z2'^T x <= 1}: labels are i (x_i = 0) and l+j (column j tight).
    p_cons = [(tuple(-one if k == i else zero for k in range(l)), zero)
              for i in range(l)]
    p_cons += [(tuple(z2[i][j] + shift2 for i in range(l)), one)
               for j in range(m)]
    # Q = {y >= 0, Z1' y <= 1}: labels are i (row i tight) and l+j (y_j = 0).
    q_cons = [(tuple(z1[i][j] + shift1 for j in range(m)), one)
              for i in range(l)]
    q_cons += [(tuple(-one if k == j else zero for k in range(m)), zero)
               for j in range(m)]

    full = frozenset(range(l + m))

    x_verts = []
    for xv in _polytope_vertices(p_cons, l):
        if all(c == 0 for c in xv):
            continue
        labels = {i for i in range(l) if xv[i] == 0}
        labels |= {l + j for j in range(m)
                   if sum((z2[i][j] + shift2) * xv[i] for i in range(l)) == 1}
        x_verts.append((xv, frozenset(labels)))

    y_verts = []
    for yv in _polytope_vertices(q_cons, m):
        if all(c == 0 for c in yv):
            continue
        labels = {l + j for j in range(m) if yv[j] == 0}
        labels |= {i for i in range(l)
                   if sum((z1[i][j] + shift1) * yv[j] for j in range(m)) == 1}
        y_verts.append((yv, frozenset(labels)))

    seen = set()
    profiles = []
    for xv, xl in x_verts:
        missing = full - xl
        for yv, yl in y_verts:
            if not (missing <= yl):
                continue
            xs, ys = sum(xv), sum(yv)
            x = tuple(c / xs for c in xv)
            y = tuple(c / ys for c in yv)
            if (x, y) in seen:
                continue
            seen.add((x, y))
            u = sum(x[i] * z1[i][j] * y[j] for i in range(l) for j in range(m))
            v = sum(x[i] * z2[i][j] * y[j] for i in range(l) for j in range(m))
            profiles.append(MixedProfile(x, y, Fraction(u), Fraction(v)))
    profiles.sort(key=MixedProfile.sort_key)
    best = profiles.index(select_swne(profiles)) if profiles else None
    return tuple(profiles), best


def is_equilibrium(game: BimatrixGame, x, y, u, v, tolerance=0) -> bool:
    """Check the four LCP conditions within `tolerance` (0 for rational data)."""
    if len(x) != game.rows or len(y) != game.cols:
        raise DimensionMismatch(
            f"profile shape {len(x)}x{len(y)} does not match game "
            f"{game.rows}x{game.cols}")
    x = [_frac(p) for p in x]
    y = [_frac(p) for p in y]
    u, v, tol = _frac(u), _frac(v), _frac(tolerance)
    z1 = [[_frac(w) for w in row] for row in game.z1]
    z2 = [[_frac(w) for w in row] for row in game.z2]
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


def select_swne(equilibria) -> MixedProfile:
    """Pick a social-welfare-optimal equilibrium from a nonempty list.

    Among maximum-sum equilibria, an equal-payoff one is preferred if any
    exists; otherwise the one maximal for player 1. Remaining ties go to the
    lexicographically smallest (x, y) by support indices then probabilities,
    so selection is deterministic.
    """
    equilibria = list(equilibria)
    if not equilibria:
        raise EmptyList("cannot select from an empty equilibrium list")
    best_sum = max(p.u + p.v for p in equilibria)
    pool = [p for p in equilibria if p.u + p.v == best_sum]
    equal = [p for p in pool if p.u == p.v]
    if equal:
        pool = equal
    else:
        best_u = max(p.u for p in pool)
        pool = [p for p in pool if p.u == best_u]
    return min(pool, key=MixedProfile.sort_key)


_ZERO = Fraction(0)


def _lift(profile: MixedProfile, row_map, col_map, rows, cols) -> MixedProfile:
    x = [_ZERO] * rows
    y = [_ZERO] * cols
    for i, p in zip(row_map, profile.x):
        x[i] = p
    for j, q in zip(col_map, profile.y):
        y[j] = q
    return MixedProfile(tuple(x), tuple(y), profile.u, profile.v)


def solve_swne(game: BimatrixGame):
    """Convenience pipeline: dominance filter, enumerate, lift, select.

    Returns (selected SWNE profile, all equilibria), both in the index space
    of the original game.
    """
    reduced, row_map, col_map = eliminate_dominated(game)
    equilibria, best = enumerate_equilibria(reduced, with_swne=True)
    if len(row_map) != game.rows or len(col_map) != game.cols:
        # lifting keeps the order select_swne breaks ties by
        equilibria = [_lift(p, row_map, col_map, game.rows, game.cols)
                      for p in equilibria]
    return equilibria[best], equilibria
