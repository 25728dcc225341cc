"""Every small bimatrix game against the vertex-subset oracle.

    PYTHONPATH=src python tests/small_games.py

Solves every 2x2 game whose entries, for both players, come from {0, 1, 2},
and compares the package with `oracles.equilibria_by_vertex_subsets`: the equilibrium list of
`enumerate_equilibria` (content and order), and the profile `solve_swne`
selects, against the oracle's own selection rule.  Prints each mismatch and
exits 1 if there is one.  The 6,561 games take about ten seconds; the
tier-1 tests run the {0, 1} subset (pytest does not collect this file).
"""

from __future__ import annotations

import sys
from itertools import product

from csgnash.bimatrix import BimatrixGame, enumerate_equilibria, solve_swne

from oracles import equilibria_by_vertex_subsets


def every_game(rows, cols, payoffs):
    """Every rows x cols game (z1, z2) with entries from `payoffs`."""
    cells = rows * cols
    for entries in product(payoffs, repeat=2 * cells):
        z1, z2 = ([entries[k + r * cols:k + (r + 1) * cols]
                   for r in range(rows)] for k in (0, cells))
        yield z1, z2


def mismatch(z1, z2):
    """What the package gets wrong on the game (z1, z2) against the oracle,
    or None."""
    game = BimatrixGame.from_rows(z1, z2)
    profiles, best = equilibria_by_vertex_subsets(game.z1, game.z2)
    if enumerate_equilibria(game) != list(profiles):
        return "equilibrium list or order"
    if solve_swne(game) != profiles[best]:
        return f"selected profile (the oracle selects index {best})"
    return None


def main():
    payoffs = (0, 1, 2)
    games = failures = 0
    for z1, z2 in every_game(2, 2, payoffs):
        games += 1
        problem = mismatch(z1, z2)
        if problem is not None:
            failures += 1
            print(f"z1={z1} z2={z2}: {problem}")
    print(f"{games} 2x2 games with payoffs {payoffs}: {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
