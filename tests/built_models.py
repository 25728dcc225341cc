"""Every bundled `.csg` model against the builder it replaced, over a grid.

    PYTHONPATH=src python tests/built_models.py

Builds each bundled language model with `lang.build_csg` and with
`oracles.explore_csg`, which evaluates everything at every state, and
compares the states in discovery order, every row (joint actions, successor
ids, probabilities, their types, and which choices share one probability
tuple), the labels, and each reward structure's entries in order.  The grid
is robot `l=2..8`, mac `emax=1..12`, aloha `D=0..20`, and each probability
constant the benchmark draws (`perfbench/workloads.py`'s GRID) at the
constants of the benchmark operation that draws it.  Prints each mismatch
and exits 1 if there is one.  The 86 builds take about twenty seconds;
the tier-1 tests check digests of some of them (pytest does not collect
this file).
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

from csgnash.lang import build_csg, parse_model, read_text

from oracles import explore_csg

MODELS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "models")

GRID = (
    [("robot.csg", {"l": l}) for l in range(2, 9)]
    + [("mac.csg", {"emax": emax}) for emax in range(1, 13)]
    + [("aloha.csg", {"D": d}) for d in range(0, 21)]
    + [("aloha.csg", {"q": q})
       for q in ("0.89", "0.895", "0.9", "0.905", "0.91")]
    + [("robot.csg", {"l": l, "q": q}) for l in (5, 6)
       for q in ("0.08", "0.09", "0.1", "0.11", "0.12")]
    + [("mac.csg", {"emax": 10, "q1": q1, "q2": q2})
       for q1 in ("0.85", "0.875", "0.9", "0.925", "0.95")
       for q2 in ("0.7", "0.725", "0.75", "0.775", "0.8")]
    + [("power.csg", {"qfail": q})
       for q in ("0.15", "0.175", "0.2", "0.225", "0.25")]
    + [("fig1.csg", {})]
)


def sharing(rows):
    """For each choice in row order, the index of the first choice whose
    probability tuple is the same object."""
    first = {}
    return [first.setdefault(id(probs), c) for c, (_, _, probs)
            in enumerate(choice for row in rows for choice in row)]


def mismatch(game, explored):
    """The first part in which `game` differs from the explored parts, or
    None."""
    states, rows, labels, rewards = explored
    graph = game.graph
    if graph.states != states:
        return "states or their order"
    if graph.rows != rows:
        return "rows"
    if any(type(p) is not Fraction for row in graph.rows
           for _, _, probs in row for p in probs):
        return "probability types"
    if sharing(graph.rows) != sharing(rows):
        return "shared probability tuples"
    if game.labels != labels:
        return "labels"
    if sorted(game.rewards) != sorted(rewards):
        return "reward structure names"
    for name, rs in rewards.items():
        built = game.rewards[name]
        for part in ("action_rewards", "state_rewards"):
            got, want = getattr(built, part), getattr(rs, part)
            if list(got.items()) != list(want.items()) or \
                    any(type(v) is not Fraction for v in got.values()):
                return f"reward {name!r} {part}"
    return None


def main():
    failures = 0
    asts = {}
    for model, consts in GRID:
        if model not in asts:
            asts[model] = parse_model(read_text(os.path.join(MODELS, model)))
        problem = mismatch(build_csg(asts[model], consts),
                           explore_csg(asts[model], consts))
        if problem is not None:
            failures += 1
            print(f"{model} {consts}: {problem}")
    print(f"{len(GRID)} builds: {failures} mismatches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
