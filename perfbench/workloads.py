"""Workload definitions of the csgnash benchmark.

A workload is a fixed list of operations.  Each operation is one user-level
query: load a model file, parse a two-coalition property, evaluate it and,
where asked, synthesise and ε-verify the witness profile.  The `why` of each
workload is the one-line rationale printed into BENCHMARK.json.

Seed 0 reproduces the bundled model constants.  Any other seed draws each
model's probability constants from `GRID`, a fixed grid strictly inside
(0, 1) around the bundled value; every grid point keeps all branch
probabilities non-zero, so the reachable state space (and so `lang.states`)
is the same on every seed.  The grid is narrow so that the work, and with it
the run time, hardly depends on the seed; references.json holds the outputs
for the bundled constants and for every grid combination.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_SEED = 0
EPSILON = 1e-4                 # ε of verify_epsilon_ne and the gate on both gaps
FLOAT_TOLERANCE = 1e-6         # gate on float-mode values against the reference


@dataclass(frozen=True)
class Op:
    """One operation: model file → property → evaluate (→ synthesise+verify)."""

    name: str
    model: str                 # file under models/
    prop: str
    consts: dict = field(default_factory=dict)   # fixed overrides
    drawn: tuple = ()          # constants drawn from GRID on seeds other than 0
    verify: bool = False
    not_converged: tuple = None  # expected s1 values of sweeps 1-4, if any


# Bundled values are the middle of each grid; neighbours keep the cost close.
GRID = {
    ("aloha.csg", "q"): ("0.89", "0.895", "0.9", "0.905", "0.91"),
    ("robot.csg", "q"): ("0.08", "0.09", "0.1", "0.11", "0.12"),
    ("mac.csg", "q1"): ("0.85", "0.875", "0.9", "0.925", "0.95"),
    ("mac.csg", "q2"): ("0.7", "0.725", "0.75", "0.775", "0.8"),
    ("power.csg", "qfail"): ("0.15", "0.175", "0.2", "0.225", "0.25"),
}

F = Fraction
APPENDIX_B_S1 = ((F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)),
                 (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4)))
APPENDIX_C_S1 = ((F(1, 3), F(1)), (F(2), F(1, 3)),
                 (F(1, 3), F(1)), (F(2), F(1, 3)))

WORKLOADS = {
    "aloha": (
        "scale case: float value iteration on 7,794 states, dominated by "
        "unbounded MDP precompute and model build, most local games 1-line",
        (
            Op("aloha", "aloha.csg",
               "<<p1:{p2,p3}>>max=? "
               "(P[F (sent1 & t<=8)] + P[F (sent2 & sent3 & t<=8)])",
               drawn=("q",), verify=True),
        ),
    ),
    "horizon": (
        "exact backward induction on rationals: many equilibrium-cache "
        "misses, bounded MDP steps only, no assumption check",
        (
            Op("robot6_bounded", "robot.csg",
               "<<p1:p2>>max=? (P[F<=15 goal1] + P[F<=15 goal2])",
               consts={"l": "6"}, drawn=("q",), verify=True),
            Op("mac_cumulative", "mac.csg",
               '<<p1:p2>>max=? (R{"r1"}[C<=20] + R{"r2"}[C<=20])',
               consts={"emax": "10"}, drawn=("q1", "q2")),
        ),
    ),
    "mixed": (
        "mixed-horizon product, MEC check on a product game, reward VI, "
        "prob1_min_set and the period-2 non-convergence path",
        (
            Op("robot5_mixed", "robot.csg",
               "<<p1:p2>>max=? (P[F<=8 goal1] + P[F goal2])",
               consts={"l": "5"}, drawn=("q",)),
            Op("power_reward", "power.csg",
               '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])',
               drawn=("qfail",), verify=True),
            Op("appendix_b", "appendix_b.csgx",
               "<<p1:p2>>max=? (P[F a1] + P[F a2])",
               not_converged=APPENDIX_B_S1),
            Op("appendix_c", "appendix_c.csgx",
               '<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])',
               not_converged=APPENDIX_C_S1),
        ),
    ),
}


def why(workload):
    return WORKLOADS[workload][0]


def operations(workload):
    return WORKLOADS[workload][1]


def overrides(op: Op, seed: int) -> dict:
    """Constant overrides of `op` for `seed` (bundled values on seed 0)."""
    consts = dict(op.consts)
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{seed}:{op.name}")
        for name in op.drawn:
            consts[name] = rng.choice(GRID[(op.model, name)])
    return consts


def reference_key(op: Op, consts: dict) -> str:
    """Key of the reference outputs for `op` run with `consts`."""
    return ",".join(f"{name}={consts[name]}" for name in op.drawn
                    if name in consts) or "bundled"


def reference_points(op: Op):
    """Every constant set a seed can give `op`: the bundled values and each
    combination of grid points."""
    points = [dict(op.consts)]
    if op.drawn:
        grids = [GRID[(op.model, name)] for name in op.drawn]
        for values in itertools.product(*grids):
            points.append({**op.consts, **dict(zip(op.drawn, values))})
    return points
