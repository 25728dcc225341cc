"""Per-layer tracing of csgnash from outside the program.

`Tracer` replaces each traced public function in the module namespace where
its callers look it up (for example `nash.reach_prob`, not `mdp.reach_prob`)
by a wrapper that records a span, and puts the originals back on exit.
Spans are parent-linked through a stack: a span's self time is its duration
minus the durations of its direct child spans, so nested calls are never
counted twice.  Spans are aggregated as they end (self time and count per
owner) rather than kept one by one, because the hot spans run ~10^5 times.

A span's owner is its own name, except for `mdp.prob1_min_set`, which is
owned by whatever traced call invoked it: inside the MDP precompute it counts
as precompute, inside `check_assumption` as the assumption check.

Counters are read from the values the wrapped functions return (game shapes,
MEC lists, product and induced-MDP sizes) and from
`bimatrix._enumerate_cached.cache_info()`.

The tracing overhead, `trace.overhead_s`, is the number of spans times the
cost of one span (a traced minus a plain no-op call) measured in the same
process: the difference between a traced and an untraced repetition would
need a second repetition of the workload and is buried in the run-to-run
noise of a shared machine.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from csgnash import bimatrix, lang, mdp, model, nash, synthesis

# (module, attribute) pairs; the span name is "<module>.<attribute>".
TRACED = (
    (lang, "build_csg"),
    (nash, "coalition_game"),
    (nash, "joint_mdp"),
    (nash, "check_assumption"),
    (model, "enumerate_mecs"),
    (nash, "reach_prob"),
    (nash, "expected_reward"),
    (nash, "step_prob"),
    (mdp, "prob1_min_set"),
    (nash, "local_game"),
    (nash, "solve_swne"),
    (nash, "solve_bounded_pair"),
    (nash, "solve_unbounded_pair"),
    (nash, "mixed_horizon_transform"),
    (bimatrix, "eliminate_dominated"),
    (bimatrix, "enumerate_equilibria"),
    (synthesis, "synthesise_profile"),
    (synthesis, "verify_epsilon_ne"),
    (synthesis, "induce_mdp"),
    (synthesis, "reach_prob"),
    (synthesis, "expected_reward"),
)

INHERITS_OWNER = {"mdp.prob1_min_set"}

# Local-game shapes (rows x columns) that occur in the workloads; any other
# shape is counted as "other".
SHAPES = ("1x1", "1x2", "1x3", "1x4", "2x1", "2x2", "2x4", "3x1", "3x3")
CALIBRATION_CALLS = 200_000


def _module_name(module):
    return module.__name__.rpartition(".")[2]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.self_s = Counter()      # owner -> summed self time
        self.calls = Counter()       # span name -> number of spans
        self.counts = Counter()      # counter name -> value
        self._stack = []             # open spans: [owner, child seconds]
        self._saved = []

    def __enter__(self):
        for module, attr in TRACED:
            original = getattr(module, attr)
            name = f"{_module_name(module)}.{attr}"
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []
        return False

    def _wrap(self, name, fn):
        stack = self._stack
        inherits = name in INHERITS_OWNER
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            owner = stack[-1][0] if inherits and stack else name
            frame = [owner, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                self.self_s[owner] += elapsed - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.counts, result)
            return result
        return traced


def _local_game(counts, game):
    counts["nash.local_games"] += 1
    counts[f"bimatrix.games.{_shape(game)}"] += 1


def _eliminated(counts, result):
    reduced = result[0]
    if reduced.rows == 1 or reduced.cols == 1:
        counts["bimatrix.line_games"] += 1


def _shape(game):
    shape = f"{game.rows}x{game.cols}"
    return shape if shape in SHAPES else "other"


def _mecs(counts, mecs):
    counts["model.mecs"] += len(mecs)


def _transform(counts, result):
    counts["nash.product_states"] += len(result[0].states)


def _induced(counts, induced):
    counts["model.induced_states"] += len(induced.states)


_OBSERVERS = {
    "nash.local_game": _local_game,
    "bimatrix.eliminate_dominated": _eliminated,
    "model.enumerate_mecs": _mecs,
    "nash.mixed_horizon_transform": _transform,
    "synthesis.induce_mdp": _induced,
}


def span_cost():
    """Seconds one span adds to a call: a traced minus a plain no-op call,
    timed in this process."""
    def noop():
        return None
    traced = Tracer()._wrap("calibration", noop)
    elapsed = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            fn()
        elapsed.append(time.perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / CALIBRATION_CALLS


MDP_PRECOMPUTE = ("nash.reach_prob", "nash.expected_reward", "nash.step_prob")
MDP_VERIFY = ("synthesis.reach_prob", "synthesis.expected_reward")


def layer_metrics(tracer, records):
    """Per-layer metrics of one traced repetition.

    `records` are the operation records of the repetition (they carry the
    model sizes, sweeps and free states read from the returned values).
    """
    own, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    info = bimatrix._enumerate_cached.cache_info()
    lookups = info.hits + info.misses
    games = counts["nash.local_games"]
    out = {
        "lang.build_s": own["lang.build_csg"],
        "lang.states": sum(r["states"] for r in records),
        "lang.transitions": sum(r["transitions"] for r in records),
        "model.coalition_s": own["nash.coalition_game"] + own["nash.joint_mdp"],
        "model.assumption_s": (own["nash.check_assumption"]
                               + own["model.enumerate_mecs"]),
        "model.mecs": counts["model.mecs"],
        "model.induce_s": own["synthesis.induce_mdp"],
        "model.induced_states": counts["model.induced_states"],
        "mdp.precompute_s": sum(own[n] for n in MDP_PRECOMPUTE),
        "mdp.precompute_calls": sum(calls[n] for n in MDP_PRECOMPUTE),
        "mdp.verify_s": sum(own[n] for n in MDP_VERIFY),
        "mdp.verify_calls": sum(calls[n] for n in MDP_VERIFY),
        "nash.local_games": games,
        "nash.local_game_s": own["nash.local_game"],
        "nash.free_states": sum(r["free_states"] for r in records),
        "nash.sweeps": sum(r["sweeps"] for r in records),
        "nash.engine_s": (own["nash.solve_bounded_pair"]
                          + own["nash.solve_unbounded_pair"]),
        "nash.transform_s": own["nash.mixed_horizon_transform"],
        "nash.product_states": counts["nash.product_states"],
        "bimatrix.enumerate_s": own["bimatrix.enumerate_equilibria"],
        "bimatrix.cache_hits": info.hits,
        "bimatrix.cache_misses": info.misses,
        "bimatrix.cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "bimatrix.eliminate_s": own["bimatrix.eliminate_dominated"],
        "bimatrix.solve_swne_s": own["nash.solve_swne"],
        "bimatrix.line_games": counts["bimatrix.line_games"],
        "bimatrix.line_ratio": (counts["bimatrix.line_games"] / games
                                if games else 0.0),
        "synthesis.verify_s": own["synthesis.verify_epsilon_ne"],
        "synthesis.synthesise_s": own["synthesis.synthesise_profile"],
    }
    for shape in SHAPES + ("other",):
        out[f"bimatrix.games.{shape}"] = counts[f"bimatrix.games.{shape}"]
    spans = sum(calls.values())
    out["trace.spans"] = spans
    out["trace.overhead_s"] = spans * span_cost()
    return out
