"""One repetition of a workload, in a fresh process.

Run by `run.py`, one process per repetition, so the equilibrium cache starts
cold and the peak resident memory is this repetition's own:

    python3 perfbench/rep.py --workload NAME --seed N --mode MODE

`full` runs every operation of the workload and prints, as one JSON line,
its phase times and outputs; `setup` only loads the models and parses the
properties; `trace` is `full` under the per-layer tracer; `references` runs
every operation at every constant set a seed can give it (run.py
--record-references keeps the outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from csgnash import explicit, lang, nash, properties, synthesis  # noqa: E402
from csgnash.errors import NotConverged  # noqa: E402

import workloads  # noqa: E402


def _load(op, consts):
    path = os.path.join(ROOT, "models", op.model)
    if op.model.endswith(".csgx"):
        return explicit.load_explicit(path)
    return lang.load_model(path, consts)


def _pair(pair):
    exact = all(not isinstance(v, float) for v in pair)
    return {"exact": exact, "values": [str(v) if exact else repr(float(v))
                                       for v in pair]}


def _free_states(result):
    if result.kind == "bounded":
        return len({s for stage in result.profiles[1:]
                    for s, p in stage.items() if p[0] == "mix"})
    return len(result.profiles)


def _setup(op, consts):
    start = time.perf_counter()
    csg = _load(op, consts)
    formula = properties.parse_property(op.prop)
    return csg, formula, time.perf_counter() - start


def run_op(op, consts):
    """Run one operation; returns its record (times, outputs, counts)."""
    csg, formula, setup_s = _setup(op, consts)
    record = {"op": op.name, "setup_s": setup_s, "solve_s": 0.0,
              "verify_s": 0.0}
    start = time.perf_counter()
    try:
        ev = nash.evaluate(csg, formula)
    except NotConverged as err:
        record["solve_s"] = time.perf_counter() - start
        record["not_converged"] = {
            "diagnostic": str(err),
            "s1": [[str(v) for v in err.result.trace[n]["s1"]]
                   for n in (1, 2, 3, 4)]}
        result = err.result
    else:
        mid = time.perf_counter()
        record["solve_s"] = mid - start
        if op.verify:
            profile = synthesis.synthesise_profile(ev.game, formula, ev.solve)
            report = synthesis.verify_epsilon_ne(ev.game, profile, formula,
                                                 workloads.EPSILON)
            record["verify_s"] = time.perf_counter() - mid
            record["verification"] = {"gap1": report.gap1,
                                      "gap2": report.gap2,
                                      "passed": report.passed}
        record.update(_pair(next(iter(ev.initial.values()))))
        result = ev.solve
    record["sweeps"] = result.iterations
    record["free_states"] = _free_states(result)
    record["states"] = len(csg.states)
    record["transitions"] = sum(len(d) for s in csg.states
                                for d in csg.trans[s].values())
    return record


def guarded_op(op, consts):
    """`run_op`, with any unexpected exception recorded as the op's error."""
    try:
        return run_op(op, consts)
    except Exception as err:  # a failed operation; the others still run
        traceback.print_exc()
        return {"op": op.name, "error": repr(err), "setup_s": 0.0,
                "solve_s": 0.0, "verify_s": 0.0, "sweeps": 0,
                "free_states": 0, "states": 0, "transitions": 0}


def run(workload, seed, mode):
    ops = workloads.operations(workload)
    if mode == "references":
        return {"ops": [dict(guarded_op(op, consts),
                             key=workloads.reference_key(op, consts))
                        for op in ops
                        for consts in workloads.reference_points(op)]}
    points = [workloads.overrides(op, seed) for op in ops]
    if mode == "setup":
        return {"setup_s": sum(_setup(op, consts)[2]
                               for op, consts in zip(ops, points))}
    if mode == "trace":
        import layers
        with layers.Tracer() as tracer:
            records = [guarded_op(op, consts)
                       for op, consts in zip(ops, points)]
        out = {"ops": records,
               "layers": layers.layer_metrics(tracer, records)}
    else:
        out = {"ops": [guarded_op(op, consts)
                       for op, consts in zip(ops, points)]}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--mode",
                        choices=("full", "setup", "trace", "references"),
                        default="full")
    args = parser.parse_args(argv)
    print(json.dumps(run(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
