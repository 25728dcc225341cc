"""csgnash benchmark: time to a verified social-welfare-optimal Nash equilibrium.

    python3 perfbench/run.py --workload aloha|horizon|mixed --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
`src/`, models are read from `models/`).  Each repetition runs in a fresh,
single-threaded Python process (`rep.py`), one at a time, so the equilibrium
cache starts cold and peak memory is per repetition.

--trace 0: full repetitions until S seconds have passed (at least one), plus
    set-up-only repetitions (see SETUP_SAMPLES).
    Prints the end-to-end metrics, each the median over repetitions:
    total_s (set-up + solve + verify, summed over the workload's operations),
    setup_s (model construction + property parsing), solve_s (inside
    nash.evaluate) and peak_rss_mb.  Verification (synthesise_profile +
    verify_epsilon_ne) has no metric of its own: on `mixed` it takes a few
    milliseconds, whose run-to-run spread exceeds any usable bound; it counts
    in total_s and in the per-layer synthesis.*, model.induce_* and
    mdp.verify_* metrics.
--trace 1: one traced repetition.  Prints the per-layer metrics (see
    layers.py), including trace.overhead_s, the tracing overhead estimated as
    the number of spans times the cost of one span measured in the same
    process.

Every repetition's outputs go through the correctness gate (`check`); the
last line of standard output is one JSON object with `correct`, `attempted`
and `failed` (operations) and `metrics`.  `--record-references` instead
writes the outputs of every operation, at the bundled constants and at every
grid point a seed can draw, to references.json (about ten minutes).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCES = os.path.join(HERE, "references.json")
# Set-up is sampled again in set-up-only processes, at least SETUP_SAMPLES
# times in all and for at least SETUP_SECONDS, unless one set-up alone takes
# longer than that (aloha: ~6 s a build, which a run's time cannot absorb).
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0
CHILD_TIMEOUT_S = 170      # a run must end within 180 s

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import workloads  # noqa: E402

E2E_UNITS = {"total_s": "s", "setup_s": "s", "solve_s": "s",
             "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env.pop("CSG_THREADS", None)          # single-threaded, as a CLI user
    env["PYTHONHASHSEED"] = "0"           # set orders repeat run to run
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkout as it was
    return env


def repetition(workload, seed, mode, timeout=CHILD_TIMEOUT_S):
    """Run one repetition in a fresh process; returns its JSON or None."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload",
           workload, "--seed", str(seed), "--mode", mode]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), text=True,
                              capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"repetition ({mode}) killed after {timeout} s\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"repetition ({mode}) failed with exit code "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}\n")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


# --- correctness gate ----------------------------------------------------------

def _load_references():
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def _check_op(op, record, ref):
    """Problems with one operation's outputs (an empty list means correct)."""
    if "error" in record:
        return [record["error"]]
    problems = []
    if ref is not None and record["states"] != ref["states"]:
        problems.append(f"{record['states']} states, expected {ref['states']}")
    if op.not_converged is not None:
        nc = record.get("not_converged")
        if nc is None:
            return problems + ["expected NotConverged"]
        got = [tuple(Fraction(v) for v in pair) for pair in nc["s1"]]
        if got != list(op.not_converged):
            problems.append(f"s1 trace of sweeps 1-4 is {nc['s1']}")
        return problems
    if "values" not in record:
        return problems + ["no value pair"]
    if ref is not None and "values" in ref:
        if ref["exact"]:
            if not record["exact"] or [Fraction(v) for v in record["values"]] \
                    != [Fraction(v) for v in ref["values"]]:
                problems.append(f"values {record['values']} != exact "
                                f"reference {ref['values']}")
        elif any(abs(float(v) - float(r)) > workloads.FLOAT_TOLERANCE
                 for v, r in zip(record["values"], ref["values"])):
            problems.append(f"values {record['values']} differ from "
                            f"{ref['values']} by more than "
                            f"{workloads.FLOAT_TOLERANCE}")
    if op.verify:
        ver = record.get("verification")
        if ver is None or not ver["passed"] or \
                max(ver["gap1"], ver["gap2"]) > workloads.EPSILON:
            problems.append(f"verification failed: {ver}")
    return problems


def check(workload, seed, rep, references):
    """Gate one repetition; returns (attempted, failed) operation counts."""
    ops = workloads.operations(workload)
    if rep is None:
        return len(ops), len(ops)
    failed = 0
    for op, record in zip(ops, rep["ops"]):
        key = workloads.reference_key(op, workloads.overrides(op, seed))
        ref = references.get(workload, {}).get(op.name, {}).get(key)
        problems = _check_op(op, record, ref)
        if problems:
            failed += 1
            sys.stderr.write(f"{workload}/{op.name}: " + "; ".join(problems)
                             + "\n")
    return len(ops), failed


# --- runs ----------------------------------------------------------------------

def _phase_sums(rep):
    ops = rep["ops"]
    sums = {key: sum(r[key] for r in ops)
            for key in ("setup_s", "solve_s", "verify_s")}
    sums["total_s"] = sums["setup_s"] + sums["solve_s"] + sums["verify_s"]
    return sums


def run_untraced(workload, seed, seconds, references):
    start = time.perf_counter()
    reps = []
    while not reps or time.perf_counter() - start < seconds:
        reps.append(repetition(workload, seed, "full"))
    attempted = failed = 0
    for rep in reps:
        a, f = check(workload, seed, rep, references)
        attempted, failed = attempted + a, failed + f
    done = [rep for rep in reps if rep is not None]
    if not done:
        return attempted, failed, {}
    phases = [_phase_sums(rep) for rep in done]
    setups = [p["setup_s"] for p in phases]
    setup_start = time.perf_counter()
    while setups[0] < SETUP_SECONDS and (
            len(setups) < SETUP_SAMPLES
            or time.perf_counter() - setup_start < SETUP_SECONDS):
        only = repetition(workload, seed, "setup")
        if only is None:
            return attempted, failed, {}
        setups.append(only["setup_s"])
    metrics = {key: statistics.median(p[key] for p in phases)
               for key in ("total_s", "solve_s")}
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in done)
    return attempted, failed, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_traced(workload, seed, references):
    traced = repetition(workload, seed, "trace")
    attempted, failed = check(workload, seed, traced, references)
    if traced is None:
        return attempted, failed, {}
    return attempted, failed, {k: (v, _layer_unit(k))
                               for k, v in traced["layers"].items()}


def record_references():
    """Write the outputs of every workload, at every constant set a seed can
    give it, to references.json."""
    out = {}
    for workload in sorted(workloads.WORKLOADS):
        rep = repetition(workload, workloads.DEFAULT_SEED, "references",
                         timeout=None)
        if rep is None:
            sys.exit(1)
        for record in rep["ops"]:
            if "error" in record:
                sys.exit(f"{workload}/{record['op']}: {record['error']}")
            ref = {"states": record["states"]}
            if "values" in record:
                ref.update(exact=record["exact"], values=record["values"])
            out.setdefault(workload, {}).setdefault(
                record["op"], {})[record["key"]] = ref
    with open(REFERENCES, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="csgnash benchmark: time to a verified SWNE")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "csgnash", "__init__.py")) \
            or not os.path.isdir(os.path.join(ROOT, "models")):
        sys.stderr.write(f"no csgnash source tree (src/csgnash, models/) "
                         f"under {ROOT}\n")
        return 2
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    references = _load_references()
    if args.trace:
        attempted, failed, metrics = run_traced(args.workload, args.seed,
                                                references)
    else:
        attempted, failed, metrics = run_untraced(
            args.workload, args.seed, args.seconds, references)
    print(f"workload {args.workload}, seed {args.seed}: "
          f"{attempted - failed}/{attempted} operations correct")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
