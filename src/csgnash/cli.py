"""Command-line front end.

Subcommands:

  run        build a model, evaluate properties, optionally synthesise and
             verify strategy profiles, or sweep a model or property constant
             over a range
  solve-nfg  solve a two-player normal-form game given by its two utility
             matrices, printing all equilibria and the selected
             welfare-optimal one

Exit codes: 0 success, 1 property violated (or profile verification failed)
in threshold/verify mode, 2 usage or model error, 3 value iteration did not
converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction

from .bimatrix import BimatrixGame, enumerate_equilibria, select_swne
from .errors import (AssumptionViolated, CsgError, NotConverged,
                     UndefinedConstant)
from .explicit import load_explicit
from .lang import load_model, parse_model
from .nash import DEFAULT_CONV_EPSILON, DEFAULT_MAX_ITERS, evaluate
from .properties import NashNode, parse_property
from .synthesis import synthesise_profile, verify_epsilon_ne

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


# --- shared parsing helpers --------------------------------------------------------

def _parse_value(text):
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        # exact rational so model probabilities stay exactly representable
        return Fraction(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"constant value {text!r} is not an int, double, or bool")


def _parse_const(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}")
    name, _, value = text.partition("=")
    return name.strip(), _parse_value(value.strip())


def _parse_sweep(text):
    try:
        name, _, span = text.partition("=")
        step = None
        if ":" in span:
            span, _, step_text = span.partition(":")
            step = Fraction(step_text)
        lo_text, sep, hi_text = span.partition("..")
        if not sep:
            raise ValueError
        lo, hi = Fraction(lo_text), Fraction(hi_text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected NAME=LO..HI[:STEP], got {text!r}")
    if step is None:
        step = Fraction(1)
    if step <= 0 or hi < lo:
        raise argparse.ArgumentTypeError(
            f"empty or descending sweep range {text!r}")
    values = []
    value = lo
    while value <= hi:
        values.append(int(value) if value.denominator == 1 else value)
        value += step
    return name.strip(), values


def _read_properties(args):
    texts = []
    for text in args.property or []:
        texts.append(text)
    if args.property_file:
        with open(args.property_file, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("//", 1)[0].strip()
                if line:
                    texts.append(line)
    return texts


def _num(value):
    if isinstance(value, bool):
        return value
    return float(value)


def _exact(value):
    if isinstance(value, Fraction):
        return str(value)
    return None


# --- run subcommand ----------------------------------------------------------------

def _load(path, overrides):
    """Load a model, dispatching on the file format.

    `.csgx` files are explicit state listings (no constants); anything else
    is parsed as the guarded-command language.
    """
    if path.endswith(".csgx"):
        if overrides:
            raise CsgError("explicit-format models have no constants to "
                           "override")
        return load_explicit(path)
    return load_model(path, overrides)


def _model_stats(game):
    choices = sum(len(game.trans[s]) for s in game.states)
    transitions = sum(len(d) for s in game.states
                      for d in game.trans[s].values())
    return {"states": len(game.states), "choices": choices,
            "transitions": transitions}


def _evaluate_property(csg, text, args):
    """Evaluate one property; returns (record, exit code)."""
    formula = parse_property(text, csg)
    record = {"property": text.strip()}
    status = EXIT_OK

    start = time.perf_counter()
    try:
        result = evaluate(csg, formula, conv_epsilon=args.conv_epsilon,
                          max_iters=args.max_iters,
                          strict_assumptions=args.strict_assumptions)
    except AssumptionViolated as err:
        record["error"] = str(err)
        return record, EXIT_USAGE
    except NotConverged as err:
        record["converged"] = False
        record["diagnostic"] = str(err)
        if isinstance(formula, NashNode):
            record["assumption"] = {"severity": err.assumption.severity,
                                    "messages": err.assumption.messages()}
        record["time"] = time.perf_counter() - start
        record["mdp_time"] = err.result.aux["mdp_s"]
        return record, EXIT_NOT_CONVERGED
    total = time.perf_counter() - start
    record["kind"] = result.kind
    record["time"] = total
    if result.solve is not None:
        record["mdp_time"] = result.solve.aux["mdp_s"]
    elif result.kind.startswith("zero-sum"):
        record["mdp_time"] = total      # a grand-coalition MDP problem
    else:
        record["mdp_time"] = 0.0

    if result.kind == "nash-query":
        pair = next(iter(result.initial.values()))
        record["values"] = [_num(pair[0]), _num(pair[1])]
        exact = [_exact(pair[0]), _exact(pair[1])]
        if all(exact):
            record["exact"] = exact
        record["sum"] = _num(pair[0] + pair[1])
        record["iterations"] = result.solve.iterations
        record["converged"] = result.solve.converged
    elif result.kind == "zero-sum-query":
        value = next(iter(result.initial.values()))
        record["value"] = _num(value)
    else:
        satisfied = all(result.initial.values())
        record["satisfied"] = satisfied
        if result.kind == "nash-threshold":
            record["iterations"] = result.solve.iterations
        if not satisfied:
            status = EXIT_VIOLATED
    if result.assumption is not None:
        record["assumption"] = {"severity": result.assumption.severity,
                                "messages": result.assumption.messages()}

    if (args.export_strategy or args.verify) and result.solve is not None:
        # the export names the user's query; a mixed pair is verified on the
        # product's rewritten one
        profile = synthesise_profile(result.game, formula, result.solve)
        if args.export_strategy:
            profile.export_json(args.export_strategy)
            record["strategy_file"] = args.export_strategy
        if args.verify:
            report = verify_epsilon_ne(result.game, profile, result.query,
                                       args.epsilon)
            record["verification"] = {
                "epsilon": report.epsilon,
                "gap1": report.gap1, "gap2": report.gap2,
                "passed": report.passed,
            }
            subgame = {"subgame_gap1": report.subgame_gap1,
                       "subgame_gap2": report.subgame_gap2}
            # None for bounded pairs, and where a deviation is unbounded
            record["verification"].update(
                {key: gap for key, gap in subgame.items() if gap is not None})
            if not report.passed and status == EXIT_OK:
                status = EXIT_VIOLATED
    return record, status


def _emit_human(stats, records, out):
    print(f"model: states={stats['states']} choices={stats['choices']} "
          f"transitions={stats['transitions']} "
          f"constr={stats['constr_time']:.3f}s", file=out)
    for rec in records:
        print(f"property: {rec['property']}", file=out)
        if "error" in rec:
            print(f"  error: {rec['error']}", file=out)
            continue
        if rec.get("converged") is False and "diagnostic" in rec:
            print(f"  not converged: {rec['diagnostic']}", file=out)
        elif "values" in rec:
            v1, v2 = rec["values"]
            exact = rec.get("exact")
            shown = exact if exact else [f"{v1:.10g}", f"{v2:.10g}"]
            print(f"  v1={shown[0]} v2={shown[1]} sum={rec['sum']:.10g} "
                  f"iterations={rec.get('iterations', '-')}", file=out)
        elif "value" in rec:
            print(f"  value={rec['value']:.10g}", file=out)
        elif "satisfied" in rec:
            print(f"  satisfied={str(rec['satisfied']).lower()}", file=out)
        assumption = rec.get("assumption")
        if assumption and assumption["severity"] != "ok":
            for message in assumption["messages"]:
                print(f"  assumption warning: {message}", file=out)
        if "verification" in rec:
            ver = rec["verification"]
            subgame = "".join(f"{key}={ver[key]:.3g} "
                              for key in ("subgame_gap1", "subgame_gap2")
                              if key in ver)
            print(f"  verification: gap1={ver['gap1']:.3g} "
                  f"gap2={ver['gap2']:.3g} {subgame}"
                  f"passed={str(ver['passed']).lower()}", file=out)
        if "strategy_file" in rec:
            print(f"  strategy written to {rec['strategy_file']}", file=out)
        mdp_time = rec.get("mdp_time", 0.0)
        game_time = max(rec.get("time", 0.0) - mdp_time, 0.0)
        print(f"  timing: constr={stats['constr_time']:.3f}s "
              f"mdp={mdp_time:.3f}s csg={game_time:.3f}s", file=out)


def _emit_csv(records, out):
    writer = csv.writer(out)
    writer.writerow(["property", "v1", "v2", "sum", "iterations", "time"])
    for rec in records:
        values = rec.get("values", ["", ""])
        writer.writerow([rec["property"], values[0], values[1],
                         rec.get("sum", ""), rec.get("iterations", ""),
                         f"{rec.get('time', 0.0):.6f}"])


def _declared_constants(path):
    """Names of the constants a model file declares (none in `.csgx`)."""
    if path.endswith(".csgx"):
        return set()
    with open(path, encoding="utf-8") as handle:
        return {c.name for c in parse_model(handle.read()).constants}


def _sweep_points(args, name, values, prop):
    """(value, model, property) per sweep value.  A model constant is set
    on the model, rebuilt per value; any other name is bound as a constant
    of the property on a model built once."""
    consts = dict(args.const or [])
    if name in _declared_constants(args.model):
        for value in values:
            csg = _load(args.model, {**consts, name: value})
            yield value, csg, parse_property(prop, csg)
        return
    csg = _load(args.model, consts)
    try:
        parse_property(prop, csg)
    except UndefinedConstant:
        pass
    else:
        raise CsgError(f"sweep name {name!r} is neither a constant of the "
                       f"model nor used by the property")
    for value in values:
        yield value, csg, parse_property(prop, csg, {name: value})


def _run_sweep(args, out):
    name, values = args.sweep
    if args.verify or args.export_strategy:
        print("error: sweep mode does not synthesise strategies (drop "
              "--verify and --export-strategy)", file=sys.stderr)
        return EXIT_USAGE
    texts = _read_properties(args)
    if len(texts) != 1:
        print("error: sweep mode needs exactly one property", file=sys.stderr)
        return EXIT_USAGE
    writer = csv.writer(out)
    points = _sweep_points(args, name, values, texts[0])
    for i, (value, csg, formula) in enumerate(points):
        start = time.perf_counter()
        try:
            result = evaluate(csg, formula, conv_epsilon=args.conv_epsilon,
                              max_iters=args.max_iters)
        except NotConverged as err:
            err.args = (f"{name}={value}: {err}",)
            raise
        elapsed = time.perf_counter() - start
        if result.kind != "nash-query":
            raise CsgError("sweep requires a numerical equilibrium query")
        v1, v2 = next(iter(result.initial.values()))
        if i == 0:
            writer.writerow(["parameter", "v1", "v2", "sum", "iterations",
                             "time"])
        writer.writerow([f"{float(value):.10g}", f"{_num(v1):.10g}",
                         f"{_num(v2):.10g}", f"{_num(v1 + v2):.10g}",
                         result.solve.iterations, f"{elapsed:.6f}"])
        out.flush()
    return EXIT_OK


def cmd_run(args, out=None):
    out = out or sys.stdout
    if args.sweep:
        return _run_sweep(args, out)
    texts = _read_properties(args)
    if not texts:
        print("error: no property given (use --property or --property-file)",
              file=sys.stderr)
        return EXIT_USAGE
    start = time.perf_counter()
    csg = _load(args.model, dict(args.const or []))
    constr_time = time.perf_counter() - start
    stats = _model_stats(csg)
    stats["constr_time"] = constr_time

    status = EXIT_OK
    records = []
    for text in texts:
        record, code = _evaluate_property(csg, text, args)
        records.append(record)
        status = max(status, code)

    if args.format == "json":
        payload = {"model": args.model, "stats": stats, "results": records}
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif args.format == "csv":
        _emit_csv(records, out)
    else:
        _emit_human(stats, records, out)
    return status


# --- solve-nfg subcommand ----------------------------------------------------------

def _parse_matrix(text):
    rows = []
    for row_text in text.strip().split(";"):
        row = [Fraction(entry) for entry in row_text.replace(",", " ").split()]
        if row:
            rows.append(row)
    return rows


def _load_nfg(args):
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            data = json.load(handle)
        z1 = [[Fraction(str(e)) for e in row] for row in data["z1"]]
        z2 = [[Fraction(str(e)) for e in row] for row in data["z2"]]
        return BimatrixGame.from_rows(z1, z2)
    if not args.z1 or not args.z2:
        raise CsgError("give either --file or both --z1 and --z2")
    return BimatrixGame.from_rows(_parse_matrix(args.z1),
                                  _parse_matrix(args.z2))


def _vec(values):
    return "(" + ", ".join(str(v) for v in values) + ")"


def cmd_solve_nfg(args, out=None):
    out = out or sys.stdout
    game = _load_nfg(args)
    equilibria = enumerate_equilibria(game)
    chosen = select_swne(equilibria)
    if args.format == "json":
        payload = {
            "rows": game.rows, "cols": game.cols,
            "equilibria": [
                {"x": [str(p) for p in eq.x], "y": [str(p) for p in eq.y],
                 "u": str(eq.u), "v": str(eq.v)} for eq in equilibria],
            "swne": {"x": [str(p) for p in chosen.x],
                     "y": [str(p) for p in chosen.y],
                     "u": str(chosen.u), "v": str(chosen.v),
                     "sum": str(chosen.u + chosen.v)},
        }
        json.dump(payload, out, indent=2)
        out.write("\n")
    else:
        print(f"equilibria: {len(equilibria)}", file=out)
        for i, eq in enumerate(equilibria, start=1):
            print(f"  {i}: x={_vec(eq.x)} y={_vec(eq.y)} "
                  f"u={eq.u} v={eq.v}", file=out)
        print(f"swne: x={_vec(chosen.x)} y={_vec(chosen.y)} "
              f"u={chosen.u} v={chosen.v} sum={chosen.u + chosen.v}",
              file=out)
    return EXIT_OK


# --- argument wiring ---------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="csgnash",
        description="Equilibrium model checker for concurrent stochastic "
                    "games")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evaluate properties on a model")
    run.add_argument("--model", required=True, help="model file path")
    run.add_argument("--const", action="append", type=_parse_const,
                     metavar="NAME=VAL", help="constant override (repeatable)")
    run.add_argument("--property", action="append", metavar="TEXT",
                     help="property formula (repeatable)")
    run.add_argument("--property-file", metavar="PATH",
                     help="file with one property per line (// comments)")
    run.add_argument("--epsilon", type=float, default=1e-4,
                     help="equilibrium tolerance for --verify")
    run.add_argument("--conv-epsilon", type=float,
                     default=DEFAULT_CONV_EPSILON,
                     help="value-iteration convergence threshold")
    run.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    run.add_argument("--strict-assumptions", action="store_true",
                     help="treat assumption violations as errors")
    run.add_argument("--export-strategy", metavar="PATH",
                     help="write the synthesised profile as JSON")
    run.add_argument("--verify", action="store_true",
                     help="check the synthesised profile is an ε-equilibrium")
    run.add_argument("--format", choices=("human", "json", "csv"),
                     default="human")
    run.add_argument("--sweep", type=_parse_sweep, metavar="NAME=LO..HI[:STEP]",
                     help="evaluate the property for each value of a model "
                          "or property constant; emits CSV")
    run.set_defaults(func=cmd_run)

    nfg = sub.add_parser("solve-nfg",
                         help="solve a two-player normal-form game")
    nfg.add_argument("--file", metavar="PATH",
                     help="JSON file with z1/z2 matrices")
    nfg.add_argument("--z1", metavar="ROWS",
                     help="inline matrix, rows separated by ';'")
    nfg.add_argument("--z2", metavar="ROWS")
    nfg.add_argument("--format", choices=("human", "json"), default="human")
    nfg.set_defaults(func=cmd_solve_nfg)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except CsgError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
