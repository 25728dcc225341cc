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
from decimal import Decimal
from fractions import Fraction
from math import isfinite

from .bimatrix import BimatrixGame, enumerate_equilibria, select_swne
from .errors import (AssumptionViolated, CsgError, ModelTypeError,
                     NotConverged, UndefinedConstant)
from .explicit import load_explicit
from .lang import load_model, parse_constant_value, parse_model, read_text
from .nash import DEFAULT_CONV_EPSILON, DEFAULT_MAX_ITERS, evaluate
from .properties import NashNode, parse_property, property_lines
from .synthesis import synthesise_profile, verify_epsilon_ne

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_USAGE = 2
EXIT_NOT_CONVERGED = 3


# --- shared parsing helpers --------------------------------------------------------

def _parse_value(text):
    try:
        return parse_constant_value(text)
    except ModelTypeError:
        raise argparse.ArgumentTypeError(
            f"constant value {text!r} is not an int, double, or bool")


def _parse_const(text):
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}")
    name, _, value = text.partition("=")
    return name.strip(), _parse_value(value.strip())


def _positive_int(text):
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a positive integer, got {text!r}")


def _finite_float(text, kind, accept):
    try:
        value = float(text)
        if isfinite(value) and accept(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a {kind} finite number, got {text!r}")


def _positive_float(text):
    return _finite_float(text, "positive", lambda value: value > 0)


def _nonnegative_float(text):
    # 0 is meaningful: an exact solve's gaps are exactly 0
    return _finite_float(text, "non-negative", lambda value: value >= 0)


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
    texts = list(args.property or [])
    if args.property_file:
        texts += property_lines(read_text(args.property_file))
    return texts


def _num(value):
    if isinstance(value, bool):
        return value
    return float(value)


def _exact(value):
    """`str(value)` of a Fraction, at any size (`Decimal` writes integers
    without the interpreter's int-to-str digit limit); None otherwise."""
    if not isinstance(value, Fraction):
        return None
    num, den = map(Decimal, value.as_integer_ratio())
    return str(num) if den == 1 else f"{num}/{den}"


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
        if isinstance(formula, NashNode) and err.assumption is not None:
            record["assumption"] = {"severity": err.assumption.severity,
                                    "messages": err.assumption.messages()}
        record["time"] = time.perf_counter() - start
        if err.result is not None:
            record["mdp_time"] = err.result.mdp_s
        return record, EXIT_NOT_CONVERGED
    total = time.perf_counter() - start
    record["kind"] = result.kind
    record["time"] = total
    if result.solve is not None:
        record["mdp_time"] = result.solve.mdp_s
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
            # an unbounded deviation's infinite gap is written "inf", as
            # JSON has no infinity
            record["verification"] = {
                "epsilon": report.epsilon,
                "gap1": _finite_or_inf(report.gap1),
                "gap2": _finite_or_inf(report.gap2),
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


def _finite_or_inf(gap):
    return "inf" if gap == float("inf") else gap


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
            print(f"  verification: gap1={float(ver['gap1']):.3g} "
                  f"gap2={float(ver['gap2']):.3g} {subgame}"
                  f"passed={str(ver['passed']).lower()}", file=out)
        if "strategy_file" in rec:
            print(f"  strategy written to {rec['strategy_file']}", file=out)
        total = rec.get("time", 0.0)
        # an MDP-layer NotConverged carries no result to split the time by
        split = f"total={total:.3f}s" if "mdp_time" not in rec else \
            f"mdp={rec['mdp_time']:.3f}s " \
            f"csg={max(total - rec['mdp_time'], 0.0):.3f}s"
        print(f"  timing: constr={stats['constr_time']:.3f}s {split}",
              file=out)


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
    return {c.name for c in parse_model(read_text(path)).constants}


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

def _entry(value, where):
    """One payoff, an exact rational written as text or a JSON number."""
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise CsgError(f"{where}: bad payoff entry {value!r}")


def _parse_matrix(text, where):
    rows = [row.replace(",", " ").split() for row in text.strip().split(";")]
    return [[_entry(e, where) for e in row] for row in rows if row]


def _load_nfg(args):
    if args.file:
        try:
            data = json.loads(read_text(args.file))
        except json.JSONDecodeError as err:
            raise CsgError(f"{args.file}: not valid JSON: {err}")
        for key in ("z1", "z2"):
            if not isinstance(data, dict) or key not in data:
                raise CsgError(f"{args.file}: missing key {key!r}")
            if not isinstance(data[key], list) or not all(
                    isinstance(row, list) for row in data[key]):
                raise CsgError(f"{args.file}: {key} is not a list of rows")
        z1, z2 = ([[_entry(e, f"{args.file}: {key}") for e in row]
                   for row in data[key]] for key in ("z1", "z2"))
        return BimatrixGame.from_rows(z1, z2)
    if not args.z1 or not args.z2:
        raise CsgError("give either --file or both --z1 and --z2")
    return BimatrixGame.from_rows(_parse_matrix(args.z1, "--z1"),
                                  _parse_matrix(args.z2, "--z2"))


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
    run.add_argument("--epsilon", type=_nonnegative_float, default=1e-4,
                     help="equilibrium tolerance for --verify")
    run.add_argument("--conv-epsilon", type=_positive_float,
                     default=DEFAULT_CONV_EPSILON,
                     help="value-iteration convergence threshold")
    run.add_argument("--max-iters", type=_positive_int,
                     default=DEFAULT_MAX_ITERS,
                     help="value-iteration sweeps per strongly connected "
                          "component")
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
