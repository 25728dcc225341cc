"""Command-line interface: exit codes, output formats, and option parsing."""

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

import pytest

from conftest import LEAKY_LOOP, model_path
from csgnash.cli import (_exact, _parse_const, _parse_sweep, _parse_value,
                         main)
from csgnash.lang import parse_constant_value


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptionParsing:
    def test_values(self):
        assert _parse_value("true") is True
        assert _parse_value("3") == 3
        assert _parse_value("0.25") == 0.25
        assert _parse_value("1/4") == 0.25
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_value("maybe")

    def test_values_follow_the_model_language_rule(self):
        # one rule for constant values, `lang.parse_constant_value`; a bad
        # value is a usage error, never a traceback
        for text in ("TRUE", "false", "-2", "0.25", "3/8"):
            assert _parse_value(text) == parse_constant_value(text)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_value("1/0")

    def test_bad_constant_value_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--model", model_path("fig1.csgx"),
                  "--const", "k=maybe", "--property", "true"])
        assert excinfo.value.code == 2
        assert "constant value 'maybe' is not an int, double, or bool" in \
            capsys.readouterr().err

    def test_const(self):
        assert _parse_const("emax = 5") == ("emax", 5)
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_const("emax")

    def test_sweep_ranges(self):
        name, values = _parse_sweep("q2=0.25..0.75:0.25")
        assert name == "q2"
        assert [float(v) for v in values] == [0.25, 0.5, 0.75]
        assert _parse_sweep("k=1..3") == ("k", [1, 2, 3])

    def test_sweep_rejects_bad_ranges(self):
        for bad in ("k=3..1", "k=1..3:0", "k=1", "k=a..b"):
            with pytest.raises(argparse.ArgumentTypeError):
                _parse_sweep(bad)

    @pytest.mark.parametrize("value", ["0", "-3", "2.5", "many"])
    def test_max_iters_must_be_positive(self, capsys, value):
        # a cap of 0 sweeps would "converge" an acyclic game unsolved, and a
        # negative one reported "did not converge within 0 sweeps"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--model", model_path("fig1.csgx"),
                  "--max-iters", value,
                  "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"])
        assert excinfo.value.code == 2
        assert f"expected a positive integer, got '{value}'" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("option, value, kind", [
        # a threshold of 0 or below reported a converging component as a
        # period-2 oscillation, and NaN ran every sweep: both exited 3
        ("--conv-epsilon", "0", "positive"),
        ("--conv-epsilon", "-1", "positive"),
        ("--conv-epsilon", "nan", "positive"),
        ("--conv-epsilon", "inf", "positive"),
        # a negative or NaN ε failed verification with gaps of 0 (exit 1)
        ("--epsilon", "-1", "non-negative"),
        ("--epsilon", "nan", "non-negative"),
        ("--epsilon", "inf", "non-negative"),
    ])
    def test_tolerances_must_be_finite_and_in_range(self, capsys, option,
                                                    value, kind):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--model", model_path("fig1.csgx"), "--verify",
                  option, value,
                  "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"])
        assert excinfo.value.code == 2
        assert f"expected a {kind} finite number, got '{value}'" in \
            capsys.readouterr().err

    def test_zero_epsilon_asks_for_exact_gaps(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"), "--verify",
            "--epsilon", "0",
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 0
        assert "passed=true" in out


class TestExactStrings:
    def test_small_values_read_as_str(self):
        for value in (Fraction(0), Fraction(5), Fraction(-7, 3),
                      Fraction(2 ** 70, 3 ** 40)):
            assert _exact(value) == str(value)
        assert _exact(0.5) is None

    def test_beyond_the_int_to_str_limit(self):
        # 5,001 digits: str() of the denominator exceeds Python's default
        # limit of 4,300 digits
        value = Fraction(-3, 10 ** 5000)
        assert _exact(value) == "-3/1" + "0" * 5000
        # zeros inside a chunk and across chunk boundaries are kept
        assert _exact(Fraction(10 ** 1200 + 10 ** 600 + 7)) == \
            "1" + "0" * 599 + "1" + "0" * 599 + "7"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                        reason="no int-to-str limit on this interpreter")
    def test_at_the_lowest_limit(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            text = _exact(Fraction(1, 10 ** 700 + 1))
        finally:
            sys.set_int_max_str_digits(limit)
        assert text == "1/1" + "0" * 699 + "1"


class TestRunExitCodes:
    def test_numerical_query_succeeds(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 0
        assert "v1=1 v2=1" in out

    def test_violated_threshold_exits_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property",
            "<<p1:p2>> >=1.6 (P[X sent1] + P[X sent2])")
        assert code == 1
        assert "satisfied=false" in out

    def test_satisfied_threshold_exits_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property",
            "<<p1:p2>> >=1.5 (P[F sent1] + P[F sent2])")
        assert code == 0
        assert "satisfied=true" in out

    def test_missing_model_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", "no-such-file.csg",
            "--property", "<<p1:p2>>max=? (P[F a] + P[F b])")
        assert code == 2
        assert "error" in err

    def test_unknown_player_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", model_path("robot.csg"),
            "--const", "l=3",
            "--property", "<<p1:p9>>max=? (P[F goal1] + P[F goal2])")
        assert code == 2
        assert "unknown player 'p9'" in err

    def test_unknown_reward_structure_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", model_path("robot.csg"),
            "--const", "l=3",
            "--property", '<<p1:p2>>max=? (R{"nope"}[F goal1] + '
                          'R{"nope"}[F goal2])')
        assert code == 2
        assert "unknown reward structure 'nope'" in err

    def test_no_property_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"))
        assert code == 2
        assert "no property" in err

    def test_const_override_on_explicit_model_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--const", "q=1/2",
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 2
        assert "no constants" in err

    @pytest.mark.parametrize("suffix", [".csg", ".csgx"])
    def test_model_that_is_not_utf8_exits_two(self, capsys, tmp_path,
                                              suffix):
        model = tmp_path / f"game{suffix}"
        model.write_bytes(b"player p1 m endplayer\n\xff\n")
        code, out, err = run_cli(
            capsys, "run", "--model", str(model),
            "--property", "<<p1:p2>>max=? (P[F a] + P[F b])")
        assert code == 2 and out == ""
        assert err == (f"error: {model}: not UTF-8 text: 'utf-8' codec "
                       f"can't decode byte 0xff in position 22: invalid start "
                       f"byte\n")

    def test_nonconvergent_run_exits_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("appendix_b.csgx"),
            "--property", "<<p1:p2>>max=? (P[F a1] + P[F a2])")
        assert code == 3
        assert "not converged" in out
        assert "oscillation" in out

    # s0 reaches goal with probability 1/2 at rate 1 - 2e per sweep, too
    # slowly for the MDP layer's sweep limit; s0 satisfies `a`, so the
    # coalitions play goal's optimum there, from where the MDP layer must
    # solve it
    SLOW_MODEL = ("player p1 a\nplayer p2 b\ninit s0\nlabel s0 a\n"
                  "label g goal\n"
                  "s0 (-,-) -> 49999/50000:s0 + 1/100000:g + 1/100000:x\n"
                  "g (-,-) -> 1:g\nx (-,-) -> 1:x\n")
    SLOW_PROPERTY = "<<p1:p2>>max=? (P[F a] + P[F goal])"

    def test_division_by_zero_in_a_model_exits_two(self, capsys, tmp_path):
        # a model error, not a traceback (whose exit code 1 would read as
        # "property violated")
        model = tmp_path / "coin.csg"
        model.write_text("const int N;\nplayer p1 m endplayer\nmodule m\n"
                         "  x : [0..1] init 0;\n"
                         "  [a] x=0 -> 1/N:(x'=1) + 1-1/N:(x'=0);\n"
                         "endmodule\n")
        code, _, err = run_cli(
            capsys, "run", "--model", str(model), "--const", "N=0",
            "--property", "<<p1>>Pmax=? [F x=1]")
        assert code == 2
        assert "division by zero in (1 / N)" in err

    def test_mdp_iteration_limit_exits_three(self, capsys, tmp_path):
        model = tmp_path / "slow.csgx"
        model.write_text(self.SLOW_MODEL)
        code, out, _ = run_cli(
            capsys, "run", "--model", str(model), "--format", "json",
            "--property", self.SLOW_PROPERTY)
        assert code == 3
        (record,) = json.loads(out)["results"]
        assert record["converged"] is False
        assert record["diagnostic"].startswith(
            "MDP value iteration exceeded the iteration limit of 100000 "
            "sweeps: state s0 still changed by 1.35e-06")
        assert "mdp_time" not in record

    def test_mdp_iteration_limit_timing_has_no_split(self, capsys,
                                                      tmp_path):
        # no result carries the MDP seconds, so the human line gives the
        # total alone instead of booking it all to the game layer
        model = tmp_path / "slow.csgx"
        model.write_text(self.SLOW_MODEL)
        code, out, _ = run_cli(capsys, "run", "--model", str(model),
                               "--property", self.SLOW_PROPERTY)
        assert code == 3
        (timing,) = [line for line in out.splitlines()
                     if "timing:" in line]
        assert re.fullmatch(r"  timing: constr=\d+\.\d{3}s "
                            r"total=\d+\.\d{3}s", timing)

    def test_nonconvergent_run_checks_the_assumption_once(self, capsys,
                                                          monkeypatch):
        import csgnash.model
        calls = []
        original = csgnash.model.enumerate_mecs

        def counted(game):
            calls.append(game)
            return original(game)

        monkeypatch.setattr(csgnash.model, "enumerate_mecs", counted)
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("appendix_b.csgx"),
            "--format", "json",
            "--property", "<<p1:p2>>max=? (P[F a1] + P[F a2])")
        assert code == 3
        assert len(calls) == 1
        (record,) = json.loads(out)["results"]
        assert record["assumption"] == {
            "severity": "warning",
            "messages": ["non-terminal end component {s1, s2} may prevent "
                         "value-iteration convergence"]}

    def test_strict_assumptions_exits_two_before_solving(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("appendix_b.csgx"),
            "--strict-assumptions",
            "--property", "<<p1:p2>>max=? (P[F a1] + P[F a2])")
        assert code == 2
        assert "assumption violated" in out

    def test_mixed_pair_reports_no_end_components(self, capsys,
                                                  monkeypatch):
        # a mixed pair is backwards induction from one MDP optimum, which
        # end components do not stall: fig1 has three non-terminal ones
        import csgnash.model
        calls = []
        monkeypatch.setattr(csgnash.model, "enumerate_mecs",
                            lambda game: calls.append(game) or [])
        code, out, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csg"),
            "--strict-assumptions",
            "--property", "<<p1:p2>>max=? (P[X sent1] + P[F sent2])")
        assert code == 0
        assert calls == []
        assert "end component" not in out + err
        assert "v1=1 v2=1" in out

    @pytest.mark.parametrize("model,prop,expected", [
        ("appendix_b.csgx", "<<p1:p2>>max=? (P[F a1] + P[F a2])", 2),
        ("robot.csg", "<<p1:p2>>max=? (P[F goal1] + P[F goal2])", 0),
    ])
    def test_strict_assumptions_check_once(self, capsys, monkeypatch,
                                           model, prop, expected):
        import csgnash.model
        calls = []
        original = csgnash.model.enumerate_mecs

        def counted(game):
            calls.append(game)
            return original(game)

        monkeypatch.setattr(csgnash.model, "enumerate_mecs", counted)
        const = ["--const", "l=3"] if model == "robot.csg" else []
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path(model), *const,
            "--strict-assumptions", "--property", prop)
        assert code == expected
        assert len(calls) == 1
        assert ("assumption violated" in out) == (expected == 2)


class TestRunFormats:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--format", "json",
            "--property", "<<p1:p2>>max=? (P[X sent1] + P[X sent2])")
        assert code == 0
        payload = json.loads(out)
        assert payload["stats"]["states"] == 6
        (record,) = payload["results"]
        assert record["values"] == [0.75, 0.75]
        assert record["exact"] == ["3/4", "3/4"]
        assert record["sum"] == 1.5
        assert record["converged"] is True

    def test_instantaneous_reward_at_step_zero_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("mac.csg"),
            "--const", "emax=2", "--format", "json",
            "--property", '<<p1:p2>>max=? (R{"r1"}[I=0] + R{"r2"}[I=0])')
        assert code == 0
        (record,) = json.loads(out)["results"]
        assert record["values"] == [0.0, 0.0]
        assert record["exact"] == ["0", "0"]

    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--format", "csv",
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        assert header == ["property", "v1", "v2", "sum", "iterations", "time"]
        assert row[1:4] == ["1.0", "1.0", "2.0"]

    def test_property_file_with_comments(self, capsys, tmp_path):
        path = tmp_path / "props.txt"
        path.write_text(
            "// channel properties\n"
            "<<p1:p2>>max=? (P[F sent1] + P[F sent2])\n"
            "<<p1:p2>>max=? (P[X sent1] + P[X sent2]) // one step\n")
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property-file", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [r["sum"] for r in payload["results"]] == [2.0, 1.5]

    def test_timing_split_is_reported(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 0
        assert "timing: constr=" in out
        assert "mdp=" in out and "csg=" in out

    @pytest.mark.parametrize("model,prop", [
        ("robot.csg", "<<{p1,p2}>>Pmin=? [F goal1]"),
        ("power.csg",
         '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])'),
    ])
    def test_mdp_time_is_part_of_the_total(self, capsys, model, prop):
        # nested MDP calls must not be counted twice
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path(model), "--format", "json",
            "--property", prop)
        assert code == 0
        (record,) = json.loads(out)["results"]
        assert 0 <= record["mdp_time"] <= record["time"]


class TestVerifyAndExport:
    def test_verify_and_export(self, capsys, tmp_path):
        target = tmp_path / "profile.json"
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])",
            "--verify", "--export-strategy", str(target))
        assert code == 0
        assert "subgame_gap1=0 subgame_gap2=0 passed=true" in out
        with open(target, encoding="utf-8") as handle:
            data = json.load(handle)
        assert data["kind"] == "unbounded"
        assert data["entries"]
        # bounded pairs report subgame gaps too
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[F<=2 sent1] + P[F<=2 sent2])",
            "--verify", "--format", "json")
        verification = json.loads(out)["results"][0]["verification"]
        assert code == 0 and verification["passed"]
        assert verification["subgame_gap1"] == verification["subgame_gap2"] \
            == 0

    def test_infinite_gap_is_valid_json(self, capsys, tmp_path):
        # nothing reaches the empty target, so a deviation's reward is
        # unbounded: the gaps are infinite, written "inf" as on the human
        # line
        model = tmp_path / "game.csgx"
        model.write_text("player p1 a1\nplayer p2 a2\ninit s0\n"
                         "s0 (a1,a2) -> 1:s0\n"
                         "reward r1 action s0 (a1,a2) 0\n"
                         "reward r2 action s0 (a1,a2) 0\n")
        prop = '<<p1:p2>>max=? (R{"r1"}[F false] + R{"r2"}[F false])'

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = run_cli(capsys, "run", "--model", str(model),
                               "--property", prop, "--verify",
                               "--format", "json")
        (record,) = json.loads(out, parse_constant=no_constant)["results"]
        assert code == 1
        assert record["verification"] == {
            "epsilon": 1e-4, "gap1": "inf", "gap2": "inf", "passed": False}
        code, out, _ = run_cli(capsys, "run", "--model", str(model),
                               "--property", prop, "--verify")
        assert code == 1
        assert "verification: gap1=inf gap2=inf passed=false" in out

    # value iteration reaches s0's value 1/2 (x) only geometrically
    GEOMETRIC = """player p1 a
player p2 b
init s0
label g x
label h x y
s0 (a,b) -> 1/3:g + 1/3:sink + 1/3:s0
g (a,b) -> 1/2:h + 1/2:sink
h (a,b) -> 1:h
sink (a,b) -> 1:sink
"""
    # a1 keeps s's iterate exactly but never reaches x; a2 is optimal
    SELF_LOOP = """player p1 a1 a2
player p2 b
init s
label s y
label g x
s (a1,b) -> 1:s
s (a2,b) -> 1/3:g + 1/3:sink + 1/3:s
g (a1,b) -> 1:g
sink (a1,b) -> 1:sink
"""

    def verify(self, capsys, tmp_path, text):
        model = tmp_path / "game.csgx"
        model.write_text(text)
        code, out, _ = run_cli(
            capsys, "run", "--model", str(model),
            "--property", "<<p1:p2>>max=? (P[F x] + P[F y])",
            "--verify", "--format", "json")
        return code, json.loads(out)["results"][0]["verification"]

    def test_strategy_after_geometric_convergence_verifies(self, capsys,
                                                           tmp_path):
        code, verification = self.verify(capsys, tmp_path, self.GEOMETRIC)
        assert code == 0 and verification["passed"]

    def test_value_keeping_self_loop_is_not_the_strategy(self, capsys,
                                                         tmp_path):
        code, verification = self.verify(capsys, tmp_path, self.SELF_LOOP)
        assert code == 0 and verification["passed"]
        assert verification["gap1"] <= 1e-4 and verification["gap2"] <= 1e-4

    def test_mixed_pair_verifies_and_exports_base_states(self, capsys,
                                                        tmp_path):
        target = tmp_path / "profile.json"
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[X sent1] + P[F sent2])",
            "--verify", "--export-strategy", str(target), "--format", "json")
        assert code == 0
        verification = json.loads(out)["results"][0]["verification"]
        assert verification["passed"]
        assert verification["gap1"] <= 1e-4 and verification["gap2"] <= 1e-4
        data = json.loads(target.read_text())
        # the user's query, model state names, the steps left per entry:
        # the next step's 1, then 0 once it has run out
        assert data["query"] == "<<p1:p2>>max=?(P[X sent1] + P[F sent2])"
        assert data["kind"] == "bounded"
        assert list(data["values"]) == ["s0"]
        assert data["entries"][0]["state"] == "s0"
        assert data["entries"][0]["step"] == 1
        assert {e["step"] for e in data["entries"]} == {0, 1}
        assert all("layer" not in e for e in data["entries"])
        assert all(e["state"] in {f"s{i}" for i in range(6)}
                   for e in data["entries"])

    # a one-shot choice of where to go, rewarded on arrival (r1 at step 1,
    # r2 at step 2); no bundled model has state rewards
    INSTANT = """player p1 a1 a2
player p2 b1 b2
init s0
s0 (a1,b1) -> 1/2:u + 1/2:v
s0 (a1,b2) -> 1:u
s0 (a2,b1) -> 1:v
s0 (a2,b2) -> 1:w
u (-,-) -> 1:u
v (-,-) -> 1:v
w (-,-) -> 1:w
reward r1 state s0 5
reward r1 state u 2
reward r1 state w 1
reward r2 state v 2
reward r2 state w 1
"""

    @pytest.mark.parametrize("model,consts,prop,values", [
        ("fig1.csgx", (), "P[X sent1] + P[X sent2]", ["3/4", "3/4"]),
        # bounded until against a one-step objective: the horizons differ
        ("fig1.csgx", (), "P[!sent2 U<=2 sent1] + P[X sent2]",
         ["3/4", "3/4"]),
        ("mac.csg", ("--const", "emax=2"),
         'R{"r1"}[C<=2] + R{"r2"}[C<=2]', ["3/2", "3/2"]),
        (None, (), 'R{"r1"}[I=1] + R{"r2"}[I=2]', ["1", "1"]),
    ], ids=["next", "bounded-until", "cumulative", "instantaneous"])
    def test_every_bounded_shape_verifies_and_exports(
            self, capsys, tmp_path, model, consts, prop, values):
        if model is None:
            path = tmp_path / "instant.csgx"
            path.write_text(self.INSTANT)
        else:
            path = model_path(model)
        target = tmp_path / "profile.json"
        code, out, _ = run_cli(
            capsys, "run", "--model", str(path), *consts,
            "--property", f"<<p1:p2>>max=? ({prop})",
            "--verify", "--export-strategy", str(target), "--format", "json")
        assert code == 0
        (record,) = json.loads(out)["results"]
        assert record["exact"] == values
        verification = record["verification"]
        assert verification["passed"]
        assert verification["gap1"] <= 1e-4 and verification["gap2"] <= 1e-4
        data = json.loads(target.read_text())
        assert data["kind"] == "bounded" and data["entries"]


class TestSweep:
    def test_sweep_emits_one_csv_row_per_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csg"),
            "--sweep", "q2=0.25..0.75:0.25",
            "--property", "<<p1:p2>>max=? (P[X sent1] + P[X sent2])")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["parameter", "v1", "v2", "sum", "iterations",
                           "time"]
        points = [(row[0], row[3]) for row in rows[1:]]
        assert points == [("0.25", "0.5"), ("0.5", "1"), ("0.75", "1.5")]

    @pytest.mark.parametrize("flags", [
        ("--verify",), ("--export-strategy", "profile.json")],
        ids=["verify", "export"])
    def test_sweep_refuses_strategy_flags(self, capsys, tmp_path, flags):
        flags = [str(tmp_path / f) if f.endswith(".json") else f
                 for f in flags]
        code, out, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csg"),
            "--sweep", "q2=0.25..0.75:0.25", *flags,
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 2 and out == ""
        assert err.startswith("error: ")
        assert not (tmp_path / "profile.json").exists()

    def test_sweep_needs_exactly_one_property(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csg"),
            "--sweep", "q2=0.25..0.75:0.25")
        assert code == 2
        assert "exactly one property" in err


class TestSweepRecipes:
    """Curves of the bundled models, one sweep each: a model constant is
    set on the model, any other name is bound in the property."""

    @staticmethod
    def pairs(capsys, *argv):
        code, out, _ = run_cli(capsys, "run", *argv)
        assert code == 0
        return [(row[0], row[1], row[2])
                for row in list(csv.reader(io.StringIO(out)))[1:]]

    def test_channel_one_shot_and_eventual_pairs(self, capsys):
        for prop, pair in (("P[X sent1] + P[X sent2]", ("0.5", "0.5")),
                           ("P[F sent1] + P[F sent2]", ("1", "1"))):
            assert self.pairs(
                capsys, "--model", model_path("fig1.csg"),
                "--sweep", "q2=1/2..1/2",
                "--property", f"<<p1:p2>>max=? ({prop})") == [("0.5",) + pair]

    def test_grid_horizon_curve(self, capsys):
        assert self.pairs(
            capsys, "--model", model_path("robot.csg"), "--const", "l=3",
            "--sweep", "k=1..2",
            "--property", "<<p1:p2>>max=? (P[F<=k goal1] + P[F<=k goal2])"
        ) == [("1", "0", "0"), ("2", "0.081", "0.081")]
        assert self.pairs(
            capsys, "--model", model_path("robot.csg"), "--const", "l=3",
            "--sweep", "q=1/10..1/10",
            "--property", "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"
        ) == [("0.1", "1", "1")]

    def test_mac_energy_curve(self, capsys):
        assert self.pairs(
            capsys, "--model", model_path("mac.csg"), "--const", "emax=2",
            "--sweep", "k=1..2",
            "--property",
            '<<p1:p2>>max=? (R{"r1"}[C<=k] + R{"r2"}[C<=k])'
        ) == [("1", "0.75", "0.75"), ("2", "1.5", "1.5")]

    def test_name_neither_model_nor_property_constant_exits_two(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--model", model_path("fig1.csg"),
            "--sweep", "k=1..2",
            "--property", "<<p1:p2>>max=? (P[F sent1] + P[F sent2])")
        assert code == 2 and out == ""
        assert "'k' is neither a constant of the model nor used by the " \
            "property" in err

    def test_not_converged_point_exits_three(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "--model", model_path("robot.csg"),
            "--const", "l=3", "--sweep", "q=1/10..1/10", "--max-iters", "1",
            "--property", "<<p1:p2>>max=? (P[F goal1] + P[F goal2])")
        assert code == 3 and out == ""
        assert err == ("error: q=1/10: value iteration did not converge "
                       "within 1 sweeps, in a strongly connected component "
                       "of 1 free state: (x1=1,y1=1,x2=1,y2=1)\n")

    def test_points_solved_before_a_non_converged_one_are_printed(
            self, capsys, tmp_path):
        model = tmp_path / "loop.csg"
        model.write_text(LEAKY_LOOP)
        code, out, err = run_cli(
            capsys, "run", "--model", str(model), "--sweep", "N=1..3",
            "--max-iters", "30",
            "--property", "<<p1:p2>>max=? (P[F goal] + P[F goal])")
        assert code == 3
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["parameter", "v1", "v2", "sum", "iterations",
                           "time"]
        assert [row[:5] for row in rows[1:]] == [
            ["1", "1", "1", "2", "1"],
            ["2", "0.9999995232", "0.9999995232", "1.999999046", "21"]]
        assert err == ("error: N=3: value iteration did not converge "
                       "within 30 sweeps, in a strongly connected component "
                       "of 1 free state: (x=0)\n")


class TestSolveNfg:
    Z1 = "2 2 2; 0 4 6"
    Z2 = "4 2 0; 4 6 9"

    def test_human_output_lists_all_equilibria_and_the_selection(self, capsys):
        code, out, _ = run_cli(capsys, "solve-nfg",
                               "--z1", self.Z1, "--z2", self.Z2)
        assert code == 0
        assert "equilibria: 3" in out
        assert "x=(5/9, 4/9) y=(2/3, 0, 1/3)" in out
        assert "swne:" in out and "u=6 v=9 sum=15" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve-nfg", "--format", "json",
                               "--z1", self.Z1, "--z2", self.Z2)
        assert code == 0
        payload = json.loads(out)
        assert len(payload["equilibria"]) == 3
        assert payload["swne"] == {"x": ["0", "1"], "y": ["0", "0", "1"],
                                   "u": "6", "v": "9", "sum": "15"}

    def test_json_output_of_a_degenerate_rational_game(self, capsys):
        # row 0 leaves the column player indifferent, so (1, 0) against
        # every y with y2 <= 2/5 is an equilibrium: one component with two
        # vertices, whose tie on (u, v) the selection breaks by strategy
        code, out, _ = run_cli(capsys, "solve-nfg", "--format", "json",
                               "--z1", "1/2 1/2; 1/3 3/4",
                               "--z2", "2/3 2/3; 1/5 1/4")
        assert code == 0
        expected = {
            "rows": 2, "cols": 2,
            "equilibria": [
                {"x": ["1", "0"], "y": ["1", "0"], "u": "1/2", "v": "2/3"},
                {"x": ["1", "0"], "y": ["3/5", "2/5"],
                 "u": "1/2", "v": "2/3"},
                {"x": ["0", "1"], "y": ["0", "1"], "u": "3/4", "v": "1/4"},
            ],
            "swne": {"x": ["1", "0"], "y": ["1", "0"],
                     "u": "1/2", "v": "2/3", "sum": "7/6"},
        }
        assert out == json.dumps(expected, indent=2) + "\n"

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(
            {"z1": [[2, 2, 2], [0, 4, 6]], "z2": [[4, 2, 0], [4, 6, 9]]}))
        code, out, _ = run_cli(capsys, "solve-nfg", "--file", str(path))
        assert code == 0
        assert "equilibria: 3" in out

    @pytest.mark.parametrize("z1, message", [
        ("1/0 1", "--z1: bad payoff entry '1/0'"),
        ("a 1", "--z1: bad payoff entry 'a'"),
    ])
    def test_bad_inline_entry_exits_two(self, capsys, z1, message):
        code, _, err = run_cli(capsys, "solve-nfg", "--z1", z1, "--z2", "1 2")
        assert code == 2
        assert err == f"error: {message}\n"

    def test_matrix_file_without_z2_exits_two(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"z1": [[1, 2]]}))
        code, _, err = run_cli(capsys, "solve-nfg", "--file", str(path))
        assert code == 2
        assert err == f"error: {path}: missing key 'z2'\n"

    def test_matrix_file_with_a_scalar_row_exits_two(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps({"z1": [1, 2], "z2": [[1, 2]]}))
        code, _, err = run_cli(capsys, "solve-nfg", "--file", str(path))
        assert code == 2
        assert err == f"error: {path}: z1 is not a list of rows\n"

    def test_truncated_matrix_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text('{"z1": [[1, 2]], "z2": [[1')
        code, _, err = run_cli(capsys, "solve-nfg", "--file", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: not valid JSON: ")

    def test_missing_matrices_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "solve-nfg", "--z1", self.Z1)
        assert code == 2
        assert "--z2" in err
