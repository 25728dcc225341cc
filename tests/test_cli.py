"""Command-line interface: exit codes, output formats, and option parsing."""

import argparse
import csv
import io
import json

import pytest

from conftest import model_path
from csgnash.cli import _parse_const, _parse_sweep, _parse_value, main


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

    def test_nonconvergent_run_exits_three(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("appendix_b.csgx"),
            "--property", "<<p1:p2>>max=? (P[F a1] + P[F a2])")
        assert code == 3
        assert "not converged" in out
        assert "oscillation" in out

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
        # bounded pairs have no subgame gaps, so the record omits them
        code, out, _ = run_cli(
            capsys, "run", "--model", model_path("fig1.csgx"),
            "--property", "<<p1:p2>>max=? (P[F<=2 sent1] + P[F<=2 sent2])",
            "--verify", "--format", "json")
        verification = json.loads(out)["results"][0]["verification"]
        assert code == 0 and verification["passed"]
        assert "subgame_gap1" not in verification

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
        # the user's query, base state names, the product layer per entry
        assert data["query"] == "<<p1:p2>>max=?(P[X sent1] + P[F sent2])"
        assert list(data["values"]) == ["s0"]
        assert data["entries"][0]["state"] == "s0"
        assert data["entries"][0]["layer"] == 0
        assert {e["layer"] for e in data["entries"]} == {0, 1, 2}
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
                       "within 1 sweeps\n")

    def test_points_solved_before_a_non_converged_one_are_printed(self,
                                                                  capsys):
        code, out, err = run_cli(
            capsys, "run", "--model", model_path("robot.csg"),
            "--const", "l=3", "--sweep", "k=1..6", "--max-iters", "4",
            "--property", "<<p1:p2>>max=? (P[F<=k goal1] + P[F goal2])")
        assert code == 3
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["parameter", "v1", "v2", "sum", "iterations",
                           "time"]
        assert [row[:5] for row in rows[1:]] == [
            ["1", "0", "1", "1", "3"], ["2", "0.81", "1", "1.81", "4"]]
        assert err == ("error: k=3: value iteration did not converge "
                       "within 4 sweeps\n")


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

    def test_matrix_file(self, capsys, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(
            {"z1": [[2, 2, 2], [0, 4, 6]], "z2": [[4, 2, 0], [4, 6, 9]]}))
        code, out, _ = run_cli(capsys, "solve-nfg", "--file", str(path))
        assert code == 0
        assert "equilibria: 3" in out

    def test_missing_matrices_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "solve-nfg", "--z1", self.Z1)
        assert code == 2
        assert "--z2" in err
