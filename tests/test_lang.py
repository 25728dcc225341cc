import hashlib
from fractions import Fraction

import pytest

import csgnash.expr as expr

from csgnash import lang, nash
from csgnash.errors import (
    AlphabetViolation,
    ModelError,
    ModelSyntaxError,
    ModelTypeError,
    ProbabilitySum,
    RangeOverflow,
    UndeclaredSymbol,
    UndefinedConstant,
    UpdateClash,
)
from csgnash.explicit import dumps_explicit, load_explicit, loads_explicit
from csgnash.lang import build_csg, load_model, parse_model
from csgnash.model import Csg, RewardStructure
from csgnash.properties import parse_property

from conftest import model_path

F = Fraction

TWO_COIN = """
csg
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..1] init 0;
  [a] true -> 0.5:(x'=0) + 0.5:(x'=1);
endmodule
module m2
  y : bool init false;
  [b] !y -> (y'=true);
endmodule
label "hit" = x=1 & y;
"""


# m1's update reads m2's variable y
FOREIGN_UPDATE = """
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..3] init 0;
  [a] true -> (x'=min(x+y,3));
  [c] x=3 -> 1/2:(x'=0) + 1/2:(x'=x);
endmodule
module m2
  y : [0..2] init 0;
  [b] true -> 1/3:(y'=min(y+1,2)) + 2/3:(y'=0);
endmodule
"""

# m1's probabilities read m2's variable y
FOREIGN_PROBABILITY = """
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..2] init 0;
  [a] true -> y/4:(x'=min(x+1,2)) + (4-y)/4:(x'=0);
endmodule
module m2
  y : [0..3] init 0;
  [b] y<3 -> (y'=y+1);
  [c] y>0 -> (y'=y-1);
endmodule
"""

# guards, labels and reward items that read both modules' variables
SPANNING_GUARD = """
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..3] init 0;
  [a] x<y+1 & x<3 -> (x'=x+1);
  [r] x>=y -> (x'=0);
endmodule
module m2
  y : [0..3] init 1;
  [b] y<3 & x+y<5 -> (y'=y+1);
  [d] y>x -> 1/4:(y'=0) + 3/4:(y'=y);
endmodule
label "meet" = x=y & x>0;
label "apart" = x+1<y | y+1<x;
rewards "r"
  [a] x<y : x+y;
  x=y : 1/2;
endrewards
"""

# [a] assigns constants only, and k is never written
CONSTANT_ONLY = """
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..2] init 0;
  b : bool init false;
  k : [0..1] init 1;
  [a] true -> 1/2:(x'=2)&(b'=true) + 1/2:(x'=0);
  [e] x>0 -> (x'=x-1);
endmodule
module m2
  y : [0..1] init 0;
  [g] true -> (y'=1);
  [h] y=1 -> (y'=0);
endmodule
label "top" = x=2 & b;
"""


def value(game, state, name):
    """The value of variable `name` at `state` of a language-built game."""
    return state[game.variables.index(name)]


def available(game, state, player):
    """The actions `player` can take at `state`."""
    idx = game.players.index(player)
    return sorted({alpha[idx] for alpha in game.trans[state]})


def counts(game):
    choices = sum(len(game.trans[s]) for s in game.states)
    transitions = sum(len(d) for s in game.states
                      for d in game.trans[s].values())
    return len(game.states), choices, transitions


class TestMediumAccess:
    def test_state_space_size(self):
        g = load_model(model_path("mac.csg"))
        assert counts(g) == (441, 1600, 2759)

    def test_constants_and_overrides(self):
        g = load_model(model_path("mac.csg"), {"emax": 2})
        # per user: e in 0..2 with the success flag forced off at full energy
        assert counts(g)[0] == 25
        assert g.constants["q2"] == F(3, 4)

    def test_availability_tracks_energy(self):
        g = load_model(model_path("mac.csg"), {"emax": 1})
        drained = next(s for s in g.states
                       if value(g, s, "e1") == 0
                       and value(g, s, "e2") == 0)
        assert available(g, drained, "p1") == ["w1"]
        full = g.initial[0]
        assert available(g, full, "p1") == ["t1", "w1"]

    def test_correlated_channel_outcome(self):
        g = load_model(model_path("mac.csg"))
        init = g.initial[0]
        joint = ("t1", "t2")
        dist = g.trans[init][joint]
        succ = {value(g, s, "s1"): p for s, p in dist.items()}
        # one probabilistic draw decides both flags together
        assert succ == {1: F(3, 4), 0: F(1, 4)}
        for s in dist:
            assert value(g, s, "s1") == value(g, s, "s2")

    def test_action_rewards(self):
        g = load_model(model_path("mac.csg"))
        init = g.initial[0]
        r1 = g.rewards["r1"]
        assert r1.action(init, ("t1", "t2")) == F(3, 4)
        assert r1.action(init, ("t1", "w2")) == F(9, 10)
        assert r1.action(init, ("w1", "t2")) == 0

    def test_wait_resets_flag(self):
        g = load_model(model_path("mac.csg"))
        init = g.initial[0]
        lone = g.trans[init][("t1", "w2")]
        sent = next(s for s in lone if value(g, s, "s1") == 1)
        after_wait = g.trans[sent][("w1", "w2")]
        ((succ, p),) = after_wait.items()
        assert p == 1 and value(g, succ, "s1") == 0


class TestOneShot:
    def test_five_states(self):
        g = load_model(model_path("fig1.csg"))
        assert len(g.states) == 5
        init = g.initial[0]
        assert not any(init in holds for holds in g.labels.values())
        both = g.trans[init][("t1", "t2")]
        assert {p for p in both.values()} == {F(3, 4), F(1, 4)}

    def test_sticky_flags(self):
        g = load_model(model_path("fig1.csg"))
        init = g.initial[0]
        ((sent, _),) = g.trans[init][("t1", "w2")].items()
        assert sent in g.labels["sent1"]
        ((after, _),) = g.trans[sent][("w1", "w2")].items()
        assert after == sent   # waiting changes nothing once energy is gone

    def test_q2_override(self):
        g = load_model(model_path("fig1.csg"), {"q2": "0.25"})
        init = g.initial[0]
        both = g.trans[init][("t1", "t2")]
        assert F(1, 4) in both.values() and F(3, 4) in both.values()


class TestSemantics:
    def test_two_coin(self):
        g = build_csg(parse_model(TWO_COIN))
        assert g.players == ("p1", "p2")
        init = g.initial[0]
        assert g.trans[init][("a", "b")] == {
            (0, True): F(1, 2), (1, True): F(1, 2)}
        # once y holds, p2 has no enabled command and idles
        held = (0, True)
        assert available(g, held, "p2") == ["-"]
        assert ("a", "-") in g.trans[held]

    def test_deadlock_gets_self_loop(self):
        text = """
player p1 m1 endplayer
module m1
  x : [0..1] init 0;
  [a] x=0 -> (x'=1);
endmodule
"""
        g = build_csg(parse_model(text))
        assert g.trans[(1,)] == {(("-",)): {(1,): F(1)}}

    def test_leading_not_negates_the_comparison(self):
        # !x=1 is !(x=1): x steps from 0 to 1 and stops there
        text = """
player p1 m1 endplayer
module m1
  x : [0..2] init 0;
  b : bool init false;
  [a] !x=1 -> (x'=x+1) & (b'=!b);
endmodule
label "never" = x=2;
"""
        g = build_csg(parse_model(text))
        assert g.states == ((0, False), (1, True))
        assert g.trans[(1, True)] == {("-",): {(1, True): F(1)}}
        # a declared label that holds nowhere is the empty set
        assert g.labels == {"never": frozenset()}

    def test_frozen_module_keeps_values(self):
        g = build_csg(parse_model(TWO_COIN))
        held = (0, True)
        dist = g.trans[held][("a", "-")]    # m2 never fires when p2 idles
        assert all(s[1] is True for s in dist)

    def test_deterministic_construction(self):
        a = build_csg(parse_model(TWO_COIN))
        b = build_csg(parse_model(TWO_COIN))
        assert a.states == b.states and a.trans == b.trans

    def test_explicit_round_trip(self):
        # every bundled game, its states renamed, passes Csg.create's full
        # checks unchanged, and so does its explicit text read back
        for model, consts, prop in [
            ("robot.csg", {"l": 3},
             "<<p1:p2>>max=? (P[F goal1] + P[F goal2])"),
            ("power.csg", {},
             '<<p1:p2>>max=? (R{"r1"}[F done1] + R{"r2"}[F done2])'),
            ("aloha.csg", {"D": 2},
             "<<p1:{p2,p3}>>max=? (P[F<=3 sent1] + P[F<=3 (sent2 & sent3)])"),
            ("mac.csg", {"emax": 2},
             '<<p1:p2>>max=? (R{"r1"}[C<=3] + R{"r2"}[C<=3])'),
            ("fig1.csg", {}, "<<p1:p2>>max=? (P[F sent1] + P[F sent2])"),
            ("fig1.csgx", {}, "<<p1:p2>>max=? (P[F<=3 sent1] + P[F sent2])"),
            ("appendix_b.csgx", {},
             "<<p1:p2>>max=? (P[F<=4 a1] + P[F<=4 a2])"),
            ("appendix_c.csgx", {},
             '<<p1:p2>>max=? (R{"r1"}[C<=3] + R{"r2"}[C<=3])'),
        ]:
            g = load_explicit(model_path(model)) if model.endswith(".csgx") \
                else load_model(model_path(model), consts)
            named = {s: f"u{i}" for i, s in enumerate(g.states)}
            renamed = Csg.create(
                g.players, g.alphabets,
                [named[s] for s in g.states], [named[s] for s in g.initial],
                {named[s]: {a: {named[t]: p for t, p in d.items()}
                            for a, d in g.trans[s].items()}
                 for s in g.states},
                {name: {named[s] for s in holds}
                 for name, holds in g.labels.items()},
                {name: RewardStructure(
                    {(named[s], a): v
                     for (s, a), v in rs.action_rewards.items()},
                    {named[s]: v for s, v in rs.state_rewards.items()})
                 for name, rs in g.rewards.items()})
            assert renamed.states == tuple(named[s] for s in g.states)
            text_game = loads_explicit(dumps_explicit(renamed))
            assert set(text_game.states) == set(renamed.states)
            assert text_game.initial == renamed.initial
            assert text_game.trans == renamed.trans
            # a label that holds nowhere has no line in the explicit format
            assert text_game.labels == {name: holds for name, holds
                                        in renamed.labels.items() if holds}
            assert text_game.rewards == renamed.rewards
            for game in (g, text_game):
                assert all(type(p) is Fraction for s in game.states
                           for d in game.trans[s].values() for p in d.values())
                assert all(type(v) is Fraction for rs in game.rewards.values()
                           for part in (rs.action_rewards, rs.state_rewards)
                           for v in part.values())
            built = nash.evaluate(g, parse_property(prop))
            read = nash.evaluate(text_game, parse_property(prop))
            assert {named[s]: v for s, v in built.values.items()} == \
                read.values
            assert any(any(pair) for pair in read.values.values())


class TestErrors:
    def wrap(self, body, exc):
        text = f"""
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..2] init 0;
{body}
endmodule
module m2
  y : [0..1] init 0;
  [b] true -> (y'=y);
endmodule
"""
        with pytest.raises(exc):
            build_csg(parse_model(text))

    def test_update_clash(self):
        self.wrap("  [a] x<2 -> (x'=x+1);\n  [a] true -> (x'=0);", UpdateClash)

    def test_probability_sum(self):
        self.wrap("  [a] true -> 0.5:(x'=0) + 0.4:(x'=1);", ProbabilitySum)

    def test_range_overflow(self):
        self.wrap("  [a] true -> (x'=x+5);", RangeOverflow)

    def test_type_error(self):
        self.wrap("  [a] true -> (x'=true);", ModelTypeError)

    def test_foreign_write(self):
        self.wrap("  [a] true -> (y'=1);", UndeclaredSymbol)

    def test_unknown_symbol_in_guard(self):
        self.wrap("  [a] z>0 -> (x'=0);", UndeclaredSymbol)

    def test_shared_action_name(self):
        self.wrap("  [b] true -> (x'=0);", AlphabetViolation)

    def test_list_command_needs_own_action(self):
        text = """
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..1] init 0;
  [a] true -> (x'=0);
endmodule
module m2
  y : [0..1] init 0;
  [b] true -> (y'=0);
  [a] true -> (y'=1);
endmodule
"""
        with pytest.raises(AlphabetViolation):
            build_csg(parse_model(text))

    def test_undefined_constant(self):
        text = """
const int k;
player p1 m1 endplayer
module m1
  x : [0..k] init 0;
  [a] true -> (x'=0);
endmodule
"""
        ast = parse_model(text)
        with pytest.raises(UndefinedConstant):
            build_csg(ast)
        g = build_csg(ast, {"k": "3"})
        assert len(g.states) == 1

    def test_override_type_checked(self):
        ast = parse_model(TWO_COIN)
        with pytest.raises(UndeclaredSymbol):
            build_csg(ast, {"nope": 1})

    def test_duplicate_player(self):
        with pytest.raises(ModelSyntaxError, match="3:0: duplicate player 'p1'"):
            parse_model("\nplayer p1 m1 endplayer\nplayer p1 m2 endplayer\n"
                        "module m1\n  x : [0..1] init 0;\nendmodule\n"
                        "module m2\n  y : [0..1] init 0;\nendmodule\n")

    def test_duplicate_label(self):
        # a repeated label would otherwise merge into the first
        with pytest.raises(ModelSyntaxError, match="8:0: duplicate label 'g'"):
            parse_model('\nplayer p1 m endplayer\nmodule m\n'
                        '  x : [0..1] init 0;\n  [a] true -> (x\'=1);\n'
                        'endmodule\nlabel "g" = x=0;\nlabel "g" = x=1;\n')

    def test_duplicate_reward_structure(self):
        # a repeated structure would otherwise replace the first
        with pytest.raises(ModelSyntaxError,
                           match="8:0: duplicate rewards 'r'"):
            parse_model('\nplayer p1 m endplayer\nmodule m\n'
                        '  x : [0..1] init 0;\n  [a] true -> (x\'=1);\n'
                        'endmodule\nrewards "r" true : 1; endrewards\n'
                        'rewards "r"\n  true : 5;\nendrewards\n')

    def test_unassigned_module(self):
        text = """
player p1 m1 endplayer
module m1
  x : [0..1] init 0;
  [a] true -> (x'=0);
endmodule
module stray
  z : [0..1] init 0;
  [c] true -> (z'=0);
endmodule
"""
        with pytest.raises(ModelSyntaxError):
            parse_model(text)

    def test_bad_init(self):
        text = """
player p1 m1 endplayer
module m1
  x : [0..1] init 5;
  [a] true -> (x'=0);
endmodule
"""
        with pytest.raises(RangeOverflow):
            build_csg(parse_model(text))

    @pytest.mark.parametrize("value", ["true", "x=0"])
    def test_reward_must_be_numeric(self, value):
        text = f"""
player p1 m1 endplayer
module m1
  x : [0..1] init 0;
  [a] true -> (x'=0);
endmodule
rewards "r"
  true : {value};
endrewards
"""
        with pytest.raises(ModelTypeError,
                           match="reward is not numeric at line 8"):
            build_csg(parse_model(text))

    @pytest.mark.parametrize("old, new, kind", [
        ("2*pow1/(pow1+pow2)", "pow1-2", "action"),
        ("[t1] true : 2*pow1/(pow1+pow2)", "true : pow1-2", "state"),
    ])
    def test_negative_rewards(self, old, new, kind):
        with open(model_path("power.csg")) as handle:
            text = handle.read()
        assert old in text
        with pytest.raises(ModelError) as err:
            build_csg(parse_model(text.replace(old, new)))
        assert str(err.value) == f"negative {kind} reward in 'r1'"

    @pytest.mark.parametrize("old, new, exc, message", [
        ("e1=0;", "e1+0;", ModelTypeError,
         "expected a boolean condition at line 41"),
        ("e1=0;", "u1=0;", UndeclaredSymbol, "41:0: unknown symbol 'u1'"),
    ])
    def test_label_errors_name_the_label_line(self, old, new, exc, message):
        with open(model_path("power.csg")) as handle:
            text = handle.read()
        with pytest.raises(exc) as err:
            build_csg(parse_model(text.replace(old, new, 1)))
        assert str(err.value).endswith(message)


def declared(variable, const=""):
    """A one-module game whose only variable is declared as given."""
    return build_csg(parse_model(
        f"{const}\nplayer p1 m endplayer\nmodule m\n  {variable}\n"
        f"  [a] true -> true;\nendmodule\n"))


class TestIntegerRule:
    # one rule decides what a model integer is: an int or a whole rational,
    # never a bool; a value that breaks it is an error, not truncated
    @pytest.mark.parametrize("variable", [
        "x : [0..2.5] init 1;",
        "x : [0.5..2] init 1;",
        "x : [0..2] init 1.5;",
        "x : [false..true] init 0;",
        "x : [0..1] init true;",
    ])
    def test_bad_declarations_are_type_errors(self, variable):
        with pytest.raises(ModelTypeError, match="must be an integer"):
            declared(variable)

    def test_whole_rationals_are_integers(self):
        g = declared("x : [0..N/2] init 4/2;", "const int N = 6/2*2;")
        assert g.constants["N"] == 6 and type(g.constants["N"]) is int
        ((x,),) = g.states
        assert x == 2 and type(x) is int

    @pytest.mark.parametrize("override", ["2.5", "true"])
    def test_int_constants(self, override):
        ast = parse_model("const int N;\nplayer p1 m endplayer\nmodule m\n"
                          "  x : [0..1] init 0;\n  [a] true -> true;\n"
                          "endmodule\n")
        with pytest.raises(ModelTypeError, match="constant 'N' must be an "
                                                 "integer"):
            build_csg(ast, {"N": override})

    @pytest.mark.parametrize("update", ["x/2", "true"])
    def test_assignments_follow_the_same_rule(self, update):
        with pytest.raises(ModelTypeError,
                           match="variable 'x' must be an integer"):
            one_player(f"  [a] x=0 -> (x'=1) ;\n  [b] x=1 -> (x'={update});")


def fingerprint(game):
    """SHA-256 of a game as built: players, alphabets, initial states,
    constants and label names, then every state in order with its labels,
    valuation and each joint action's successor distribution as ordered
    lists, then every reward structure's entries in order."""
    digest = hashlib.sha256()

    def put(item):
        digest.update(repr(item).encode())
        digest.update(b"\n")
    put((game.players,
         sorted((p, sorted(a)) for p, a in game.alphabets.items()),
         game.initial))
    put(sorted(game.constants.items()))
    put(sorted(game.labels))
    for s in game.states:
        names = sorted(name for name, holds in game.labels.items() if s in holds)
        put((s, names, list(zip(game.variables, s))))
        for joint, dist in game.trans[s].items():
            put((joint, list(dist.items())))
    for name, rs in sorted(game.rewards.items()):
        put((name, list(rs.action_rewards.items()),
             list(rs.state_rewards.items())))
    return digest.hexdigest()


class TestBuiltGames:
    # Recorded with the tree-walking builder that the compiled one replaced;
    # the digest covers state order, joint-action order, successor order and
    # exact probability types.
    @pytest.mark.parametrize("model, consts, states, digest", [
        ("aloha.csg", {}, 7794,
         "eb8b65650173fb3b025c782bfe044fb25985782cb0e6f9aa71d78dccf850d864"),
        ("robot.csg", {"l": 3}, 44,
         "3580f0d924c6cfdf3a67f46fe9492c4699a3d18eee0fc598c77d2021ae999d15"),
        ("robot.csg", {"l": 5}, 323,
         "ff0f4d3c63be873e69123de7e6db05b0900a6c1985dd3755ebaa30a3cb26c09b"),
        ("robot.csg", {"l": 6}, 666,
         "8c9ccafed8be6de86b645513a45da1d61f362728d24e43fb03e47a01efdbb5dd"),
        ("mac.csg", {"emax": 10}, 441,
         "322e4e8c7ab24bf8ced99ee0602dafc0e7eb8aa35178b20243c407a364dd99be"),
        ("power.csg", {}, 41,
         "c6dff6589c3c93cacf84a423aaefc75bb293b94e7a8f4720520e60d736499208"),
        ("fig1.csg", {}, 5,
         "578105888df55c01fff87f07c408ee1f2400842e03975047397eaf75767ecbd8"),
        ("aloha.csg", {"D": 3}, 2794,
         "bda1f73cbbf034315e9a3471d4c1aafceade8bdd55832807468d1c3d9d3dc79f"),
        ("aloha.csg", {"D": 16}, 15794,
         "eb1d099b2b8d4787612446ee6530c7eae8a03cd3d2389976e7e814321b765ed6"),
    ])
    def test_fingerprint(self, model, consts, states, digest):
        g = load_model(model_path(model), consts)
        assert len(g.states) == states
        assert fingerprint(g) == digest

    # Each inline model reads across modules in a way that an evaluation
    # keyed by the variables it reads must cover; recorded with the
    # builder that evaluated everything at every state.
    @pytest.mark.parametrize("text, states, digest", [
        (FOREIGN_UPDATE, 12,
         "00648be30c1a41ce189f09f428a9c8868f6477abb0c6cd585e07babb8a8c33db"),
        (FOREIGN_PROBABILITY, 12,
         "247a97801433bc4d63fe5c379df4d34b6bc6fd3bcad971cfa6c4b00ae9b3b9d7"),
        (SPANNING_GUARD, 12,
         "e48f3232806acf1811bdf47eff04c07d800af08dd3ffef5d7f9869dd5185e316"),
        (CONSTANT_ONLY, 8,
         "0e0255aba26f5dc65f61122060f86faa2a60c7dbe5cae50ae720a525cf0d0356"),
    ], ids=["foreign_update", "foreign_probability", "spanning_guard",
            "constant_only"])
    def test_inline_fingerprint(self, text, states, digest):
        g = build_csg(parse_model(text))
        assert len(g.states) == states
        assert fingerprint(g) == digest

    def test_compilation_does_not_grow_with_the_state_space(self, monkeypatch):
        # every expression is compiled once per build, never per state
        calls = []
        original = expr._compile

        def counting(*args):
            calls.append(args[0])
            return original(*args)
        monkeypatch.setattr(expr, "_compile", counting)
        ast = parse_model(open(model_path("mac.csg")).read())
        sizes = []
        for emax in (2, 10):
            calls.clear()
            sizes.append((len(build_csg(ast, {"emax": emax}).states),
                          len(calls)))
        (small, small_calls), (large, large_calls) = sizes
        assert large > 10 * small
        assert large_calls == small_calls


ONE_PLAYER = """
player p1 m endplayer
module m
  x : [0..2] init 0;
{body}
endmodule
"""


def one_player(body):
    return build_csg(parse_model(ONE_PLAYER.format(body=body)))


class TestProbabilityPaths:
    def test_state_dependent_probabilities(self):
        # x=0: 1/4 to x=1, 3/4 to x=2; x=1: both branches lead to x=2 and
        # merge; x=2: the guard is false, so the idle self-loop
        g = one_player("  [a] x<2 -> (x+1)/4:(x'=x+1) + (3-x)/4:(x'=2);")
        assert g.states == ((0,), (1,), (2,))
        assert g.trans[(0,)] == {("a",): {(1,): F(1, 4), (2,): F(3, 4)}}
        assert list(g.trans[(0,)][("a",)]) == [(1,), (2,)]
        assert g.trans[(1,)] == {("a",): {(2,): F(1)}}
        assert g.trans[(2,)] == {("-",): {(2,): F(1)}}
        assert all(type(p) is Fraction for s in g.states
                   for d in g.trans[s].values() for p in d.values())

    def test_sum_fails_in_some_states_only(self):
        # sums to 1 at x=0, to 1/2 at x=1
        with pytest.raises(ProbabilitySum) as err:
            one_player("  [a] x<2 -> 1/2:(x'=1) + (1-x)/2:(x'=0);")
        assert str(err.value) == \
            "probabilities at line 5 sum to 1/2 at state {'x': 1}"

    def test_bad_constant_command_raises_where_it_first_fires(self):
        with pytest.raises(ProbabilitySum) as err:
            one_player("  [a] x<2 -> (x'=x+1);\n"
                       "  [b] x=1 -> 0.3:(x'=0) + 0.3:(x'=2);")
        assert str(err.value) == \
            "probabilities at line 6 sum to 3/5 at state {'x': 1}"

    def test_negative_constant_probability_raises_where_it_fires(self):
        with pytest.raises(ProbabilitySum) as err:
            one_player("  [a] x<2 -> (x'=x+1);\n"
                       "  [b] x=2 -> -0.5:(x'=0) + 1.5:(x'=1);")
        assert str(err.value) == "negative probability at line 6"

    def test_update_clash_names_the_first_state_and_both_lines(self):
        with pytest.raises(UpdateClash) as err:
            one_player("  [a] x<2 -> (x'=x+1);\n  [a] x=1 -> (x'=0);")
        assert str(err.value) == ("module 'm': two commands (lines 5 and 6) "
                                  "fire together at state {'x': 1}")

    def test_bad_constant_command_that_never_fires(self):
        good = one_player("  [a] x<2 -> (x'=x+1);")
        g = one_player("  [a] x<2 -> (x'=x+1);\n"
                       "  [b] x>5 -> 0.3:(x'=0) + 0.3:(x'=1) + 1/0:(x'=2);")
        assert g.states == good.states
        assert g.trans == good.trans


class TestErrorOrder:
    # each message recorded with the builder that evaluated every guard,
    # probability and update at every state
    def test_first_failing_guard_in_guard_order(self):
        # at x=1, y=1 the guards of lines 6 and 7 both fail; they read
        # different variables, and line 6's error is raised
        with pytest.raises(ModelTypeError) as err:
            build_csg(parse_model("""
player p1 m endplayer
module m
  x : [0..2] init 0;
  y : [0..2] init 0;
  [a] x<2 -> (x'=x+1)&(y'=min(y+1,2));
  [b] x<1 | y -> (y'=0);
  [c] x<1 | x -> (y'=1);
endmodule
"""))
        assert str(err.value) == "expected a boolean in ((x < 1) | y)"

    def test_range_overflow_at_the_first_state(self):
        # m2's guard reads nothing and its update reads m1's x: the states
        # (3,3) and (2,3) overflow, and (3,3) is discovered first
        with pytest.raises(RangeOverflow) as err:
            build_csg(parse_model("""
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..3] init 0;
  [a] true -> 1/2:(x'=min(x+1,3)) + 1/2:(x'=x);
endmodule
module m2
  y : [0..4] init 0;
  [b] true -> (y'=x+y);
endmodule
"""))
        assert str(err.value) == \
            "variable 'y' leaves its range [0..4] (value 6)"

    def test_probability_sum_names_the_whole_state(self):
        # m1's probabilities read m2's y only; the message still names x
        with pytest.raises(ProbabilitySum) as err:
            build_csg(parse_model("""
player p1 m1 endplayer
player p2 m2 endplayer
module m1
  x : [0..2] init 0;
  [a] true -> 1/2:(x'=min(x+1,2)) + (1/2+max(y-1,0)/4):(x'=0);
endmodule
module m2
  y : [0..2] init 0;
  [b] true -> (y'=min(y+1,2));
endmodule
"""))
        assert str(err.value) == \
            "probabilities at line 6 sum to 5/4 at state {'x': 2, 'y': 2}"


class TestConstantAssignments:
    # a constant assigned value is checked once, when its command is
    # compiled; one the variable cannot hold is checked where it fires
    def test_valid_constants_are_not_checked_at_each_firing(self,
                                                            monkeypatch):
        calls = []
        original = lang._VarInfo.check

        def spy(info, value):
            calls.append(value)
            return original(info, value)

        monkeypatch.setattr(lang._VarInfo, "check", spy)
        g = one_player("  [a] x<2 -> (x'=x+1);\n  [b] true -> (x'=0);")
        assert g.states == ((0,), (1,), (2,))
        assert all(g.trans[s][("b",)] == {(0,): F(1)} for s in g.states)
        # the initial value, the constant 0 once, x+1 at x=0 and x=1
        assert calls == [0, 0, 1, 2]

    def test_bad_constant_raises_where_it_first_fires(self):
        with pytest.raises(RangeOverflow) as err:
            one_player("  [a] x<2 -> (x'=x+1);\n  [b] x=1 -> (x'=5);")
        assert str(err.value) == \
            "variable 'x' leaves its range [0..2] (value 5)"
        # x=1 is reached before x=2, so its probability error comes first
        with pytest.raises(ProbabilitySum):
            one_player("  [a] x<2 -> (x'=x+1);\n  [b] x=2 -> (x'=5);\n"
                       "  [c] x=1 -> 0.3:(x'=0) + 0.3:(x'=2);")
        with pytest.raises(ModelTypeError, match="must be an integer"):
            one_player("  [a] true -> (x'=true);")

    def test_bad_constant_that_never_fires(self):
        good = one_player("  [a] x<2 -> (x'=x+1);")
        g = one_player("  [a] x<2 -> (x'=x+1);\n"
                       "  [b] x>5 -> 0.5:(x'=7) + 0.5:(x'=true);")
        assert g.states == good.states
        assert g.trans == good.trans


class TestSharedGuards:
    # equal guards are evaluated once per state; guards that only look
    # alike must stay apart
    def test_literals_of_different_types_stay_apart(self):
        # !false holds, !0 is a type error: 0 == false must not merge them
        with pytest.raises(ModelTypeError, match="expected a boolean"):
            one_player("  [a] !false -> (x'=1);\n  [b] !0 -> (x'=2);")

    def test_equal_guards_build_like_distinct_ones(self):
        shared = one_player("  [a] x<2 -> (x'=x+1);\n  [b] x<2 -> (x'=0);")
        apart = one_player("  [a] x<2 -> (x'=x+1);\n  [b] 2>x -> (x'=0);")
        assert shared.states == apart.states
        assert shared.trans == apart.trans

    def test_unknown_name_reports_the_first_guard(self):
        with pytest.raises(UndeclaredSymbol) as err:
            one_player("  [a] u>0 -> (x'=1);\n  [b] u>0 -> (x'=2);")
        assert str(err.value).startswith("5:")
