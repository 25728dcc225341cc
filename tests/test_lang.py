from fractions import Fraction

import pytest

from csgnash.errors import (
    AlphabetViolation,
    ModelSyntaxError,
    ModelTypeError,
    ProbabilitySum,
    RangeOverflow,
    UndeclaredSymbol,
    UndefinedConstant,
    UpdateClash,
)
from csgnash.explicit import dumps_explicit, loads_explicit
from csgnash.lang import build_csg, load_model, parse_model

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
                       if g.valuations[s]["e1"] == 0
                       and g.valuations[s]["e2"] == 0)
        assert available(g, drained, "p1") == ["w1"]
        full = g.initial[0]
        assert available(g, full, "p1") == ["t1", "w1"]

    def test_correlated_channel_outcome(self):
        g = load_model(model_path("mac.csg"))
        init = g.initial[0]
        joint = ("t1", "t2")
        dist = g.trans[init][joint]
        succ = {g.valuations[s]["s1"]: p for s, p in dist.items()}
        # one probabilistic draw decides both flags together
        assert succ == {1: F(3, 4), 0: F(1, 4)}
        for s in dist:
            v = g.valuations[s]
            assert v["s1"] == v["s2"]

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
        sent = next(s for s in lone if g.valuations[s]["s1"] == 1)
        after_wait = g.trans[sent][("w1", "w2")]
        ((succ, p),) = after_wait.items()
        assert p == 1 and g.valuations[succ]["s1"] == 0


class TestOneShot:
    def test_five_states(self):
        g = load_model(model_path("fig1.csg"))
        assert len(g.states) == 5
        init = g.initial[0]
        assert g.labels[init] == frozenset()
        both = g.trans[init][("t1", "t2")]
        assert {p for p in both.values()} == {F(3, 4), F(1, 4)}

    def test_sticky_flags(self):
        g = load_model(model_path("fig1.csg"))
        init = g.initial[0]
        ((sent, _),) = g.trans[init][("t1", "w2")].items()
        assert "sent1" in g.labels[sent]
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
        g = load_model(model_path("fig1.csg"))
        named = {
            s: f"u{i}" for i, s in enumerate(g.states)
        }
        text_game = loads_explicit(dumps_explicit(
            type(g).create(
                g.players, g.alphabets,
                [named[s] for s in g.states],
                [named[s] for s in g.initial],
                {named[s]: {a: {named[t]: p for t, p in d.items()}
                            for a, d in g.trans[s].items()}
                 for s in g.states},
                {named[s]: set(g.labels[s]) for s in g.states},
                {})))
        assert len(text_game.states) == len(g.states)
        assert sum(len(text_game.trans[s]) for s in text_game.states) == \
            sum(len(g.trans[s]) for s in g.states)


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
