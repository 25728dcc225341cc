from fractions import Fraction

import pytest

from csgnash.errors import CsgError, ModelError
from csgnash.explicit import dumps_explicit, load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import Csg

from conftest import model_path

F = Fraction


class TestParsing:
    def test_fig1_shape(self):
        g = load_explicit(model_path("fig1.csgx"))
        assert g.players == ("p1", "p2")
        assert len(g.states) == 6
        assert g.initial == ("s0",)
        assert g.trans["s0"][("t1", "t2")] == {"s1": F(3, 4), "s2": F(1, 4)}
        assert "s3" in g.labels["sent1"] and "s3" not in g.labels["sent2"]

    def test_appendix_c_rewards(self):
        g = load_explicit(model_path("appendix_c.csgx"))
        assert g.rewards["r1"].action("s1", ("s1_", "-")) == F(1, 3)
        assert g.rewards["r1"].action("s2", ("-", "s2_")) == F(2)
        assert g.rewards["r2"].action("s2", ("-", "s2_")) == F(1, 3)
        assert g.rewards["r1"].action("t1", ("-", "-")) == 0

    def test_probability_formats(self):
        g = loads_explicit("""
player p1 a b
player p2
init u
u (a,-) -> 0.25:u + 3/4:v
u (b,-) -> 1:v
v (-,-) -> 1:v
""")
        assert g.trans["u"][("a", "-")] == {"u": F(1, 4), "v": F(3, 4)}

    def test_merged_duplicate_successors(self):
        g = loads_explicit("""
player p1 a
player p2
init u
u (a,-) -> 1/2:u + 1/2:u
""")
        assert g.trans["u"][("a", "-")] == {"u": F(1)}

    def test_errors(self):
        with pytest.raises(ModelError):
            loads_explicit("init u\nu (a) -> 1:u\n")     # no players
        with pytest.raises(ModelError):
            loads_explicit("player p1 a\ninit u\nu (a) -> 0.9:u\n")
        with pytest.raises(ModelError):
            loads_explicit("player p1 a\ninit u\nu (a) -> one:u\n")
        with pytest.raises(ModelError):
            loads_explicit("player p1 a\ninit u\nnonsense line here\n")
        with pytest.raises(ModelError):
            loads_explicit("player p1 a\ninit u\nu (a) -> 1:u\nu (a) -> 1:u\n")

    def test_reward_line_without_a_value(self):
        with pytest.raises(ModelError, match="line 3"):
            loads_explicit("player p1 a\ninit u\nreward r1 state u\n"
                           "u (a) -> 1:u\n")

    def test_state_reward_line_with_an_extra_token(self):
        with pytest.raises(ModelError, match="line 3: unexpected token '7'"):
            loads_explicit("player p1 a\ninit u\nreward r1 state u 2 7\n"
                           "u (a) -> 1:u\n")

    def test_action_reward_line_without_a_value(self):
        with pytest.raises(ModelError, match="line 3: reward line has no value"):
            loads_explicit("player p1 a\ninit u\nreward r1 action u (a)\n"
                           "u (a) -> 1:u\n")

    def test_action_reward_tuple_may_contain_spaces(self):
        g = loads_explicit("player p1 a\nplayer p2 b\ninit u\n"
                           "reward r1 action u (a, b) 1/2\n"
                           "u (a,b) -> 1:u\n")
        assert g.rewards["r1"].action("u", ("a", "b")) == F(1, 2)

    def test_transition_tuple_may_contain_spaces(self):
        g = loads_explicit("player p1 a\nplayer p2 b\ninit u\n"
                           "u (a, b) -> 1:u\n")
        assert g.trans["u"] == {("a", "b"): {"u": F(1)}}
        with pytest.raises(ModelError, match="line 4: expected 'state"):
            loads_explicit("player p1 a\nplayer p2 b\ninit u\n"
                           "u (a, b) c -> 1:u\n")

    @pytest.mark.parametrize("first, again", [
        ("state u 2", "state u 3"),
        ("action u (a,b) 2", "action u (a, b) 3"),
    ])
    def test_repeated_reward_line_is_an_error(self, first, again):
        # a later line would silently replace the earlier value
        with pytest.raises(ModelError, match="line 5: duplicate reward 'r'"):
            loads_explicit(f"player p1 a\nplayer p2 b\ninit u\n"
                           f"reward r {first}\nreward r {again}\n"
                           f"u (a,b) -> 1:u\n")


@pytest.mark.parametrize("load, suffix", [(load_explicit, ".csgx"),
                                          (load_model, ".csg")])
def test_loader_rejects_a_file_that_is_not_utf8(tmp_path, load, suffix):
    path = tmp_path / f"game{suffix}"
    path.write_bytes(b"player p1 m\n\xff\n")
    with pytest.raises(CsgError, match="not UTF-8 text"):
        load(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["fig1.csgx", "appendix_b.csgx",
                                      "appendix_c.csgx"])
    def test_dump_then_load_is_isomorphic(self, name):
        g = load_explicit(model_path(name))
        h = loads_explicit(dumps_explicit(g))
        assert h.players == g.players
        assert h.alphabets == g.alphabets
        assert set(h.states) == set(g.states)
        assert h.initial == g.initial
        assert h.trans == g.trans
        assert h.labels == g.labels
        assert h.rewards == g.rewards

    def test_language_built_game(self):
        # each state is written as its valuation, `(x1=0,y1=0,x2=2,y2=0)`
        g = load_model(model_path("robot.csg"), {"l": 3})
        text = dumps_explicit(g)
        assert "init (x1=0,y1=0,x2=2,y2=0)\n" in text
        h = loads_explicit(text)
        named = {s: g.state_name(s) for s in g.states}
        assert len(h.states) == 44
        assert sum(len(h.trans[s]) for s in h.states) == 128
        assert sorted(h.labels) == ["crash", "goal1", "goal2"]
        assert h.initial == tuple(named[s] for s in g.initial)
        assert h.trans == {named[s]: {joint: {named[t]: p
                                              for t, p in dist.items()}
                                      for joint, dist in g.trans[s].items()}
                           for s in g.states}
        assert h.labels == {label: frozenset(named[s] for s in holds)
                            for label, holds in g.labels.items()}

    def test_probabilities_past_the_int_to_str_limit(self):
        # 10**4400 has more digits than str() of an int may write
        tiny = F(1, 10 ** 4400)
        g = Csg.create(["p1"], {"p1": ["a"]}, ["s0", "g"], ["s0"],
                       {"s0": {("a",): {"s0": 1 - tiny, "g": tiny}}},
                       {"goal": {"g"}})
        text = dumps_explicit(g)
        branch = next(line for line in text.splitlines()
                      if line.startswith("s0 "))
        assert branch.startswith("s0 (a) -> 1/1" + "0" * 4400 + ":g + 9")
        assert "label g goal" in text
