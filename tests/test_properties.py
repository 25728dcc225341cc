from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgnash.errors import (
    BadThreshold,
    CoalitionNotPartition,
    PropertySyntaxError,
    UndeclaredSymbol,
    UndefinedConstant,
    UnknownPlayer,
    UnknownReward,
)
from csgnash.explicit import load_explicit
from csgnash import nash
from csgnash.lang import build_csg, load_model, parse_model
from csgnash.properties import (
    And,
    Atom,
    NashNode,
    Not,
    Objective,
    TrueF,
    VarPredicate,
    ZeroSumNode,
    classify_horizon,
    parse_property,
    parse_property_file,
    property_lines,
    satisfying_states,
    to_text,
)

from conftest import model_path

F = Fraction


def fig1():
    return load_explicit(model_path("fig1.csgx"))


class TestParsing:
    def test_nash_prob_pair(self):
        g = fig1()
        f = parse_property("<<p1:p2>>max=? (P[F sent1] + P[F sent2])", g)
        assert isinstance(f, NashNode)
        assert f.coalition1 == ("p1",) and f.coalition2 == ("p2",)
        assert f.relation == "max=?"
        first, second = f.objectives
        assert first == Objective("P", "U", sub1=TrueF(), sub2=Atom("sent1"))
        assert second.sub2 == Atom("sent2")

    def test_nash_until_pair(self):
        g = fig1()
        f = parse_property(
            "<<p1:p2>>max=? (P[!send2 U send1] + P[!send1 U send2])", g)
        first, _ = f.objectives
        assert first.sub1 == Not(Atom("send2"))
        assert first.bound is None

    def test_nash_threshold(self):
        g = fig1()
        f = parse_property("<<p1:p2>> >=2 (P[F sent1] + P[F sent2])", g)
        assert f.relation == ">=" and f.threshold == 2

    def test_coalition_sets(self):
        f = parse_property(
            "<<p1:{p2,p3}>>max=? (P[F (a & t<=4)] + P[F (b & c)])")
        assert f.coalition2 == ("p2", "p3")
        target = f.objectives[0].sub2
        assert isinstance(target, And)
        assert isinstance(target.right, VarPredicate)

    def test_bounded_sugars(self):
        f = parse_property("<<p1:p2>>max=? (P[F<=5 a] + P[b U<=3 c])")
        assert f.objectives[0] == Objective("P", "U", sub1=TrueF(),
                                            sub2=Atom("a"), bound=5)
        assert f.objectives[1].bound == 3

    def test_reward_pair(self):
        g = load_explicit(model_path("appendix_c.csgx"))
        f = parse_property('<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])', g)
        assert f.objectives[0].reward == "r1"
        assert f.objectives[0].op == "F"

    def test_bounded_rewards(self):
        f = parse_property("<<p1:p2>>max=? (R{r1}[C<=4] + R{r2}[I=2])")
        assert f.objectives[0] == Objective("R", "C", bound=4, reward="r1")
        assert f.objectives[1] == Objective("R", "I", bound=2, reward="r2")

    def test_zero_sum_node(self):
        g = fig1()
        f = parse_property("<<p1>>P>=0.5[F sent1]", g)
        assert isinstance(f, ZeroSumNode)
        assert f.relation == ">=" and f.threshold == F(1, 2)

    def test_constant_bound_resolution(self):
        f = parse_property("<<p1:p2>>max=? (P[F<=k a] + P[F b])",
                           constants={"k": 7})
        assert f.objectives[0].bound == 7

    def test_boolean_connectives(self):
        f = parse_property("a & !b | true")
        assert to_text(f) == "((a & !(b)) | true)"


class TestParseErrors:
    def test_unknown_player(self):
        with pytest.raises(UnknownPlayer):
            parse_property("<<p9:p2>>max=? (P[F a] + P[F b])", fig1())

    def test_not_a_partition(self):
        with pytest.raises(CoalitionNotPartition):
            parse_property("<<p1:p1>>max=? (P[F a] + P[F b])", fig1())

    def test_unknown_reward(self):
        with pytest.raises(UnknownReward):
            parse_property("<<p1:p2>>max=? (R{zz}[C<=1] + R{zz}[C<=1])", fig1())

    @pytest.mark.parametrize("text", [
        '<<p1:p2>>max=? (R{"nope"}[F sent1] + R{"nope"}[F sent2])',
        '<<{p1,p2}>>R{"nope"}max=? [C<=2]',
    ])
    def test_unknown_reward_of_a_formula_parsed_without_its_model(
            self, monkeypatch, text):
        # evaluation checks the names parsing could not, before any game is
        # built
        def unbuilt(*args, **kwargs):
            raise AssertionError("a game was built")

        monkeypatch.setattr(nash, "coalition_game", unbuilt)
        monkeypatch.setattr(nash, "joint_mdp", unbuilt)
        csg = load_model(model_path("fig1.csg"))
        with pytest.raises(UnknownReward, match="'nope'"):
            nash.evaluate(csg, parse_property(text))

    def test_bad_probability_threshold(self):
        with pytest.raises(BadThreshold):
            parse_property("<<p1>>P>=1.5[F a]", fig1())

    def test_bad_bound(self):
        with pytest.raises(BadThreshold):
            parse_property("<<p1:p2>>max=? (P[F<=0.5 a] + P[F b])", fig1())

    def test_mixed_pair_rejected(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("<<p1:p2>>max=? (P[F a] + R{r1}[F a])",
                           load_explicit(model_path("appendix_c.csgx")))

    def test_undefined_constant(self):
        with pytest.raises(UndefinedConstant):
            parse_property("<<p1:p2>>max=? (P[F<=k a] + P[F b])", fig1())

    def test_trailing_garbage(self):
        with pytest.raises(PropertySyntaxError):
            parse_property("a & b extra")


class TestClassifyHorizon:
    def case(self, text, **kw):
        return parse_property(text, **kw)

    def test_both_finite(self):
        f = self.case("<<p1:p2>>max=? (P[F<=3 a] + P[F<=5 b])")
        assert classify_horizon(f) == "both-finite"

    def test_mixed_first_finite(self):
        f = self.case("<<p1:p2>>max=? (P[X a] + P[b U c])")
        assert classify_horizon(f) == "mixed-first-finite"

    def test_mixed_second_finite(self):
        f = self.case("<<p1:p2>>max=? (R{r}[F a] + R{r}[C<=2])")
        assert classify_horizon(f) == "mixed-second-finite"

    def test_both_infinite(self):
        f = self.case("<<p1:p2>>max=? (R{r}[F a] + R{r}[F b])")
        assert classify_horizon(f) == "both-infinite"


SAMPLES = [
    "true",
    "sent1",
    "!(sent1)",
    "(sent1 & sent2)",
    "(a | (b & !(c)))",
    "<<p1:p2>>max=?(P[F sent1] + P[F sent2])",
    "<<p1:p2>>>=2(P[F sent1] + P[F sent2])",
    "<<p1:p2>>max=?(P[!(send2) U send1] + P[!(send1) U send2])",
    "<<p1:p2>>max=?(P[F<=5 a] + P[a U<=3 b])",
    '<<p1:p2>>max=?(R{"r1"}[C<=4] + R{"r2"}[I=2])',
    '<<p1:p2>>max=?(R{"r1"}[F a] + R{"r2"}[F a])',
    "<<p1>>P>=0.5[F sent1]",
    "<<p1>>Pmax=?[X sent1]",
    '<<p2>>R{"r1"}<=3[C<=2]',
    "<<p1:p2>><0.25(P[F (a & b)] + P[F c])",
]


class TestRoundTrip:
    @pytest.mark.parametrize("text", SAMPLES)
    def test_print_parse_identity(self, text):
        first = parse_property(text)
        again = parse_property(to_text(first))
        assert first == again


class TestSatisfyingStates:
    def test_labels(self):
        g = fig1()
        assert satisfying_states(g, Atom("sent1")) == {"s1", "s3", "s5"}
        assert satisfying_states(g, TrueF()) == set(g.states)
        both = parse_property("sent1 & sent2", g)
        assert satisfying_states(g, both) == {"s1", "s5"}
        neither = parse_property("!sent1 & !sent2", g)
        assert satisfying_states(g, neither) == {"s0", "s2"}

    def test_unknown_atom(self):
        with pytest.raises(UndeclaredSymbol):
            satisfying_states(fig1(), Atom("nope"))

    def test_var_predicate_requires_valuations(self):
        with pytest.raises(UndeclaredSymbol):
            satisfying_states(fig1(), parse_property("x<=2"))

    def test_variables_are_read_from_the_state_tuple(self):
        g = build_csg(parse_model(
            "const int K = 2;\nplayer p1 m endplayer\nmodule m\n"
            "  x : [0..3] init 0;\n  b : bool init false;\n"
            "  [a] x<3 -> (x'=x+1) & (b'=!b);\nendmodule\n"))
        assert g.variables == ("x", "b")
        assert g.states == ((0, False), (1, True), (2, False), (3, True))
        assert satisfying_states(g, Atom("b")) == {(1, True), (3, True)}
        assert satisfying_states(g, parse_property("x>=K & !b", g)) == \
            {(2, False)}
        with pytest.raises(UndeclaredSymbol,
                           match="'x' is not a label or boolean variable"):
            satisfying_states(g, Atom("x"))


@st.composite
def coalition_splits(draw):
    players = ["p1", "p2", "p3", "p4"]
    side1 = draw(st.lists(st.sampled_from(players), min_size=1, max_size=4,
                          unique=True))
    side2 = draw(st.lists(st.sampled_from(players), min_size=1, max_size=4,
                          unique=True))
    return side1, side2


class FakeModel:
    players = ("p1", "p2", "p3", "p4")
    constants = {}
    rewards = {}
    labels = {}
    states = ()


class TestPartitionFuzz:
    @settings(max_examples=80, deadline=None)
    @given(coalition_splits())
    def test_non_partitions_always_rejected(self, split):
        side1, side2 = split
        text = (f"<<{{{','.join(side1)}}}:{{{','.join(side2)}}}>>"
                f"max=? (P[F a] + P[F b])")
        is_partition = (not set(side1) & set(side2) and
                        set(side1) | set(side2) == set(FakeModel.players))
        if is_partition:
            node = parse_property(text, FakeModel())
            assert isinstance(node, NashNode)
        else:
            with pytest.raises(CoalitionNotPartition):
                parse_property(text, FakeModel())


class TestPropertyFile:
    def test_file_parsing(self):
        g = fig1()
        text = """
// two queries
<<p1:p2>>max=? (P[F sent1] + P[F sent2])

<<p1:p2>> >=2 (P[F sent1] + P[F sent2])  // threshold form
"""
        props = parse_property_file(text, g)
        assert len(props) == 2
        assert props[0].relation == "max=?"
        assert props[1].threshold == 2

    def test_lines_drop_comments_and_blanks(self):
        text = "// header\n\n  a // note\nb\n   // only a comment\n"
        assert property_lines(text) == ["a", "b"]
