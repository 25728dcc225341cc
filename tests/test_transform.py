"""Step-counter product constructions for mixed-horizon objective pairs."""

from fractions import Fraction as F

from hypothesis import given, settings

from conftest import ACYCLIC_GAME, acyclic_csgs, model_path, pair_query
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import build_csg, parse_model
from csgnash.model import coalition_game
from csgnash.nash import evaluate, mixed_horizon_transform
from csgnash.properties import StateSet, parse_property


def initial_pair(evaluation):
    return next(iter(evaluation.initial.values()))


def transform(csg, text):
    node = parse_property(text)
    cg = coalition_game(csg, node.coalition1)
    return mixed_horizon_transform(cg, node)


class TestConstructions:
    def setup_method(self):
        self.csg = load_explicit(model_path("fig1.csgx"))
        self.n = len(self.csg.states)

    def test_next_product_layers_and_labels(self):
        product, query, embedding = transform(
            self.csg, "<<p1:p2>>max=? (P[X sent1] + P[F sent2])")
        # layers 0, 1 and an absorbing top layer so the rewritten target can
        # only be reached exactly one step in
        assert len(product.states) == 3 * self.n
        first, second = query.objectives
        assert first.sub2 == StateSet(frozenset(
            (s, 1) for s in self.csg.states if "sent1" in self.csg.labels[s]))
        # the infinite objective's target holds in every layer
        assert second.sub2 == StateSet(frozenset(
            (s, i) for s in self.csg.states if "sent2" in self.csg.labels[s]
            for i in range(3)))
        assert embedding["s0"] == ("s0", 0)
        assert first.op == "U"
        assert not first.is_finite_horizon()

    def test_bounded_until_product_labels_respect_the_bound(self):
        k = 2
        product, query, _ = transform(
            self.csg, f"<<p1:p2>>max=? (P[F<={k} sent1] + P[F sent2])")
        assert len(product.states) == (k + 2) * self.n
        cons, target = query.objectives[0].sub1, query.objectives[0].sub2
        assert cons == StateSet(frozenset(
            (s, i) for s in self.csg.states
            for i in range(k)))                     # "true" below the bound
        assert target == StateSet(frozenset(
            (s, i) for s in self.csg.states if "sent1" in self.csg.labels[s]
            for i in range(k + 1)))

    def test_layers_advance_and_saturate(self):
        product, _, _ = transform(
            self.csg, "<<p1:p2>>max=? (P[X sent1] + P[F sent2])")
        cap = max(i for _, i in product.states)
        for (s, i) in product.states:
            for dist in product.trans[(s, i)].values():
                assert all(j == min(i + 1, cap) for (_, j) in dist)


    def test_declared_label_that_never_holds_stays_known(self):
        # the product must carry the declared label names: "never" holds in
        # no reachable state, so only the declaration makes it a label
        with open(model_path("robot.csg"), encoding="utf-8") as handle:
            text = handle.read() + '\nlabel "never" = x1=l & y1=l;\n'
        csg = build_csg(parse_model(text), {"l": 3})
        ev = evaluate(csg, parse_property(
            "<<p1:p2>>max=? (P[F<=4 goal1] + P[F never])", csg))
        assert initial_pair(ev) == (1, 0)


class TestRewardConstructions:
    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def test_instantaneous_reward_paid_only_at_the_bound_layer(self):
        k = 1
        product, query, _ = transform(
            self.csg,
            f'<<p1:p2>>max=? (R{{"r1"}}[I={k}] + R{{"r2"}}[F end])')
        bounded = product.rewards["__bounded"]
        action_map, state_map = bounded.action_rewards, bounded.state_rewards
        assert not action_map
        assert state_map == {("m2", k): F(3)}       # the only r1 state reward
        assert query.objectives[0].reward == "__bounded"

    def test_cumulative_reward_zeroed_at_the_final_layer(self):
        k = 1
        product, _, _ = transform(
            self.csg,
            f'<<p1:p2>>max=? (R{{"r1"}}[C<={k}] + R{{"r2"}}[F end])')
        bounded = product.rewards["__bounded"]
        action_map, state_map = bounded.action_rewards, bounded.state_rewards
        assert all(i < k for (_, i) in state_map)
        assert all(i < k for ((_, i), _) in action_map)
        assert action_map[(("s0", 0), (("a1",), ("b1",)))] == 2


class TestValueAgreement:
    """On an acyclic game of depth d, the product route for a mixed pair must
    agree with the direct backwards induction once the infinite objective is
    re-expressed with bound d."""

    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def agree(self, mixed, bounded):
        via_product = evaluate(self.csg, parse_property(mixed))
        direct = evaluate(self.csg, parse_property(bounded))
        assert via_product.game.base is None        # solved on the product
        for s in self.csg.states:
            assert via_product.values[s] == direct.values[s]

    def test_next_with_eventuality(self):
        self.agree("<<p1:p2>>max=? (P[X g1] + P[F g2])",
                   "<<p1:p2>>max=? (P[X g1] + P[F<=2 g2])")

    def test_bounded_until_with_eventuality(self):
        self.agree("<<p1:p2>>max=? (P[F<=1 g1] + P[F g2])",
                   "<<p1:p2>>max=? (P[F<=1 g1] + P[F<=2 g2])")

    def test_finite_objective_in_second_position(self):
        self.agree("<<p1:p2>>max=? (P[F g1] + P[X g2])",
                   "<<p1:p2>>max=? (P[F<=2 g1] + P[X g2])")

    def test_nested_operator_in_the_infinite_objective(self):
        # the inner operator is solved on the base game, then lifted
        nested = "(g2 & <<{p1,p2}>>P>=1 [F g1])"
        self.agree(f"<<p1:p2>>max=? (P[F<=2 g1] + P[F {nested}])",
                   f"<<p1:p2>>max=? (P[F<=2 g1] + P[F<=2 {nested}])")


class TestRandomAcyclicGames:
    """Where every play is absorbed within k steps, an unbounded reachability
    objective is worth what its k-step bound is, so the unbounded pair and
    both mixed pairs (through the product) equal the both-bounded pair at
    horizon k, the fixture's check on random games."""

    @settings(max_examples=150, deadline=None)
    @given(acyclic_csgs())
    def test_unbounded_and_mixed_equal_bounded(self, case):
        csg, coalition, k = case
        want = evaluate(csg, pair_query(csg, coalition, "P", (k, k))).values
        for bounds in ((None, None), (k, None), (None, k)):
            got = evaluate(csg, pair_query(csg, coalition, "P", bounds))
            assert got.solve.converged
            assert got.values == want, bounds

class TestRewardValuesByHand:
    def setup_method(self):
        self.csg = loads_explicit(ACYCLIC_GAME)

    def test_instantaneous_zero_bound_forces_the_other_objective_maximal(self):
        # I=0 pays the current state's reward whatever is played, so the
        # welfare-optimal profile maximises the reachability reward alone
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[I=0] + R{"r2"}[F end])'))
        assert ev.values["s0"] == (0, 1)
        assert ev.values["m2"] == (3, 0)

    def test_one_step_cumulative_with_reachability_reward(self):
        # (a1,b1) at s0 collects the r1 action reward 2 and routes through
        # m1 whose r2 state reward is 1; no unilateral deviation improves
        ev = evaluate(self.csg, parse_property(
            '<<p1:p2>>max=? (R{"r1"}[C<=1] + R{"r2"}[F end])'))
        assert ev.values["s0"] == (2, 1)
