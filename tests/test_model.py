from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgnash import mdp as mdp_module
from csgnash import model, nash
from csgnash.errors import (
    EmptyCoalition,
    FullCoalition,
    IncompleteStrategy,
    InfiniteValue,
    ModelError,
    NotConverged,
    UnknownPlayer,
)
from csgnash.explicit import load_explicit, loads_explicit
from csgnash.lang import load_model
from csgnash.model import (
    IDLE,
    Csg,
    IndexedMdp,
    MemoryStrategy,
    RewardStructure,
    coalition_game,
    enumerate_mecs,
    induce_mdp,
    induced_chain,
    joint_mdp,
)
from csgnash.nash import evaluate
from csgnash.expr import Lit
from csgnash.properties import NashNode, Objective, parse_property
from csgnash.synthesis import synthesise_profile

from conftest import (REWARD_GAME, labelled, model_path, pair_query,
                      small_csgs)
from oracles import (Mdp, chain_by_dict_fold, choice_numbering,
                     coalition_trans, induce_mdp_by_dict_fold,
                     joint_mdp_by_dicts, maximal_end_components, regroup)

F = Fraction


def fig1():
    return load_explicit(model_path("fig1.csgx"))


def appendix_b():
    return load_explicit(model_path("appendix_b.csgx"))


def tiny_game(**overrides):
    spec = dict(
        players=["p1", "p2"],
        alphabets={"p1": ["a"], "p2": ["b"]},
        states=["u", "v"],
        initial=["u"],
        trans={
            "u": {("a", "b"): {"v": F(1)}},
            "v": {("a", "b"): {"v": F(1)}},
        },
        labels={"goal": {"v"}},
    )
    spec.update(overrides)
    return Csg.create(**spec)


class TestValidation:
    def test_basic_build(self):
        g = tiny_game()
        assert g.states == ("u", "v")
        assert g.labels["goal"] == frozenset({"v"})

    def test_bad_distribution_sum(self):
        with pytest.raises(ModelError):
            tiny_game(trans={
                "u": {("a", "b"): {"v": F(1, 2)}},
                "v": {("a", "b"): {"v": F(1)}},
            })

    @pytest.mark.parametrize("probs, sums_to_one", [
        ((F(1, 6), F(1, 3), F(1, 2)), True),
        ((F(1, 10), 2, F(-11, 10)), None),
        ((F(1, 3), F(2, 3) - F(1, 10**30)), False),
        ((F(1, 3), F(2, 3) + F(1, 10**30)), False),
    ])
    def test_distribution_sums_exactly(self, probs, sums_to_one):
        dist = dict(zip(["u", "v", "w"], probs))

        def build():
            return tiny_game(states=["u", "v", "w"], trans={
                "u": {("a", "b"): dist}, "v": {("a", "b"): {"v": F(1)}},
                "w": {("a", "b"): {"w": F(1)}}})

        if sums_to_one:
            assert build().trans["u"][("a", "b")] == dist
            return
        message = ("non-positive probability" if sums_to_one is None else
                   r"distribution at u, \('a', 'b'\) does not sum to 1")
        with pytest.raises(ModelError, match=message):
            build()

    def test_overlapping_alphabets_rejected(self):
        with pytest.raises(ModelError):
            tiny_game(alphabets={"p1": ["a"], "p2": ["a"]})

    def test_idle_in_alphabet_rejected(self):
        with pytest.raises(ModelError):
            tiny_game(alphabets={"p1": ["a", IDLE], "p2": ["b"]})

    def test_product_closure_required(self):
        # p1 can pick a or idle at u: mixing real actions and idle per player
        # in one state breaks the availability rule
        with pytest.raises(ModelError):
            tiny_game(
                alphabets={"p1": ["a", "c"], "p2": ["b"]},
                trans={
                    "u": {("a", "b"): {"v": F(1)}, (IDLE, "b"): {"u": F(1)}},
                    "v": {("a", "b"): {"v": F(1)}},
                })

    def test_missing_joint_product_cell(self):
        with pytest.raises(ModelError):
            tiny_game(
                alphabets={"p1": ["a", "c"], "p2": ["b", "d"]},
                trans={
                    "u": {("a", "b"): {"v": F(1)}, ("c", "d"): {"u": F(1)}},
                    "v": {("a", "b"): {"v": F(1)}},
                })

    def test_deadlock_gets_idle_self_loop(self):
        g = tiny_game(trans={
            "u": {("a", "b"): {"v": F(1)}},
            "v": {},
        })
        assert g.trans["v"] == {(IDLE, IDLE): {"v": F(1)}}

    def test_unreachable_states_pruned(self):
        g = tiny_game(
            states=["u", "v", "w"],
            trans={
                "u": {("a", "b"): {"v": F(1)}},
                "v": {("a", "b"): {"v": F(1)}},
                "w": {("a", "b"): {"w": F(1)}},
            },
        )
        assert g.states == ("u", "v")

    @pytest.mark.parametrize("spec", [
        {"trans": {"u": {("a", "b"): {"v": 0.5, "u": 0.5}},
                   "v": {("a", "b"): {"v": F(1)}}}},
        {"rewards": {"r": RewardStructure({("u", ("a", "b")): 0.5}, {})}},
        {"rewards": {"r": RewardStructure({}, {"v": 1.0})}},
    ], ids=["probability", "action-reward", "state-reward"])
    def test_float_numbers_rejected(self, spec):
        with pytest.raises(ModelError, match="float"):
            tiny_game(**spec)

    def test_label_on_an_unknown_state_rejected(self):
        with pytest.raises(ModelError,
                           match="label 'goal' on unknown state w"):
            tiny_game(labels={"goal": {"v", "w"}})

    def test_negative_reward_rejected(self):
        from csgnash.model import RewardStructure
        with pytest.raises(ModelError):
            tiny_game(rewards={"r": RewardStructure(
                {("u", ("a", "b")): F(-1)}, {})})


BUNDLED = [("aloha.csg", {"D": 2}), ("robot.csg", {"l": 3}),
           ("mac.csg", {"emax": 2}), ("power.csg", {}), ("fig1.csg", {}),
           ("fig1.csgx", {}), ("appendix_b.csgx", {}), ("appendix_c.csgx", {})]


def bundled(model, consts):
    if model.endswith(".csgx"):
        return load_explicit(model_path(model))
    return load_model(model_path(model), consts)


def assert_well_formed(csg):
    """`csg.graph` is the game's one transition form: ids are positions,
    rows are sorted by joint action, `owner` and `preds` follow the rows,
    probabilities are positive Fractions summing to 1, and each distinct
    probability tuple (by the identity of its numbers) is stored once."""
    graph = csg.graph
    assert joint_mdp(csg) is graph
    assert graph.ids == {s: i for i, s in enumerate(csg.states)}
    assert type(csg.states) is tuple and graph.number is F
    for row in graph.rows:
        joints = [joint for joint, _, _ in row]
        assert joints == sorted(set(joints))
        for _, succ, probs in row:
            assert len(set(succ)) == len(succ) == len(probs)
            assert all(type(p) is F and p > 0 for p in probs)
            assert sum(probs) == 1
    assert (graph.owner, graph.preds) == choice_numbering(graph.rows)
    tuples = [probs for row in graph.rows for _, _, probs in row]
    assert len({id(t) for t in tuples}) == \
        len({tuple(map(id, t)) for t in tuples})
    assert all(type(probs) is tuple for probs in tuples)


class TestGameGraph:
    @pytest.mark.parametrize("model, consts", BUNDLED)
    def test_bundled_models(self, model, consts):
        assert_well_formed(bundled(model, consts))

    @settings(max_examples=100, deadline=None)
    @given(small_csgs())
    def test_random_games(self, case):
        assert_well_formed(case[0])

    def test_create_sorts_rows_and_prunes_on_the_graph(self):
        # w is unreachable: its id goes, later states move up, and its
        # labels and rewards are dropped
        g = Csg.create(
            ["p1"], {"p1": ["a", "b"]}, ["u", "w", "v"], ["u"],
            {"u": {("b",): {"v": F(1)}, ("a",): {"u": F(1, 2), "v": F(1, 2)}},
             "w": {("a",): {"v": F(1)}}},
            {"x": {"w"}, "y": {"v"}},
            {"r": RewardStructure({("w", ("a",)): 1, ("u", ("b",)): 2},
                                  {"w": 1, "v": 3})})
        assert_well_formed(g)
        assert g.states == ("u", "v")
        assert g.graph.rows == [[(("a",), (0, 1), (F(1, 2), F(1, 2))),
                                 (("b",), (1,), (F(1),))],
                                [((IDLE,), (1,), (F(1),))]]
        assert g.labels == {"x": frozenset(), "y": frozenset({"v"})}
        assert g.rewards == {"r": RewardStructure({("u", ("b",)): 2},
                                                  {"v": 3})}

    def test_trans_is_a_view_of_the_graph(self):
        g = fig1()
        assert "trans" not in vars(g)
        assert list(g.trans) == list(g.states) and len(g.trans) == 6
        assert g.trans["s0"][("t1", "t2")] == {"s1": F(3, 4), "s2": F(1, 4)}
        assert "nowhere" not in g.trans

    @pytest.mark.parametrize("model, consts", BUNDLED)
    def test_regrouping_shares_the_base_graph(self, model, consts):
        # states, ids and successor tuples are the base's; so are the
        # probability tuples of an exact game
        game = bundled(model, consts)
        coalition = game.players[:1] if len(game.players) < 3 \
            else game.players[1:]
        base = game.graph
        base_probs = {id(probs) for row in base.rows for _, _, probs in row}
        for number in (F, float):
            graph = coalition_game(game, coalition, number).graph
            assert graph.states is base.states and graph.ids is base.ids
            for row, base_row in zip(graph.rows, base.rows):
                assert sorted(id(succ) for _, succ, _ in row) == \
                    sorted(id(succ) for _, succ, _ in base_row)
            probs = {id(probs) for row in graph.rows for _, _, probs in row}
            assert (probs <= base_probs) == (number is F)

    def test_each_probability_tuple_is_converted_once(self):
        # a float game calls `float` at most once per number of each
        # distinct probability tuple object, and each such tuple becomes
        # one float tuple
        converted = []

        class Counted(float):
            def __new__(cls, value):
                converted.append(value)
                return super().__new__(cls, value)

        game = load_model(model_path("aloha.csg"), {"D": 2})
        base = game.graph
        distinct = {id(probs): probs for row in base.rows
                    for _, _, probs in row}
        rewards = [v for rs in game.rewards.values()
                   for v in (*rs.action_rewards.values(),
                             *rs.state_rewards.values())]
        graph = coalition_game(game, ["p1"], Counted).graph
        assert len(converted) <= \
            sum(map(len, distinct.values())) + len(rewards)
        assert sum(map(len, distinct.values())) < \
            sum(len(probs) for row in base.rows for _, _, probs in row)
        made = {}
        for row, base_row in zip(graph.rows, base.rows):
            by_joint = {joint: probs for joint, _, probs in base_row}
            for (a1, a2), _, probs in row:
                joint = (*a1, *a2)
                assert made.setdefault(id(by_joint[joint]), probs) is probs


class TestCoalitionGame:
    def test_fig1_split(self):
        g = fig1()
        cg = coalition_game(g, ["p1"])
        assert cg.actions1("s0") == (("t1",), ("w1",))
        assert cg.actions2("s0") == (("t2",), ("w2",))
        # faithfulness: each base joint action, split into the two sides,
        # keeps its distribution, and no other pair is defined
        trans = coalition_trans(cg)
        for s in g.states:
            assert len(trans[s]) == len(g.trans[s])
            for (b1, b2), dist in g.trans[s].items():
                assert trans[s][((b1,), (b2,))] == dist
        # an exact game keeps the base game's numbers, uncopied
        base = {id(p) for s in g.states for dist in g.trans[s].values()
                for p in dist.values()}
        assert all(id(p) in base for row in cg.graph.rows
                   for _, _, probs in row for p in probs)

    def test_three_player_regrouping(self):
        g = Csg.create(
            players=["p1", "p2", "p3"],
            alphabets={"p1": ["a0", "a1"], "p2": ["b0", "b1"], "p3": ["c0", "c1"]},
            states=["s"],
            initial=["s"],
            trans={"s": {(a, b, c): {"s": F(1)}
                         for a in ("a0", "a1")
                         for b in ("b0", "b1")
                         for c in ("c0", "c1")}},
        )
        cg = coalition_game(g, ["p3", "p2"])
        # side 1 holds p2 then p3 (base order), side 2 holds p1
        assert all(b in ("b0", "b1") and c in ("c0", "c1")
                   for b, c in cg.actions1("s"))
        assert cg.actions2("s") == (("a0",), ("a1",))
        assert len(cg.actions1("s")) == 4        # one tuple per (b, c) pair
        assert len(cg.actions2("s")) == 2

    def test_coalition_errors(self):
        g = fig1()
        with pytest.raises(EmptyCoalition):
            coalition_game(g, [])
        with pytest.raises(FullCoalition):
            coalition_game(g, ["p1", "p2"])
        with pytest.raises(UnknownPlayer):
            coalition_game(g, ["p9"])

    def test_one_game_type_carries_its_number(self):
        from oracles import mixed_horizon_transform
        from csgnash.model import CoalitionGame
        from csgnash.properties import parse_property
        g = fig1()
        cg = coalition_game(g, ["p1"])
        assert cg.number is F and coalition_game(g, ["p1"], F).number is F
        assert joint_mdp(g).number is F and joint_mdp(cg).number is F
        floats = coalition_game(g, ["p1"], float)
        assert isinstance(floats, CoalitionGame) and floats.number is float
        assert floats.moves == cg.moves and floats.base is g
        assert coalition_trans(floats) == coalition_trans(cg) and all(
            type(p) is float for row in floats.graph.rows
            for _, _, probs in row for p in probs)
        assert joint_mdp(floats) is floats.graph and \
            floats.graph.number is float
        # equal action lists, probability tuples and converted numbers are
        # stored once
        for game in (cg, floats):
            assert game.moves["s1"] is game.moves["s2"] is game.moves["s5"]
        tuples = [probs for row in floats.graph.rows for _, _, probs in row]
        assert len({id(t) for t in tuples}) == len(set(tuples))
        numbers = [p for probs in tuples for p in probs]
        assert len({id(p) for p in numbers}) == len(set(numbers))
        product, _, _ = mixed_horizon_transform(cg, parse_property(
            "<<p1:p2>>max=? (P[X sent1] + P[F sent2])"))
        assert isinstance(product, CoalitionGame) and product.base is None
        assert all(product.moves[p] is cg.moves[p[0]]
                   for p in product.states)

    @settings(max_examples=100, deadline=None)
    @given(small_csgs(), st.sampled_from([F, float]))
    def test_graph_is_the_dict_regroup(self, case, number):
        # rows, successor order, probability values and types, moves and
        # rewards as the earlier regrouping into dicts gives them
        csg, coalition = case
        cg = coalition_game(csg, coalition, number)
        oracle, moves = regroup(csg, coalition, number)
        assert cg.moves == moves
        assert cg.states == csg.states and cg.initial == csg.initial
        assert_same_mdp(cg.graph, oracle)

    def test_each_number_object_is_converted_once(self):
        converted = []

        class Counted(float):
            def __new__(cls, value):
                converted.append(value)
                return super().__new__(cls, value)

        game = load_model(model_path("aloha.csg"), {"D": 2})
        numbers = [p for s in game.states for dist in game.trans[s].values()
                   for p in dist.values()]
        numbers += [v for rs in game.rewards.values()
                    for v in (*rs.action_rewards.values(),
                              *rs.state_rewards.values())]
        cg = coalition_game(game, ["p1"], Counted)
        assert cg.number is Counted
        assert len({id(v) for v in converted}) == len(converted) <= \
            len({id(v) for v in numbers}) < len(numbers)
        assert {id(v) for v in converted} <= {id(v) for v in numbers}

    @settings(max_examples=100, deadline=None)
    @given(small_csgs(), st.booleans(), st.data())
    def test_closure_is_the_dict_closure(self, case, exact, data):
        csg, coalition = case
        cg = coalition_game(csg, coalition, F if exact else float)
        reads = data.draw(st.sets(st.sampled_from(cg.states), min_size=1))
        closed = joint_mdp(cg, reads)
        oracle = Mdp(cg.states, cg.initial, coalition_trans(cg), cg.rewards,
                     cg.number)
        assert_same_mdp(closed, oracle, reads)


class TestEndComponents:
    def test_appendix_b_mec(self):
        mecs = enumerate_mecs(joint_mdp(appendix_b()))
        by_states = {ec.states: ec for ec in mecs}
        assert frozenset({"s1", "s2"}) in by_states
        assert by_states[frozenset({"s1", "s2"})].non_terminal
        assert not by_states[frozenset({"t1"})].non_terminal
        assert not by_states[frozenset({"t2"})].non_terminal
        assert len(mecs) == 3

    def test_fig1_mecs(self):
        mecs = enumerate_mecs(joint_mdp(fig1()))
        info = {ec.states: ec.non_terminal for ec in mecs}
        # absorbing sinks are terminal; wait self-loops are non-terminal
        assert info[frozenset({"s1"})] is False
        assert info[frozenset({"s2"})] is False
        assert info[frozenset({"s5"})] is False
        assert info[frozenset({"s0"})] is True
        assert info[frozenset({"s3"})] is True
        assert info[frozenset({"s4"})] is True

    def test_matches_bruteforce_on_small_games(self):
        for game in (fig1(), appendix_b()):
            ours = sorted(sorted(ec.states)
                          for ec in enumerate_mecs(joint_mdp(game)))
            brute = sorted(sorted(c) for c in maximal_end_components(game.trans))
            assert ours == brute

    @settings(max_examples=100, deadline=None)
    @given(small_csgs())
    def test_matches_bruteforce_on_random_games(self, case):
        game, _ = case
        mecs = enumerate_mecs(joint_mdp(game))
        assert sorted(sorted(ec.states) for ec in mecs) == \
            sorted(sorted(c) for c in maximal_end_components(game.trans))
        for ec in mecs:
            # non-terminal: some action of a member leaves the component
            assert ec.non_terminal == any(
                not set(dist) <= ec.states
                for s in ec.states for dist in game.trans[s].values())

    def test_sub_trans_closed_and_connected(self):
        for ec in enumerate_mecs(joint_mdp(fig1())) + \
                enumerate_mecs(joint_mdp(appendix_b())):
            for (s, _), dist in ec.sub_trans.items():
                assert s in ec.states
                assert set(dist) <= ec.states

    @settings(max_examples=50, deadline=None)
    @given(small_csgs())
    def test_sub_trans_holds_every_action_that_stays(self, case):
        # the game's distribution of each joint action of a member whose
        # successors all lie in the component
        game, _ = case
        for ec in enumerate_mecs(joint_mdp(game)):
            assert ec.sub_trans == {(s, alpha): dist for s in ec.states
                                    for alpha, dist in game.trans[s].items()
                                    if set(dist) <= ec.states}


class TestMdpExtraction:
    def test_joint_mdp_choices(self):
        g = fig1()
        mdp = joint_mdp(coalition_game(g, ["p1"]))
        assert len(choices_at(mdp, "s0")) == 4
        assert len(choices_at(mdp, "s3")) == 2
        assert mdp.initial == ("s0",)

    def test_joint_mdp_appendix_b(self):
        mdp = joint_mdp(coalition_game(appendix_b(), ["p1"]))
        ids = list(choices_at(mdp, "s1"))
        assert ids == [(("c1",), ("-",)), (("s1_",), ("-",))]


def spied(monkeypatch, module, name):
    """The first argument of each call of `module.name`, and its results;
    the spy replaces the function where `module`'s code looks it up."""
    args, results = [], []
    original = getattr(module, name)

    def spy(first, *rest, **kwargs):
        args.append(first)
        results.append(original(first, *rest, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, name, spy)
    return args, results


class TestOneJointMdp:
    """Each solve and each assumption check builds the joint MDP once per
    closure it reads, and every MDP routine runs on that graph."""

    def test_bounded_solve_indexes_the_joint_mdp_once(self, monkeypatch):
        # the coalition game indexes it, and the solve reads that graph
        _, indexed = spied(monkeypatch, model, "_index")
        read = [spied(monkeypatch, module, "joint_mdp")[1]
                for module in (model, nash)]
        ev = evaluate(fig1(), parse_property(
            "<<p1:p2>>max=? (P[F<=2 sent1] + P[F<=3 sent2])"))
        (graph,) = indexed
        assert isinstance(graph, IndexedMdp) and len(graph.states) == 6
        assert graph is ev.game.graph
        assert read[0] + read[1] == [graph]

    def test_check_assumption_indexes_the_joint_mdp_once(self, monkeypatch):
        # a P[F] and an R[F] objective: the check needs both the end
        # components and a prob-1 set
        game = loads_explicit(REWARD_GAME)
        goal = labelled(game, "goal")
        query = NashNode(("p1",), ("p2",), "max=?", None, (
            Objective("P", "U", sub1=Lit(True), sub2=goal),
            Objective("R", "F", sub2=goal, reward="r")))
        _, built = spied(monkeypatch, model, "joint_mdp")
        mecs_on, _ = spied(monkeypatch, model, "enumerate_mecs")
        prob1_on, _ = spied(monkeypatch, mdp_module, "prob1_min_set")
        report = model.check_assumption(game, query)
        (graph,) = built
        assert mecs_on == prob1_on == [graph]
        assert graph.states == game.states
        assert report.passed
        # on a coalition game the check reads its graph and builds nothing
        cg = coalition_game(game, ["p1"])
        _, indexed = spied(monkeypatch, model, "_index")
        assert model.check_assumption(cg, query) == report
        assert not indexed and mecs_on[1:] == prob1_on[1:] == [cg.graph]

    def test_check_assumption_finds_each_prob1_set_once(self, monkeypatch):
        # two reward objectives on one target: one prob-1 set, read twice
        game = load_explicit(model_path("appendix_c.csgx"))
        query = parse_property('<<p1:p2>>max=? (R{"r1"}[F a] + R{"r2"}[F a])')
        prob1_on, _ = spied(monkeypatch, mdp_module, "prob1_min_set")
        report = model.check_assumption(game, query)
        assert len(prob1_on) == 1
        assert report.reward_issues == ((0, ("s1", "s2")), (1, ("s1", "s2")))
        assert report.messages() == [
            f"objective {i}: target not reached almost surely under all "
            f"profiles (offending states: s1, s2)" for i in (1, 2)]


class FixedStrategy(MemoryStrategy):
    """Memoryless strategy from a plain state -> distribution map."""

    initial_mode = 0

    def __init__(self, table):
        self.table = table

    def distribution(self, state, mode):
        return self.table.get(state)

    def update(self, mode, next_state):
        return 0


def choices_at(mdp, node):
    """The choices of `node` in an indexed MDP, as {choice id: {successor
    node: probability}}."""
    return {cid: dict(zip([mdp.states[j] for j in succ], probs))
            for cid, succ, probs in mdp.rows[mdp.ids[node]]}


def _typed(value):
    return type(value), value.hex() if type(value) is float else value


def assert_same_mdp(indexed, oracle, reads=None):
    """`indexed` is the dict MDP `oracle` in the id-indexed form, as the
    earlier build from dicts gives it (over the forward closure of `reads`
    if given): the same nodes in the same order, each choice with the same
    id, successors in the same order and probabilities of the same type and
    bits, and the same folded rewards."""
    expected = joint_mdp_by_dicts(oracle, reads)
    assert list(indexed.states) == expected.states
    assert indexed.initial == expected.initial
    assert indexed.number is oracle.number
    assert (indexed.ids, indexed.owner, indexed.preds) == \
        (expected.ids, *choice_numbering(expected.rows))
    assert [[(cid, succ, list(map(_typed, probs))) for cid, succ, probs in row]
            for row in indexed.rows] == \
        [[(cid, succ, list(map(_typed, probs))) for cid, succ, probs in row]
         for row in expected.rows]
    assert indexed.rewards.keys() == oracle.rewards.keys()
    for name, rs in oracle.rewards.items():
        ours = indexed.rewards[name]
        for got, want in ((ours.action_rewards, rs.action_rewards),
                          (ours.state_rewards, rs.state_rewards)):
            assert {k: _typed(v) for k, v in got.items()} == \
                {k: _typed(v) for k, v in want.items()}


class TestInduceMdp:
    def test_fold_always_transmit(self):
        g = fig1()
        cg = coalition_game(g, ["p1"])
        # player 1 always transmits when possible, else waits
        table = {s: ({("t1",): F(1)} if ("t1",) in dict.fromkeys(cg.actions1(s))
                     else {cg.actions1(s)[0]: F(1)})
                 for s in g.states}
        mdp = induce_mdp(cg, 1, FixedStrategy(table))
        assert_same_mdp(mdp, induce_mdp_by_dict_fold(cg, 1,
                                                     FixedStrategy(table)))
        choices = choices_at(mdp, ("s0", 0))
        # p2 transmitting against t1 reaches joint success with prob q2 = 3/4
        assert choices[("t2",)] == {("s1", 0): F(3, 4), ("s2", 0): F(1, 4)}
        assert choices[("w2",)] == {("s3", 0): F(1)}
        total = sum(choices[("t2",)].values())
        assert total == 1

    def test_float_game_folds_like_fraction_weights(self):
        # weights are converted to float once per choice; the products are
        # those of Fraction * float, bit for bit
        g = load_explicit(model_path("appendix_c.csgx"))
        floats = coalition_game(g, ["p1"], float)
        third = F(1, 3)
        table = {"s1": {("c1",): third, ("s1_",): 1 - third},
                 "s2": {(IDLE,): F(1)},
                 "t1": {(IDLE,): F(1)}, "t2": {(IDLE,): F(1)}}
        mdp = induce_mdp(floats, 1, FixedStrategy(table))
        assert_same_mdp(mdp, induce_mdp_by_dict_fold(floats, 1,
                                                     FixedStrategy(table)))
        trans = coalition_trans(floats)
        for s, mode in mdp.states:
            for b, dist in choices_at(mdp, (s, mode)).items():
                expected = {}
                for a, w in table[s].items():
                    for t, p in trans[s][(a, b)].items():
                        expected[(t, 0)] = expected.get((t, 0), 0) + w * p
                assert dist == expected
                assert all(type(p) is float for p in dist.values())
                rewards = floats.rewards["r1"].action_rewards
                reward = sum(w * rewards[(s, (a, b))]
                             for a, w in table[s].items()
                             if (s, (a, b)) in rewards)
                assert mdp.rewards["r1"].action_rewards.get(
                    ((s, mode), b), 0) == reward
        assert mdp.rewards["r1"].action_rewards

    def test_incomplete_strategy(self):
        g = fig1()
        cg = coalition_game(g, ["p1"])
        for fold in (induce_mdp, induce_mdp_by_dict_fold):
            with pytest.raises(IncompleteStrategy):
                fold(cg, 1, FixedStrategy({"s0": {("w1",): F(1)}}))

    def test_reward_folding(self):
        g = load_explicit(model_path("appendix_c.csgx"))
        cg = coalition_game(g, ["p1"])
        half = F(1, 2)
        table = {"s1": {("c1",): half, ("s1_",): half},
                 "s2": {(IDLE,): F(1)},
                 "t1": {(IDLE,): F(1)}, "t2": {(IDLE,): F(1)}}
        mdp = induce_mdp(cg, 1, FixedStrategy(table))
        assert_same_mdp(mdp, induce_mdp_by_dict_fold(cg, 1,
                                                     FixedStrategy(table)))
        folded = mdp.rewards["r1"].action_rewards
        # half the weight on the rewarded send action at s1
        assert folded[(("s1", 0), (IDLE,))] == F(1, 6)

    def test_update_runs_once_per_mode_and_successor(self):
        g = fig1()
        cg = coalition_game(g, ["p1"])
        table = {s: {cg.actions1(s)[0]: F(1)} for s in g.states}
        calls = []

        class Counted(FixedStrategy):
            def update(self, mode, next_state):
                calls.append((mode, next_state))
                return 0

        mdp = induce_mdp(cg, 1, Counted(table))
        assert len(calls) == len(set(calls))
        assert set(calls) == {(0, mdp.states[j][0]) for row in mdp.rows
                              for _, succ, _ in row for j in succ}

    def test_chain_needs_strategies_whose_memory_moves_alike(self):
        g = fig1()
        cg = coalition_game(g, ["p1"])
        wait1 = {s: {("w1",): F(1)} for s in g.states}
        send2 = {s: {("t2",) if s == "s0" else ("w2",): F(1)}
                 for s in g.states}
        s2 = FixedStrategy(send2)
        induced = induce_mdp(cg, 2, s2)
        chain = induced_chain(cg, induced, FixedStrategy(wait1), s2)
        assert_same_mdp(chain, chain_by_dict_fold(
            cg, induced, FixedStrategy(wait1), s2))

        class StartsElsewhere(FixedStrategy):
            initial_mode = 1

        class MovesElsewhere(FixedStrategy):
            def update(self, mode, next_state):
                return 1

        with pytest.raises(ModelError, match="start in different memory "
                           "modes at 's0'"):
            induced_chain(cg, induced, StartsElsewhere(wait1), s2)
        with pytest.raises(ModelError, match="move their memory differently "
                           "from mode 0 to state 's4'"):
            induced_chain(cg, induced, MovesElsewhere(wait1), s2)

    @settings(max_examples=120, deadline=None)
    @given(small_csgs(), st.sampled_from([
        ("P", (2, 3)), ("P", (None, None)), ("P", (2, None)),
        ("C", (2, 3)), ("F", (None, None))]))
    def test_synthesised_profiles_fold_like_the_dict_fold(self, case, shape):
        """On random games, with bounded, unbounded, mixed, R[C] and R[F]
        pairs: both induced MDPs, and the chain read off the side-2 one,
        equal the dict folds node for node.  Bounded pairs are solved
        exactly; the others are solved in floats, as exact value iteration
        can stall on a cyclic component."""
        csg, coalition = case
        query = pair_query(csg, coalition, *shape)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nash, "_EXACT_STATE_LIMIT", 0)
            try:
                ev = evaluate(csg, query)
            except (NotConverged, InfiniteValue):
                return              # the pair has no profile to play
        cg = ev.game
        profile = synthesise_profile(cg, query, ev.solve)
        s1, s2 = profile.strategy(1), profile.strategy(2)
        for side, strategy in ((1, s1), (2, s2)):
            assert_same_mdp(induce_mdp(cg, side, strategy),
                            induce_mdp_by_dict_fold(cg, side, strategy))
        induced = induce_mdp(cg, 2, s2)
        assert_same_mdp(induced_chain(cg, induced, s1, s2),
                        chain_by_dict_fold(cg, None, s1, s2))
