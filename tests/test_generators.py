import hashlib
from fractions import Fraction
from statistics import mean

import pytest

from netredist.auctions import MechanismId
from netredist.critical_tree import critical_tree
from netredist.generators import (
    BRANCH_INDEPENDENT,
    EVENLY_GROWING,
    GenerationError,
    GrowthModel,
    abb_experiment,
    bb_experiment,
    branch_fractions,
    generate,
    rooted_tree_shapes,
    small_tree_instances,
    tree_profile,
)
from netredist.profiles import SPONSOR, induce_graph
from netredist.verify import parse_mechanism

from oracles import counted_builds


def test_model_validation():
    with pytest.raises(GenerationError):
        GrowthModel(kind="preferential")
    with pytest.raises(GenerationError):
        GrowthModel(initial_branches=0)
    with pytest.raises(GenerationError):
        GrowthModel(value_max=0)


def test_generation_is_deterministic_per_seed():
    model = GrowthModel(seed=42)
    assert generate(model, 30) == generate(model, 30)
    assert generate(model, 30) != generate(model.with_seed(43), 30)


def test_generated_profile_is_a_fully_reachable_tree():
    for kind in (EVENLY_GROWING, BRANCH_INDEPENDENT):
        profile = generate(GrowthModel(kind=kind, seed=7), 40)
        graph = induce_graph(profile)
        assert len(graph.reachable) == 40
        # tree: every agent has exactly one inviter
        inviters = {i: 0 for i in profile.agents}
        for targets in graph.successors.values():
            for v in targets:
                inviters[v] += 1
        assert all(c == 1 for c in inviters.values())


def test_branch_independent_model_fixes_the_root_branches():
    model = GrowthModel(kind=BRANCH_INDEPENDENT, initial_branches=5, seed=3)
    for n in (5, 20, 80):
        profile = generate(model, n)
        tree = critical_tree(induce_graph(profile))
        assert len(tree.root_branches) == 5


def test_values_live_on_the_configured_grid():
    model = GrowthModel(value_max=10, seed=1)
    profile = generate(model, 50)
    for i in profile.agents:
        v = profile.value_of(i)
        assert 0 <= v <= 10
        assert (v * 100).denominator == 1


def test_branch_fractions_sum_to_one():
    profile = generate(GrowthModel(seed=11), 60)
    fractions = branch_fractions(critical_tree(induce_graph(profile)))
    assert sum(fractions.values()) == 1


def test_max_branch_fraction_trends_down_for_evenly_growing():
    # uniform attachment splits the market into ever more branches, so the
    # dominant branch's share of participants shrinks in expectation
    seeds = range(12)
    averages = []
    for n in (20, 100, 400):
        trees = [critical_tree(induce_graph(generate(GrowthModel(seed=s), n)))
                 for s in seeds]
        fractions = [max(branch_fractions(tree).values()) for tree in trees]
        averages.append(mean(fractions))
    assert averages[0] > averages[1] > averages[2]


def test_rooted_tree_shapes_counts():
    # shapes are forests hanging off the sponsor, i.e. unlabeled rooted
    # trees on n+1 vertices: 1, 2, 4, 9, 20, 48, 115
    by_size = {}
    for parents in rooted_tree_shapes(7):
        by_size[len(parents)] = by_size.get(len(parents), 0) + 1
    assert by_size == {1: 1, 2: 2, 3: 4, 4: 9, 5: 20, 6: 48, 7: 115}


def test_rooted_tree_shapes_keep_their_vectors_and_order():
    # small_tree_instances and the audit inputs are drawn in this order
    shapes = list(rooted_tree_shapes(7))
    digest = hashlib.sha256(repr(shapes).encode()).hexdigest()
    assert digest == "f8ec52c118a3f4fdbb66d59af36686ecf90e2030278ab292e04c07beb494036e"


def test_tree_profile_wires_parent_vector():
    profile = tree_profile([-1, 0, 0, -1], [5, 6, 7, 8])
    graph = induce_graph(profile)
    assert graph.reachable == frozenset("ABCD")
    tree = critical_tree(graph)
    assert tree.parent == {"A": SPONSOR, "D": SPONSOR, "B": "A", "C": "A"}
    assert profile.value_of("C") == 7


def test_small_tree_instances_cover_all_shapes():
    instances = small_tree_instances(4)
    # 16 shapes with n <= 4; each carries all n! valuation assignments
    assert len(instances) == 1 * 1 + 2 * 2 + 4 * 6 + 9 * 24
    assert all(induce_graph(p).reachable == frozenset(p.agents)
               for p in instances[:20])


def test_abb_experiment_records_and_aggregates():
    model = GrowthModel(seed=0)
    result = abb_experiment(MechanismId("idm"), model, [10, 20], range(5))
    assert result.sizes() == [10, 20]
    assert len(result.records) == 10
    for record in result.records:
        assert record.surplus >= 0
        assert 0 < record.max_branch_fraction <= 1
    data = result.to_dict()
    assert {a["n"] for a in data["aggregates"]} == {10, 20}


@pytest.mark.parametrize("spec", ["nrmf:idm", "auction:idm", "cavallo"])
def test_abb_experiment_builds_one_tree_per_network(monkeypatch, spec):
    _, mechanism = parse_mechanism(spec, Fraction(1, 2), "nrmf")
    builds = counted_builds(monkeypatch)
    result = abb_experiment(mechanism, GrowthModel(seed=0), [10, 20], range(3))
    assert len(result.records) == 6
    assert len(builds) == 6


def test_abb_experiment_reports_bound_for_branch_independent():
    model = GrowthModel(kind=BRANCH_INDEPENDENT, initial_branches=5,
                        value_max=100)
    result = abb_experiment(MechanismId("idm"), model, [15], range(3))
    for record in result.records:
        assert record.bound == Fraction(2, 5) * 100


def test_bb_experiment_summary_counts():
    model = GrowthModel(kind=BRANCH_INDEPENDENT, initial_branches=4, seed=2)
    result, summary = bb_experiment(Fraction(50), model, [25], range(10))
    assert summary["runs"] == 10
    assert 0 <= summary["exact_zero"] <= 10
    assert summary["runs_with_two_buyer_branches"] <= 10
    # whenever two branches hold a willing buyer the surplus must vanish,
    # so the zero count is at least that large
    assert summary["exact_zero"] >= summary["runs_with_two_buyer_branches"]
