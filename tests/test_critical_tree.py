import gc
import random
import weakref

import pytest
from hypothesis import given, settings

from netredist.critical_tree import _augment, critical_tree, immediate_dominators
from netredist.profiles import SPONSOR, induce_graph, make_profile

from families import add_cross_edges, ladder, random_chains, random_digraph_profile
from networks import T, cross_invited, misreport_deviation, reach_diamond, reference_network_10
from oracles import NULL_TYPE, brute_parent_map, counted_passes, dependants, fixpoint_dominators
from strategies import invitation_digraphs


def test_diamond_parent_skips_non_critical_intermediaries():
    # H can be reached through C or D, so neither is critical for her;
    # the nearest cut point is A.
    tree = critical_tree(induce_graph(reach_diamond()))
    assert tree.parent["H"] == "A"
    assert tree.parent["J"] == "H"
    assert tree.parent["C"] == "A"
    assert tree.parent["D"] == "A"
    assert tree.root_branches == ("A", "B")


def test_invitation_tree_is_its_own_critical_tree():
    tree = critical_tree(induce_graph(reference_network_10()))
    assert tree.parent == {
        "A": SPONSOR, "M": SPONSOR, "N": SPONSOR,
        "H": "A", "G": "A", "E": "A", "F": "A",
        "J": "H", "K": "H", "L": "K",
    }
    assert tree.branch_members("A") - {"A"} == frozenset("HGEFJKL")
    assert tree.branch_members("J") - {"J"} == frozenset()
    assert tree.branch_members("A") == frozenset("AHGEFJKL")


def test_ancestors_run_from_branch_root_to_agent():
    tree = critical_tree(induce_graph(reference_network_10()))
    assert tree.ancestors("J") == ["A", "H", "J"]
    assert tree.ancestors("A") == ["A"]
    assert tree.depth["L"] == 4


def test_branch_of_indexes_into_root_branches():
    tree = critical_tree(induce_graph(reference_network_10()))
    for i in tree.agents:
        root = tree.root_branches[tree.branch_of[i]]
        assert i in tree.branch_members(root)


def test_unreachable_agents_are_excluded():
    tree = critical_tree(induce_graph(misreport_deviation()))
    assert set(tree.parent) == set("ABCDFG")


def test_matches_cut_point_oracle_on_random_digraphs():
    rng = random.Random(20240817)
    for _ in range(120):
        profile = random_digraph_profile(rng, rng.randint(1, 10))
        graph = induce_graph(profile)
        if not graph.reachable:
            continue
        tree = critical_tree(graph)
        assert dict(tree.parent) == brute_parent_map(graph)


def test_subtree_matches_unreachability_oracle():
    rng = random.Random(7)
    for _ in range(40):
        profile = random_digraph_profile(rng, rng.randint(2, 9))
        graph = induce_graph(profile)
        if not graph.reachable:
            continue
        tree = critical_tree(graph)
        for v in graph.reachable:
            assert tree.branch_members(v) == dependants(graph, v)


def test_a_tree_is_its_own_dominator_tree():
    graph = induce_graph(reference_network_10())
    parent = dict(critical_tree(graph).parent)
    assert parent["L"] == "K"
    assert parent == fixpoint_dominators(graph.successors, SPONSOR) == brute_parent_map(graph)


def test_an_inviter_later_in_reverse_postorder_is_met():
    # the search runs s, a, c, d and then b, so the reverse postorder is
    # s, b, a, c, d: d invites c from later in it, and c's only cut point
    # is the sponsor, not a
    profile = make_profile(["a", "b"], {"a": T(1, ["c"]), "b": T(1, ["d"]),
                                        "c": T(1, ["d"]), "d": T(1, ["c"])})
    graph = induce_graph(profile)
    assert dict(critical_tree(graph).parent) == brute_parent_map(graph) == dict.fromkeys(
        "abcd", SPONSOR)
    assert immediate_dominators(graph.successors, SPONSOR) == fixpoint_dominators(
        graph.successors, SPONSOR)


def test_a_long_ladder_matches_networkx_dominators():
    nx = pytest.importorskip("networkx")
    graph = induce_graph(ladder(600, random.Random(7)))
    parent = dict(critical_tree(graph).parent)
    digraph = nx.DiGraph((u, v) for u, targets in graph.successors.items() for v in targets)
    assert parent == {v: d for v, d in nx.immediate_dominators(digraph, SPONSOR).items()
                      if v != SPONSOR}
    assert parent == fixpoint_dominators(graph.successors, SPONSOR)
    assert len(set(parent.values())) > 2  # not a flat tree


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invitation_digraphs())
def test_semi_nca_equals_the_fixpoint_and_the_cut_points(profile):
    graph = induce_graph(profile)
    parent = immediate_dominators(graph.successors, SPONSOR)
    assert parent == fixpoint_dominators(graph.successors, SPONSOR)
    assert parent == brute_parent_map(graph)


def test_index_matches_networkx_dominators():
    nx = pytest.importorskip("networkx")
    # chains with leaves, and invitations across them that make some chain
    # agents no longer critical
    rng = random.Random(20240901)
    profile = add_cross_edges(random_chains(520, rng, 5), rng, 40)
    graph = induce_graph(profile)
    tree = critical_tree(graph)
    digraph = nx.DiGraph()
    for u, targets in graph.successors.items():
        if u == SPONSOR or u in graph.reachable:
            digraph.add_edges_from((u, v) for v in targets)
    idom = {v: d for v, d in nx.immediate_dominators(digraph, SPONSOR).items()
            if v != SPONSOR}
    assert len(idom) == len(graph.reachable) == 520
    assert dict(tree.parent) == idom

    def line(v):
        up = [v]
        while idom[up[-1]] != SPONSOR:
            up.append(idom[up[-1]])
        return up

    roots = sorted(v for v, d in idom.items() if d == SPONSOR)
    size = {v: 0 for v in idom}
    for v in idom:
        for a in line(v):
            size[a] += 1
    assert dict(tree.depth) == {v: len(line(v)) for v in idom}
    assert dict(tree.size) == size
    assert dict(tree.branch_of) == {v: roots.index(line(v)[-1]) for v in idom}


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invitation_digraphs())
def test_every_rehang_is_the_parent_in_the_silenced_critical_tree(profile):
    # the definition: induce the graph with root b's report emptied and
    # read root c's parent off the fixpoint dominators, sharing no code
    # with ``hang``
    tree = critical_tree(induce_graph(profile))
    roots = tree.root_branches
    for b, silenced in enumerate(roots):
        graph = induce_graph(profile.replace(silenced, NULL_TYPE))
        parent = fixpoint_dominators(graph.successors, SPONSOR)
        for c, root in enumerate(roots):
            expected = None if parent[root] == SPONSOR else parent[root]
            assert tree.hang(b, c) == expected, (silenced, root)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invitation_digraphs())
def test_two_augmentations_leave_two_disjoint_sponsor_to_root_paths(profile):
    # Menger: a root the sponsor does not invite has two sponsor-to-root
    # invitation paths sharing no agent, and two augmentations must leave
    # exactly such a pair as the flow
    tree = critical_tree(induce_graph(profile))
    for k in tree.movable:
        root = tree.root_branches[k]
        flow: set = set()
        _augment(tree.successors, root, flow)
        _augment(tree.successors, root, flow)
        assert all(w in tree.successors[u] for u, w in flow)
        after: dict = {}
        for u, w in flow:
            after.setdefault(u, []).append(w)
        assert len(after[SPONSOR]) == 2
        paths = []
        for first in after[SPONSOR]:
            path = [first]
            while path[-1] != root:
                (step,) = after[path[-1]]
                assert step not in path
                path.append(step)
            paths.append(path)
        assert set(paths[0]) & set(paths[1]) == {root}
        assert len(paths[0]) + len(paths[1]) == len(flow)


def test_a_tree_and_its_rehangs_free_without_the_cycle_collector(monkeypatch):
    # with A silenced R loses her two paths: one dominator pass with A
    # silenced hangs her under B, and the tree keeps that answer
    passes = counted_passes(monkeypatch)
    tree = critical_tree(induce_graph(cross_invited()))
    assert tree.hang(0, 3) == "B" and passes == ["A"]
    gone = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert gone() is None
    finally:
        gc.enable()
