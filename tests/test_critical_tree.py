import random
from fractions import Fraction

import pytest

from netredist.critical_tree import critical_tree
from netredist.profiles import SPONSOR, AgentType, ReportProfile, induce_graph

from networks import misreport_deviation, reach_diamond, reference_network_10
from oracles import brute_parent_map, random_digraph_profile


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
    assert tree.subtree("A") == frozenset("HGEFJKL")
    assert tree.subtree("J") == frozenset()
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
            cut = graph.reachable - graph.reachable_from(SPONSOR, frozenset({v}))
            assert tree.subtree(v) == cut - {v}


def _multi_chain_profile(rng, chains=7, length=60, leaves=100, extra_edges=40):
    """Sponsor branches that are long invitation chains, leaves hanging off
    random chain agents, and extra edges between random agents that make
    some chain agents no longer critical."""
    ids = []
    out = {}
    heads = []
    for c in range(chains):
        line = [f"c{c}_{d:02d}" for d in range(length)]
        heads.append(line[0])
        for a, b in zip(line, line[1:]):
            out[a] = {b}
        out[line[-1]] = set()
        ids.extend(line)
    chain_agents = list(ids)
    for k in range(leaves):
        leaf = f"leaf{k:03d}"
        out[rng.choice(chain_agents)].add(leaf)
        out[leaf] = set()
        ids.append(leaf)
    for _ in range(extra_edges):
        u, v = rng.sample(ids, 2)
        out[u].add(v)
    reports = {i: AgentType(Fraction(rng.randint(0, 5)), frozenset(out[i])) for i in ids}
    return ReportProfile(frozenset(heads), reports)


def test_index_matches_networkx_dominators():
    nx = pytest.importorskip("networkx")
    profile = _multi_chain_profile(random.Random(20240901))
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
