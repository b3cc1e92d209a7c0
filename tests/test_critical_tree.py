import gc
import random
import sys
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings

from netredist.critical_tree import Rehangs, critical_tree
from netredist.profiles import (
    NULL_TYPE,
    SPONSOR,
    AgentType,
    ReportProfile,
    induce_graph,
    make_profile,
)

from networks import T, cross_invited, misreport_deviation, reach_diamond, reference_network_10
from oracles import brute_parent_map, random_digraph_profile
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
            cut = graph.reachable - graph.reachable_from(SPONSOR, frozenset({v}))
            assert tree.branch_members(v) - {v} == cut - {v}


def counted_sweeps(monkeypatch) -> list:
    """Record the predecessor list of every multi-inviter step of the
    dominator fixpoint."""
    module = sys.modules[critical_tree.__module__]
    steps = []
    real = module._meet

    def counted(preds, idom, index):
        steps.append(preds)
        return real(preds, idom, index)

    monkeypatch.setattr(module, "_meet", counted)
    return steps


def test_a_tree_takes_one_sweep_and_no_merge(monkeypatch):
    steps = counted_sweeps(monkeypatch)
    tree = critical_tree(induce_graph(reference_network_10()))
    assert tree.parent["L"] == "K" and steps == []


def test_an_inviter_later_in_reverse_postorder_takes_another_sweep(monkeypatch):
    # the search runs s, a, c, d and then b, so the reverse postorder is
    # s, b, a, c, d: d invites c from later in it.  The first sweep sees only
    # a among c's inviters and hangs c under a; the second meets a with d
    # and moves c under the sponsor; the third changes nothing.
    profile = make_profile(["a", "b"], {"a": T(1, ["c"]), "b": T(1, ["d"]),
                                        "c": T(1, ["d"]), "d": T(1, ["c"])})
    steps = counted_sweeps(monkeypatch)
    graph = induce_graph(profile)
    assert dict(critical_tree(graph).parent) == brute_parent_map(graph) == dict.fromkeys(
        "abcd", SPONSOR)
    assert len(steps) == 3 * 2  # three sweeps over c and d


def _ladder_profile(rng, rungs, back_edges):
    """Two invitation chains from the sponsor with random invitations from
    each chain back up the other one, so inviters often come later in the
    reverse postorder."""
    sides = {side: [f"{side}{k:03d}" for k in range(rungs)] for side in "LR"}
    out = {i: set() for line in sides.values() for i in line}
    for line in sides.values():
        for a, b in zip(line, line[1:]):
            out[a].add(b)
    for _ in range(back_edges):
        src, dst = rng.sample("LR", 2)
        k = rng.randrange(1, rungs)
        out[sides[src][k]].add(sides[dst][rng.randrange(k)])
    reports = {i: AgentType(Fraction(1), frozenset(js)) for i, js in out.items()}
    return ReportProfile(frozenset({sides["L"][0], sides["R"][0]}), reports)


def test_multi_sweep_fixpoints_match_the_cut_point_oracle(monkeypatch):
    rng = random.Random(20241018)
    steps = counted_sweeps(monkeypatch)
    sweeps_past_two = 0
    for _ in range(60):
        graph = induce_graph(_ladder_profile(rng, rng.randint(3, 9), rng.randint(1, 6)))
        steps.clear()
        assert dict(critical_tree(graph).parent) == brute_parent_map(graph)
        sweeps_past_two += len(steps) > 2 * _merges(graph)
    assert sweeps_past_two > 10


def test_a_long_ladder_matches_networkx_dominators(monkeypatch):
    nx = pytest.importorskip("networkx")
    steps = counted_sweeps(monkeypatch)
    graph = induce_graph(_ladder_profile(random.Random(7), 300, 120))
    parent = dict(critical_tree(graph).parent)
    digraph = nx.DiGraph((u, v) for u, targets in graph.successors.items() for v in targets)
    assert parent == {v: d for v, d in nx.immediate_dominators(digraph, SPONSOR).items()
                      if v != SPONSOR}
    assert len(set(parent.values())) > 2  # not a flat tree
    assert len(steps) > 2 * _merges(graph)


def _merges(graph) -> int:
    """The agents with two or more inviters, which the fixpoint sweeps."""
    inviters = Counter(j for targets in graph.successors.values() for j in targets)
    return sum(1 for j in graph.reachable if inviters[j] > 1)


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


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invitation_digraphs())
def test_every_rehang_is_the_parent_in_the_silenced_critical_tree(profile):
    # the definition: rebuild the critical tree with root b's report
    # emptied and read root c's parent, sharing no code with ``Rehangs``
    tree = critical_tree(induce_graph(profile))
    rehangs = Rehangs(tree)
    roots = tree.root_branches
    for b, silenced in enumerate(roots):
        parent = critical_tree(induce_graph(profile.replace(silenced, NULL_TYPE))).parent
        for c, root in enumerate(roots):
            expected = None if parent[root] == SPONSOR else parent[root]
            assert rehangs.hang(b, c) == expected, (silenced, root)


def test_a_tree_and_its_rehangs_free_without_the_cycle_collector():
    tree = critical_tree(induce_graph(cross_invited()))
    assert tree.rehangs.hang(0, 3) == "B"
    gone = weakref.ref(tree)
    gc.disable()
    try:
        del tree
        assert gone() is None
    finally:
        gc.enable()
