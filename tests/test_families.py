"""The oracle table, and work pins on the hard families.

The table runs every exact fast path against its slow oracle on the
networks ``families.SAMPLES`` draws from every family in the catalogue:
the critical tree against the cut points and the fixpoint dominators,
``prst`` against its per-node recursion, the chain auctions against
their resale simulations, NRMF and the Cavallo rebates against re-runs
of the auction, and the re-hangs against their skeleton oracle.

A work pin counts what machine speed cannot move: the line events and
the function calls ``sys.settrace`` sees inside ``critical_tree.py`` while
one call runs.  Doubling ``n`` should at most about double a near-linear
pass.
"""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

import netredist
from netredist.auctions import MechanismId, market, run_auction
from netredist.critical_tree import critical_tree, immediate_dominators
from netredist.profiles import SPONSOR, induce_graph, profile_from_dict
from netredist.prst import SharingParams, prst
from netredist.redistribution import cavallo, run_nrmf

from families import FAMILIES, PINNED, ring_entered_twice, sample, two_ended_chain, zigzag
from oracles import (
    assert_matches_oracle,
    brute_parent_map,
    cavallo_rerun_oracle,
    clear_memo,
    counted_hangs,
    dependants,
    every_rehang,
    exact,
    fixpoint_dominators,
    idm_oracle,
    nrmf_rerun_oracle,
    prst_oracle,
    rehangs_oracle,
    tnm_oracle,
)

HALF = SharingParams.of(Fraction(1, 2))
ALPHAS = [HALF, SharingParams.of(Fraction(1, 5))]
PRST_ALPHAS = [SharingParams(Fraction(*a)) for a in ((1, 2), (1, 5), (7, 9), (99, 100))]
MECHANISMS = [MechanismId.parse(m)
              for m in ("vcg", "idm", "tnm", "fixed:0", "fixed:3", "fixed:10/7")]
IDM, TNM = MECHANISMS[1:3]


def traced_work(run, *args) -> Counter:
    """The work in ``critical_tree.py`` while ``run(*args)`` runs: its line
    events under ``"line"``, and the calls of each of its functions under
    the function's name."""
    filename = immediate_dominators.__code__.co_filename
    work: Counter = Counter()

    def local(frame, event, arg):
        work["line"] += event == "line"
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != filename:
            return None
        work[frame.f_code.co_name] += 1
        return local

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run(*args)
    finally:
        sys.settrace(previous)
    return work


@pytest.mark.parametrize("family", PINNED)
def test_dominator_work_at_most_about_doubles_with_n(family):
    # per vertex and edge the pass reaches, so that the pin follows the
    # pass and not how much of a random digraph the sponsor happens to
    # reach; the reached part doubles with n on every other family
    per_size = []
    for n in (200, 400):
        graph = induce_graph(FAMILIES[family](n, random.Random(n)))
        size = sum(1 + len(graph.successors[v]) for v in graph.reachable | {SPONSOR})
        work = traced_work(immediate_dominators, graph.successors, SPONSOR)["line"]
        per_size.append(work / size)
    assert per_size[1] <= 1.1 * per_size[0], per_size


@pytest.mark.parametrize("family", [two_ended_chain, ring_entered_twice, zigzag])
def test_rehang_work_per_root_at_most_about_doubles_with_n(family):
    # every (silenced, root) answer on a fresh tree: two augmenting paths
    # per movable root and one dominator pass per silenced branch at most
    per_root = []
    for n in (60, 120):
        tree = critical_tree(induce_graph(family(n, random.Random(n))))
        work = traced_work(every_rehang, tree)
        assert work["_augment"] <= 2 * len(tree.movable), work
        assert work["immediate_dominators"] <= len(tree.root_branches), work
        per_root.append(work["line"] / len(tree.root_branches))
    assert per_root[1] <= 2.2 * per_root[0], per_root


@pytest.mark.parametrize("family,bound", [
    (two_ended_chain, 1000), (ring_entered_twice, 250), (zigzag, 400)])
def test_each_bidder_climbs_the_rehung_roots_once_per_chain_walk(monkeypatch, family, bound):
    # hang calls per root branch in NRMF over idm and tnm: 807 / 178 / 327
    # here, and 2,400 / 392 / 526 when every link restarts each bidder's climb
    profile = family(120, random.Random(0))
    asked = counted_hangs(monkeypatch)
    clear_memo()
    for mech in (IDM, TNM):
        run_nrmf(mech, profile, HALF)
    assert len(asked) <= bound * len(market(profile).tree.root_branches)


def cut_points(profile, tally):
    graph = induce_graph(profile)
    tree = critical_tree(graph)
    assert dict(tree.parent) == brute_parent_map(graph)
    assert dict(tree.parent) == fixpoint_dominators(graph.successors, SPONSOR)
    for v in graph.reachable:
        assert tree.branch_members(v) == dependants(graph, v)


def shares(profile, tally):
    tree = critical_tree(induce_graph(profile))
    if not tree.parent:  # nothing to share
        return
    for params in PRST_ALPHAS:
        slow, _ = prst_oracle(tree, params)
        # the same keys in the same order, values equal in value and type
        assert exact(prst(tree, params).omega) == exact(slow)


def resale(mechanism, oracle):
    def check(profile, tally):
        if not induce_graph(profile).reachable:
            return
        winner, price, payments, revenue = oracle(profile)
        outcome = run_auction(mechanism, profile)
        assert outcome.winner == winner
        assert outcome.auction_payment[winner] == price
        assert dict(outcome.auction_payment) == payments
        assert outcome.surplus == revenue
    return check


def nrmf(profile, tally):
    outcomes = {(mech, params): run_nrmf(mech, profile, params)
                for mech in MECHANISMS for params in ALPHAS}
    # every agent below an only child keeps 0, even of a nonzero pot
    revenues = outcomes[IDM, HALF].branch_revenues
    tree = market(profile).tree
    omega = tree.omega(HALF)
    tally["skipped"] += any(revenues[tree.root_branches[b]] and not omega[i]
                            for i, b in tree.branch_of.items())
    oracle = nrmf_rerun_oracle(MECHANISMS, profile, ALPHAS)
    for pair, outcome in outcomes.items():
        assert_matches_oracle(outcome, oracle[pair], profile)
        tally["mixed"] += len({r.denominator for r in outcome.branch_revenues.values()}) > 1


def cavallo_rebates(profile, tally):
    assert_matches_oracle(cavallo(profile), cavallo_rerun_oracle(profile), profile)


def rehangs(profile, tally):
    graph = induce_graph(profile)
    tree = critical_tree(graph)
    expected = rehangs_oracle(graph, tree)
    assert every_rehang(tree) == expected
    tally["rehung"] += any(expected)


# oracle: (check, most agents it affords): the brute-force searches make
# a reachability query per agent and cut point, and the Cavallo oracle
# re-runs the auction once per agent
ORACLES = {
    "brute_parent_map": (cut_points, 18),
    "prst_oracle": (shares, inf),
    "idm_oracle": (resale(IDM, idm_oracle), 12),
    "tnm_oracle": (resale(TNM, tnm_oracle), 12),
    "nrmf_rerun_oracle": (nrmf, inf),
    "cavallo_rerun_oracle": (cavallo_rebates, 50),
    "rehangs_oracle": (rehangs, inf),
}

# (oracle, family): (tally, count it must pass), the inputs a fast path
# meets rarely: roots that move with a branch silenced, branch revenues of
# more than one denominator, and rebates skipped below an only child
FLOORS = {
    ("rehangs_oracle", "random_digraph"): ("rehung", 200),
    ("rehangs_oracle", "grown_with_cross_edges"): ("rehung", 10),
    ("nrmf_rerun_oracle", "mixed_denominators"): ("mixed", 200),
    ("nrmf_rerun_oracle", "random_chains"): ("skipped", 15),
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("oracle", ORACLES)
def test_every_fast_path_matches_its_oracle(oracle, family):
    check, max_n = ORACLES[oracle]
    profiles = [p for p in sample(family) if len(p.reports) <= max_n]
    assert profiles
    tally: Counter = Counter()
    for profile in profiles:
        check(profile, tally)
    if (oracle, family) in FLOORS:
        key, floor = FLOORS[oracle, family]
        assert tally[key] > floor, tally


def test_the_module_run_as_a_script_writes_a_family_network():
    # the CI timing step writes its networks this way
    script = Path(__file__).with_name("families.py")
    env = {**os.environ, "PYTHONPATH": str(Path(netredist.__file__).parents[1])}
    written = subprocess.run([sys.executable, str(script), "ring_entered_twice", "40", "3"],
                             env=env, capture_output=True, text=True, check=True).stdout
    assert profile_from_dict(json.loads(written)) == ring_entered_twice(40, random.Random(3))
