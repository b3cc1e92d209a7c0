"""Work pins and outcome checks on the named hard families.

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
from pathlib import Path

import pytest

import netredist
from netredist.auctions import MechanismId, market
from netredist.critical_tree import critical_tree, immediate_dominators
from netredist.profiles import SPONSOR, induce_graph, profile_from_dict
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf

from families import FAMILIES, ring_entered_twice, two_ended_chain, zigzag
from oracles import (
    cavallo_rerun_oracle,
    clear_memo,
    counted_hangs,
    every_rehang,
    nrmf_rerun_oracle,
)

HALF = SharingParams.of(Fraction(1, 2))
MECHANISMS = [MechanismId.parse(m) for m in ("idm", "tnm", "vcg", "fixed:7")]


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


@pytest.mark.parametrize("family", FAMILIES)
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
    for mech in MECHANISMS[:2]:
        run_nrmf(mech, profile, HALF)
    assert len(asked) <= bound * len(market(profile).tree.root_branches)


@pytest.mark.parametrize("family", FAMILIES)
def test_outcomes_match_the_rerun_oracles(family):
    for n in (5, 12, 30):
        # values up to 3 make ties common, up to 20 rare
        for seed, value_max in enumerate((3, 20, 20)):
            profile = FAMILIES[family](n, random.Random(seed), value_max)
            for mech in MECHANISMS:
                assert run_nrmf(mech, profile, HALF) == nrmf_rerun_oracle(mech, profile, HALF)
            assert cavallo(profile) == cavallo_rerun_oracle(profile)


def test_the_module_run_as_a_script_writes_a_family_network():
    # the CI timing steps write their networks this way
    script = Path(__file__).with_name("families.py")
    env = {**os.environ, "PYTHONPATH": str(Path(netredist.__file__).parents[1])}
    written = subprocess.run([sys.executable, str(script), "ring_entered_twice", "40", "3"],
                             env=env, capture_output=True, text=True, check=True).stdout
    assert profile_from_dict(json.loads(written)) == ring_entered_twice(40, random.Random(3))
