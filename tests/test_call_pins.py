"""Work pins on the per-agent path of ``netredist run``.

A pin counts what machine speed cannot move: the Python-level calls
(``sys.setprofile`` "call" events, a generator's resumptions included)
one stage makes on a 400-agent random invitation tree whose values are
plain decimals.  Reading the file makes at most a few calls per agent,
building the index none per agent, and ranking one per agent.
"""

import random
import sys
from fractions import Fraction

import pytest

from netredist import auctions
from netredist.critical_tree import critical_tree
from netredist.profiles import AgentType, ReportProfile, induce_graph, load_profile, save_profile

from oracles import clear_memo, random_tree_profile

N = 400


def python_calls(run, *args) -> int:
    """The Python-level calls made while ``run(*args)`` runs, itself included."""
    count = 0

    def profiler(frame, event, arg):
        nonlocal count
        count += event == "call"

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        run(*args)
    finally:
        sys.setprofile(previous)
    return count


@pytest.fixture
def tree_file(tmp_path):
    """A random tree on ``N`` agents, each value in cents such as 12.34."""
    rng = random.Random(23)
    tree = random_tree_profile(rng, N)
    profile = ReportProfile(tree.sponsor_neighbors, {
        i: AgentType(Fraction(rng.randint(0, 10_000), 100), t.neighbors)
        for i, t in tree.reports.items()})
    path = tmp_path / "tree.json"
    save_profile(profile, path)
    assert load_profile(path) == profile
    return path


def test_loading_makes_a_few_calls_per_agent(tree_file):
    assert python_calls(load_profile, tree_file) <= 3 * N + 10


def test_the_index_build_makes_no_call_per_agent(tree_file):
    profile = load_profile(tree_file)
    calls = python_calls(lambda: critical_tree(induce_graph(profile)))
    assert calls <= 10


def test_ranking_makes_one_call_per_agent(tree_file):
    profile = load_profile(tree_file)
    clear_memo()
    try:
        first = auctions.market(profile)  # builds the tree
        # the same structure again: only the ranking is new work
        calls = python_calls(auctions.market, profile)
        assert auctions._last_structure[1] is first.tree
    finally:
        clear_memo()
    assert calls <= N + 10
