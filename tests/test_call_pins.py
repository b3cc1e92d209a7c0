"""Work pins on the per-agent path of ``netredist run``.

A pin counts what machine speed cannot move.  The call pins count the
Python-level calls (``sys.setprofile`` "call" events, a generator's
resumptions included) one stage makes on a 400-agent random invitation
tree whose values are plain decimals.  Reading the file makes at most a
few calls per agent, building the index none per agent, and ranking one
per agent.

The ``Fraction`` pins count the exact amounts built on a 4,000-agent
evenly grown network: one per output amount, none per intermediate.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction

import pytest

from netredist import auctions, cli
from netredist.auctions import MechanismId, auction, market
from netredist.critical_tree import critical_tree
from netredist.profiles import AgentType, ReportProfile, induce_graph, load_profile, save_profile
from netredist.prst import SharingParams
from netredist.redistribution import run_nrmf

from families import random_tree
from oracles import clear_memo

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
    tree = random_tree(N, rng)
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


GROWN = 4000


@pytest.fixture(scope="module")
def grown_file(tmp_path_factory):
    """``netredist --seed 3 generate --n 4000``: an evenly grown network."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        assert cli.main(["--seed", "3", "generate", "--n", str(GROWN)]) == 0
    path = tmp_path_factory.mktemp("grown") / "grown.json"
    path.write_text(text.getvalue())
    return path


@pytest.fixture
def fractions_built(monkeypatch):
    """``built(run, *args)``: the ``Fraction``s made while ``run(*args)``
    runs, counted as calls of ``Fraction.__new__`` and, where arithmetic
    makes its results without it (Python 3.12 on), of
    ``Fraction._from_coprime_ints``; the counters are undone afterwards."""
    def built(run, *args):
        count = 0
        new = Fraction.__new__

        def counted_new(cls, *a, **k):
            nonlocal count
            count += 1
            return new(cls, *a, **k)

        monkeypatch.setattr(Fraction, "__new__", counted_new)
        coprime = getattr(Fraction, "_from_coprime_ints", None)
        if coprime is not None:
            def counted_coprime(cls, numerator, denominator):
                nonlocal count
                count += 1
                return coprime(numerator, denominator)

            monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
        try:
            result = run(*args)
        finally:
            monkeypatch.undo()
        return count, result

    return built


@pytest.mark.parametrize("mechanism", ["idm", "tnm", "vcg", "fixed:50"])
def test_run_builds_a_few_fractions_per_agent(grown_file, fractions_built, capsys, mechanism):
    # one per value read and one per rebate; from a cold memo also one per
    # coefficient of an agent who keeps a share (leaf siblings share theirs)
    argv = ["--output", "json", "run", str(grown_file), "--mechanism", mechanism]
    clear_memo()
    try:
        cold, cold_code = fractions_built(cli.main, argv)
        warm, warm_code = fractions_built(cli.main, argv)  # the tree keeps its coefficients
    finally:
        clear_memo()
    capsys.readouterr()
    assert cold_code == warm_code == 0
    assert cold <= 2.6 * GROWN
    assert warm <= 1.9 * GROWN


def test_the_coefficients_cost_one_fraction_each(grown_file, fractions_built):
    # an internal agent's coefficient is one fraction, and a parent's leaf
    # children share one: no fraction per pass-down mass
    tree = critical_tree(induce_graph(load_profile(grown_file)))
    count, omega = fractions_built(tree.omega, SharingParams.of(Fraction(1, 2)))
    assert count <= len({id(w) for w in omega.values() if w})


def test_the_auction_builds_no_fraction_per_agent(grown_file, fractions_built):
    # final payments are derived on read, so paying the rebates back
    # costs the outcome its surplus alone
    profile = load_profile(grown_file)
    idm = MechanismId("idm")
    rebated = run_nrmf(idm, profile, SharingParams.of(Fraction(1, 2)))
    assert sum(map(bool, rebated.redistribution.values())) > GROWN // 2
    m = market(profile)
    redistributed = sum(rebated.redistribution.values(), Fraction(0))
    count, outcome = fractions_built(auction, idm, m, rebated.redistribution, redistributed,
                                     rebated.branch_revenues)
    assert outcome == rebated
    assert count <= 10
