import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netredist.critical_tree import critical_tree
from netredist.generators import tree_profile
from netredist.profiles import induce_graph
from netredist.prst import SharingError, SharingParams, prst, share_totals

from families import FAMILIES, random_digraph_profile, random_tree
from networks import chain, share_tree_18
from oracles import exact, prst_oracle

PRST_MODULE = importlib.import_module("netredist.prst")  # the package exports the function


def shares_of(profile, alpha, reward=1):
    tree = critical_tree(induce_graph(profile))
    return prst(tree, SharingParams.of(alpha, reward))


def test_alpha_outside_open_unit_interval_rejected():
    for alpha in (0, 1, -1, Fraction(3, 2)):
        with pytest.raises(SharingError, match="alpha"):
            SharingParams.of(alpha)


def test_negative_reward_rejected():
    with pytest.raises(SharingError, match="reward"):
        SharingParams.of(Fraction(1, 2), -1)


def test_empty_tree_rejected():
    from netredist.profiles import ReportProfile
    from networks import T

    # the only agent is never invited, so the participant set is empty
    lonely = ReportProfile(frozenset(), {"A": T(1)})
    with pytest.raises(SharingError, match="empty"):
        prst(critical_tree(induce_graph(lonely)), SharingParams.of(Fraction(1, 2)))


def test_reference_tree_coefficients_exact():
    shares = shares_of(share_tree_18(), Fraction(1, 2))
    assert shares.omega["A"] == Fraction(8, 39)
    assert shares.omega["B"] == Fraction(7, 117)
    assert share_totals(shares) == 1
    tree = critical_tree(induce_graph(share_tree_18()))
    slow, _ = prst_oracle(tree, SharingParams.of(Fraction(1, 2)))
    assert exact(shares.omega) == exact(slow)


def test_single_agent_keeps_everything():
    shares = shares_of(tree_profile([-1], [5]), Fraction(1, 3))
    assert shares.omega == {"A": 1}


def test_star_splits_evenly_regardless_of_alpha():
    profile = tree_profile([-1, -1, -1, -1], [1, 2, 3, 4])
    for alpha in (Fraction(1, 4), Fraction(9, 10)):
        shares = shares_of(profile, alpha)
        assert all(w == Fraction(1, 4) for w in shares.omega.values())


def test_chain_head_takes_everything():
    # A single invitation chain has no sibling competition anywhere, so
    # the head's spread is zero and she keeps the whole reward.
    shares = shares_of(chain([1, 1, 1]), Fraction(2, 3))
    assert shares.omega["c0"] == 1
    assert shares.omega["c1"] == 0
    assert shares.omega["c2"] == 0


def test_alpha_moves_mass_towards_the_inviter():
    # A and B hang off the sponsor; C is A's only child, D is C's child.
    profile = tree_profile([-1, -1, 0, 2], [1, 1, 1, 1])
    low = shares_of(profile, Fraction(1, 4)).omega
    high = shares_of(profile, Fraction(3, 4)).omega
    assert low["A"] == Fraction(1, 2) + Fraction(1, 16)
    assert high["A"] == Fraction(1, 2) + Fraction(3, 16)
    assert high["A"] > low["A"]  # diffusion bonus grows with alpha
    assert high["C"] < low["C"]  # what is passed down shrinks


def test_shares_scale_linearly_with_reward():
    unit = shares_of(share_tree_18(), Fraction(1, 2), 1)
    ten = shares_of(share_tree_18(), Fraction(1, 2), 10)
    money = PRST_MODULE.shares
    for i in unit.omega:
        assert money(ten.omega, ten.reward)[i] == 10 * money(unit.omega, unit.reward)[i]
        assert ten.omega[i] == unit.omega[i]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_property_shares_sum_to_one_and_are_nonnegative(n, seed, alpha):
    profile = random_tree(n, random.Random(seed))
    shares = shares_of(profile, alpha)
    assert share_totals(shares) == 1
    assert all(w >= 0 for w in shares.omega.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=25),
       st.integers(min_value=0, max_value=10**6),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
def test_property_pass_mass_accounts_for_subtree(n, seed, alpha):
    # What an agent passes down, by the recursion term by term, is exactly
    # what the fast walk gives her strict subtree.
    profile = random_tree(n, random.Random(seed))
    tree = critical_tree(induce_graph(profile))
    params = SharingParams.of(alpha)
    omega = prst(tree, params).omega
    _, passes = prst_oracle(tree, params)
    for i in tree.agents:
        below = sum((omega[j] for j in tree.branch_members(i) - {i}), Fraction(0))
        assert passes[i] == below


ALPHAS = (Fraction(1, 2), Fraction(1, 5), Fraction(7, 9), Fraction(99, 100))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(FAMILIES)),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_property_an_agent_keeps_zero_iff_she_is_below_an_only_child(family, n, seed, alpha):
    tree = critical_tree(induce_graph(FAMILIES[family](n, random.Random(seed))))
    children = Counter(tree.parent.values())
    omega = prst(tree, SharingParams(alpha)).omega
    for i in tree.agents:
        below_only_child = any(children[tree.parent[a]] == 1
                               for a in tree.ancestors(i)[:-1])
        assert (omega[i] == 0) == below_only_child


def test_a_pure_chain_costs_one_fraction(monkeypatch):
    # Every agent below the head of a chain keeps 0, so the walk skips them
    # and only the head's coefficient is built.
    tree = critical_tree(induce_graph(chain([1] * 20_000)))
    params = SharingParams.of(Fraction(2, 3))
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(PRST_MODULE, "Fraction", counted)
    shares = prst(tree, params)
    monkeypatch.undo()
    nonzero = [i for i, w in shares.omega.items() if w]
    assert nonzero == ["c0"] and shares.omega["c0"] == 1
    assert len(built) <= len(nonzero)


def test_every_sponsor_branch_keeps_its_share_of_the_agents():
    # Redistribution shares a branch's counterfactual revenue among its
    # members, so what a branch keeps must be exactly its size over n.
    rng = random.Random(11)
    profiles = [random_tree(rng.randint(1, 40), rng) for _ in range(100)]
    profiles += [random_digraph_profile(rng, rng.randint(1, 30), edge_prob=p)
                 for p in (0.05, 0.1, 0.3) for _ in range(40)]
    for profile in profiles:
        tree = critical_tree(induce_graph(profile))
        if not tree.parent:
            continue
        n = len(tree.parent)
        for alpha in ALPHAS:
            omega = prst(tree, SharingParams(alpha)).omega
            for root in tree.root_branches:
                kept = sum((omega[i] for i in tree.branch_members(root)), Fraction(0))
                assert kept == Fraction(tree.size[root], n)
