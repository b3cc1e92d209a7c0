import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from netredist.critical_tree import critical_tree
from netredist.generators import tree_profile
from netredist.profiles import induce_graph
from netredist.prst import SharingError, SharingParams, prst, share_totals

from networks import chain, share_tree_18


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


def test_single_agent_keeps_everything():
    shares = shares_of(tree_profile([-1], [5]), Fraction(1, 3))
    assert shares.omega["A"] == 1
    assert shares.omega_pass["A"] == 0


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
    for i in unit.omega:
        assert ten.share[i] == 10 * unit.share[i]
        assert ten.omega[i] == unit.omega[i]


def _random_tree(rng, n):
    parents = [-1]
    for k in range(1, n):
        parents.append(rng.randrange(-1, k))
    return tree_profile(parents, [1] * n)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=10**6),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_property_shares_sum_to_one_and_are_nonnegative(n, seed, alpha):
    profile = _random_tree(random.Random(seed), n)
    shares = shares_of(profile, alpha)
    assert share_totals(shares) == 1
    assert all(w >= 0 for w in shares.omega.values())
    assert all(p >= 0 for p in shares.omega_pass.values())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=25),
       st.integers(min_value=0, max_value=10**6),
       st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)))
def test_property_pass_mass_accounts_for_subtree(n, seed, alpha):
    # What an agent passes down is exactly what her strict subtree keeps.
    profile = _random_tree(random.Random(seed), n)
    tree = critical_tree(induce_graph(profile))
    shares = prst(tree, SharingParams.of(alpha))
    for i in tree.agents:
        below = sum((shares.omega[j] for j in tree.subtree(i)), Fraction(0))
        assert shares.omega_pass[i] == below
