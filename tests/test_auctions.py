import random
from fractions import Fraction

import pytest

from netredist.auctions import (
    EmptyMarketError,
    MechanismError,
    MechanismId,
    fixed_price,
    idm,
    run_auction,
    tnm,
    vcg,
)
from netredist.critical_tree import critical_tree
from netredist.profiles import ReportProfile, induce_graph

from networks import T, bidder_star, chain, reference_network_10
from oracles import idm_oracle, random_digraph_profile, random_tree_profile, tnm_oracle


def test_mechanism_id_parse_and_str():
    assert MechanismId.parse("vcg") == MechanismId("vcg")
    fp = MechanismId.parse("fixed:3.5")
    assert fp.kind == "fixed_price" and fp.price == Fraction(7, 2)
    assert str(fp) == "fixed:7/2"
    with pytest.raises(MechanismError):
        MechanismId.parse("english")
    with pytest.raises(MechanismError):
        MechanismId.parse("fixed:abc")
    with pytest.raises(MechanismError):
        MechanismId("vcg", Fraction(1))  # price only with fixed_price


def test_vcg_is_second_price_over_participants():
    outcome = vcg(bidder_star())
    assert outcome.winner == "C"
    assert outcome.payment["C"] == 3
    assert outcome.surplus == 3
    assert outcome.allocation == {"A": 0, "B": 0, "C": 1}


def test_vcg_ignores_unreachable_high_bidder():
    profile = ReportProfile(frozenset({"A"}), {"A": T(2), "Z": T(99)})
    outcome = vcg(profile)
    assert outcome.winner == "A"
    assert outcome.payment["A"] == 0
    assert outcome.allocation["Z"] == 0


def test_empty_market_raises():
    profile = ReportProfile(frozenset(), {"A": T(2)})
    for mechanism in (vcg, idm, tnm):
        with pytest.raises(EmptyMarketError):
            mechanism(profile)


def test_value_ties_break_towards_lowest_id():
    profile = ReportProfile(frozenset({"A", "B"}), {"A": T(5), "B": T(5)})
    assert vcg(profile).winner == "A"


def test_idm_reference_network():
    outcome = idm(reference_network_10())
    assert outcome.winner == "J"
    assert outcome.payment["J"] == 13
    # A buys at 9 and resells at 10; H buys at 10 and resells at 13.
    assert outcome.payment["A"] == 9 - 10
    assert outcome.payment["H"] == 10 - 13
    assert outcome.surplus == 9
    assert sum(outcome.payment.values()) == outcome.surplus


def test_idm_chain_gives_item_to_first_agent_for_free():
    # On a pure chain the first agent tops the market as soon as the next
    # holder's dependants leave, so she keeps the item at price zero.
    outcome = idm(chain([5, 8, 9]))
    assert outcome.winner == "c0"
    assert outcome.payment["c0"] == 0
    assert outcome.surplus == 0


def _two_branch_profile(a_value):
    return ReportProfile(frozenset({"A", "M"}), {
        "A": T(a_value, ["H"]),
        "H": T(10),
        "M": T(6),
    })


def test_idm_resells_down_to_the_top_bidder():
    outcome = idm(_two_branch_profile(3))
    assert outcome.winner == "H"
    assert outcome.payment["H"] == 6
    assert outcome.payment["A"] == 0  # buys at 6, resells at 6
    assert outcome.surplus == 6


def test_idm_intermediary_can_keep_the_item():
    # With a bid of 8, A tops the market once H is out and stops the chain.
    outcome = idm(_two_branch_profile(8))
    assert outcome.winner == "A"
    assert outcome.payment["A"] == 6
    assert outcome.surplus == 6


def test_tnm_reference_network():
    outcome = tnm(reference_network_10())
    assert outcome.winner == "H"
    assert outcome.payment["H"] == 10
    assert outcome.payment["A"] == 0  # breaks exactly even
    assert outcome.surplus == 10
    assert sum(outcome.payment.values()) == outcome.surplus


def test_tnm_stops_no_later_than_idm():
    rng = random.Random(99)
    for _ in range(200):
        profile = random_tree_profile(rng, rng.randint(1, 8))
        chain_idm = idm(profile)
        chain_tnm = tnm(profile)
        # the threshold rule removes each holder's whole dependant set in
        # its winner check, so the item stops at the same hop or earlier
        tree = critical_tree(induce_graph(profile))
        assert tree.depth[chain_tnm.winner] <= tree.depth[chain_idm.winner]


def _assert_matches_oracle(mechanism, oracle, profiles):
    checked = 0
    for profile in profiles:
        if not induce_graph(profile).reachable:
            continue
        winner, price, payments, revenue = oracle(profile)
        outcome = mechanism(profile)
        assert outcome.winner == winner
        assert outcome.payment[winner] == price
        assert dict(outcome.payment) == payments
        assert outcome.surplus == revenue
        checked += 1
    assert checked > 0


def _random_trees(seed, count=300):
    rng = random.Random(seed)
    return [random_tree_profile(rng, rng.randint(1, 8)) for _ in range(count)]


def _random_digraphs(seed, count=300):
    # few distinct values, so the ranking's id tie-break is exercised
    rng = random.Random(seed)
    return [random_digraph_profile(rng, rng.randint(1, 9), value_max=3)
            for _ in range(count)]


def test_idm_matches_resale_oracle_on_random_trees():
    _assert_matches_oracle(idm, idm_oracle, _random_trees(20240501))


def test_tnm_matches_resale_oracle_on_random_trees():
    _assert_matches_oracle(tnm, tnm_oracle, _random_trees(20240502))


def test_idm_matches_resale_oracle_on_random_digraphs():
    _assert_matches_oracle(idm, idm_oracle, _random_digraphs(20240504))


def test_tnm_matches_resale_oracle_on_random_digraphs():
    _assert_matches_oracle(tnm, tnm_oracle, _random_digraphs(20240505))


def test_fixed_price_prefers_shallow_then_low_id():
    profile = reference_network_10()
    # M (depth 1, value 9) beats the deeper high bidders
    outcome = fixed_price(profile, Fraction(9))
    assert outcome.winner == "M"
    assert outcome.payment["M"] == 9
    assert outcome.surplus == 9
    # at price 8 both A and M qualify at depth 1; the lower id wins
    assert fixed_price(profile, Fraction(8)).winner == "A"


def test_fixed_price_no_willing_buyer_means_no_sale():
    outcome = fixed_price(bidder_star(), Fraction(100))
    assert outcome.winner is None
    assert outcome.surplus == 0
    assert all(a == 0 for a in outcome.allocation.values())


def test_fixed_price_zero_price_sells_to_shallowest():
    outcome = fixed_price(chain([0, 5]), Fraction(0))
    assert outcome.winner == "c0"
    assert outcome.surplus == 0


def test_surplus_bounded_by_top_reported_value():
    rng = random.Random(20240503)
    mechanisms = (vcg, idm, tnm)
    for _ in range(200):
        profile = random_tree_profile(rng, rng.randint(1, 9))
        top = max(profile.value_of(i) for i in profile.agents)
        for mechanism in mechanisms:
            outcome = mechanism(profile)
            assert 0 <= outcome.surplus <= top


def test_outcome_ignores_unreachable_reports():
    profile = ReportProfile(frozenset({"A"}), {
        "A": T(4), "Z": T(1),
    })
    changed = profile.replace("Z", T(77))
    for mechanism in (vcg, idm, tnm):
        assert mechanism(profile) == mechanism(changed)


def test_run_auction_dispatch():
    profile = bidder_star()
    assert run_auction(MechanismId("vcg"), profile).winner == "C"
    assert run_auction(MechanismId.parse("fixed:2"), profile).payment["A"] == 2
