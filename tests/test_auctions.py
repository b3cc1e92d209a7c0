import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from netredist.auctions import (
    MechanismError,
    MechanismId,
    chain_walk,
    fixed_price,
    idm,
    market,
    run_auction,
    silenced_revenue,
    tnm,
    vcg,
)
from netredist.critical_tree import critical_tree
from netredist.profiles import ReportProfile, induce_graph, make_profile

from families import random_digraph_profile, random_tree
from networks import T, bidder_star, chain, reference_network_10
from oracles import NULL_TYPE
from strategies import invitation_digraphs


def test_mechanism_id_parse_and_str():
    assert MechanismId.parse("vcg") == MechanismId("vcg")
    fp = MechanismId.parse("fixed:3.5")
    assert fp.kind == "fixed_price" and fp.price == Fraction(7, 2)
    assert str(fp) == "fixed:7/2"
    for text in ("vcg", "idm", "tnm", "fixed:7/2", "fixed:0"):
        mechanism = MechanismId.parse(text)
        assert str(mechanism) == text and MechanismId.parse(str(mechanism)) == mechanism
    with pytest.raises(MechanismError):
        MechanismId.parse("english")
    with pytest.raises(MechanismError):
        MechanismId.parse("fixed:abc")
    with pytest.raises(MechanismError):
        MechanismId("vcg", Fraction(1))  # price only with fixed_price


def test_vcg_is_second_price_over_participants():
    outcome = vcg(bidder_star())
    assert outcome.winner == "C"
    assert outcome.auction_payment["C"] == 3
    assert outcome.surplus == 3
    assert outcome.allocation == {"A": 0, "B": 0, "C": 1}


def test_vcg_ignores_unreachable_high_bidder():
    profile = ReportProfile(frozenset({"A"}), {"A": T(2), "Z": T(99)})
    outcome = vcg(profile)
    assert outcome.winner == "A"
    assert outcome.auction_payment["A"] == 0
    assert outcome.allocation["Z"] == 0


def test_empty_market_is_no_sale():
    profile = ReportProfile(frozenset(), {"A": T(2)})
    for mechanism in (vcg, idm, tnm, lambda p: fixed_price(p, Fraction(1))):
        outcome = mechanism(profile)
        assert outcome.winner is None
        assert type(outcome.surplus) is Fraction and outcome.surplus == 0
        assert outcome.allocation == {"A": 0}
        for payments in (outcome.auction_payment, outcome.redistribution,
                         outcome.final_payment):
            assert payments == {"A": Fraction(0)}


def test_value_ties_break_towards_lowest_id():
    profile = ReportProfile(frozenset({"A", "B"}), {"A": T(5), "B": T(5)})
    assert vcg(profile).winner == "A"


def test_idm_reference_network():
    outcome = idm(reference_network_10())
    assert outcome.winner == "J"
    assert outcome.auction_payment["J"] == 13
    # A buys at 9 and resells at 10; H buys at 10 and resells at 13.
    assert outcome.auction_payment["A"] == 9 - 10
    assert outcome.auction_payment["H"] == 10 - 13
    assert outcome.surplus == 9
    assert sum(outcome.auction_payment.values()) == outcome.surplus


def test_idm_chain_gives_item_to_first_agent_for_free():
    # On a pure chain the first agent tops the market as soon as the next
    # holder's dependants leave, so she keeps the item at price zero.
    outcome = idm(chain([5, 8, 9]))
    assert outcome.winner == "c0"
    assert outcome.auction_payment["c0"] == 0
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
    assert outcome.auction_payment["H"] == 6
    assert outcome.auction_payment["A"] == 0  # buys at 6, resells at 6
    assert outcome.surplus == 6


def test_idm_intermediary_can_keep_the_item():
    # With a bid of 8, A tops the market once H is out and stops the chain.
    outcome = idm(_two_branch_profile(8))
    assert outcome.winner == "A"
    assert outcome.auction_payment["A"] == 6
    assert outcome.surplus == 6


def test_tnm_reference_network():
    outcome = tnm(reference_network_10())
    assert outcome.winner == "H"
    assert outcome.auction_payment["H"] == 10
    assert outcome.auction_payment["A"] == 0  # breaks exactly even
    assert outcome.surplus == 10
    assert sum(outcome.auction_payment.values()) == outcome.surplus


def test_tnm_stops_no_later_than_idm():
    rng = random.Random(99)
    for _ in range(200):
        profile = random_tree(rng.randint(1, 8), rng)
        chain_idm = idm(profile)
        chain_tnm = tnm(profile)
        # the threshold rule removes each holder's whole dependant set in
        # its winner check, so the item stops at the same hop or earlier
        tree = critical_tree(induce_graph(profile))
        assert tree.depth[chain_tnm.winner] <= tree.depth[chain_idm.winner]


def test_fixed_price_prefers_shallow_then_low_id():
    profile = reference_network_10()
    # M (depth 1, value 9) beats the deeper high bidders
    outcome = fixed_price(profile, Fraction(9))
    assert outcome.winner == "M"
    assert outcome.auction_payment["M"] == 9
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
        profile = random_tree(rng.randint(1, 9), rng)
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
    assert run_auction(MechanismId.parse("fixed:2"), profile).auction_payment["A"] == 2


MIXED_VALUES = [Fraction(1, 3), Fraction(2, 7), Fraction("0.5"), Fraction("0.3333"),
                Fraction(1, 2), Fraction("0.50"), Fraction(0), Fraction("0.0"),
                Fraction(3), Fraction(10**20 + 1, 10**20 + 3)]


def test_integer_ranking_orders_like_the_fractions():
    rng = random.Random(5)
    for k in range(400):
        n = rng.randint(1, 25)
        if k % 2:
            profile = random_tree(n, rng)
        else:
            profile = random_digraph_profile(rng, n, edge_prob=0.15)
        profile = ReportProfile(profile.sponsor_neighbors, {
            i: T(rng.choice(MIXED_VALUES), t.neighbors)
            for i, t in profile.reports.items()})
        reachable = induce_graph(profile).reachable
        want = sorted(sorted(reachable), key=profile.value_of, reverse=True)
        assert market(profile).ranked == tuple(want)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(invitation_digraphs())
# silencing a0 leaves tnm's first link a1 bidding 0 against the zero bids
# of a0 and a4 outside her branch; she tops a4 but not a0, so the silenced
# a0 must rank among the zero bids in id order
@example(make_profile({"a1", "a4"}, {"a0": T(0), "a1": T(0, {"a2", "a3"}), "a2": T(1, {"a0"}),
                                     "a3": T(1, {"a0"}), "a4": T(0, {"a0"})}))
def test_silenced_revenue_is_the_revenue_of_a_rerun(profile):
    # the definition: re-run the auction with the silenced agent's report
    # emptied
    m = market(profile)
    for text in ("vcg", "idm", "tnm", "fixed:2"):
        mechanism = MechanismId.parse(text)
        # the chain auctions take branch roots; vcg and fixed price any
        # participant, as cavallo silences each
        silenced = m.tree.root_branches if text in ("idm", "tnm") else m.ranked
        for i in silenced:
            rerun = run_auction(mechanism, profile.replace(i, NULL_TYPE)).surplus
            assert silenced_revenue(mechanism, m, i) == rerun, (text, i)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(invitation_digraphs())
def test_chain_walk_is_the_chain_of_the_silenced_critical_tree(profile):
    # the definition: empty the silenced root's report, rebuild the
    # critical tree, rank by (-value, id), and read the top bidder's
    # ancestors and, for each link, the first bidder outside her branch
    tree = market(profile).tree
    for silenced in (None, *range(len(tree.root_branches))):
        truth = (profile if silenced is None
                 else profile.replace(tree.root_branches[silenced], NULL_TYPE))
        rebuilt = critical_tree(induce_graph(truth))
        ranked = sorted(rebuilt.agents, key=lambda i: (-truth.value_of(i), i))
        chain = rebuilt.ancestors(ranked[0])
        outsiders = [next((i for i in ranked if i not in rebuilt.branch_members(link)), None)
                     for link in chain]
        assert chain_walk(tree, ranked, silenced) == (chain, outsiders), silenced
