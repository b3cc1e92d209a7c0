import random
from fractions import Fraction

import pytest

from netredist.auctions import MechanismId, vcg
from netredist.profiles import AgentType, ReportProfile, induce_graph
from netredist.verify import (
    DeviationSpace,
    auction_mechanism,
    cavallo_mechanism,
    check_ic,
    check_ir,
    check_nd,
    check_revenue_invariant,
    check_revenue_monotonic,
    leaf_extension_pairs,
    nrmf_mechanism,
    shrink_pairs,
)

from networks import T, bidder_star, reference_network_10, star_with_tail
from oracles import random_tree_profile

HALF = Fraction(1, 2)


def small_instances(count=20, seed=5, max_n=6):
    rng = random.Random(seed)
    return [random_tree_profile(rng, rng.randint(1, max_n)) for _ in range(count)]


def test_valuation_grid_brackets_order_statistics():
    space = DeviationSpace()
    grid = space.valuation_grid(bidder_star())
    assert Fraction(0) in grid
    for v in (2, 3, 4):
        assert {Fraction(v - 1), Fraction(v), Fraction(v + 1)} <= set(grid)
    assert grid == sorted(grid)


def test_neighbor_subsets_powerset_below_cap():
    space = DeviationSpace()
    subsets = space.neighbor_subsets(frozenset("XYZ"))
    assert len(subsets) == 8


def test_neighbor_subsets_sampled_above_cap():
    space = DeviationSpace(powerset_degree_cap=3, subset_samples=10)
    big = frozenset(f"n{k}" for k in range(12))
    subsets = space.neighbor_subsets(big)
    assert len(subsets) == 10
    assert frozenset() in subsets and big in subsets
    # deterministic under the same seed
    assert subsets == DeviationSpace(powerset_degree_cap=3,
                                     subset_samples=10).neighbor_subsets(big)


def test_ir_passes_for_chain_auctions():
    mech = auction_mechanism(MechanismId("idm"))
    report = check_ir(mech, small_instances())
    assert report.verdict
    assert report.checked > 0
    assert report.witness is None


def test_ir_catches_a_planted_overcharger():
    def overcharging(profile):
        from netredist.auctions import vcg
        outcome = vcg(profile)
        payment = dict(outcome.payment)
        payment[outcome.winner] = payment[outcome.winner] + 5
        from netredist.auctions import AuctionOutcome
        return AuctionOutcome(outcome.allocation, payment,
                              outcome.surplus + 5, outcome.winner)

    report = check_ir(overcharging, [bidder_star()])
    assert not report.verdict
    assert report.witness is not None
    honest, deviated = report.witness.replay(overcharging)
    assert deviated == report.witness.deviation_utility
    assert deviated < 0


def test_ic_passes_for_vcg_on_stars():
    # second-price over direct bidders is IC in valuations
    report = check_ic(auction_mechanism(MechanismId("vcg")), [bidder_star()])
    assert report.verdict


def test_ic_fails_for_cavallo_with_replayable_witness():
    report = check_ic(cavallo_mechanism(), [star_with_tail()])
    assert not report.verdict
    w = report.witness
    assert w.agent == "C"
    assert w.deviation.neighbors == frozenset()  # C withholds D
    assert w.gain == Fraction(1, 6)
    honest, deviated = w.replay(cavallo_mechanism())
    assert (honest, deviated) == (w.truthful_utility, w.deviation_utility)


def test_ic_passes_for_nrmf_chain_auctions_on_small_trees():
    instances = small_instances(count=8, max_n=5)
    for inner in ("idm", "tnm"):
        report = check_ic(nrmf_mechanism(MechanismId(inner), HALF), instances)
        assert report.verdict, report.to_dict()


def test_nd_passes_and_counts_instances():
    instances = small_instances()
    report = check_nd(nrmf_mechanism(MechanismId("idm"), HALF), instances)
    assert report.verdict
    assert report.checked == len(instances)


def test_nd_catches_a_planted_deficit():
    def leaky(profile):
        from netredist.auctions import vcg
        outcome = vcg(profile)
        from netredist.auctions import AuctionOutcome
        return AuctionOutcome(outcome.allocation, outcome.payment,
                              Fraction(-1), outcome.winner)

    report = check_nd(leaky, [bidder_star()])
    assert not report.verdict


def test_empty_instance_list_is_a_vacuous_pass_with_warning():
    report = check_ir(auction_mechanism(MechanismId("vcg")), [])
    assert report.verdict
    assert report.warnings


def test_report_to_dict_round_trips_the_witness():
    report = check_ic(cavallo_mechanism(), [star_with_tail()])
    data = report.to_dict()
    assert data["verdict"] == "fail"
    assert data["witness"]["agent"] == "C"
    assert data["witness"]["gain"] == "1/6"


def test_shrink_pairs_drop_one_invitation_each():
    pairs = shrink_pairs(star_with_tail())
    assert len(pairs) == 1  # only C has an invitation to drop
    reduced, full = pairs[0]
    assert full == star_with_tail()
    assert reduced.reports["C"].neighbors == frozenset()


def test_leaf_extension_pairs_attach_to_every_participant():
    pairs = leaf_extension_pairs(bidder_star(), Fraction(0))
    assert len(pairs) == 3
    for original, extended in pairs:
        assert original == bidder_star()
        assert len(extended.reports) == 4


def test_revenue_monotonic_for_vcg_on_growth_pairs():
    pairs = []
    for profile in small_instances(count=10):
        pairs.extend(shrink_pairs(profile))
    report = check_revenue_monotonic(auction_mechanism(MechanismId("vcg")), pairs)
    assert report.verdict
    assert report.checked > 0


def test_revenue_monotonic_skips_malformed_pairs():
    grown = bidder_star()
    shrunk = grown.replace("C", AgentType.of(99))  # value changed: not growth
    report = check_revenue_monotonic(
        auction_mechanism(MechanismId("vcg")), [(shrunk, grown)])
    assert report.verdict
    assert report.skipped == 1
    assert report.warnings


def test_revenue_monotonic_catches_a_planted_violation():
    # a mechanism whose revenue shrinks with participation must fail
    def shrinking(profile):
        from netredist.auctions import vcg
        outcome = vcg(profile)
        n = len(induce_graph(profile).reachable)
        from netredist.auctions import AuctionOutcome
        return AuctionOutcome(outcome.allocation, outcome.payment,
                              Fraction(-n), outcome.winner)

    profile = ReportProfile(frozenset({"A", "B"}), {
        "A": T(1, ["C"]),
        "B": T(5),
        "C": T(9),
    })
    report = check_revenue_monotonic(shrinking, shrink_pairs(profile))
    assert not report.verdict
    assert report.witness is not None


def test_revenue_invariant_for_vcg_with_zero_value_leaves():
    pairs = []
    for profile in small_instances(count=10):
        pairs.extend(leaf_extension_pairs(profile, Fraction(0)))
    report = check_revenue_invariant(auction_mechanism(MechanismId("vcg")), pairs)
    assert report.verdict
    assert report.checked > 0


def test_recorded_verdicts_for_chain_auctions_on_growth_pairs():
    # monotonicity and invariance are assumptions behind the convergence
    # experiments, not guaranteed by construction; record the measured
    # verdict and, when a violation shows up, insist it carries a witness
    instances = small_instances(count=12, seed=9, max_n=6)
    shrunk = [p for profile in instances for p in shrink_pairs(profile)]
    grown = [p for profile in instances
             for p in leaf_extension_pairs(profile, Fraction(0))]
    for inner in ("idm", "tnm"):
        mechanism = auction_mechanism(MechanismId(inner))
        for report in (check_revenue_monotonic(mechanism, shrunk),
                       check_revenue_invariant(mechanism, grown)):
            assert report.checked > 0
            if not report.verdict:
                w = report.witness
                assert w is not None and w.profile is not None


def test_revenue_invariant_skips_pairs_with_potential_winners():
    # a new leaf outbidding everyone is a potential winner: skipped
    pairs = leaf_extension_pairs(bidder_star(), Fraction(99))
    report = check_revenue_invariant(auction_mechanism(MechanismId("vcg")), pairs)
    assert report.verdict
    assert report.checked == 0
    assert report.skipped == len(pairs)


def test_revenue_invariant_propagates_mechanism_errors():
    # Only an empty market may end the shadow run; any other error is a
    # fault of the mechanism and must not make the pair count as qualifying.
    def fragile(profile):
        if any(profile.value_of(i) == 0 for i in profile.agents):
            raise ValueError("zero bids unsupported")
        return vcg(profile)

    pairs = leaf_extension_pairs(bidder_star(), Fraction(1))
    with pytest.raises(ValueError, match="zero bids"):
        check_revenue_invariant(fragile, pairs)
