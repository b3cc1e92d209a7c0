import dataclasses
import random
from fractions import Fraction
from functools import partial

import pytest

from netredist import auctions, verify
from netredist.auctions import MechanismId, run_auction, vcg
from netredist.generators import small_tree_instances
from netredist.profiles import AgentType, ReportProfile, induce_graph
from netredist.prst import SharingParams
from netredist.redistribution import cavallo, run_nrmf
from netredist.verify import (
    auction_mechanism,
    cavallo_mechanism,
    check_ic,
    check_ir,
    check_nd,
    check_revenue_invariant,
    check_revenue_monotonic,
    leaf_extension_pairs,
    neighbor_subsets,
    nrmf_mechanism,
    shrink_pairs,
    valuation_grid,
)

from families import random_tree
from networks import (
    T,
    bidder_star,
    leaf_named_taken,
    reach_diamond,
    reference_network_10,
    star_with_tail,
)
from oracles import clear_memo, counted_builds, exact, memo_free

HALF = Fraction(1, 2)
IDM = MechanismId("idm")


def small_instances(count=20, seed=5, max_n=6):
    rng = random.Random(seed)
    return [random_tree(rng.randint(1, max_n), rng) for _ in range(count)]


def test_valuation_grid_brackets_order_statistics():
    grid = valuation_grid(bidder_star())
    assert Fraction(0) in grid
    for v in (2, 3, 4):
        assert {Fraction(v - 1), Fraction(v), Fraction(v + 1)} <= set(grid)
    assert grid == sorted(grid)


def test_neighbor_subsets_powerset_below_cap():
    subsets = neighbor_subsets(frozenset("XYZ"))
    assert len(subsets) == 8


def test_neighbor_subsets_sampled_above_cap():
    big = frozenset(f"n{k}" for k in range(12))
    subsets = neighbor_subsets(big)
    assert len(subsets) == 32
    assert frozenset() in subsets and big in subsets
    # deterministic under the fixed seed
    assert subsets == neighbor_subsets(big)


def test_reports_name_the_deviation_space():
    space = ("valuation grid = instance order statistics +/- 1 and 0; "
             "neighbour powerset up to degree 8, 32 seeded samples beyond")
    mech = auction_mechanism(MechanismId("vcg"))
    assert check_ir(mech, [bidder_star()]).space == space
    assert check_ic(mech, [bidder_star()]).space == space
    failed = check_ic(cavallo_mechanism(), [star_with_tail()])
    assert not failed.verdict and failed.space == space


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
        payment = dict(outcome.auction_payment)
        payment[outcome.winner] = payment[outcome.winner] + 5
        return dataclasses.replace(outcome, auction_payment=payment, final_payment=payment,
                                   surplus=outcome.surplus + 5)

    runs = []

    def counted(profile):
        runs.append(profile)
        return overcharging(profile)

    report = check_ir(counted, [bidder_star()])
    assert not report.verdict
    assert report.witness is not None
    # A and B lose; C wins at value 4 and pays the second price 3 plus 5
    w = report.witness
    assert (report.checked, len(runs)) == (3, 4)
    assert w.agent == "C"
    assert w.deviation == w.truthful_report == T(4)
    assert (w.truthful_utility, w.deviation_utility) == (-4, -4)
    honest, deviated = report.witness.replay(overcharging)
    assert (honest, deviated) == (w.truthful_utility, w.deviation_utility)
    # the JSON names how far below 0 the utility falls, not a gain of 0
    data = report.to_dict()["witness"]
    assert data["shortfall"] == "4" and "gain" not in data


def test_ir_runs_the_mechanism_once_per_neighbour_subset():
    inner = nrmf_mechanism(IDM, HALF)
    profiles = []

    def counted(profile):
        profiles.append(profile)
        return inner(profile)

    network = reference_network_10()
    report = check_ir(counted, [network])
    assert (report.verdict, report.checked) == (True, 29)
    # the truthful report is one of the deviations, and a pass never runs
    # the truthful profile for a bar
    pairs = sum(len(neighbor_subsets(t.neighbors)) for t in network.reports.values())
    assert len(profiles) == report.checked == pairs


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


def test_ic_evaluates_the_truthful_profile_once_per_instance():
    inner = nrmf_mechanism(MechanismId("idm"), HALF)
    profiles = []

    def counted(profile):
        profiles.append(profile)
        return inner(profile)

    network = reference_network_10()
    report = check_ic(counted, [network, ReportProfile(frozenset(), {})])
    assert report.verdict
    assert report.checked == 425
    assert profiles.count(network) == 1
    assert len(profiles) == 1 + report.checked


def test_ic_leaves_the_utilities_of_every_outcome_uncomputed():
    inner = nrmf_mechanism(IDM, HALF)
    outcomes = []

    def recorded(profile):
        outcomes.append(inner(profile))
        return outcomes[-1]

    assert check_ic(recorded, [reference_network_10()]).checked == 425
    assert len(outcomes) == 1 + 425
    assert not any("utilities" in vars(outcome) for outcome in outcomes)


def test_ic_builds_one_index_per_change_of_invitation_structure(monkeypatch):
    builds = counted_builds(monkeypatch)
    inner = nrmf_mechanism(MechanismId("idm"), HALF)
    profiles = []

    def counted(profile):
        profiles.append(profile)
        return inner(profile)

    network = reference_network_10()
    report = check_ic(counted, [network])
    assert report.verdict
    assert len(profiles) == 1 + 425
    # the loop runs every value of the grid for one (agent, neighbour
    # subset) in a row, and consecutive pairs may share a structure
    pairs = sum(len(neighbor_subsets(t.neighbors)) for t in network.reports.values())
    assert pairs == 29
    assert len(builds) == 23


def test_every_audited_mechanism_reuses_the_structure(monkeypatch):
    builds = counted_builds(monkeypatch)
    assert check_ic(auction_mechanism(IDM), [reference_network_10()]).checked == 425
    assert len(builds) == 23
    builds.clear()
    clear_memo()
    assert not check_ic(cavallo_mechanism(), [star_with_tail()]).verdict
    assert len(builds) == 2


def _same_as_fresh_run(outcome, reference, profile) -> bool:
    fresh = memo_free(reference, profile)
    # utilities are computed on read, so not a field
    names = [f.name for f in dataclasses.fields(fresh)] + ["utilities"]
    return all(exact(getattr(outcome, name)) == exact(getattr(fresh, name))
               for name in names)


def _audit_against_fresh_runs(evaluate, reference, instances) -> tuple[int, int]:
    """Run ``check_ir`` and ``check_ic`` of ``evaluate`` one instance at a
    time, and compare every outcome it gives with a memo-free run of
    ``reference``: (profiles, mismatches)."""
    seen = mismatched = 0

    def compared(profile):
        nonlocal seen, mismatched
        outcome = evaluate(profile)
        seen += 1
        mismatched += not _same_as_fresh_run(outcome, reference, profile)
        return outcome

    for instance in instances:
        check_ir(compared, [instance])
        check_ic(compared, [instance])
    return seen, mismatched


def _nrmf_reference(mechanism, alpha):
    params = SharingParams(alpha)
    return lambda profile: run_nrmf(mechanism, profile, params)


def _audited_instances():
    return small_tree_instances(5) + [reference_network_10()]


@pytest.mark.parametrize("alpha", [HALF, Fraction(1, 5)])
@pytest.mark.parametrize("mechanism", ["idm", "tnm", "vcg", "fixed:3", "fixed:0"])
def test_reused_index_matches_a_fresh_run_on_every_audited_profile(mechanism, alpha):
    mechanism = MechanismId.parse(mechanism)
    seen, mismatched = _audit_against_fresh_runs(nrmf_mechanism(mechanism, alpha),
                                                 _nrmf_reference(mechanism, alpha),
                                                 _audited_instances())
    assert seen > 2000
    assert mismatched == 0


@pytest.mark.parametrize("mechanism", ["cavallo", "vcg", "idm", "tnm", "fixed:3"])
def test_reused_structure_matches_a_fresh_run_on_every_audited_profile(mechanism):
    if mechanism == "cavallo":
        evaluate, reference = cavallo_mechanism(), cavallo
    else:
        evaluate = auction_mechanism(MechanismId.parse(mechanism))
        reference = partial(run_auction, MechanismId.parse(mechanism))
    seen, mismatched = _audit_against_fresh_runs(evaluate, reference, _audited_instances())
    assert seen > 4000
    assert mismatched == 0


def _same_values_other_invitations() -> tuple[ReportProfile, ReportProfile]:
    network = reference_network_10()
    agent = next(i for i in network.agents if network.reports[i].neighbors)
    silent = AgentType(network.value_of(agent), frozenset())
    return network, network.replace(agent, silent)


def test_alternating_invitation_structures_each_get_their_own_outcome():
    first, second = _same_values_other_invitations()
    evaluate = nrmf_mechanism(IDM, HALF)
    reference = _nrmf_reference(IDM, HALF)
    outcomes = [evaluate(p) for p in (first, second, first, second)]
    assert outcomes[0] != outcomes[1]
    for profile, outcome in zip((first, second) * 2, outcomes):
        assert _same_as_fresh_run(outcome, reference, profile)


def test_a_memo_key_that_reads_only_the_sponsor_is_caught(monkeypatch):
    monkeypatch.setattr(auctions, "_structure", lambda profile: profile.sponsor_neighbors)
    first, second = _same_values_other_invitations()
    evaluate = nrmf_mechanism(IDM, HALF)
    evaluate(first)
    assert not _same_as_fresh_run(evaluate(second), _nrmf_reference(IDM, HALF), second)
    for evaluate, reference in [
        (nrmf_mechanism(IDM, HALF), _nrmf_reference(IDM, HALF)),
        (auction_mechanism(IDM), partial(run_auction, IDM)),
    ]:
        _, mismatched = _audit_against_fresh_runs(evaluate, reference,
                                                  [reference_network_10()])
        assert mismatched > 0


def test_nd_passes_and_counts_instances():
    instances = small_instances()
    report = check_nd(nrmf_mechanism(MechanismId("idm"), HALF), instances)
    assert report.verdict
    assert report.checked == len(instances)


def test_nd_catches_a_planted_deficit():
    def leaky(profile):
        from netredist.auctions import vcg
        return dataclasses.replace(vcg(profile), surplus=Fraction(-1))

    report = check_nd(leaky, [bidder_star()])
    assert not report.verdict


def test_empty_instance_list_is_a_vacuous_pass_with_warning():
    report = check_ir(auction_mechanism(MechanismId("vcg")), [])
    assert report.verdict
    assert report.warnings == ("no instances supplied; vacuous pass",)


@pytest.mark.parametrize("audit", [check_ic, check_nd, check_revenue_monotonic,
                                   check_revenue_invariant])
def test_every_audit_warns_on_an_empty_instance_list(audit):
    report = audit(auction_mechanism(MechanismId("vcg")), [])
    assert report.verdict
    assert report.warnings == ("no instances supplied; vacuous pass",)


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


def test_leaf_extension_pairs_never_replace_an_agent():
    profile = leaf_named_taken()
    pairs = leaf_extension_pairs(profile, Fraction(0))
    for (original, extended), host in zip(pairs, ["A", "zz_A_0"], strict=True):
        assert original == profile
        [leaf] = extended.reports.keys() - profile.reports.keys()
        value, invited = profile.value_of(host), profile.reports[host].neighbors
        assert extended.reports == {**profile.reports, leaf: T(0),
                                    host: T(value, invited | {leaf})}
    report = check_revenue_invariant(nrmf_mechanism(IDM, HALF), pairs)
    assert (report.verdict, report.checked, report.skipped) == (True, 2, 0)


def test_revenue_monotonic_for_vcg_on_growth_pairs():
    pairs = []
    for profile in small_instances(count=10):
        pairs.extend(shrink_pairs(profile))
    report = check_revenue_monotonic(auction_mechanism(MechanismId("vcg")), pairs)
    assert report.verdict
    assert report.checked > 0


def test_revenue_monotonic_skips_malformed_pairs():
    grown = bidder_star()
    shrunk = grown.replace("C", T(99))  # value changed: not growth
    report = check_revenue_monotonic(
        auction_mechanism(MechanismId("vcg")), [(shrunk, grown)])
    assert report.verdict
    assert report.skipped == 1
    assert report.warnings


def test_revenue_monotonic_skips_a_pair_that_loses_a_participant():
    # reversed, the shrink pair that drops A's invitation of H cuts H, J, K
    # and L off the larger profile; with every report kept, a sponsor who
    # no longer invites N cuts N off
    full = reference_network_10()
    [(reduced, _)] = [(reduced, grown) for reduced, grown in shrink_pairs(full)
                      if "H" not in reduced.reports["A"].neighbors]
    uninvited = ReportProfile(full.sponsor_neighbors - {"N"}, full.reports)
    pairs = [(full, reduced), (full, uninvited)]
    for smaller, larger in pairs:
        assert not induce_graph(smaller).reachable <= induce_graph(larger).reachable
    report = check_revenue_monotonic(auction_mechanism(MechanismId("vcg")), pairs)
    assert (report.verdict, report.checked, report.skipped) == (True, 0, 2)
    assert report.warnings == ("skipped pairs violating the growth precondition: 2",)


def test_revenue_invariant_checks_a_pair_with_no_new_participant():
    # without C's invitation H is still reached through D
    full = reach_diamond()
    reduced = full.replace("C", T(2))
    assert induce_graph(reduced).reachable == induce_graph(full).reachable
    report = check_revenue_invariant(auction_mechanism(MechanismId("vcg")), [(reduced, full)])
    assert (report.verdict, report.checked, report.skipped) == (True, 1, 0)


def test_skipped_pairs_give_one_warning_per_reason_with_its_count():
    grown = bidder_star()
    malformed = [(grown.replace(i, T(99)), grown) for i in "ABC"] * 3
    vcg_mechanism = auction_mechanism(MechanismId("vcg"))
    report = check_revenue_monotonic(vcg_mechanism, malformed)
    assert (report.verdict, report.checked, report.skipped) == (True, 0, 9)
    assert report.warnings == ("skipped pairs violating the growth precondition: 9",)
    winners = leaf_extension_pairs(grown, Fraction(99))
    report = check_revenue_invariant(vcg_mechanism, malformed + winners)
    assert (report.verdict, report.checked, report.skipped) == (True, 0, 12)
    assert report.warnings == ("skipped pairs violating the growth precondition: 9",
                               "skipped pairs with a potential new winner: 3")


def test_revenue_monotonic_catches_a_planted_violation():
    # a mechanism whose revenue shrinks with participation must fail
    def shrinking(profile):
        from netredist.auctions import vcg
        n = len(induce_graph(profile).reachable)
        return dataclasses.replace(vcg(profile), surplus=Fraction(-n))

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


def test_revenue_invariant_runs_and_induces_each_profile_of_a_pair_once(monkeypatch):
    inductions, runs = [], []
    real = verify.induce_graph
    monkeypatch.setattr(verify, "induce_graph",
                        lambda profile: inductions.append(profile) or real(profile))
    mechanism = auction_mechanism(IDM)

    def counted(profile):
        runs.append(profile)
        return mechanism(profile)

    pairs = leaf_extension_pairs(reference_network_10(), Fraction(0))
    report = check_revenue_invariant(counted, pairs)
    assert (report.verdict, report.checked, report.skipped) == (True, 10, 0)
    # per pair: the smaller profile, the larger one with the winner's line
    # silenced, and the larger one; one induction of each profile of the
    # pair, plus the one that found the hosts of the leaves
    assert len(runs) == 3 * len(pairs)
    assert len(inductions) == 2 * len(pairs) + 1


def test_revenue_invariant_propagates_mechanism_errors():
    # Nothing may end the shadow run quietly: an error is a fault of the
    # mechanism and must not make the pair count as qualifying.
    def fragile(profile):
        if any(profile.value_of(i) == 0 for i in profile.agents):
            raise ValueError("zero bids unsupported")
        return vcg(profile)

    pairs = leaf_extension_pairs(bidder_star(), Fraction(1))
    with pytest.raises(ValueError, match="zero bids"):
        check_revenue_invariant(fragile, pairs)
