import random
from fractions import Fraction
from functools import cached_property, partial

import pytest

from netredist import auctions
from netredist.auctions import MechanismId, market, utility
from netredist.generators import EVENLY_GROWING, GrowthModel, generate
from netredist.profiles import (
    AgentType,
    InducedGraph,
    ProfileError,
    ReportProfile,
    induce_graph,
)
from netredist.prst import SharingParams, prst
from netredist.redistribution import cavallo, check_cavallo_equivalence, run_nrmf

from families import add_cross_edges, random_tree, sparse_digraph_profile, star
from networks import (
    T,
    bidder_star,
    chain,
    cross_invited,
    nearest_cut,
    reference_network_10,
    star_with_tail,
)
from oracles import (
    assert_matches_oracle,
    counted_builds,
    counted_hangs,
    counted_passes,
    every_rehang,
    memo_free,
    nrmf_rerun_oracle,
    rehangs_oracle,
)

HALF = SharingParams.of(Fraction(1, 2))
ALPHAS = [HALF, SharingParams.of(Fraction(1, 5))]
MECHANISMS = [MechanismId.parse(m) for m in ("vcg", "idm", "tnm", "fixed:3", "fixed:0")]


def test_final_payment_identity_holds_exactly():
    outcome = run_nrmf(MechanismId("idm"), reference_network_10(), HALF)
    for i in outcome.final_payment:
        assert outcome.final_payment[i] == (
            outcome.auction_payment[i] - outcome.redistribution[i]
        )
    assert outcome.surplus == sum(outcome.final_payment.values())


def test_branch_revenues_on_reference_network():
    outcome = run_nrmf(MechanismId("idm"), reference_network_10(), HALF)
    assert outcome.branch_roots == ("A", "M", "N")
    # blocking A leaves the two-bidder market {M, N}: revenue 7; blocking
    # M leaves J winning with threshold N = 7; blocking N keeps M's 9
    assert outcome.branch_revenues == {"A": 7, "M": 7, "N": 9}
    assert outcome.winner == "J"
    assert outcome.surplus < 9  # redistribution strictly eats into revenue


def test_rewards_use_own_branch_revenue_only():
    outcome = run_nrmf(MechanismId("idm"), reference_network_10(), HALF)
    from netredist.critical_tree import critical_tree
    from netredist.prst import prst
    tree = critical_tree(induce_graph(reference_network_10()))
    shares = prst(tree, HALF)
    for i in tree.agents:
        root = tree.root_branches[tree.branch_of[i]]
        assert outcome.redistribution[i] == (
            shares.omega[i] * outcome.branch_revenues[root]
        )


def test_utilities_against_reported_values_by_default():
    outcome = run_nrmf(MechanismId("vcg"), bidder_star(), HALF)
    assert outcome.utilities["C"] == 4 - outcome.final_payment["C"]
    assert outcome.utilities["A"] == -outcome.final_payment["A"]


def test_utilities_against_supplied_true_values():
    truth = {"A": Fraction(9), "B": Fraction(3), "C": Fraction(7)}
    outcome = run_nrmf(MechanismId("vcg"), bidder_star(), HALF)
    at_truth = {i: utility(outcome.allocation[i], v, outcome.final_payment[i])
                for i, v in truth.items()}
    # C still wins on reports, but her utility is measured at her true value
    assert outcome.winner == "C"
    assert at_truth["C"] == 7 - outcome.final_payment["C"]
    assert at_truth["A"] == -outcome.final_payment["A"] == outcome.utilities["A"]
    # the outcome's own utilities stay at the reported values
    assert outcome.utilities["C"] == 4 - outcome.final_payment["C"]


def test_empty_participant_set_degenerates_to_all_zero():
    profile = ReportProfile(frozenset(), {"A": T(5)})
    outcome = run_nrmf(MechanismId("idm"), profile, HALF)
    assert outcome.winner is None
    assert outcome.surplus == 0
    assert outcome.final_payment == {"A": 0}
    assert outcome.branch_roots == ()


def test_single_branch_redistributes_the_counterfactual_revenue():
    # with one branch the blocked market is empty, so nothing comes back
    profile = ReportProfile(frozenset({"A"}), {"A": T(5, ["B"]), "B": T(3)})
    outcome = run_nrmf(MechanismId("idm"), profile, HALF)
    assert outcome.branch_revenues == {"A": 0}
    assert outcome.redistribution == {"A": 0, "B": 0}


def test_cavallo_on_an_empty_market_is_all_zero():
    profile = ReportProfile(frozenset(), {"A": T(5, ["B"]), "B": T(3)})
    outcome = cavallo(profile)
    assert outcome == run_nrmf(MechanismId("vcg"), profile, HALF)
    assert outcome.winner is None
    assert outcome.surplus == 0
    assert outcome.redistribution == outcome.final_payment == {"A": 0, "B": 0}


def test_cavallo_rebates_on_three_agent_star():
    outcome = cavallo(bidder_star())
    assert outcome.winner == "C"
    assert outcome.auction_payment["C"] == 3
    assert outcome.redistribution == {
        "A": Fraction(1), "B": Fraction(2, 3), "C": Fraction(2, 3),
    }
    assert outcome.surplus == 3 - Fraction(1) - Fraction(2, 3) - Fraction(2, 3)


def test_cavallo_handles_invited_tail():
    outcome = cavallo(star_with_tail())
    # n = 4; silencing C also cuts off D, leaving the market {A, B}
    assert outcome.redistribution["C"] == Fraction(2, 4)
    assert outcome.redistribution["D"] == Fraction(3, 4)


def test_nrmf_vcg_equals_cavallo_on_stars():
    rng = random.Random(123)
    for _ in range(50):
        assert check_cavallo_equivalence(star(rng.randint(2, 10), rng))


def test_equivalence_check_rejects_non_star():
    with pytest.raises(ProfileError, match="star"):
        check_cavallo_equivalence(star_with_tail())


def test_nrmf_vcg_differs_from_cavallo_off_stars():
    profile = star_with_tail()
    nrmf = run_nrmf(MechanismId("vcg"), profile, HALF)
    classical = cavallo(profile)
    assert nrmf.final_payment != classical.final_payment


def test_surplus_never_negative_on_random_trees():
    rng = random.Random(20240606)
    for mech in (MechanismId("idm"), MechanismId("tnm"), MechanismId("vcg")):
        for _ in range(150):
            profile = random_tree(rng.randint(1, 10), rng)
            outcome = run_nrmf(mech, profile, HALF)
            assert outcome.surplus >= 0


def test_redistribution_never_exceeds_auction_revenue_on_trees():
    # every branch pot is the revenue of a smaller market, which the
    # chain auctions never price above the full one
    rng = random.Random(20240607)
    for _ in range(150):
        profile = random_tree(rng.randint(1, 10), rng)
        outcome = run_nrmf(MechanismId("idm"), profile, HALF)
        auction_revenue = sum(outcome.auction_payment.values())
        assert sum(outcome.redistribution.values()) <= auction_revenue


def test_one_index_per_profile_serves_every_counterfactual(monkeypatch):
    calls = []

    def counted(name):
        real = getattr(auctions, name)

        def wrapper(arg):
            calls.append(name)
            return real(arg)
        return wrapper

    for name in ("induce_graph", "critical_tree"):
        monkeypatch.setattr(auctions, name, counted(name))
    for run in [partial(run_nrmf, mech, params=HALF) for mech in MECHANISMS] + [cavallo]:
        network = reference_network_10()
        revalued = network.replace("J", AgentType(Fraction(1), network.reports["J"].neighbors))
        calls.clear()
        run(network)
        assert calls == ["induce_graph", "critical_tree"]
        # the same invitation structure with other values builds nothing
        run(revalued)
        assert calls == ["induce_graph", "critical_tree"]


def test_the_dominator_search_is_the_only_walk_of_the_graph(monkeypatch):
    walks = []
    real = InducedGraph.reachable.func

    def counted(graph):
        walks.append(graph)
        return real(graph)

    reachable = cached_property(counted)
    reachable.__set_name__(InducedGraph, "reachable")
    monkeypatch.setattr(InducedGraph, "reachable", reachable)
    for mech in MECHANISMS:
        run_nrmf(mech, cross_invited(), HALF)
    cavallo(cross_invited())
    assert walks == []
    # the count is live: a read of the participant set is one walk
    assert induce_graph(cross_invited()).reachable and len(walks) == 1


def test_an_index_serves_only_its_own_invitation_structure_and_alpha():
    network = reference_network_10()
    agent = next(i for i in network.agents if network.reports[i].neighbors)
    others = [
        (network.replace(agent, AgentType(network.value_of(agent), frozenset())), HALF),
        (ReportProfile(network.sponsor_neighbors - {"A"}, network.reports), HALF),
        (ReportProfile(network.sponsor_neighbors, {**network.reports, "Z": T(1)}), HALF),
        (network, SharingParams.of(Fraction(1, 5))),
    ]
    for mech in MECHANISMS:
        for other, params in others:
            run_nrmf(mech, network, HALF)
            assert run_nrmf(mech, other, params) == memo_free(run_nrmf, mech, other, params)


def test_a_value_only_replace_shares_the_tree_even_before_it_is_built(monkeypatch):
    builds = counted_builds(monkeypatch)
    network = reference_network_10()
    # derived before the network ever ran: the tree built later serves both
    revalued = network.replace("J", AgentType(Fraction(1), network.reports["J"].neighbors))
    assert market(network).tree is market(revalued).tree
    assert market(revalued.replace("A", AgentType(Fraction(7), network.reports["A"].neighbors))
                  ).tree is market(network).tree
    assert len(builds) == 1


def test_a_replace_that_changes_an_invitation_gets_its_own_tree(monkeypatch):
    builds = counted_builds(monkeypatch)
    network = reference_network_10()
    agent = next(i for i in network.agents if network.reports[i].neighbors)
    tree = market(network).tree
    silent = network.replace(agent, AgentType(network.value_of(agent), frozenset()))
    assert market(silent).tree is not tree and market(network).tree is tree
    # one more value-only step keeps the silenced structure's tree
    assert market(silent.replace(agent, AgentType(Fraction(9), frozenset()))
                  ).tree is market(silent).tree
    assert len(builds) == 2


def test_two_profiles_in_alternation_keep_their_own_trees(monkeypatch):
    builds = counted_builds(monkeypatch)
    first = reference_network_10()
    agent = next(i for i in first.agents if first.reports[i].neighbors)
    second = first.replace(agent, AgentType(first.value_of(agent), frozenset()))
    for profile in (first, second, first, second):
        run_nrmf(MechanismId("idm"), profile, HALF)
    assert len(builds) == 2


def test_an_index_is_reused_for_the_same_or_an_equal_alpha():
    tree = market(reference_network_10()).tree
    omega = tree.omega(HALF)
    assert tree.omega(HALF) is omega
    assert tree.omega(SharingParams(Fraction(2, 4))) is omega
    other = tree.omega(ALPHAS[1])
    assert other is not omega
    assert {i: Fraction(n, d) for i, (n, d) in other.items()} == prst(tree, ALPHAS[1]).omega
    assert tree.omega(HALF) == omega


def test_a_new_alpha_reuses_the_rehangs_of_the_structure(monkeypatch):
    passes = counted_passes(monkeypatch)
    profile = cross_invited()
    for alpha in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 2)):
        tree = market(profile).tree
        run_nrmf(MechanismId("idm"), profile, SharingParams(alpha))
        assert market(profile).tree is tree
    # R loses its two paths with A silenced and with B silenced: one
    # dominator pass each, whatever the alpha
    assert passes == ["A", "B"]
    # C invites R too: another structure, other answers
    changed = profile.replace("C", T(3, ["R"]))
    run_nrmf(MechanismId("idm"), changed, HALF)
    assert market(changed).tree is not tree


def test_silencing_a_branch_rehangs_a_root_under_another_branch():
    profile = cross_invited()
    assert every_rehang(market(profile).tree) == [{3: "B"}, {3: "A"}, {}, {}]
    # with A silenced the chain is B, R, Rc: idm prices it at the best bid
    # outside B's branch (C: 3) and tnm stops at B.  Left under the sponsor,
    # R would head the chain, and both would charge B's 5 instead.
    expected = {
        "idm": {"A": 3, "B": 3, "C": 5, "R": 3},
        "tnm": {"A": 3, "B": 3, "C": 5, "R": 3},
        "vcg": {"A": 5, "B": 3, "C": 5, "R": 3},
        "fixed:6": {"A": 6, "B": 6, "C": 6, "R": 0},
    }
    for mech, revenues in expected.items():
        outcome = run_nrmf(MechanismId.parse(mech), profile, HALF)
        assert outcome.branch_roots == ("A", "B", "C", "R")
        assert outcome.branch_revenues == revenues, mech


def test_a_root_left_one_path_hangs_under_its_nearest_cut_point():
    profile = nearest_cut()
    # branches A, B, R, X: with B silenced R's cut points are A, X and Y
    assert every_rehang(market(profile).tree) == [
        {2: "B", 3: "B"}, {2: "Y", 3: "A"}, {}, {2: "B"}]
    expected = {
        "idm": {"A": 0, "B": 0, "R": 2, "X": 1},
        "tnm": {"A": 0, "B": 0, "R": 2, "X": 1},
        "vcg": {"A": 5, "B": 5, "R": 3, "X": 5},
    }
    for mech, revenues in expected.items():
        outcome = run_nrmf(MechanismId(mech), profile, HALF)
        assert outcome.branch_roots == ("A", "B", "R", "X")
        assert outcome.branch_revenues == revenues, mech


def test_nrmf_on_a_long_chain_matches_the_rerun_oracle():
    # Every agent below the head keeps 0; the one branch's pot is empty.
    long_chain = chain([random.Random(5).randint(0, 50) for _ in range(20_000)])
    idm = MechanismId("idm")
    assert_matches_oracle(run_nrmf(idm, long_chain, HALF),
                          nrmf_rerun_oracle([idm], long_chain, [HALF])[idm, HALF], long_chain)


CHAIN_AUCTIONS = [MechanismId("idm"), MechanismId("tnm")]


@pytest.mark.parametrize("seed, n", [(1, 1000), (2, 1500), (3, 2000)])
def test_rehangs_match_the_oracle_on_cross_dense_digraphs(monkeypatch, seed, n):
    # every answer a chain walk asks for, then every silenced branch for
    # each root asked about
    asked = counted_hangs(monkeypatch)
    profile = sparse_digraph_profile(random.Random(seed), n)
    for mech in CHAIN_AUCTIONS:
        run_nrmf(mech, profile, HALF)
    m = market(profile)
    expected = rehangs_oracle(induce_graph(m.profile), m.tree)
    assert asked and all(expected[b].get(c) == parent for b, c, parent in asked)
    assert any(parent is not None for *_, parent in asked)
    for c in {c for _, c, _ in asked}:
        assert [m.tree.hang(b, c) for b in range(len(expected))] == [
            moved.get(c) for moved in expected]


def test_dominator_passes_are_bounded_by_the_silenced_branches_that_cross_a_root(monkeypatch):
    passes = counted_passes(monkeypatch)
    asked = counted_hangs(monkeypatch)
    rng = random.Random(20240705)
    # on a tree the sponsor invites every root: nothing is asked
    for _ in range(100):
        profile = random_tree(rng.randint(1, 12), rng)
        for mech in CHAIN_AUCTIONS:
            run_nrmf(mech, profile, HALF)
    assert (passes, asked) == ([], [])
    # an evenly grown net plus 1% extra edges has movable roots, but the
    # chain walks never ask about them
    tree = generate(GrowthModel(kind=EVENLY_GROWING, seed=7), 400)
    profile = add_cross_edges(tree, rng, 4)
    for mech in CHAIN_AUCTIONS:
        run_nrmf(mech, profile, HALF)
    movable = market(profile).tree.movable
    assert movable and asked
    assert not any(c in movable for _, c, _ in asked) and passes == []
    # on a cross-dense digraph few of the silenced branches meet the two
    # disjoint paths of a root asked about: each pass is for one of them,
    # and none is repeated
    profile = sparse_digraph_profile(random.Random(1), 1000)
    for mech in CHAIN_AUCTIONS:
        run_nrmf(mech, profile, HALF)
    m = market(profile)
    roots, crossed = m.tree.root_branches, m.tree.__dict__["_crossed"]
    crossing = {roots[b] for _, c, _ in asked if c in crossed for b in crossed[c]}
    assert len(roots) == 482
    assert len(passes) == len(set(passes)) == 22
    assert set(passes) <= crossing
