"""Composing an auction with reward sharing so revenue flows back.

``run_nrmf`` runs the auction, then for every branch hanging off the
sponsor in the critical tree it simulates the same auction with that
branch silenced; the revenue the sponsor would still have made is exactly
what the branch's members may share, so no member can influence her own
pot.  ``cavallo`` is the classical rebate scheme used as a baseline: on
star networks the two coincide payment for payment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from netredist.auctions import (
    AuctionOutcome,
    EmptyMarketError,
    MechanismId,
    run_auction,
    utility,
    vcg,
)
from netredist.critical_tree import critical_tree
from netredist.profiles import (
    NULL_TYPE,
    ProfileError,
    ReportProfile,
    induce_graph,
)
from netredist.prst import SharingParams, prst

ZERO = Fraction(0)


@dataclass(frozen=True)
class RedistributionOutcome:
    """Outcome of an auction plus the redistribution layered on top.

    ``final_payment[i] == auction_payment[i] - redistribution[i]`` holds
    exactly for every agent, and ``surplus`` is the exact sum of final
    payments.  ``branch_revenues`` is keyed by branch root id, in the order
    given by ``branch_roots``.  Utilities are measured against true values
    when those were supplied, otherwise against reported values.
    """

    allocation: dict[str, int]
    auction_payment: dict[str, Fraction]
    redistribution: dict[str, Fraction]
    final_payment: dict[str, Fraction]
    branch_revenues: dict[str, Fraction]
    branch_roots: tuple[str, ...]
    surplus: Fraction
    utilities: dict[str, Fraction]
    winner: Optional[str]


def _finalize(profile: ReportProfile,
              auction: AuctionOutcome,
              redistribution: dict[str, Fraction],
              branch_revenues: dict[str, Fraction],
              branch_roots: tuple[str, ...],
              true_values: Optional[Mapping[str, Fraction]]) -> RedistributionOutcome:
    final_payment = {
        i: auction.payment[i] - redistribution[i] for i in profile.agents
    }
    values = dict(true_values) if true_values is not None else {}
    utilities = {
        i: utility(auction.allocation[i], values.get(i, profile.value_of(i)),
                   final_payment[i])
        for i in profile.agents
    }
    return RedistributionOutcome(
        allocation=dict(auction.allocation),
        auction_payment=dict(auction.payment),
        redistribution=redistribution,
        final_payment=final_payment,
        branch_revenues=branch_revenues,
        branch_roots=branch_roots,
        surplus=sum(final_payment.values(), ZERO),
        utilities=utilities,
        winner=auction.winner,
    )


def run_nrmf(mechanism: MechanismId,
             profile: ReportProfile,
             params: SharingParams,
             true_values: Optional[Mapping[str, Fraction]] = None) -> RedistributionOutcome:
    """Run the auction and share each branch's counterfactual revenue.

    The reward inside the sharing step is fixed to 1, so the coefficients
    are pure proportions; ``params.reward`` is ignored here.  A profile
    with no reachable agent yields the all-zero outcome.
    """
    graph = induce_graph(profile)
    if not graph.reachable:
        empty = AuctionOutcome(
            allocation={i: 0 for i in profile.agents},
            payment={i: ZERO for i in profile.agents},
            surplus=ZERO,
            winner=None,
        )
        zero = {i: ZERO for i in profile.agents}
        return _finalize(profile, empty, zero, {}, (), true_values)

    auction = run_auction(mechanism, profile)
    tree = critical_tree(graph)
    shares = prst(tree, SharingParams(params.alpha, Fraction(1)))

    branch_revenues: dict[str, Fraction] = {}
    for k, root in enumerate(tree.root_branches):
        # the whole branch stays silent: every member reports (0, {})
        blocked = ReportProfile(profile.sponsor_neighbors, {
            i: (NULL_TYPE if tree.branch_of.get(i) == k else t)
            for i, t in profile.reports.items()
        })
        try:
            branch_revenues[root] = run_auction(mechanism, blocked).surplus
        except EmptyMarketError:
            branch_revenues[root] = ZERO

    redistribution = {i: ZERO for i in profile.agents}
    for i in graph.reachable:
        root = tree.root_branches[tree.branch_of[i]]
        redistribution[i] = shares.omega[i] * branch_revenues[root]

    return _finalize(profile, auction, redistribution, branch_revenues,
                     tree.root_branches, true_values)


def cavallo(profile: ReportProfile,
            true_values: Optional[Mapping[str, Fraction]] = None) -> RedistributionOutcome:
    """Classical rebate scheme applied to the participant set.

    Every participant is rebated 1/n of the second-price revenue computed
    with her report silenced; the highest bidder wins at the second price.
    """
    graph = induce_graph(profile)
    n = len(graph.reachable)
    if n == 0:
        raise EmptyMarketError("no agent is reachable from the sponsor")
    auction = vcg(profile)

    rebates = {i: ZERO for i in profile.agents}
    for i in sorted(graph.reachable):
        without = profile.replace(i, NULL_TYPE)
        try:
            revenue = vcg(without).surplus
        except EmptyMarketError:
            revenue = ZERO
        rebates[i] = Fraction(revenue, n)

    return _finalize(profile, auction, rebates, {}, (), true_values)


def check_cavallo_equivalence(profile: ReportProfile) -> bool:
    """Exact payment-for-payment equality of the two schemes on a star."""
    is_star = set(profile.sponsor_neighbors) == set(profile.reports) and all(
        not t.neighbors for t in profile.reports.values()
    )
    if not is_star:
        raise ProfileError("equivalence check only applies to star profiles")
    nrmf = run_nrmf(MechanismId("vcg"), profile, SharingParams.of(Fraction(1, 2)))
    classical = cavallo(profile)
    return nrmf.final_payment == classical.final_payment
