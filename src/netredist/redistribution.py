"""Composing an auction with reward sharing so revenue flows back.

``run_nrmf`` runs the auction, then for every branch hanging off the
sponsor in the critical tree takes the revenue the same auction would
make with that branch's root silenced (``auctions.silenced_revenue``);
that revenue is exactly what the branch's members may share, so no
member can influence her own pot.  ``cavallo`` is the classical rebate
scheme used as a baseline: on star networks the two coincide payment for
payment.  Pricing, counterfactual or not, lives in ``auctions``; this
module only shares.

The sharing coefficients come from the market's critical tree, which
``auctions`` memoises and which keeps those of the last alpha.

The arithmetic is per branch, not per agent.  Only the members of a
branch with nonzero revenue get a rebate, and reward sharing gives branch
``b``'s members exactly the mass ``size[b] / n``, so the surplus is the
auction's revenue less ``sum(R_b * size[b]) / n``, one term per branch.
"""

from __future__ import annotations

from fractions import Fraction

from netredist.auctions import MechanismId, Outcome, auction, market, silenced_revenue
from netredist.profiles import ProfileError, ReportProfile
from netredist.prst import SharingParams

ZERO = Fraction(0)
VCG = MechanismId("vcg")


def run_nrmf(mechanism: MechanismId,
             profile: ReportProfile,
             params: SharingParams) -> Outcome:
    """Run the auction and share each branch's counterfactual revenue.

    Only the sharing coefficients ``omega`` are used, and they are pure
    proportions; ``params.reward`` is ignored here.  A profile with no
    reachable agent yields the all-zero outcome.
    """
    m = market(profile)
    if not m.ranked:
        return auction(mechanism, m)  # no sale and no branch to share with

    tree = m.tree
    omega = tree.omega(params)
    preorder, pre, size = tree.preorder, tree.pre, tree.size
    revenues = {root: silenced_revenue(mechanism, m, root) for root in tree.root_branches}
    redistribution = dict.fromkeys(profile.agents, ZERO)
    # branch b's members share its revenue with total mass size[b] / n
    mass = ZERO
    for root, revenue in revenues.items():
        if revenue:
            start = pre[root]
            for i in preorder[start:start + size[root]]:
                redistribution[i] = omega[i] * revenue
            mass += revenue * size[root]
    return auction(mechanism, m, redistribution, mass / len(preorder), revenues)


def cavallo(profile: ReportProfile) -> Outcome:
    """Classical rebate scheme applied to the participant set.

    Every participant is rebated 1/n of the second-price revenue computed
    with her report silenced; the highest bidder wins at the second price.
    That revenue is the second best bid once ``i`` is silenced, or 0.  A
    profile with no reachable agent yields the all-zero outcome.
    """
    m = market(profile)
    n = len(m.ranked)
    if not n:
        return auction(VCG, m)  # no sale and no one to rebate
    rebates = dict.fromkeys(profile.agents, ZERO)
    total = ZERO
    for i in m.ranked:
        revenue = silenced_revenue(VCG, m, i)
        if revenue:
            rebates[i] = revenue / n
            total += revenue
    return auction(VCG, m, rebates, total / n)


def check_cavallo_equivalence(profile: ReportProfile) -> bool:
    """Exact payment-for-payment equality of the two schemes on a star."""
    is_star = set(profile.sponsor_neighbors) == set(profile.reports) and all(
        not t.neighbors for t in profile.reports.values()
    )
    if not is_star:
        raise ProfileError("equivalence check only applies to star profiles")
    nrmf = run_nrmf(VCG, profile, SharingParams.of(Fraction(1, 2)))
    classical = cavallo(profile)
    return nrmf.final_payment == classical.final_payment
