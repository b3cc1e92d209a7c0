"""Composing an auction with reward sharing so revenue flows back.

``run_nrmf`` runs the auction, then for every branch hanging off the
sponsor in the critical tree finds the revenue the same auction would
make with that branch silenced; that revenue is exactly what the
branch's members may share, so no member can influence her own pot.
``cavallo`` is the classical rebate scheme used as a baseline: on star
networks the two coincide payment for payment.

No counterfactual re-runs the auction.  The sponsor reaches every agent
outside a branch by a path that avoids the branch root (the root
dominates its branch), so silencing the branch keeps each of them a
participant, keeps every other branch's inner tree, and keeps the
silenced root in at value 0 with no invitees; only roots the sponsor did
not invite can re-hang, under an agent of another branch.  So each
counterfactual is read off the one ``Market`` index built for the actual
auction: the ranked bids with the branch skipped, and for the chain
auctions the same chain walk over the tree with those roots re-hung.

Only the ranking reads the values.  The sharing coefficients and the
re-hangs come from the market's ``Structure``, the package's one memo,
which ``market`` reuses while the invitation structure (sponsor
neighbours, agent ids and neighbour sets) is equal.  It finds the
re-hangs once, so a new alpha reuses them, and keeps the coefficients of
the last alpha.

The arithmetic is per branch, not per agent.  Only the members of a
branch with nonzero revenue get a rebate, and reward sharing gives branch
``b``'s members exactly the mass ``size[b] / n``, so the surplus is the
auction's revenue less ``sum(R_b * size[b]) / n``, one term per branch.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Optional

from netredist.auctions import (
    Market,
    MechanismId,
    Outcome,
    auction,
    chain_walk,
    market,
    sale,
    tnm_stop,
)
from netredist.profiles import ProfileError, ReportProfile
from netredist.prst import SharingParams

ZERO = Fraction(0)
VCG = MechanismId("vcg")


def _finalize(profile: ReportProfile,
              sold: tuple,
              redistribution: dict[str, Fraction],
              redistributed: Fraction,
              branch_revenues: dict[str, Fraction],
              branch_roots: tuple[str, ...]) -> Outcome:
    """The outcome of ``sold``, an auction's ``sale`` tuple, with
    ``redistribution``, which sums to ``redistributed``, paid back; the
    auction's maps are taken over."""
    allocation, payment, revenue, winner = sold
    # no Fraction arithmetic on zeros: all but a few agents pay nothing,
    # and agents outside the tree or below a chain head get no rebate
    final_payment = payment.copy()
    for i, rebate in redistribution.items():
        if rebate:
            paid = final_payment[i]
            final_payment[i] = paid - rebate if paid else -rebate
    # the auction's revenue is the sum of its payments
    return Outcome(allocation, payment, redistribution, final_payment, branch_revenues,
                   branch_roots, revenue - redistributed, winner, profile)


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

    omega = m.structure.omega(params)
    tree = m.tree
    roots, preorder, pre, size = tree.root_branches, tree.preorder, tree.pre, tree.size
    revenues = _branch_revenues(mechanism, m)
    sold = sale(mechanism, m)
    redistribution = dict.fromkeys(profile.agents, ZERO)
    # branch b's members share its revenue with total mass size[b] / n
    mass = ZERO
    for root, revenue in zip(roots, revenues):
        if revenue:
            start = pre[root]
            for i in preorder[start:start + size[root]]:
                redistribution[i] = omega[i] * revenue
            mass += revenue * size[root]
    return _finalize(profile, sold, redistribution, mass / len(preorder),
                     dict(zip(roots, revenues)), roots)


def _branch_revenues(mechanism: MechanismId, m: Market) -> list[Fraction]:
    """The auction's revenue with each sponsor branch silenced in turn.

    Second-price and posted-price revenue need only the best two bids
    once the branch root is silenced; the chain auctions walk the top
    bidder's chain in the tree with the roots re-hung as the structure says.
    """
    roots = m.tree.root_branches
    if mechanism.kind == "vcg":
        return [_best_two(m, root)[1] for root in roots]
    if mechanism.kind == "fixed_price":
        price = mechanism.price
        return [price if _best_two(m, root)[0] >= price else ZERO for root in roots]
    return [_chain_revenue(mechanism.kind, m, root, hang)
            for root, hang in zip(roots, m.structure.rehangs)]


def _chain_revenue(kind: str, m: Market, root: str, hang: dict[int, str]) -> Fraction:
    """``idm`` or ``tnm`` revenue with the branch of ``root`` silenced."""
    def value(i: Optional[str]) -> Fraction:
        return _bid(m, root, i)

    chain, outsiders = chain_walk(m.tree, _silenced_ranking(m, root), hang)
    return value(outsiders[0 if kind == "idm" else tnm_stop(chain, outsiders, value)])


def _silenced_ranking(m: Market, silenced: str) -> Iterator[str]:
    """The participants best bid first once ``silenced`` reports nothing:
    everyone depending on her drops out and she stays in, bidding 0."""
    pre = m.tree.pre
    start = pre[silenced]
    end = start + m.tree.size[silenced]
    value_of = m.profile.value_of
    waiting = True
    for i in m.ranked:
        if start <= pre[i] < end:
            continue
        # zero bids come last, in id order
        if waiting and not value_of(i) and i > silenced:
            waiting = False
            yield silenced
        yield i
    if waiting:
        yield silenced


def _bid(m: Market, silenced: str, i: Optional[str]) -> Fraction:
    """``i``'s bid once ``silenced`` reports nothing; 0 for no bidder."""
    return ZERO if i is None or i == silenced else m.profile.value_of(i)


def _best_two(m: Market, silenced: str) -> tuple[Fraction, Fraction]:
    """The two best bids once ``silenced`` reports nothing, 0 where missing."""
    bids = _silenced_ranking(m, silenced)
    return _bid(m, silenced, next(bids)), _bid(m, silenced, next(bids, None))


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
    sold = sale(VCG, m)
    rebates = dict.fromkeys(profile.agents, ZERO)
    total = ZERO
    for i in m.ranked:
        revenue = _best_two(m, i)[1]
        if revenue:
            rebates[i] = revenue / n
            total += revenue
    return _finalize(profile, sold, rebates, total / n, {}, ())


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
