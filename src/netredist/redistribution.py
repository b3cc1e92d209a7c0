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

Only the ranking reads the values.  ``market`` reuses the graph and
critical tree while the invitation structure is unchanged; the sharing
coefficients and the re-hangs depend on that tree and on alpha alone, so
they form an ``NrmfIndex`` kept in one slot too, keyed by the tree's
identity and alpha.  Like the tree, an index is shared and never mutated.

The arithmetic is per branch, not per agent.  Only the members of a
branch with nonzero revenue get a rebate, and reward sharing gives branch
``b``'s members exactly the mass ``size[b] / n``, so the surplus is the
auction's revenue less ``sum(R_b * size[b]) / n``, one term per branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Mapping, Optional

from netredist.auctions import (
    Market,
    MechanismId,
    Outcome,
    chain_walk,
    market,
    sale,
    tnm_stop,
)
from netredist.critical_tree import CriticalTree, immediate_dominators
from netredist.profiles import SPONSOR, InducedGraph, ProfileError, ReportProfile
from netredist.prst import SharingParams, prst

ZERO = Fraction(0)
VCG = MechanismId("vcg")


@dataclass(frozen=True)
class NrmfIndex:
    """What ``run_nrmf`` reads off a nonempty critical tree at one alpha."""

    graph: InducedGraph
    tree: CriticalTree
    alpha: Fraction
    omega: Mapping[str, Fraction]

    @cached_property
    def rehangs(self) -> list[dict[int, str]]:
        """``_rehangs`` of the tree, found on first use: only the chain
        auctions read them."""
        return _rehangs(self.graph, self.tree)


#: The last index built.  A market whose structure ``market`` reused holds
#: the very tree object of the previous one, so the tree's identity is a key.
_last_index: Optional[NrmfIndex] = None


def nrmf_index(m: Market, params: SharingParams) -> NrmfIndex:
    """The index of ``m``'s tree at ``params.alpha``; the last one is
    reused while the tree and alpha stay the same."""
    global _last_index
    index = _last_index
    if (index is None or index.tree is not m.tree
            or index.alpha is not params.alpha and index.alpha != params.alpha):
        index = _last_index = NrmfIndex(m.graph, m.tree, params.alpha,
                                        prst(m.tree, params).omega)
    return index


def _empty_outcome(profile: ReportProfile) -> Outcome:
    """The all-zero outcome of a profile with no reachable agent."""
    agents = profile.agents
    nothing = dict.fromkeys(agents, 0), dict.fromkeys(agents, ZERO), ZERO, None
    return _finalize(profile, nothing, dict.fromkeys(agents, ZERO), ZERO, {}, ())


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
        return _empty_outcome(profile)

    index = nrmf_index(m, params)
    tree = m.tree
    roots, preorder, pre, size = tree.root_branches, tree.preorder, tree.pre, tree.size
    revenues = _branch_revenues(mechanism, m, index)
    sold = sale(mechanism, m)
    redistribution = dict.fromkeys(profile.agents, ZERO)
    # branch b's members share its revenue with total mass size[b] / n
    mass = ZERO
    for root, revenue in zip(roots, revenues):
        if revenue:
            start = pre[root]
            for i in preorder[start:start + size[root]]:
                redistribution[i] = index.omega[i] * revenue
            mass += revenue * size[root]
    return _finalize(profile, sold, redistribution, mass / len(preorder),
                     dict(zip(roots, revenues)), roots)


def _branch_revenues(mechanism: MechanismId, m: Market,
                     index: NrmfIndex) -> list[Fraction]:
    """The auction's revenue with each sponsor branch silenced in turn.

    Second-price and posted-price revenue need only the best two bids
    once the branch root is silenced; the chain auctions walk the top
    bidder's chain in the tree with the roots re-hung as ``index.rehangs`` says.
    """
    roots = m.tree.root_branches
    if mechanism.kind == "vcg":
        return [_best_two(m, root)[1] for root in roots]
    if mechanism.kind == "fixed_price":
        price = mechanism.price
        return [price if _best_two(m, root)[0] >= price else ZERO for root in roots]
    return [_chain_revenue(mechanism.kind, m, root, hang)
            for root, hang in zip(roots, index.rehangs)]


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


def _rehangs(graph: InducedGraph, tree: CriticalTree) -> list[dict[int, str]]:
    """For each silenced branch ``b``, where the branch roots hang.

    A root the sponsor invites stays under her.  Another root may move
    under an agent of another branch, and an invitation leaving a branch
    can only enter another branch at its root.  So the new parents are
    the dominators of a skeleton: the sponsor, the branch roots, the
    agents inviting across branches and the tree LCAs of those, each
    branch linked along its own tree, plus the crossing invitations, with
    ``b``'s members other than its root left out.  ``result[b][c]`` is the
    agent under which branch ``c``'s root hangs with ``b`` silenced;
    roots left under the sponsor are absent.
    """
    successors = graph.successors
    roots, branch_of, pre, size = tree.root_branches, tree.branch_of, tree.pre, tree.size
    if all(r in successors[SPONSOR] for r in roots):
        return [{} for _ in roots]

    def contains(a: str, i: str) -> bool:
        return pre[a] <= pre[i] < pre[a] + size[a]

    def lca(a: str, i: str) -> str:
        while not contains(a, i):
            a = tree.parent[a]
        return a

    crossing = {i: [j for j in successors[i] if branch_of[j] != branch_of[i]]
                for i in tree.preorder}
    crossing = {i: js for i, js in crossing.items() if js}
    nodes = sorted({*roots, *crossing}, key=pre.__getitem__)
    nodes = sorted({*nodes, *(lca(a, i) for a, i in zip(nodes, nodes[1:])
                              if branch_of[a] == branch_of[i])}, key=pre.__getitem__)
    edges = {v: list(crossing.get(v, ())) for v in nodes}
    above: list[str] = []
    for v in nodes:
        while above and not contains(above[-1], v):
            above.pop()
        if above:
            edges[above[-1]].append(v)
        above.append(v)

    rehangs = []
    for b, silenced in enumerate(roots):
        skeleton = {v: ([] if v == silenced else out) for v, out in edges.items()
                    if branch_of[v] != b or v == silenced}
        skeleton[SPONSOR] = successors[SPONSOR]
        parent = immediate_dominators(skeleton, SPONSOR)
        rehangs.append({c: parent[r] for c, r in enumerate(roots) if parent[r] != SPONSOR})
    return rehangs


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
        return _empty_outcome(profile)
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
