"""Single-item auctions over an invitation graph, and the one outcome type.

Four auctions: a second-price auction over the participant set (``vcg``),
two diffusion auctions that walk the critical ancestor chain of the top
bidder (``idm`` and ``tnm``), and a fixed-price sale.  Payments are net
amounts, positive towards the sponsor; unreachable agents always end with
zero allocation and zero payment.  Every mechanism in the package, with
or without redistribution, returns an ``Outcome``; a plain auction is one
that redistributes nothing.

Each public auction builds a ``Market`` (the profile, its critical tree
and the ranked participants) and runs on it.  All pricing lives here:
``sale`` prices the actual sale, ``silenced_revenue`` the revenue with
one agent silenced, which redistribution shares, and ``auction`` builds
every ``Outcome``, with whatever redistribution is paid back.

Only the ranking reads the values.  Everything else a run needs is the
invitation structure's index, its critical tree, which also keeps the
branch re-hangs answered and the sharing coefficients of the last alpha.
``market`` keeps the tree of its previous call in one slot and reuses it
while the invitation structure (sponsor neighbours, agent ids and
neighbour sets) is equal, so a new alpha reuses every re-hang answered.
That slot is the package's only memo; what it hands out is shared, and an
answer it keeps never changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Iterator, Optional

from netredist.critical_tree import CriticalTree, critical_tree
from netredist.profiles import ReportProfile, induce_graph

ZERO = Fraction(0)


class MechanismError(ValueError):
    """Raised for unknown mechanisms or invalid mechanism parameters."""


class EmptyMarketError(MechanismError):
    """Raised by nothing: every auction on a market with no participant is
    a no-sale.  Kept importable for code that still names it."""


@dataclass(frozen=True)
class Outcome:
    """Outcome of an auction and the redistribution layered on top.

    ``final_payment[i] == auction_payment[i] - redistribution[i]`` holds
    exactly for every agent, and ``surplus`` is the exact sum of final
    payments.  ``branch_revenues`` is keyed by branch root id, in the order
    given by ``branch_roots``.  A plain auction redistributes 0 to every
    agent and has no branches.  ``utilities`` are measured against the
    reported values in ``profile`` and computed on first read; the utility
    at a true value ``v`` is ``utility(allocation[i], v, final_payment[i])``.
    """

    allocation: dict[str, int]
    auction_payment: dict[str, Fraction]
    redistribution: dict[str, Fraction]
    final_payment: dict[str, Fraction]
    branch_revenues: dict[str, Fraction]
    branch_roots: tuple[str, ...]
    surplus: Fraction
    winner: Optional[str]
    profile: ReportProfile = field(compare=False, repr=False)

    @cached_property
    def utilities(self) -> dict[str, Fraction]:
        """Every agent's utility at her reported value."""
        value_of = self.profile.value_of
        return {i: utility(allocated, value_of(i), self.final_payment[i])
                for i, allocated in self.allocation.items()}


def utility(allocated: int, value: Fraction, payment: Fraction) -> Fraction:
    """Quasi-linear utility: the value if the item is allocated, less the payment."""
    if not payment:  # most agents pay nothing: skip the Fraction arithmetic
        return value if allocated else payment
    return value - payment if allocated else -payment


@dataclass(frozen=True)
class MechanismId:
    """Identifier of an auction mechanism, e.g. ``vcg`` or ``fixed:3.5``."""

    kind: str
    price: Optional[Fraction] = None

    KINDS = ("vcg", "idm", "tnm", "fixed_price")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise MechanismError(f"unknown mechanism {self.kind!r}")
        if self.kind == "fixed_price":
            if self.price is None or self.price < 0:
                raise MechanismError("fixed_price requires a price >= 0")
        elif self.price is not None:
            raise MechanismError(f"{self.kind} takes no price parameter")

    @staticmethod
    def parse(text: str) -> "MechanismId":
        if text.startswith("fixed:"):
            try:
                price = Fraction(text[len("fixed:"):])
            except (ValueError, ZeroDivisionError):
                raise MechanismError(f"bad fixed price in {text!r}") from None
            return MechanismId("fixed_price", price)
        return MechanismId(text)

    def __str__(self) -> str:
        if self.kind == "fixed_price":
            return f"fixed:{self.price}"
        return self.kind


@dataclass(frozen=True)
class Market:
    """One profile's auction index, built once and read by every auction.

    ``ranked`` lists the participants by descending value, ties by id, so
    ``ranked[0]`` is the top bidder.
    """

    profile: ReportProfile
    tree: CriticalTree
    ranked: tuple[str, ...]


#: The invitation structure of the last market and its critical tree.
_last_structure: Optional[tuple[tuple, CriticalTree]] = None


def _structure(profile: ReportProfile) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """What a critical tree depends on, compared by equality."""
    return profile.sponsor_neighbors, {i: t.neighbors for i, t in profile.reports.items()}


def market(profile: ReportProfile) -> Market:
    """Rank the participants on the profile's critical tree, the previous
    call's while the invitation structure is unchanged."""
    global _last_structure
    key = _structure(profile)
    # read the slot once: a concurrent call may cost a rebuild, but a key
    # and its tree always belong together
    last = _last_structure
    if last is None or last[0] != key:
        last = _last_structure = key, critical_tree(induce_graph(profile))
    tree = last[1]
    # rank by exact integer images of the values over their common
    # denominator, so the sort compares ints, not Fractions; a stable sort
    # by descending image keeps equal values in id order
    values = {i: profile.value_of(i) for i in tree.agents}
    common = lcm(*{v.denominator for v in values.values()})
    image = {i: v.numerator * (common // v.denominator) for i, v in values.items()}
    ranked = sorted(image, key=image.__getitem__, reverse=True)
    return Market(profile, tree, tuple(ranked))


def run_auction(mechanism: MechanismId, profile: ReportProfile) -> Outcome:
    """Run the named mechanism on ``profile``."""
    return auction(mechanism, market(profile))


def vcg(profile: ReportProfile) -> Outcome:
    """Second-price auction over the participant set."""
    return auction(MechanismId("vcg"), market(profile))


def idm(profile: ReportProfile) -> Outcome:
    """Diffusion auction walking the top bidder's critical ancestor chain.

    Each critical ancestor buys the item at the highest bid available once
    she and everyone depending on her are gone, then resells it down the
    chain at the next such price.  She keeps the item instead of reselling
    exactly when she is the top bidder once the next ancestor's dependants
    are removed.
    """
    return auction(MechanismId("idm"), market(profile))


def tnm(profile: ReportProfile) -> Outcome:
    """Threshold variant of the critical-chain auction.

    The winner check at each critical ancestor removes her *own* whole
    dependant set, so the item stops higher up the chain than in ``idm``.
    Gross flows are as in ``idm`` (each holder pays the best bid available
    without her dependants), but every holder before the winner is handed
    back exactly what she paid, so intermediaries net zero and the
    sponsor's revenue is the winner's payment.
    """
    return auction(MechanismId("tnm"), market(profile))


def fixed_price(profile: ReportProfile, price: Fraction) -> Outcome:
    """Sell at a posted price to the willing buyer closest to the sponsor.

    Among reachable agents bidding at least the price, the winner is the one
    at minimal critical-tree depth, ties broken by lowest id.  No willing
    buyer means no sale.
    """
    return auction(MechanismId("fixed_price", price), market(profile))


def auction(mechanism: MechanismId, m: Market,
            redistribution: Optional[dict[str, Fraction]] = None,
            redistributed: Fraction = ZERO,
            branch_revenues: Optional[dict[str, Fraction]] = None) -> Outcome:
    """Run the named mechanism on an already indexed market and pay
    ``redistribution``, which sums to ``redistributed``, back; by default
    nothing is.  ``branch_revenues`` is keyed by branch root in branch
    order, which gives the outcome's ``branch_roots``."""
    allocation, payment, revenue, winner = sale(mechanism, m)
    if redistribution is None:
        redistribution = dict.fromkeys(payment, ZERO)
    if branch_revenues is None:
        branch_revenues = {}
    # no Fraction arithmetic on zeros: all but a few agents pay nothing,
    # and agents outside the tree or below a chain head get no rebate
    final_payment = payment.copy()
    for i, rebate in redistribution.items():
        if rebate:
            paid = final_payment[i]
            final_payment[i] = paid - rebate if paid else -rebate
    # the auction's revenue is the sum of its payments
    return Outcome(allocation, payment, redistribution, final_payment, branch_revenues,
                   tuple(branch_revenues), revenue - redistributed, winner, m.profile)


def sale(mechanism: MechanismId, m: Market
         ) -> tuple[dict[str, int], dict[str, Fraction], Fraction, Optional[str]]:
    """The named auction's allocation, net payments, revenue and winner on
    an indexed market.  With no willing buyer, or no participant at all,
    nothing is sold."""
    agents = m.profile.agents
    allocation = dict.fromkeys(agents, 0)
    payment = dict.fromkeys(agents, ZERO)
    value = m.profile.value_of
    if mechanism.kind == "fixed_price":
        price = surplus = mechanism.price
        willing = [i for i in m.ranked if value(i) >= price]
        if not willing:
            return allocation, payment, ZERO, None
        winner = min(willing, key=lambda i: (m.tree.depth[i], i))
    elif not m.ranked:
        return allocation, payment, ZERO, None
    elif mechanism.kind == "vcg":
        winner = m.ranked[0]
        price = surplus = value(m.ranked[1]) if len(m.ranked) > 1 else ZERO
    else:
        chain, outsiders = chain_walk(m.tree, m.ranked)
        prices = [ZERO if o is None else value(o) for o in outsiders]
        if mechanism.kind == "idm":
            # a link keeps the item when she tops the market without the
            # next link's subtree; the top bidder keeps it otherwise
            k = next((k for k in range(len(chain) - 1) if outsiders[k + 1] == chain[k]),
                     len(chain) - 1)
            for j in range(k):
                payment[chain[j]] = prices[j] - prices[j + 1]
            surplus = prices[0]
        else:
            k = tnm_stop(chain, outsiders, value)
            surplus = prices[k]
        winner, price = chain[k], prices[k]
    allocation[winner] = 1
    payment[winner] = price
    return allocation, payment, surplus, winner


def silenced_revenue(mechanism: MechanismId, m: Market, silenced: str) -> Fraction:
    """The auction's revenue on ``m`` once ``silenced`` reports nothing:
    everyone depending on her drops out, and she stays in, bidding 0.

    No counterfactual re-runs the auction.  The sponsor reaches every
    agent outside ``silenced``'s branch by a path that avoids her (she
    dominates her branch), so silencing her keeps each of them a
    participant at the same bid, and second-price and posted-price revenue
    need only the best bids of the silenced ranking.  When ``silenced``
    is a sponsor branch root, every other branch also keeps its inner
    tree; only roots the sponsor did not invite can re-hang, under an
    agent of another branch.  So the chain auctions walk the same tree
    with those roots re-hung as the market's tree says, and for them
    ``silenced`` must be a branch root; for ``vcg`` and ``fixed_price``
    any participant will do.
    """
    def bid(i: Optional[str]) -> Fraction:
        return ZERO if i is None or i == silenced else m.profile.value_of(i)

    ranking = _silenced_ranking(m, silenced)
    if mechanism.kind == "vcg":
        next(ranking)  # the top bidder wins at the next bid
        return bid(next(ranking, None))
    if mechanism.kind == "fixed_price":
        return mechanism.price if bid(next(ranking)) >= mechanism.price else ZERO
    rehangs = m.tree.rehangs
    b = m.tree.branch_of[silenced]
    hang = None if rehangs is None else lambda k: rehangs.hang(b, k)
    chain, outsiders = chain_walk(m.tree, ranking, hang)
    return bid(outsiders[0 if mechanism.kind == "idm" else tnm_stop(chain, outsiders, bid)])


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


def chain_walk(tree: CriticalTree,
               ranked: Iterable[str],
               hang: Optional[Callable[[int], Optional[str]]] = None
               ) -> tuple[list[str], list[Optional[str]]]:
    """The top bidder's critical chain and the best bid outside each link.

    ``ranked`` yields the participants best bid first; the first is the
    top bidder.  ``hang`` re-hangs whole branches: the root of branch
    ``k`` hangs under agent ``hang(k)`` instead of the sponsor, unless
    that is None, so a chain may run through several branches.  ``chain``
    runs from the topmost critical ancestor down to the top bidder, and
    ``outsiders[k]`` is the first bidder outside ``chain[k]``'s subtree,
    or None.  Subtrees only grow up the chain, so one pointer walked
    bottom-up over the ranking finds every outsider in one pass.
    """
    bidders = iter(ranked)
    top = next(bidders)
    chain: list[str] = []
    link: Optional[str] = top
    while link is not None:
        segment = tree.ancestors(link)
        chain[:0] = segment
        link = hang(tree.branch_of[segment[0]]) if hang else None

    pre, size, branch_of = tree.pre, tree.size, tree.branch_of
    outsiders: list[Optional[str]] = [None] * len(chain)
    bidder: Optional[str] = top
    for k in reversed(range(len(chain))):
        start = pre[chain[k]]
        end = start + size[chain[k]]
        branch = branch_of[chain[k]]
        while bidder is not None:
            # lift the bidder along re-hung roots into chain[k]'s branch
            entry = bidder
            while hang and branch_of[entry] != branch:
                up = hang(branch_of[entry])
                if up is None:
                    break
                entry = up
            if not start <= pre[entry] < end:
                break
            bidder = next(bidders, None)
        outsiders[k] = bidder
    return chain, outsiders


def tnm_stop(chain: list[str], outsiders: list[Optional[str]],
             value: Callable[[str], Fraction]) -> int:
    """Where ``tnm`` stops: the first link that outbids everyone outside
    her own subtree, ties going to the lower id (the top bidder always does)."""
    for k in range(len(chain) - 1):
        link, outsider = chain[k], outsiders[k]
        if outsider is None:
            return k
        bid, rival = value(link), value(outsider)
        if bid > rival or bid == rival and link < outsider:
            return k
    return len(chain) - 1
