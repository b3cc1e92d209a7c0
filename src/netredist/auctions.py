"""Single-item auctions over an invitation graph, and the one outcome type.

Four auctions: a second-price auction over the participant set (``vcg``),
two diffusion auctions that walk the critical ancestor chain of the top
bidder (``idm`` and ``tnm``), and a fixed-price sale.  Payments are net
amounts, positive towards the sponsor; unreachable agents always end with
zero allocation and zero payment.  Every mechanism in the package, with
or without redistribution, returns an ``Outcome``; a plain auction is one
that redistributes nothing.

Each public auction builds a ``Market`` (graph, critical tree, ranked
participants) and runs on it; ``sale`` runs on a market built once, so
redistribution can share it with its counterfactuals.

Only the ranking reads the values, so ``market`` reuses the graph and
tree of its previous call while the invitation structure (sponsor
neighbours, agent ids and neighbour sets) is equal.  What that one-slot
memo hands out is shared and never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Callable, Iterable, Mapping, Optional

from netredist.critical_tree import CriticalTree, critical_tree
from netredist.profiles import InducedGraph, ReportProfile, induce_graph

ZERO = Fraction(0)


class MechanismError(ValueError):
    """Raised for unknown mechanisms or invalid mechanism parameters."""


class EmptyMarketError(MechanismError):
    """Raised when an auction that needs at least one participant has none."""


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
                return MechanismId("fixed_price", Fraction(text[len("fixed:"):]))
            except (ValueError, ZeroDivisionError):
                raise MechanismError(f"bad fixed price in {text!r}") from None
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
    graph: InducedGraph
    tree: CriticalTree
    ranked: tuple[str, ...]


#: The last market's (invitation structure, graph, critical tree, sorted
#: participants).
_last_structure: Optional[tuple[tuple, InducedGraph, CriticalTree, tuple[str, ...]]] = None


def _structure(profile: ReportProfile) -> tuple[frozenset[str], dict[str, frozenset[str]]]:
    """What the graph and tree depend on, compared by equality."""
    return profile.sponsor_neighbors, {i: t.neighbors for i, t in profile.reports.items()}


def market(profile: ReportProfile) -> Market:
    """Induce the graph, build its critical tree and rank the participants.

    The graph and tree of the previous call are reused when the invitation
    structure is unchanged.
    """
    global _last_structure
    structure = _structure(profile)
    # read the slot once: a concurrent call may cost a rebuild, but an
    # entry's structure, graph and tree always belong together
    last = _last_structure
    if last is None or last[0] != structure:
        graph = induce_graph(profile)
        last = _last_structure = (structure, graph, critical_tree(graph),
                                  tuple(sorted(graph.reachable)))
    _, graph, tree, participants = last
    # rank by exact integer images of the values over their common
    # denominator, so the sort compares ints, not Fractions; a stable sort
    # by descending image keeps equal values in id order
    values = {i: profile.value_of(i) for i in participants}
    common = lcm(*{v.denominator for v in values.values()})
    image = {i: v.numerator * (common // v.denominator) for i, v in values.items()}
    ranked = sorted(image, key=image.__getitem__, reverse=True)
    return Market(profile, graph, tree, tuple(ranked))


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


def auction(mechanism: MechanismId, m: Market) -> Outcome:
    """Run the named mechanism on an already indexed market; nothing is
    redistributed, so the final payments are the auction's."""
    allocation, payment, surplus, winner = sale(mechanism, m)
    return Outcome(allocation, payment, dict.fromkeys(payment, ZERO), payment,
                   {}, (), surplus, winner, m.profile)


def sale(mechanism: MechanismId, m: Market
         ) -> tuple[dict[str, int], dict[str, Fraction], Fraction, Optional[str]]:
    """The named auction's allocation, net payments, revenue and winner on
    an indexed market, for redistribution to build its ``Outcome`` on."""
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
        raise EmptyMarketError("no agent is reachable from the sponsor")
    elif mechanism.kind == "vcg":
        winner = m.ranked[0]
        price = surplus = value(m.ranked[1]) if len(m.ranked) > 1 else ZERO
    else:
        chain, outsiders = chain_walk(m.tree, m.ranked, {})
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


def chain_walk(tree: CriticalTree,
               ranked: Iterable[str],
               hang: Mapping[int, str]) -> tuple[list[str], list[Optional[str]]]:
    """The top bidder's critical chain and the best bid outside each link.

    ``ranked`` yields the participants best bid first; the first is the
    top bidder.  ``hang`` re-hangs whole branches: the root of branch
    ``k`` hangs under agent ``hang[k]`` instead of the sponsor, so a chain
    may run through several branches.  ``chain`` runs from the topmost
    critical ancestor down to the top bidder, and ``outsiders[k]`` is the
    first bidder outside ``chain[k]``'s subtree, or None.  Subtrees only
    grow up the chain, so one pointer walked bottom-up over the ranking
    finds every outsider in one pass.
    """
    bidders = iter(ranked)
    top = next(bidders)
    chain: list[str] = []
    link: Optional[str] = top
    while link is not None:
        segment = tree.ancestors(link)
        chain[:0] = segment
        link = hang.get(tree.branch_of[segment[0]])

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
            while branch_of[entry] != branch and branch_of[entry] in hang:
                entry = hang[branch_of[entry]]
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
