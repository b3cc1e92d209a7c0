"""Single-item auctions over an invitation graph.

Four mechanisms share one outcome shape: a second-price auction over the
participant set (``vcg``), two diffusion auctions that walk the critical
ancestor chain of the top bidder (``idm`` and ``tnm``), and a fixed-price
sale.  Payments are net amounts, positive towards the sponsor; unreachable
agents always end with zero allocation and zero payment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from netredist.critical_tree import critical_tree
from netredist.profiles import ReportProfile, induce_graph

ZERO = Fraction(0)


class MechanismError(ValueError):
    """Raised for unknown mechanisms or invalid mechanism parameters."""


class EmptyMarketError(MechanismError):
    """Raised when an auction that needs at least one participant has none."""


@dataclass(frozen=True)
class AuctionOutcome:
    """Allocation, net payments and sponsor surplus of one auction run."""

    allocation: dict[str, int]
    payment: dict[str, Fraction]
    surplus: Fraction
    winner: Optional[str]


def utility(allocated: int, value: Fraction, payment: Fraction) -> Fraction:
    """Quasi-linear utility: the value if the item is allocated, less the payment."""
    return allocated * value - payment


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


def run_auction(mechanism: MechanismId, profile: ReportProfile) -> AuctionOutcome:
    """Dispatch to the named mechanism."""
    if mechanism.kind == "vcg":
        return vcg(profile)
    if mechanism.kind == "idm":
        return idm(profile)
    if mechanism.kind == "tnm":
        return tnm(profile)
    return fixed_price(profile, mechanism.price)


def _zero_outcome(profile: ReportProfile) -> tuple[dict[str, int], dict[str, Fraction]]:
    allocation = {i: 0 for i in profile.agents}
    payment = {i: ZERO for i in profile.agents}
    return allocation, payment


def vcg(profile: ReportProfile) -> AuctionOutcome:
    """Second-price auction over the participant set."""
    reachable = induce_graph(profile).reachable
    if not reachable:
        raise EmptyMarketError("no agent is reachable from the sponsor")
    allocation, payment = _zero_outcome(profile)
    # max keeps the first of equal values: ties go to the lowest id
    winner = max(sorted(reachable), key=profile.value_of)
    price = max((profile.value_of(i) for i in reachable if i != winner), default=ZERO)
    allocation[winner] = 1
    payment[winner] = price
    return AuctionOutcome(allocation, payment, price, winner)


def _chain_walk(profile: ReportProfile
                ) -> tuple[list[str], list[str], list[int], list[Fraction]]:
    """The top bidder's critical chain and its price ladder.

    Participants are ranked once by (-value, id), so ``ranked[0]`` is the
    top bidder.  ``chain`` runs from her first branch root down to her.
    ``firsts[k]`` is ``p(chain[k])``, the rank of the best bid outside
    ``chain[k]``'s branch (``len(ranked)`` if there is none), and
    ``prices[k]`` that bid's value, or 0.  Branches only grow up the
    chain, so one pointer walked bottom-up over the ranking finds every
    ``p`` in O(n) steps in total.
    """
    graph = induce_graph(profile)
    if not graph.reachable:
        raise EmptyMarketError("no agent is reachable from the sponsor")
    tree = critical_tree(graph)
    # a stable sort by descending value keeps equal values in id order
    ranked = sorted(sorted(graph.reachable), key=profile.value_of, reverse=True)
    chain = tree.ancestors(ranked[0])
    pre, size = tree.pre, tree.size
    firsts = [0] * len(chain)
    p = 0
    for k in reversed(range(len(chain))):
        start = pre[chain[k]]
        end = start + size[chain[k]]
        while p < len(ranked) and start <= pre[ranked[p]] < end:
            p += 1
        firsts[k] = p
    prices = [profile.value_of(ranked[p]) if p < len(ranked) else ZERO for p in firsts]
    return ranked, chain, firsts, prices


def idm(profile: ReportProfile) -> AuctionOutcome:
    """Diffusion auction walking the top bidder's critical ancestor chain.

    Each critical ancestor buys the item at the highest bid available once
    she and everyone depending on her are gone, then resells it down the
    chain at the next such price.  She keeps the item instead of reselling
    exactly when she is the top bidder once the next ancestor's dependants
    are removed.
    """
    ranked, chain, firsts, prices = _chain_walk(profile)
    m = next((k for k in range(len(chain) - 1) if ranked[firsts[k + 1]] == chain[k]),
             len(chain) - 1)
    allocation, payment = _zero_outcome(profile)
    allocation[chain[m]] = 1
    payment[chain[m]] = prices[m]
    for k in range(m):
        payment[chain[k]] = prices[k] - prices[k + 1]
    return AuctionOutcome(allocation, payment, prices[0], chain[m])


def tnm(profile: ReportProfile) -> AuctionOutcome:
    """Threshold variant of the critical-chain auction.

    The winner check at each critical ancestor removes her *own* whole
    dependant set, so the item stops higher up the chain than in ``idm``.
    Gross flows are as in ``idm`` (each holder pays the best bid available
    without her dependants), but every holder before the winner is handed
    back exactly what she paid, so intermediaries net zero and the
    sponsor's revenue is the winner's payment.
    """
    ranked, chain, firsts, prices = _chain_walk(profile)
    rank = {i: r for r, i in enumerate(ranked)}
    # the top bidder ranks first, so the last chain member always stops it
    m = next(k for k in range(len(chain)) if rank[chain[k]] < firsts[k])
    allocation, payment = _zero_outcome(profile)
    allocation[chain[m]] = 1
    payment[chain[m]] = prices[m]
    return AuctionOutcome(allocation, payment, prices[m], chain[m])


def fixed_price(profile: ReportProfile, price: Fraction) -> AuctionOutcome:
    """Sell at a posted price to the willing buyer closest to the sponsor.

    Among reachable agents bidding at least the price, the winner is the one
    at minimal critical-tree depth, ties broken by lowest id.  No willing
    buyer means no sale.
    """
    if price < 0:
        raise MechanismError("fixed price must be non-negative")
    graph = induce_graph(profile)
    allocation, payment = _zero_outcome(profile)
    willing = [i for i in graph.reachable if profile.value_of(i) >= price]
    if not willing:
        return AuctionOutcome(allocation, payment, ZERO, None)
    tree = critical_tree(graph)
    winner = min(willing, key=lambda i: (tree.depth[i], i))
    allocation[winner] = 1
    payment[winner] = price
    return AuctionOutcome(allocation, payment, price, winner)
