"""Named families of invitation networks that are hard for the critical
tree, each at any size ``n`` with values drawn from a seeded generator.

Invitations in a social network are often returned, and returned
invitations are what make a depth-first numbering disagree with the
critical tree: on the rings, the two-ended chain and the zigzag, most
agents are reached again from below.  The evenly grown tree is the shape
every benchmark workload uses; the pure chain, the star and the chain
whose bids rise down it are the extremes of depth and breadth.  The
sparse digraph is the random shape with many invitations across branches.
"""

from __future__ import annotations

import random

from netredist.generators import EVENLY_GROWING, GrowthModel, generate
from netredist.profiles import ReportProfile

from networks import T
from oracles import sparse_digraph_profile


def _profile(rng: random.Random, sponsored, invitations, value_max: int) -> ReportProfile:
    reports = {i: T(rng.randint(0, value_max), js) for i, js in invitations.items()}
    return ReportProfile(frozenset(sponsored), reports)


def _ids(n: int, prefix: str = "r") -> list[str]:
    return [f"{prefix}{k:05d}" for k in range(n)]


def _ring(n: int) -> tuple[list[str], dict[str, list[str]]]:
    """``n`` agents round a ring, each inviting both her neighbours."""
    ids = _ids(n)
    return ids, {i: sorted({ids[k - 1], ids[(k + 1) % n]} - {i}) for k, i in enumerate(ids)}


def ring_entered_once(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """The ring, entered by the sponsor at its first agent: everyone else
    hangs under her."""
    ids, invitations = _ring(n)
    return _profile(rng, ids[:1], invitations, value_max)


def ring_entered_twice(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """The ring, entered by the sponsor at two opposite agents: everyone
    hangs under the sponsor."""
    ids, invitations = _ring(n)
    return _profile(rng, {ids[0], ids[n // 2]}, invitations, value_max)


def two_ended_chain(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """A chain whose neighbours invite each other, entered by the sponsor
    at both ends: every agent hangs under the sponsor."""
    ids = _ids(n)
    invitations = {i: ids[max(k - 1, 0):k] + ids[k + 1:k + 2] for k, i in enumerate(ids)}
    return _profile(rng, {ids[0], ids[-1]}, invitations, value_max)


def zigzag(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """Two chains of ``n // 2`` agents (one more on the left if ``n`` is
    odd), the left one entered at its first agent and the right one at its
    last, each inviting along itself away from its entry, and the two
    agents at each position inviting each other."""
    left, right = _ids((n + 1) // 2, "L"), _ids(n // 2, "R")
    invitations = {i: left[k + 1:k + 2] for k, i in enumerate(left)}
    invitations.update({i: right[max(k - 1, 0):k] for k, i in enumerate(right)})
    for a, b in zip(left, right):
        invitations[a] = invitations[a] + [b]
        invitations[b] = invitations[b] + [a]
    return _profile(rng, {left[0], *right[-1:]}, invitations, value_max)


def pure_chain(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """A one-way chain: the sponsor invites the first agent and each agent
    the next, so every agent but the last is critical to all below her."""
    ids = _ids(n)
    return _profile(rng, ids[:1], {i: ids[k + 1:k + 2] for k, i in enumerate(ids)}, value_max)


def star(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """The sponsor invites every agent and no agent invites anyone."""
    ids = _ids(n)
    return _profile(rng, ids, dict.fromkeys(ids, []), value_max)


def rising_bid_chain(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """The pure chain with bids rising down it, from 1 to ``value_max``
    (``rng`` is unused): the top bidder is the last agent, so every chain
    auction walks the whole chain."""
    ids = _ids(n)
    reports = {i: T(1 + (value_max - 1) * k // max(n - 1, 1), ids[k + 1:k + 2])
               for k, i in enumerate(ids)}
    return ReportProfile(frozenset(ids[:1]), reports)


def sparse_digraph(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """``oracles.sparse_digraph_profile``, each value v in [0, 100] cut to
    the integer floor(v * value_max / 100), so a small ``value_max`` makes
    ties common."""
    profile = sparse_digraph_profile(rng, n)
    return ReportProfile(profile.sponsor_neighbors, {
        i: T(t.value * value_max // 100, t.neighbors) for i, t in profile.reports.items()})


def evenly_grown_tree(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """An evenly growing invitation tree, the benchmark workloads' shape."""
    return generate(GrowthModel(kind=EVENLY_GROWING, value_max=value_max,
                                seed=rng.randrange(2**32)), n)


FAMILIES = {
    "ring_entered_once": ring_entered_once,
    "ring_entered_twice": ring_entered_twice,
    "two_ended_chain": two_ended_chain,
    "zigzag": zigzag,
    "evenly_grown_tree": evenly_grown_tree,
    "pure_chain": pure_chain,
    "star": star,
    "rising_bid_chain": rising_bid_chain,
    "sparse_digraph": sparse_digraph,
}


if __name__ == "__main__":
    # python tests/families.py <family> <n> <seed>: the network as JSON on stdout
    import json
    import sys

    from netredist.profiles import profile_to_dict

    name, n, seed = sys.argv[1:]
    json.dump(profile_to_dict(FAMILIES[name](int(n), random.Random(int(seed)))), sys.stdout)
