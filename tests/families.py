"""The one catalogue of invitation networks the tests draw at random.

Each family builds a network of any size ``n`` from a seeded generator,
with integer values from 0 to ``value_max`` unless its docstring says
otherwise.  ``SAMPLES`` names the networks of each family that the oracle
table in ``test_families.py`` checks every fast path on.

Invitations in a social network are often returned, and returned
invitations are what make a depth-first numbering disagree with the
critical tree: on the rings, the two-ended chain and the zigzag, most
agents are reached again from below, and on the ladder inviters come late
in the reverse postorder.  The evenly grown tree is the shape every
benchmark workload uses, and with a few invitations across it the shape of
the ``wide`` workload; the random chains are the ``deep`` workload's shape.
The pure chain, the star and the chain whose bids rise down it are the
extremes of depth and breadth.  The sparse digraph has many invitations
across branches; the small random digraphs, at a small ``value_max``, have
ties and zero bids everywhere.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from netredist.generators import EVENLY_GROWING, GrowthModel, generate, tree_profile
from netredist.profiles import SPONSOR, AgentType, ReportProfile

from networks import T


def _profile(rng: random.Random, sponsored, invitations, value_max: int) -> ReportProfile:
    reports = {i: T(rng.randint(0, value_max), js) for i, js in invitations.items()}
    return ReportProfile(frozenset(sponsored), reports)


def _ids(n: int, prefix: str = "r") -> list[str]:
    return [f"{prefix}{k:05d}" for k in range(n)]


def _ring(n: int) -> tuple[list[str], dict[str, list[str]]]:
    """``n`` agents round a ring, each inviting both her neighbours."""
    ids = _ids(n)
    return ids, {i: sorted({ids[k - 1], ids[(k + 1) % n]} - {i}) for k, i in enumerate(ids)}


def add_cross_edges(profile: ReportProfile, rng: random.Random, count: int) -> ReportProfile:
    """``profile`` with ``count`` invitations added, each from a random agent
    to another (none if there is only one agent)."""
    reports = dict(profile.reports)
    for _ in range(count if len(reports) > 1 else 0):
        a, b = rng.sample(sorted(reports), 2)
        reports[a] = AgentType(reports[a].value, reports[a].neighbors | {b})
    return ReportProfile(profile.sponsor_neighbors, reports)


def random_digraph_profile(rng: random.Random, n: int,
                           edge_prob: float = 0.3,
                           value_max: int = 20) -> ReportProfile:
    """A random directed invitation graph on ``n`` agents (not a tree)."""
    ids = [f"v{k}" for k in range(n)]
    out: dict[str, set[str]] = {i: set() for i in ids}
    sponsor_neighbors = {i for i in ids if rng.random() < edge_prob}
    if not sponsor_neighbors:
        sponsor_neighbors = {rng.choice(ids)}
    for u in ids:
        for v in ids:
            if u != v and rng.random() < edge_prob:
                out[u].add(v)
    reports = {
        i: AgentType(Fraction(rng.randint(0, value_max)), frozenset(out[i]))
        for i in ids
    }
    return ReportProfile(frozenset(sponsor_neighbors), reports)


def sparse_digraph_profile(rng: random.Random, n: int) -> ReportProfile:
    """A random invitation digraph on ``n`` agents with many cross-branch
    invitations: every agent invites two random agents (fewer on a repeat
    or herself) and the sponsor invites 1% of the agents."""
    ids = [f"v{k:05d}" for k in range(n)]
    reports = {
        i: AgentType(Fraction(rng.randint(0, 10_000), 100),
                     frozenset({rng.choice(ids), rng.choice(ids)} - {i}))
        for i in ids
    }
    return ReportProfile(frozenset(rng.sample(ids, max(1, n // 100))), reports)


def _edge_prob(n: int, rng: random.Random, choices: tuple[float, ...]) -> float:
    """One of ``choices``, scaled by 8 / (n - 1) above nine agents, so an
    agent invites as many others on average as she would among nine."""
    return rng.choice(choices) * min(1, 8 / max(n - 1, 1))


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
    """``sparse_digraph_profile``, each value v in [0, 100] cut to the
    integer floor(v * value_max / 100), so a small ``value_max`` makes ties
    common."""
    profile = sparse_digraph_profile(rng, n)
    return ReportProfile(profile.sponsor_neighbors, {
        i: T(t.value * value_max // 100, t.neighbors) for i, t in profile.reports.items()})


def evenly_grown_tree(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """An evenly growing invitation tree, the benchmark workloads' shape,
    its values multiples of 1/100."""
    return generate(GrowthModel(kind=EVENLY_GROWING, value_max=value_max,
                                seed=rng.randrange(2**32)), n)


def grown_with_cross_edges(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """The evenly grown tree with one to six invitations added across it,
    the ``wide`` workload's shape: an invitation into another branch below
    its root makes a root the sponsor does not invite."""
    return add_cross_edges(evenly_grown_tree(n, rng, value_max), rng, rng.randint(1, 6))


def random_tree(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """A random recursive invitation tree: each agent is invited by the
    sponsor or by an agent before her, uniformly."""
    ids = [f"v{k}" for k in range(n)]
    parents = {}
    for k, i in enumerate(ids):
        parents[i] = SPONSOR if k == 0 else rng.choice([SPONSOR] + ids[:k])
    children: dict[str, set[str]] = {}
    for i, p in parents.items():
        children.setdefault(p, set()).add(i)
    reports = {
        i: AgentType(Fraction(rng.randint(0, value_max)),
                     frozenset(children.get(i, ())))
        for i in ids
    }
    return ReportProfile(frozenset(children.get(SPONSOR, ())), reports)


def under_one_root(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """A random recursive tree whose sponsor invites a single agent."""
    parents = [-1] + [rng.randrange(0, k) for k in range(1, n)]
    return tree_profile(parents, [rng.randint(0, value_max) for _ in parents])


def random_chains(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """A small random tree with only-child chains hanging off its agents
    and leaves off random chain agents, the ``deep`` workload's shape:
    every agent below an only child keeps 0 of a reward."""
    parents = [rng.randrange(-1, k) for k in range(min(n, rng.randint(1, 8)))]
    while len(parents) < n:
        top = rng.randrange(-1, len(parents))
        links: list[int] = []
        for _ in range(min(rng.randint(2, 20), n - len(parents))):
            links.append(len(parents))
            parents.append(links[-2] if len(links) > 1 else top)
        for _ in range(min(rng.randint(0, 4), n - len(parents))):
            parents.append(rng.choice(links))
    return tree_profile(parents, [rng.randint(0, value_max) for _ in parents])


def ladder(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """Two invitation chains from the sponsor, of ``(n + 1) // 2`` and
    ``n // 2`` agents, with random invitations from each chain back up the
    other one, so inviters often come later in the reverse postorder."""
    sides = {"L": _ids((n + 1) // 2, "L"), "R": _ids(n // 2, "R")}
    invitations = {i: set(line[k + 1:k + 2]) for line in sides.values()
                   for k, i in enumerate(line)}
    rungs = n // 2
    for _ in range(rng.randint(1, max(1, n // 3)) if rungs > 1 else 0):
        src, dst = rng.sample("LR", 2)
        k = rng.randrange(1, rungs)
        invitations[sides[src][k]].add(sides[dst][rng.randrange(k)])
    return _profile(rng, [line[0] for line in sides.values() if line], invitations, value_max)


def random_digraph(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """``random_digraph_profile``: the sponsor and every agent invite each
    agent with one probability, 0.15, 0.3 or 0.5 up to nine agents."""
    return random_digraph_profile(rng, n, _edge_prob(n, rng, (0.15, 0.3, 0.5)), value_max)


def mixed_denominators(n: int, rng: random.Random, value_max: int = 20) -> ReportProfile:
    """``random_digraph_profile`` at probability 0.15 or 0.3 up to nine
    agents, each value k becoming k/3, k/7 or k/100, so that branches'
    revenues have denominators of their own."""
    integral = random_digraph_profile(rng, n, _edge_prob(n, rng, (0.15, 0.3)), value_max)
    return ReportProfile(integral.sponsor_neighbors, {
        i: AgentType(t.value / rng.choice((3, 7, 100)), t.neighbors)
        for i, t in integral.reports.items()})


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
    "grown_with_cross_edges": grown_with_cross_edges,
    "random_tree": random_tree,
    "under_one_root": under_one_root,
    "random_chains": random_chains,
    "ladder": ladder,
    "random_digraph": random_digraph,
    "mixed_denominators": mixed_denominators,
}

#: The first nine families, whose dominator work ``test_families.py`` pins
#: from 200 to 400 agents.
PINNED = tuple(FAMILIES)[:9]

# Rows of (sizes, value maxima, repeats): one network per size, value
# maximum and repeat.  The small random digraphs are the most: ties, zero
# bids and roots that move when a branch is silenced take many draws.
_SMALL = ((5, 12, 30), (3, 20, 20), 1)
SAMPLES = {
    **dict.fromkeys(PINNED, [_SMALL]),
    "pure_chain": [_SMALL, ((1, 2, 3, 10, 60), (20,), 1), ((300,), (50,), 1)],
    "star": [_SMALL, ((1, 2, 3, 10, 60), (20,), 1)],
    "grown_with_cross_edges": [(range(10, 51, 2), (1, 3, 10), 1)],
    "random_tree": [(range(1, 9), (20,), 38), (range(9, 61), (20,), 2)],
    "under_one_root": [(range(1, 41), (20,), 2)],
    "random_chains": [(range(3, 83), (50,), 1)],
    "ladder": [(range(6, 19), (20,), 5)],
    "random_digraph": [(range(1, 10), (0, 1, 3, 20), 56), ((10,), (20,), 12),
                       (range(11, 31), (20,), 3)],
    "mixed_denominators": [(range(1, 11), (30,), 30)],
}


@cache
def sample(family: str) -> tuple[ReportProfile, ...]:
    """``SAMPLES[family]``'s networks, drawn from one generator seeded with
    the family's name."""
    rng = random.Random(family)
    return tuple(FAMILIES[family](n, rng, value_max)
                 for sizes, value_maxes, repeats in SAMPLES[family]
                 for n in sizes for value_max in value_maxes for _ in range(repeats))


if __name__ == "__main__":
    # python tests/families.py <family> <n> <seed>: the network as JSON on stdout
    import json
    import sys

    from netredist.profiles import profile_to_dict

    name, n, seed = sys.argv[1:]
    json.dump(profile_to_dict(FAMILIES[name](int(n), random.Random(int(seed)))), sys.stdout)
