"""Brute-force oracles used to cross-check the library implementations.

Everything here is deliberately naive.  The cut-point and resale oracles
are built on raw reachability queries only, so they share no code path
with the dominator-tree or auction implementations they audit.  The
re-run oracles for the redistribution counterfactuals rebuild a silenced
copy of the profile and run the public auction on it once per branch or
agent, so they share the auctions but not the counterfactual index.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

from netredist import auctions
from netredist.auctions import (
    MechanismId,
    Outcome,
    run_auction,
    utility,
    vcg,
)
from netredist.critical_tree import (
    CriticalTree,
    Rehangs,
    critical_tree,
    immediate_dominators,
)
from netredist.profiles import (
    NULL_TYPE,
    SPONSOR,
    AgentType,
    InducedGraph,
    ProfileError,
    ReportProfile,
    induce_graph,
)
from netredist.prst import ShareVector, SharingError, SharingParams
from netredist.render import decimal_str

ZERO = Fraction(0)


# --- cut-point (dominator) oracle ---------------------------------------


def brute_dominators(graph: InducedGraph, j: str) -> frozenset[str]:
    """All vertices whose removal cuts ``j`` off from the sponsor."""
    if j == SPONSOR:
        return frozenset({SPONSOR})
    doms = {SPONSOR}
    for v in graph.reachable:
        if v == j:
            continue
        if j not in graph.reachable_from(SPONSOR, frozenset({v})):
            doms.add(v)
    return frozenset(doms)

def brute_parent(graph: InducedGraph, j: str) -> str:
    """Nearest cut point of ``j``: the dominator dominated by all others."""
    doms = brute_dominators(graph, j)
    # the cut points of any vertex form a chain, so the deepest one (the
    # one with the most cut points of its own) is the nearest
    return max(doms, key=lambda d: 0 if d == SPONSOR
               else len(brute_dominators(graph, d)))


def brute_parent_map(graph: InducedGraph) -> dict[str, str]:
    return {j: brute_parent(graph, j) for j in graph.reachable}


def dependants(graph: InducedGraph, v: str) -> frozenset[str]:
    """``v`` plus every agent unreachable once ``v`` is removed."""
    return frozenset({v}) | (
        graph.reachable - graph.reachable_from(SPONSOR, frozenset({v}))
    )


def brute_chain(graph: InducedGraph, j: str) -> list[str]:
    """Cut points of ``j`` (sponsor excluded) ordered root-to-``j``, then ``j``."""
    doms = brute_dominators(graph, j) - {SPONSOR}
    return sorted(doms, key=lambda d: len(brute_dominators(graph, d))) + [j]


def rehangs_oracle(graph: InducedGraph, tree: CriticalTree) -> list[dict[int, str]]:
    """For each silenced branch ``b``, where the branch roots hang, with
    one dominator pass per branch.

    A root the sponsor invites stays under her.  Another root may move
    under an agent of another branch, and an invitation leaving a branch
    can only enter another branch at its root.  So the new parents are
    the dominators of a skeleton: the sponsor, the branch roots, the
    agents inviting across branches and the tree LCAs of those, each
    branch linked along its own tree, plus the crossing invitations, with
    ``b``'s members other than its root left out.  ``result[b][c]`` is the
    agent under which branch ``c``'s root hangs with ``b`` silenced;
    roots left under the sponsor are absent.  ``Rehangs`` reads the same
    answers off augmenting paths, so the two share no code.
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


def every_rehang(tree: CriticalTree) -> list[dict[int, str]]:
    """``rehangs_oracle``'s list, read one (silenced, root) pair at a time
    from a market tree's lazy answers."""
    branches = range(len(tree.root_branches))
    rehangs = tree.rehangs
    if rehangs is None:
        return [{} for _ in branches]
    return [{c: parent for c in branches if (parent := rehangs.hang(b, c)) is not None}
            for b in branches]


def counted_searches(monkeypatch) -> list:
    """Record the root of every new-parent search: one per (silenced,
    root) pair that loses its two disjoint paths."""
    searches = []
    real = Rehangs._nearest_cut

    def counted_search(rehangs, root, *path):
        searches.append(root)
        return real(rehangs, root, *path)

    monkeypatch.setattr(Rehangs, "_nearest_cut", counted_search)
    return searches


def counted_hangs(monkeypatch) -> list:
    """Record every (silenced, root) re-hang a chain walk asks and its answer."""
    asked = []
    real = Rehangs.hang

    def counted_hang(rehangs, silenced, branch):
        parent = real(rehangs, silenced, branch)
        asked.append((silenced, branch, parent))
        return parent

    monkeypatch.setattr(Rehangs, "hang", counted_hang)
    return asked


# --- resale simulation oracles for the chain auctions -------------------


def _argmax(candidates, profile: ReportProfile):
    best = None
    for i in sorted(candidates):
        if best is None or profile.value_of(i) > profile.value_of(best):
            best = i
    return best


def _max_value(candidates, profile: ReportProfile) -> Fraction:
    return max((profile.value_of(i) for i in candidates), default=ZERO)


def idm_oracle(profile: ReportProfile):
    """Step-by-step resale along the top bidder's cut-point chain.

    Each holder in turn buys at the best bid available once she and all
    agents depending on her are gone; she keeps the item exactly when she
    is the top bid after the *next* holder's dependants leave, otherwise
    she resells one step down.  Returns (winner, price, net payments,
    sponsor revenue).
    """
    graph = induce_graph(profile)
    chain = brute_chain(graph, _argmax(graph.reachable, profile))
    prices = [
        _max_value(graph.reachable - dependants(graph, c), profile)
        for c in chain
    ]
    m = len(chain) - 1
    for k in range(len(chain) - 1):
        rest = graph.reachable - dependants(graph, chain[k + 1])
        if chain[k] == _argmax(rest, profile):
            m = k
            break
    payments = {i: ZERO for i in profile.agents}
    payments[chain[m]] = prices[m]
    for k in range(m):
        payments[chain[k]] = prices[k] - prices[k + 1]
    return chain[m], prices[m], payments, prices[0]


def tnm_oracle(profile: ReportProfile):
    """Like ``idm_oracle`` but a holder keeps the item as soon as she tops
    the market without her strict dependants.  Simulates the gross flows:
    every holder before the winner pays her price and is refunded the same
    amount, so she nets zero and the sponsor keeps the winner's payment."""
    graph = induce_graph(profile)
    chain = brute_chain(graph, _argmax(graph.reachable, profile))
    prices = [
        _max_value(graph.reachable - dependants(graph, c), profile)
        for c in chain
    ]
    m = len(chain) - 1
    for k in range(len(chain)):
        rest = graph.reachable - (dependants(graph, chain[k]) - {chain[k]})
        if chain[k] == _argmax(rest, profile):
            m = k
            break
    payments = {i: ZERO for i in profile.agents}
    revenue = ZERO
    for k in range(m + 1):
        paid = prices[k]
        refunded = prices[k] if k < m else ZERO
        payments[chain[k]] = paid - refunded
        revenue += paid - refunded
    return chain[m], prices[m], payments, revenue


# --- per-node reward-sharing recursion ----------------------------------


def prst_oracle(tree: CriticalTree, params: SharingParams) -> ShareVector:
    """``prst`` as the recursion its docstring states, term by term: every
    agent builds ``total``, ``base`` and ``spread`` as fractions, leaves
    included."""
    if not tree.parent:
        raise SharingError("cannot share a reward over an empty tree")
    alpha = params.alpha
    n = len(tree.parent)  # all agents are below the sponsor

    omega: dict[str, Fraction] = {}
    omega_pass: dict[str, Fraction] = {SPONSOR: Fraction(1)}
    # preorder visits every parent before her children
    for i in tree.preorder:
        p = tree.parent[i]
        parent_count = n if p == SPONSOR else tree.size[p] - 1
        own_count = tree.size[i] - 1
        total = Fraction(own_count + 1, parent_count)
        base = Fraction(1, parent_count - own_count)
        spread = total - base
        omega[i] = omega_pass[p] * (base + spread * alpha)
        omega_pass[i] = omega_pass[p] * spread * (1 - alpha)

    return ShareVector(omega=omega, omega_pass=omega_pass, reward=params.reward)


# --- re-run oracles for the redistribution counterfactuals --------------


def _outcome_by_terms(profile: ReportProfile, auction: Outcome,
                      redistribution: dict, branch_revenues: dict,
                      branch_roots: tuple) -> Outcome:
    """The outcome by its definition, agent by agent: every final payment
    is the auction payment less the redistribution, and the surplus is the
    plain sum of the final payments."""
    final_payment = {i: auction.auction_payment[i] - redistribution[i]
                     for i in profile.agents}
    return Outcome(
        allocation={i: auction.allocation[i] for i in profile.agents},
        auction_payment={i: auction.auction_payment[i] for i in profile.agents},
        redistribution=redistribution,
        final_payment=final_payment,
        branch_revenues=branch_revenues,
        branch_roots=branch_roots,
        surplus=sum(final_payment.values(), ZERO),
        winner=auction.winner,
        profile=profile,
    )


def _no_sale(profile: ReportProfile) -> Outcome:
    zero = {i: ZERO for i in profile.agents}
    return Outcome({i: 0 for i in profile.agents}, zero, zero, zero, {}, (), ZERO, None,
                   profile)


def nrmf_rerun_oracle(mechanism: MechanismId, profile: ReportProfile,
                      params: SharingParams):
    """``run_nrmf`` by brute force: each branch's revenue comes from
    re-running the auction on a copy of the profile in which every member
    of that branch reports ``NULL_TYPE``."""
    graph = induce_graph(profile)
    if not graph.reachable:
        zero = {i: ZERO for i in profile.agents}
        return _outcome_by_terms(profile, _no_sale(profile), zero, {}, ())
    tree = critical_tree(graph)
    shares = prst_oracle(tree, SharingParams(params.alpha, Fraction(1)))
    branch_revenues = {}
    for k, root in enumerate(tree.root_branches):
        blocked = ReportProfile(profile.sponsor_neighbors, {
            i: (NULL_TYPE if tree.branch_of.get(i) == k else t)
            for i, t in profile.reports.items()
        })
        branch_revenues[root] = run_auction(mechanism, blocked).surplus
    redistribution = {i: ZERO for i in profile.agents}
    for i in graph.reachable:
        root = tree.root_branches[tree.branch_of[i]]
        redistribution[i] = shares.omega[i] * branch_revenues[root]
    return _outcome_by_terms(profile, run_auction(mechanism, profile), redistribution,
                             branch_revenues, tree.root_branches)


def cavallo_rerun_oracle(profile: ReportProfile):
    """``cavallo`` by brute force: each rebate re-runs the second-price
    auction with that one agent's report silenced."""
    reachable = induce_graph(profile).reachable
    rebates = {i: ZERO for i in profile.agents}
    if not reachable:
        return _outcome_by_terms(profile, _no_sale(profile), rebates, {}, ())
    for i in sorted(reachable):
        revenue = vcg(profile.replace(i, NULL_TYPE)).surplus
        rebates[i] = Fraction(revenue, len(reachable))
    return _outcome_by_terms(profile, vcg(profile), rebates, {}, ())


# --- memo-free reference runs --------------------------------------------


def exact(value):
    """A field as a comparable whose numbers keep their type and whose
    keys keep their order, so 0 and Fraction(0) differ."""
    if isinstance(value, dict):
        return [(k, type(v), v) for k, v in value.items()]
    return type(value), value


def clear_memo() -> None:
    """Forget the critical tree ``market`` reuses, the package's one memo."""
    auctions._last_structure = None


def counted_builds(monkeypatch) -> list:
    """Record every critical tree ``market`` builds, from an empty memo on."""
    builds = []
    real = auctions.critical_tree

    def counted_build(graph):
        builds.append(graph)
        return real(graph)

    monkeypatch.setattr(auctions, "critical_tree", counted_build)
    clear_memo()
    return builds


def memo_free(run, *args):
    """``run(*args)`` with the memo cleared, so it can read nothing the run
    under test left there; the memo is restored afterwards, so the run
    under test cannot read this one either."""
    saved = auctions._last_structure
    clear_memo()
    try:
        return run(*args)
    finally:
        auctions._last_structure = saved


# --- the command line's former input and output paths -------------------


def agent_value_oracle(agent_id: str, raw: str) -> Fraction:
    """An agent entry's value, its error text included, as ``Fraction(str)``
    reads it with no int-from-text digit limit.  ``profile_from_dict`` reads
    every string so, except one past the limit that is not a plain decimal
    (a sign, an exponent, a slash...), which it still rejects."""
    try:
        value = without_digit_limit(Fraction, raw)
    except (ValueError, ZeroDivisionError):
        raise ProfileError(f"agent {agent_id!r}: bad value {raw!r}") from None
    return AgentType(value, frozenset()).value


def run_rows_oracle(outcome: Outcome, truth: ReportProfile,
                    digits: int) -> list[dict]:
    """``netredist run``'s rows with four ``decimal_str`` calls per agent."""
    return [
        {
            "agent": i,
            "allocation": outcome.allocation[i],
            "auction_payment": decimal_str(outcome.auction_payment[i], digits),
            "redistribution": decimal_str(outcome.redistribution[i], digits),
            "final_payment": decimal_str(outcome.final_payment[i], digits),
            "utility": decimal_str(utility(outcome.allocation[i], truth.value_of(i),
                                           outcome.final_payment[i]), digits),
        }
        for i in outcome.profile.agents
    ]


def without_digit_limit(run, *args):
    """``run(*args)`` with the interpreter's int-to-text digit limit lifted,
    where ``str`` of any int is its exact decimal text."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:  # an interpreter without the limit
        return run(*args)
    limit = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return run(*args)
    finally:
        set_limit(limit)


def json_text_oracle(data) -> str:
    """The command line's JSON text: the standard library's indented encoder."""
    return json.dumps(data, indent=2, sort_keys=True)


# --- random instance generation -----------------------------------------


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


def random_tree_profile(rng: random.Random, n: int,
                        value_max: int = 20) -> ReportProfile:
    """A random invitation tree on ``n`` agents with integer values."""
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
