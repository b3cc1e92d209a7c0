"""Brute-force oracles used to cross-check the library implementations.

Everything here is deliberately naive.  The cut-point and resale oracles
are built on reachability queries only, the cut points on a breadth-first
search of their own, so they share no code path with the dominator-tree
or auction implementations they audit; the
fixpoint dominators are a second, faster reference for the tree.  The
re-run oracles for the redistribution counterfactuals rebuild a silenced
copy of the profile and run the public auction on it once per branch or
agent, so they share the auctions but not the counterfactual index.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from collections.abc import Mapping, Sequence
from fractions import Fraction

from netredist import auctions
from netredist.auctions import (
    MechanismId,
    Outcome,
    run_auction,
    utility,
    vcg,
)
from netredist.cli import Rows
from netredist.critical_tree import CriticalTree, critical_tree
from netredist.profiles import (
    MAX_EXPONENT,
    SPONSOR,
    AgentType,
    InducedGraph,
    ProfileError,
    ReportProfile,
    _echo,
    _id_set,
    induce_graph,
    parse_value,
)
from netredist.prst import SharingError, SharingParams
from netredist.render import decimal_str

# generated in ``families``; ``test_acceptance.py`` imports it from here
from families import random_digraph_profile  # noqa: F401

ZERO = Fraction(0)

#: The "stay silent" report: no value, no invitations.
NULL_TYPE = AgentType(ZERO, frozenset())


# --- cut-point (dominator) oracle ---------------------------------------


def reachable_without(graph: InducedGraph, v: str | None = None) -> frozenset[str]:
    """The agents the sponsor reaches once ``v`` is deleted (all of them
    when ``v`` is None), by a breadth-first search of the oracles' own."""
    seen = {SPONSOR, v}
    queue = deque([SPONSOR])
    while queue:
        for w in graph.successors[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return frozenset(seen - {SPONSOR, v})


def brute_dominators(graph: InducedGraph, j: str) -> frozenset[str]:
    """All vertices whose removal cuts ``j`` off from the sponsor."""
    if j == SPONSOR:
        return frozenset({SPONSOR})
    doms = {SPONSOR}
    for v in reachable_without(graph):
        if v == j:
            continue
        if j not in reachable_without(graph, v):
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
    return {j: brute_parent(graph, j) for j in reachable_without(graph)}


def fixpoint_dominators(successors, root: str) -> dict[str, str]:
    """Immediate dominator of every vertex reachable from ``root`` (itself
    excluded), by the iterative data-flow fixpoint of Cooper, Harvey and
    Kennedy ("A simple, fast dominance algorithm", 2001).

    One depth-first search gives the reverse postorder and every vertex's
    predecessors; sweeps over it meet the dominators of each vertex's
    predecessors until nothing changes.  It shares no code with the
    package's Semi-NCA pass.
    """
    preds: dict[str, list[str]] = {root: []}
    order: list[str] = []
    stack = [(root, iter(successors.get(root, ())))]
    while stack:
        v, targets = stack[-1]
        for w in targets:
            if w in preds:
                preds[w].append(v)
            else:
                preds[w] = [v]
                stack.append((w, iter(successors.get(w, ()))))
                break
        else:
            order.append(v)
            stack.pop()
    order.reverse()
    index = {v: k for k, v in enumerate(order)}

    def intersect(a: str, b: str) -> str:
        while a != b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    idom = {root: root}
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            new = None
            for p in preds[v]:
                if p in idom:
                    new = p if new is None else intersect(new, p)
            if idom.get(v) != new:
                idom[v] = new
                changed = True
    return {v: idom[v] for v in order[1:]}


def dependants(graph: InducedGraph, v: str) -> frozenset[str]:
    """``v`` plus every agent unreachable once ``v`` is removed."""
    return frozenset({v}) | (reachable_without(graph) - reachable_without(graph, v))


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
    roots left under the sponsor are absent.  ``CriticalTree.hang`` reads
    the same answers off the package's Semi-NCA pass over the whole graph
    with ``b``'s root silenced, and the skeleton's dominators come from
    ``fixpoint_dominators``, so the two share no code.
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
        parent = fixpoint_dominators(skeleton, SPONSOR)
        rehangs.append({c: parent[r] for c, r in enumerate(roots) if parent[r] != SPONSOR})
    return rehangs


def every_rehang(tree: CriticalTree) -> list[dict[int, str]]:
    """``rehangs_oracle``'s list, read one (silenced, root) pair at a time
    from a market tree's lazy answers."""
    branches = range(len(tree.root_branches))
    return [{c: parent for c in branches if (parent := tree.hang(b, c)) is not None}
            for b in branches]


def counted_passes(monkeypatch) -> list:
    """Record the silenced root of every dominator pass ``hang`` runs: one
    per silenced branch that meets the disjoint paths of a root asked about."""
    passes = []
    silenced_roots = []  # of the ``hang`` calls running
    module = sys.modules[CriticalTree.__module__]
    real_hang, real_pass = CriticalTree.hang, module.immediate_dominators

    def counted_hang(tree, silenced, branch):
        silenced_roots.append(tree.root_branches[silenced])
        try:
            return real_hang(tree, silenced, branch)
        finally:
            silenced_roots.pop()

    def counted_pass(successors, root):
        if silenced_roots:
            passes.append(silenced_roots[-1])
        return real_pass(successors, root)

    monkeypatch.setattr(CriticalTree, "hang", counted_hang)
    monkeypatch.setattr(module, "immediate_dominators", counted_pass)
    return passes


def counted_hangs(monkeypatch) -> list:
    """Record every (silenced, root) re-hang a chain walk asks and its answer."""
    asked = []
    real = CriticalTree.hang

    def counted_hang(tree, silenced, branch):
        parent = real(tree, silenced, branch)
        asked.append((silenced, branch, parent))
        return parent

    monkeypatch.setattr(CriticalTree, "hang", counted_hang)
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


def prst_oracle(tree: CriticalTree, params: SharingParams) -> tuple[dict, dict]:
    """``prst`` as the recursion its docstring states, term by term: every
    agent builds ``total``, ``base`` and ``spread`` as fractions, leaves
    included.  Returns the coefficients and the pass-down masses, the
    sponsor's 1 included."""
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

    return omega, omega_pass


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


def nrmf_rerun_oracle(mechanisms: Sequence[MechanismId], profile: ReportProfile,
                      alphas: Sequence[SharingParams]) -> dict:
    """``run_nrmf`` by brute force under every mechanism and alpha given,
    keyed by the pair: each branch's revenue comes from re-running the
    auction on a copy of the profile in which every member of that branch
    reports ``NULL_TYPE``."""
    graph = induce_graph(profile)
    if not graph.reachable:
        zero = {i: ZERO for i in profile.agents}
        return {(mechanism, params): _outcome_by_terms(profile, _no_sale(profile), zero, {}, ())
                for mechanism in mechanisms for params in alphas}
    tree = critical_tree(graph)
    branch_revenues: dict = {mechanism: {} for mechanism in mechanisms}
    for k, root in enumerate(tree.root_branches):
        blocked = ReportProfile(profile.sponsor_neighbors, {
            i: (NULL_TYPE if tree.branch_of.get(i) == k else t)
            for i, t in profile.reports.items()
        })
        for mechanism in mechanisms:
            branch_revenues[mechanism][root] = run_auction(mechanism, blocked).surplus
    auctions = {mechanism: run_auction(mechanism, profile) for mechanism in mechanisms}
    outcomes = {}
    for params in alphas:
        omega, _ = prst_oracle(tree, params)
        for mechanism in mechanisms:
            revenues = branch_revenues[mechanism]
            redistribution = {i: ZERO for i in profile.agents}
            for i in graph.reachable:
                root = tree.root_branches[tree.branch_of[i]]
                redistribution[i] = omega[i] * revenues[root]
            outcomes[mechanism, params] = _outcome_by_terms(
                profile, auctions[mechanism], redistribution, revenues, tree.root_branches)
    return outcomes


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


def assert_by_definition(outcome: Outcome, profile: ReportProfile) -> None:
    """The surplus is the plain sum of the final payments and every utility
    is ``utility`` at the reported value, equal in value and type."""
    assert exact(outcome.surplus) == exact(sum(outcome.final_payment.values(), ZERO))
    assert exact(outcome.utilities) == exact({
        i: utility(outcome.allocation[i], profile.value_of(i), outcome.final_payment[i])
        for i in profile.agents
    })


def assert_matches_oracle(outcome: Outcome, oracle: Outcome, profile: ReportProfile) -> None:
    """``outcome`` equals a re-run oracle's, field by field and in every
    utility's type, and holds by definition."""
    assert outcome == oracle
    assert_by_definition(outcome, profile)
    assert exact(outcome.utilities) == exact(oracle.utilities)


# --- memo-free reference runs --------------------------------------------


def exact(value):
    """A field as a comparable whose numbers keep their type and whose
    keys keep their order, so 0 and Fraction(0) differ."""
    if isinstance(value, Mapping):
        return [(k, type(v), v) for k, v in value.items()]
    return type(value), value


def counted_builds(monkeypatch) -> list:
    """Record every critical tree ``market`` builds from here on."""
    builds = []
    real = auctions.critical_tree

    def counted_build(graph):
        builds.append(graph)
        return real(graph)

    monkeypatch.setattr(auctions, "critical_tree", counted_build)
    return builds


def memo_free(run, *args):
    """``run(*args)`` on a fresh copy of each profile among ``args``, so it
    can read no critical tree the run under test built, nor leave one for
    it: a copy made by ``ReportProfile`` starts its own structure."""
    return run(*(ReportProfile(a.sponsor_neighbors, dict(a.reports))
                 if isinstance(a, ReportProfile) else a for a in args))


# --- the command line's former input and output paths -------------------


def profile_from_dict_oracle(data: dict) -> ReportProfile:
    """A network file's profile read entry by entry through ``parse_value``,
    ``_id_set`` and ``AgentType``, then checked report by report, with
    every check and error text of ``profile_from_dict`` in the same order."""
    if not isinstance(data, dict):
        raise ProfileError("network file must contain a JSON object")
    try:
        sponsor_neighbors = data["sponsor_neighbors"]
        agents = data["agents"]
    except KeyError as e:
        raise ProfileError(f"missing field: {e}") from None
    if not isinstance(agents, list):
        raise ProfileError("agents must be a list of agent entries")
    reports = {}
    for entry in agents:
        try:
            agent_id = entry["id"]
            raw_value = entry["value"]
            neighbors = entry.get("neighbors", [])
        except (KeyError, TypeError) as e:
            raise ProfileError(f"malformed agent entry {_echo(entry)}: {e}") from None
        if not isinstance(agent_id, str):
            raise ProfileError(f"agent id {_echo(agent_id)} must be a string")
        if not isinstance(raw_value, str):
            raise ProfileError(f"agent {_echo(agent_id)}: value must be a decimal string")
        try:
            value = parse_value(raw_value)
        except (ValueError, ZeroDivisionError):
            raise ProfileError(
                f"agent {_echo(agent_id)}: bad value {_echo(raw_value)}") from None
        if agent_id in reports:
            raise ProfileError(f"duplicate agent id {_echo(agent_id)}")
        neighbors = _id_set(neighbors, agent_id)
        reports[agent_id] = AgentType(value, neighbors)
    sponsored = _id_set(sponsor_neighbors)
    # ``ReportProfile``'s checks, made here report by report and id by id
    if SPONSOR in reports:
        raise ProfileError(f"agent id {SPONSOR!r} is reserved for the sponsor")
    for j in sponsored:
        if j not in reports:
            raise ProfileError(f"sponsor invites unknown agent {_echo(j)}")
    for i, report in reports.items():
        if i in report.neighbors:
            raise ProfileError(f"agent {_echo(i)} lists itself as a neighbour")
        for j in report.neighbors:
            if j != SPONSOR and j not in reports:
                raise ProfileError(f"agent {_echo(i)} references unknown agent {_echo(j)}")
    return ReportProfile(sponsored, reports)


def agent_value_oracle(agent_id: str, raw: str) -> Fraction:
    """An agent entry's value, its error text included, as ``Fraction(str)``
    reads it with no int-from-text digit limit, but with no exponent past
    ``MAX_EXPONENT`` either way.  ``profile_from_dict`` reads every string
    so, except one past the limit that is not a plain decimal (a sign, an
    exponent, a slash...), which it still rejects."""
    try:
        _, marker, exponent = raw.lower().rpartition("e")
        if marker and abs(int(exponent)) > MAX_EXPONENT:
            raise ValueError(f"exponent past {MAX_EXPONENT}")
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
    """The command line's JSON text: the standard library's indented
    encoder, with rows written as their records."""
    return json.dumps(as_records(data), indent=2, sort_keys=True)


def as_records(data):
    """``data`` with every ``cli.Rows`` in it, at any depth of dicts and
    lists, replaced by the list of its records, one dict per row."""
    if type(data) is Rows:
        return [dict(zip(data.names, row)) for row in data.values]
    if type(data) is dict:
        return {k: as_records(v) for k, v in data.items()}
    if type(data) is list:
        return [as_records(v) for v in data]
    return data
