"""The critical tree of an invitation graph, the one index of its
invitation structure.

Each participant's parent is the nearest agent whose absence would cut her
off from the sponsor; this is exactly the immediate-dominator tree of the
induced graph rooted at the sponsor.  ``immediate_dominators`` computes it
with the iterative data-flow algorithm (Cooper/Harvey/Kennedy) after one
depth-first search of the graph.  An agent with one inviter is dominated
immediately by her, so only agents with two or more inviters are iterated
to the fixpoint; on an invitation tree that is nobody, and the pass is one
linear sweep.

One depth-first pass over the finished tree then indexes it by preorder
intervals: every participant's preorder position, subtree size and depth.
A branch (an agent together with everyone who depends on her) is the
contiguous run of the preorder starting at her, so membership is one
comparison of positions and the whole index takes O(n) memory.

The tree also answers, once asked, what else every market of its
structure shares: ``hang``, where a branch root hangs once another branch
is silenced, read off augmenting paths alone (by Menger's theorem most
roots keep two disjoint paths from the sponsor and stay, and the rest hang
under the minimum cut nearest to them), and the sharing coefficients of
the last alpha.  It keeps every answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from netredist.profiles import SPONSOR, InducedGraph
from netredist.prst import SharingParams, prst


@dataclass(frozen=True)
class CriticalTree:
    """Immediate-dominator tree over the participant set, and the index
    every market of its invitation structure reads.

    ``agents`` are the participants in canonical (id) order.
    ``preorder`` lists them depth first, branch roots and siblings in
    canonical order; ``pre[i]`` is ``i``'s position in it, ``size[i]``
    the number of agents in ``i``'s branch (``i`` included) and
    ``depth[i]`` her number of critical ancestors, herself included.
    ``root_branches`` are the sponsor's children in canonical order and
    ``branch_of`` maps every participant to the index of its branch in
    that list.  ``successors`` is the graph's, for the re-hangs.
    ``movable``, ``hang`` and ``omega`` are answered on first use and
    kept: an answer the tree keeps never changes.
    """

    parent: Mapping[str, str]
    root_branches: tuple[str, ...]
    branch_of: Mapping[str, int]
    preorder: tuple[str, ...]
    pre: Mapping[str, int]
    size: Mapping[str, int]
    depth: Mapping[str, int]
    agents: tuple[str, ...]
    successors: Mapping[str, Sequence[str]] = field(compare=False, repr=False)

    @cached_property
    def movable(self) -> frozenset[int]:
        """The branches whose root the sponsor does not invite: the only
        roots a silenced branch can move."""
        sponsored = set(self.successors[SPONSOR])
        return frozenset(k for k, root in enumerate(self.root_branches)
                         if root not in sponsored)

    def hang(self, silenced: int, branch: int) -> Optional[str]:
        """The agent under which the root of branch ``branch`` hangs once
        branch ``silenced`` is silenced, or None if under the sponsor.

        Silencing branch ``b`` keeps its root, with no invitations, and
        drops everyone depending on her.  A root the sponsor invites stays
        under her.  Any other root ``c`` has the sponsor as her nearest cut
        point, so by Menger's theorem some two sponsor-to-``c`` invitation
        paths share no agent; two augmenting paths find them, once per
        ``c``.  A silenced branch that meets neither leaves ``c`` under the
        sponsor.  For one that does, the same search without ``b`` runs
        once per pair: if it finds two paths again, ``c`` stays; if it
        finds one, ``c``'s new parent is the minimum cut nearest to her,
        read off the residual network the search leaves (``_nearest_cut``).
        """
        if branch not in self.movable:
            return None
        root = self.root_branches[branch]
        # kept beside the fields, as ``omega`` keeps its last answer
        crossed = self.__dict__.setdefault("_crossed", {})
        if branch not in crossed:
            flow, _ = _disjoint_paths(self.successors, root, frozenset())
            crossed[branch] = frozenset(self.branch_of[w] for _, w in flow if w != root)
        if silenced not in crossed[branch]:
            return None
        hung = self.__dict__.setdefault("_hung", {})
        pair = silenced, branch
        if pair not in hung:
            removed = self.branch_members(self.root_branches[silenced])
            flow, two = _disjoint_paths(self.successors, root, removed)
            hung[pair] = None if two else self._nearest_cut(root, flow, removed)
        return hung[pair]

    def omega(self, params: SharingParams) -> Mapping[str, Fraction]:
        """The ``prst`` coefficients of the nonempty tree at ``params.alpha``,
        reused while the alpha is the same or an equal one."""
        alpha = params.alpha
        last = self.__dict__.get("_omega")
        if last is None or last[0] is not alpha and last[0] != alpha:
            # kept beside the fields, as ``cached_property`` keeps its values
            last = self.__dict__["_omega"] = alpha, prst(self, params).omega
        return last[1]

    def ancestors(self, i: str) -> list[str]:
        """Critical ancestors of ``i`` from the first branch root down to ``i``."""
        chain = [i]
        while self.parent[chain[-1]] != SPONSOR:
            chain.append(self.parent[chain[-1]])
        chain.reverse()
        return chain

    def branch_members(self, root: str) -> frozenset[str]:
        """``root`` plus every agent that participates only through her."""
        start = self.pre[root]
        return frozenset(self.preorder[start:start + self.size[root]])

    def _nearest_cut(self, root: str, flow: set[tuple[str, str]],
                     removed: frozenset[str]) -> str:
        """The nearest cut point of ``root`` once ``removed`` is gone, read
        off ``flow``, the one sponsor-to-``root`` path left.

        The agents whose entry still reaches ``root``'s in the residual
        network of ``_augment`` lie on the sink side of the minimum cut
        nearest to her (Ford and Fulkerson).  The path crosses that cut
        once, and with a flow of 1 the cut is one agent on it: walking up
        from ``root``, the first agent whose entry is outside.
        """
        inviters = self._inviters
        invitee = {u: w for u, w in flow}
        entries, stack = {root}, [root]
        while stack:
            w = stack.pop()
            # the exits with an arc into entry w: of an inviter whose
            # invitation the path does not use, and w's own once she is on it
            exits = [u for u in inviters[w] if u not in removed and (u, w) not in flow]
            if w in invitee:
                exits.append(w)
            for u in exits:
                # the entry with an arc into exit u: u's own, or once she is
                # on the path, her invitee's, back along the invitation
                v = invitee.get(u, u)
                if v not in entries:
                    entries.add(v)
                    stack.append(v)
        inviter = {w: u for u, w in flow}
        v = inviter[root]
        while v in entries:
            v = inviter[v]
        return v

    @cached_property
    def _inviters(self) -> dict[str, list[str]]:
        """Every participant's inviters other than the sponsor, built for
        the first cut that needs them."""
        successors, preorder = self.successors, self.preorder
        inviters: dict[str, list[str]] = {v: [] for v in preorder}
        for u in preorder:
            for w in successors[u]:
                inviters[w].append(u)
        return inviters


def critical_tree(graph: InducedGraph) -> CriticalTree:
    """Build the critical tree of ``graph`` restricted to reachable agents."""
    parent = immediate_dominators(graph.successors, SPONSOR)
    agents = tuple(sorted(parent))
    children: dict[str, list[str]] = {v: [] for v in (SPONSOR, *agents)}
    for v in agents:
        children[parent[v]].append(v)
    root_branches = tuple(children[SPONSOR])

    preorder: list[str] = []
    stack = list(reversed(root_branches))
    while stack:
        v = stack.pop()
        preorder.append(v)
        stack.extend(reversed(children[v]))
    depth = dict.fromkeys(root_branches, 1)
    branch_of = {root: k for k, root in enumerate(root_branches)}
    for v in preorder:
        p = parent[v]
        if p != SPONSOR:
            depth[v] = depth[p] + 1
            branch_of[v] = branch_of[p]
    size = dict.fromkeys(preorder, 1)
    for v in reversed(preorder):
        p = parent[v]
        if p != SPONSOR:
            size[p] += size[v]
    return CriticalTree(
        parent=parent,
        root_branches=root_branches,
        branch_of=branch_of,
        preorder=tuple(preorder),
        pre={v: k for k, v in enumerate(preorder)},
        size=size,
        depth=depth,
        agents=agents,
        successors=graph.successors,
    )


def immediate_dominators(successors: Mapping[str, Sequence[str]],
                         root: str) -> dict[str, str]:
    """Immediate dominator of every vertex reachable from ``root`` (itself
    excluded), by the Cooper/Harvey/Kennedy iteration over ``successors``.

    One depth-first search gives the reverse postorder and every vertex's
    predecessors.  The first sweep settles each vertex with a single
    predecessor for good; only the others are swept again until nothing
    changes.
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

    idom = {root: root}
    merges = []
    for v in order[1:]:
        if len(preds[v]) == 1:
            idom[v] = preds[v][0]
        else:
            merges.append(v)
            idom[v] = _meet(preds[v], idom, index)
    changed = bool(merges)
    while changed:
        changed = False
        for v in merges:
            new = _meet(preds[v], idom, index)
            if idom[v] != new:
                idom[v] = new
                changed = True
    return {v: idom[v] for v in order[1:]}


def _meet(preds: list[str], idom: dict[str, str], index: dict[str, int]) -> str:
    """The nearest common dominator of the predecessors swept so far (a
    vertex's parent in the search always is)."""
    new = None
    for p in preds:
        if p in idom:
            new = p if new is None else _intersect(new, p, idom, index)
    return new


def _intersect(a: str, b: str, idom: dict, index: dict) -> str:
    while a != b:
        while index[a] > index[b]:
            a = idom[a]
        while index[b] > index[a]:
            b = idom[b]
    return a


def _disjoint_paths(successors: Mapping[str, Sequence[str]], target: str,
                    removed: frozenset[str]) -> tuple[set[tuple[str, str]], bool]:
    """The invitations on two sponsor-to-``target`` paths that share no
    agent and avoid ``removed``, and True; or on fewer, and False."""
    flow: set[tuple[str, str]] = set()
    return flow, all(_augment(successors, target, flow, removed) for _ in range(2))


def _augment(successors: Mapping[str, Sequence[str]], target: str,
             flow: set[tuple[str, str]], removed: frozenset[str]) -> bool:
    """Grow ``flow``, the invitations on sponsor-to-``target`` paths that
    share no agent and avoid ``removed``, by one more path, which may
    reroute the others; False if there is none.

    A breadth-first search over the residual network in which every agent
    is an entry joined to an exit with capacity 1: an agent on a path can
    be left back along it, from her entry to her inviter's exit, or
    re-entered from her exit.
    """
    inviter = {w: u for u, w in flow if w != target}
    tails = {u for u, _ in flow}
    into: dict[str, str] = {}  # an agent's entry, by the exit it is reached from
    out_of: dict[str, str] = {SPONSOR: SPONSOR}  # an exit, by the entry
    exits = [SPONSOR]
    while exits and target not in into:
        entries = []
        for v in exits:
            on_path = v in tails
            for w in successors[v]:
                if w not in into and w not in removed and not (on_path and (v, w) in flow):
                    into[w] = v
                    entries.append(w)
            if v in inviter and v not in into:
                into[v] = v
                entries.append(v)
        exits = []
        for v in entries:
            u = inviter.get(v, v)
            if u not in out_of:
                out_of[u] = v
                exits.append(u)
    if target not in into:
        return False
    v = target
    while v != SPONSOR:
        u = into[v]
        if u != v:
            flow.add((u, v))
        v = out_of[u]
        if v != u:
            flow.remove((u, v))
    return True
