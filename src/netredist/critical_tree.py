"""The critical tree of an invitation graph, the one index of its
invitation structure.

Each participant's parent is the nearest agent whose absence would cut her
off from the sponsor; this is exactly the immediate-dominator tree of the
induced graph rooted at the sponsor.  ``immediate_dominators`` computes it
in one Semi-NCA pass: a depth-first numbering, semidominators in reverse
preorder through path-compressed ``eval``, then each dominator read off
the tree built so far.  Nothing is iterated to a fixpoint, so returned
invitations (rings, reciprocal chains) take near-linear work, as a tree
does.

One depth-first pass over the finished tree then indexes it by preorder
intervals: every participant's preorder position, subtree size and depth.
A branch (an agent together with everyone who depends on her) is the
contiguous run of the preorder starting at her, so membership is one
comparison of positions and the whole index takes O(n) memory.

The tree also answers, once asked, what else every market of its
structure shares: ``hang``, where a branch root hangs once another branch
is silenced, and the sharing coefficients of the last alpha as integer
pairs.  A root keeps two disjoint paths from the sponsor (Menger's
theorem), found once by two augmenting paths, and stays unless the
silenced branch meets them; for a branch that does, one more dominator
pass with that branch silenced gives every root's new parent.  It keeps
every answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Optional, Sequence

from netredist.profiles import SPONSOR, InducedGraph
from netredist.prst import SharingParams, walk


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
        drops everyone depending on her, so the answer is the root's
        parent in the critical tree of that network.  A root the sponsor
        invites stays under her.  Any other root ``c`` has the sponsor as
        her nearest cut point, so by Menger's theorem some two
        sponsor-to-``c`` invitation paths share no agent; two augmenting
        paths find them, once per ``c``.  A silenced branch that meets
        neither leaves ``c`` under the sponsor.  For one that does, one
        ``immediate_dominators`` pass over the graph in which ``b``'s root
        invites no one, run once per ``b``, gives the new parent of every
        movable root.
        """
        if branch not in self.movable:
            return None
        # kept beside the fields, as ``omega`` keeps its last answer
        crossed = self.__dict__.setdefault("_crossed", {})
        if branch not in crossed:
            root = self.root_branches[branch]
            flow: set[tuple[str, str]] = set()
            _augment(self.successors, root, flow)
            _augment(self.successors, root, flow)
            crossed[branch] = frozenset(self.branch_of[w] for _, w in flow if w != root)
        if silenced not in crossed[branch]:
            return None
        hung = self.__dict__.setdefault("_hung", {})
        if silenced not in hung:
            quiet = {**self.successors, self.root_branches[silenced]: ()}
            parent = immediate_dominators(quiet, SPONSOR)
            hung[silenced] = {k: up for k in self.movable
                              if (up := parent[self.root_branches[k]]) != SPONSOR}
        return hung[silenced].get(branch)

    def omega(self, params: SharingParams) -> Mapping[str, tuple[int, int]]:
        """The ``prst`` coefficients of the nonempty tree at ``params.alpha``
        as integer pairs ``(numerator, denominator)``, ``(0, 1)`` for zero,
        reused while the alpha is the same or an equal one."""
        alpha = params.alpha
        last = self.__dict__.get("_omega")
        if last is None or last[0] is not alpha and last[0] != alpha:
            # kept beside the fields, as ``cached_property`` keeps its values
            last = self.__dict__["_omega"] = alpha, walk(self, alpha)
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


def critical_tree(graph: InducedGraph) -> CriticalTree:
    """Build the critical tree of ``graph`` restricted to reachable agents."""
    parent = immediate_dominators(graph.successors, SPONSOR)
    agents = tuple(sorted(parent))
    children: dict[str, list[str]] = {}  # of the sponsor and every agent with a child
    for v in agents:
        children.setdefault(parent[v], []).append(v)
    root_branches = tuple(children.get(SPONSOR, ()))

    # one depth-first pass, children in canonical order, each child's
    # depth and branch recorded as she is pushed
    preorder: list[str] = []
    depth = dict.fromkeys(root_branches, 1)
    branch_of = dict(zip(root_branches, range(len(root_branches))))
    stack = list(reversed(root_branches))
    while stack:
        v = stack.pop()
        preorder.append(v)
        below = children.get(v)
        if below:
            d, b = depth[v] + 1, branch_of[v]
            for c in below:
                depth[c] = d
                branch_of[c] = b
            stack.extend(reversed(below))
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
        pre=dict(zip(preorder, range(len(preorder)))),
        size=size,
        depth=depth,
        agents=agents,
        successors=graph.successors,
    )


def immediate_dominators(successors: Mapping[str, Sequence[str]],
                         root: str) -> dict[str, str]:
    """Immediate dominator of every vertex reachable from ``root`` (itself
    excluded), by one Semi-NCA pass over ``successors`` (Georgiadis, Tarjan
    and Werneck, JGAA 2006).

    A depth-first search numbers the vertices in preorder.  In reverse
    preorder each gets her semidominator (Lengauer and Tarjan, TOPLAS 1979)
    from a path-compressed ``eval`` over her predecessors, where only the
    vertices numbered above her count as linked.  Her immediate dominator
    is then the first vertex numbered at most her semidominator on the way
    up from her search parent through the dominator tree built so far.
    """
    number = {root: 0}
    vertices, parent, preds = [root], [0], [[]]
    stack = [(0, iter(successors.get(root, ())))]
    while stack:
        v, targets = stack[-1]
        for w in targets:
            k = number.get(w)
            if k is None:
                number[w] = k = len(vertices)
                vertices.append(w)
                parent.append(v)
                preds.append([v])
                stack.append((k, iter(successors.get(w, ()))))
                break
            preds[k].append(v)
        else:
            stack.pop()

    n = len(vertices)
    semi = list(range(n))
    label = list(range(n))  # the least semidominator on the compressed path up
    ancestor = parent[:]
    for w in range(n - 1, 0, -1):
        s = w
        for v in preds[w]:
            if v > w:
                # eval: the least label from v up to the first vertex not
                # linked, compressing the path on the way
                path, u = [], v
                while ancestor[u] > w:
                    path.append(u)
                    u = ancestor[u]
                for u in reversed(path):
                    a = ancestor[u]
                    if label[a] < label[u]:
                        label[u] = label[a]
                    ancestor[u] = ancestor[a]
                v = label[v]
            if v < s:
                s = v
        semi[w] = label[w] = s

    idom = parent  # lowered in place, in preorder
    for w in range(1, n):
        d = idom[w]
        while d > semi[w]:
            d = idom[d]
        idom[w] = d
    return {vertices[w]: vertices[idom[w]] for w in range(1, n)}


def _augment(successors: Mapping[str, Sequence[str]], target: str,
             flow: set[tuple[str, str]]) -> None:
    """Grow ``flow``, the invitations on sponsor-to-``target`` paths that
    share no agent, by one more path, which may reroute the others; there
    must be one, and the sponsor must not invite ``target``.

    A breadth-first search over the residual network in which every agent
    is an entry joined to an exit with capacity 1: an agent on a path can
    be left back along it, from her entry to her inviter's exit, or
    re-entered from her exit.  It also follows invitations on a path, each
    from an exit already reached to an entry whose one move leads back to
    it: a dead end.  The target is not entered so, as her inviter on a path
    is an agent whose exit is reached only through her.
    """
    inviter = {w: u for u, w in flow if w != target}
    into: dict[str, str] = {}  # an agent's entry, by the exit it is reached from
    out_of: dict[str, str] = {SPONSOR: SPONSOR}  # an exit, by the entry
    exits = [SPONSOR]
    while exits and target not in into:
        entries = []
        for v in exits:
            for w in successors[v]:
                if w not in into:
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
    v = target
    while v != SPONSOR:
        u = into[v]
        if u != v:
            flow.add((u, v))
        v = out_of[u]
        if v != u:
            flow.remove((u, v))
