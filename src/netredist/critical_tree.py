"""The critical tree of an invitation graph.

Each participant's parent is the nearest agent whose absence would cut her
off from the sponsor; this is exactly the immediate-dominator tree of the
induced graph rooted at the sponsor.  The tree is computed with the
iterative data-flow algorithm (Cooper/Harvey/Kennedy): simple, easy to
audit, and fast enough for desk-scale instances.

One depth-first pass over the finished tree then indexes it by preorder
intervals: every participant's preorder position, subtree size and depth.
A branch (an agent together with everyone who depends on her) is the
contiguous run of the preorder starting at her, so membership is one
comparison of positions and the whole index takes O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from netredist.profiles import SPONSOR, InducedGraph


@dataclass(frozen=True)
class CriticalTree:
    """Immediate-dominator tree over the participant set.

    ``preorder`` lists the participants depth first, branch roots and
    siblings in canonical order; ``pre[i]`` is ``i``'s position in it,
    ``size[i]`` the number of agents in ``i``'s branch (``i`` included)
    and ``depth[i]`` her number of critical ancestors, herself included.
    ``root_branches`` are the sponsor's children in canonical order and
    ``branch_of`` maps every participant to the index of its branch in
    that list.
    """

    parent: Mapping[str, str]
    root_branches: tuple[str, ...]
    branch_of: Mapping[str, int]
    preorder: tuple[str, ...]
    pre: Mapping[str, int]
    size: Mapping[str, int]
    depth: Mapping[str, int]

    @property
    def agents(self) -> list[str]:
        return sorted(self.parent)

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

    def subtree(self, i: str) -> frozenset[str]:
        """The strict dependants of ``i``."""
        return self.branch_members(i) - {i}


def critical_tree(graph: InducedGraph) -> CriticalTree:
    """Build the critical tree of ``graph`` restricted to reachable agents."""
    order = _reverse_postorder(graph)
    index = {v: k for k, v in enumerate(order)}
    preds: dict[str, list[str]] = {v: [] for v in order}
    for u in order:
        for v in graph.successors.get(u, ()):
            preds[v].append(u)

    idom: dict[str, str | None] = {v: None for v in order}
    idom[SPONSOR] = SPONSOR
    changed = True
    while changed:
        changed = False
        for v in order[1:]:
            candidates = [p for p in preds[v] if idom[p] is not None]
            new = candidates[0]
            for p in candidates[1:]:
                new = _intersect(new, p, idom, index)
            if idom[v] != new:
                idom[v] = new
                changed = True

    parent = {v: idom[v] for v in order[1:]}
    children: dict[str, list[str]] = {v: [] for v in order}
    for v in sorted(parent):
        children[parent[v]].append(v)
    root_branches = tuple(children[SPONSOR])

    preorder: list[str] = []
    depth: dict[str, int] = {}
    branch_of: dict[str, int] = {}
    stack = [(root, 1, k) for k, root in reversed(list(enumerate(root_branches)))]
    while stack:
        v, d, k = stack.pop()
        preorder.append(v)
        depth[v] = d
        branch_of[v] = k
        stack.extend((c, d + 1, k) for c in reversed(children[v]))
    size = dict.fromkeys(preorder, 1)
    for v in reversed(preorder):
        if parent[v] != SPONSOR:
            size[parent[v]] += size[v]
    return CriticalTree(
        parent=parent,
        root_branches=root_branches,
        branch_of=branch_of,
        preorder=tuple(preorder),
        pre={v: k for k, v in enumerate(preorder)},
        size=size,
        depth=depth,
    )


def _reverse_postorder(graph: InducedGraph) -> list[str]:
    order: list[str] = []
    seen = {SPONSOR}
    stack: list[tuple[str, int]] = [(SPONSOR, 0)]
    while stack:
        v, i = stack[-1]
        succ = graph.successors.get(v, ())
        if i < len(succ):
            stack[-1] = (v, i + 1)
            w = succ[i]
            if w not in seen:
                seen.add(w)
                stack.append((w, 0))
        else:
            order.append(v)
            stack.pop()
    order.reverse()
    return order


def _intersect(a: str, b: str, idom: dict, index: dict) -> str:
    while a != b:
        while index[a] > index[b]:
            a = idom[a]
        while index[b] > index[a]:
            b = idom[b]
    return a
