"""The critical tree of an invitation graph.

Each participant's parent is the nearest agent whose absence would cut her
off from the sponsor; this is exactly the immediate-dominator tree of the
induced graph rooted at the sponsor.  The tree is computed with the
iterative data-flow algorithm (Cooper/Harvey/Kennedy): simple, easy to
audit, and fast enough for desk-scale instances.  ``immediate_dominators``
runs that pass on any successor map, so ``_rehangs`` reuses it on a small
skeleton graph to find where branch roots hang once a branch is silenced.

One depth-first pass over the finished tree then indexes it by preorder
intervals: every participant's preorder position, subtree size and depth.
A branch (an agent together with everyone who depends on her) is the
contiguous run of the preorder starting at her, so membership is one
comparison of positions and the whole index takes O(n) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

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


def critical_tree(graph: InducedGraph) -> CriticalTree:
    """Build the critical tree of ``graph`` restricted to reachable agents."""
    parent = immediate_dominators(graph.successors, SPONSOR)
    children: dict[str, list[str]] = {v: [] for v in [SPONSOR, *parent]}
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


def immediate_dominators(successors: Mapping[str, Sequence[str]],
                         root: str) -> dict[str, str]:
    """Immediate dominator of every vertex reachable from ``root`` (itself
    excluded), by the Cooper/Harvey/Kennedy iteration over ``successors``."""
    order = _reverse_postorder(successors, root)
    index = {v: k for k, v in enumerate(order)}
    preds: dict[str, list[str]] = {v: [] for v in order}
    for u in order:
        for v in successors.get(u, ()):
            preds[v].append(u)

    idom: dict[str, str | None] = {v: None for v in order}
    idom[root] = root
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
    return {v: idom[v] for v in order[1:]}


def _rehangs(graph: InducedGraph, tree: CriticalTree) -> list[dict[int, str]]:
    """For each silenced branch ``b``, where the branch roots hang.

    A root the sponsor invites stays under her.  Another root may move
    under an agent of another branch, and an invitation leaving a branch
    can only enter another branch at its root.  So the new parents are
    the dominators of a skeleton: the sponsor, the branch roots, the
    agents inviting across branches and the tree LCAs of those, each
    branch linked along its own tree, plus the crossing invitations, with
    ``b``'s members other than its root left out.  ``result[b][c]`` is the
    agent under which branch ``c``'s root hangs with ``b`` silenced;
    roots left under the sponsor are absent.
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


def _reverse_postorder(successors: Mapping[str, Sequence[str]], root: str) -> list[str]:
    order: list[str] = []
    seen = {root}
    stack: list[tuple[str, int]] = [(root, 0)]
    while stack:
        v, i = stack[-1]
        succ = successors.get(v, ())
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
