"""Rooted-tree helpers shared by the tree workloads (Table 1 rows 8–9)
and by the Tarjan–Vishkin biconnectivity pipeline (row 5)."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from repro.errors import NotATreeError
from repro.graph.snapshot import CsrSnapshot
from repro.graph.properties import require_tree


def root_tree(
    tree: CsrSnapshot, root: Hashable
) -> Tuple[Dict[Hashable, Optional[Hashable]], Dict[Hashable, int]]:
    """Orient an undirected tree away from ``root``.

    Returns ``(parent, depth)`` maps; ``parent[root] is None``.
    """
    require_tree(tree)
    if not tree.has_vertex(root):
        raise NotATreeError(f"root {root!r} is not in the tree")
    parent: Dict[Hashable, Optional[Hashable]] = {root: None}
    depth: Dict[Hashable, int] = {root: 0}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in tree.neighbors(u):
            if v not in parent:
                parent[v] = u
                depth[v] = depth[u] + 1
                queue.append(v)
    return parent, depth


def children_map(
    parent: Dict[Hashable, Optional[Hashable]]
) -> Dict[Hashable, List[Hashable]]:
    """Invert a parent map into sorted children lists."""
    children: Dict[Hashable, List[Hashable]] = {v: [] for v in parent}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
    for kids in children.values():
        kids.sort(key=repr)
    return children


def subtree_sizes(
    parent: Dict[Hashable, Optional[Hashable]]
) -> Dict[Hashable, int]:
    """Number of vertices in each vertex's subtree (itself included)."""
    children = children_map(parent)
    root = next(v for v, p in parent.items() if p is None)
    size: Dict[Hashable, int] = {}
    stack: List[Tuple[Hashable, bool]] = [(root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            size[v] = 1 + sum(size[c] for c in children[v])
        else:
            stack.append((v, True))
            for c in children[v]:
                stack.append((c, False))
    return size


def euler_tour_edges(tree: CsrSnapshot, root: Hashable) -> List[Tuple]:
    """The Euler tour of ``tree`` as an ordered list of directed edges.

    This is the *sequential reference* tour used to validate the
    vertex-centric construction: it follows the paper's convention that
    the successor of directed edge ``(u, v)`` is ``(v, next_v(u))``
    where ``next_v`` cycles through ``v``'s id-sorted adjacency list.
    The tour starts at ``(root, first(root))`` and visits each of the
    ``2(n-1)`` directed edges exactly once.
    """
    require_tree(tree)
    if tree.num_vertices == 1:
        return []
    sorted_adj = {v: tree.sorted_neighbors(v) for v in tree.vertices()}
    next_of: Dict[Tuple, Tuple] = {}
    for v, nbrs in sorted_adj.items():
        for i, u in enumerate(nbrs):
            nxt = nbrs[(i + 1) % len(nbrs)]
            next_of[(u, v)] = (v, nxt)
    start = (root, sorted_adj[root][0])
    tour = [start]
    cur = next_of[start]
    while cur != start:
        tour.append(cur)
        cur = next_of[cur]
    return tour
