"""Instrumented breadth-first search primitives.

BFS is the paper's sequential reference (Hopcroft–Tarjan [8]) for
connectivity, spanning trees, unweighted distances and — run from every
vertex — the ``O(mn)`` diameter/APSP bound.  Every edge scan and queue
operation charges one unit to the :class:`OpCounter`.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def bfs_distances(
    graph: CsrSnapshot,
    source: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, int]:
    """Hop distances from ``source`` (reachable vertices only)."""
    ops = ensure_counter(counter)
    dist = {source: 0}
    queue = deque([source])
    ops.add()
    while queue:
        u = queue.popleft()
        ops.add()
        for v in graph.neighbors(u):
            ops.add()
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def bfs_tree(
    graph: CsrSnapshot,
    source: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, Optional[Hashable]]:
    """BFS parent pointers from ``source`` (root maps to ``None``)."""
    ops = ensure_counter(counter)
    parent: Dict[Hashable, Optional[Hashable]] = {source: None}
    queue = deque([source])
    ops.add()
    while queue:
        u = queue.popleft()
        ops.add()
        for v in graph.neighbors(u):
            ops.add()
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def bfs_components(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, Hashable]:
    """Connected-component labels: each vertex maps to the smallest
    vertex id of its component (matching Hash-Min's "color")."""
    ops = ensure_counter(counter)
    label: Dict[Hashable, Hashable] = {}
    for start in graph.vertices():
        ops.add()
        if start in label:
            continue
        members = list(bfs_distances(graph, start, ops))
        color = min(members)
        for v in members:
            label[v] = color
            ops.add()
    return label


def bfs_spanning_forest(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> List[Tuple[Hashable, Hashable]]:
    """A spanning forest as a list of tree edges (BFS per component)."""
    ops = ensure_counter(counter)
    seen: Dict[Hashable, bool] = {}
    edges: List[Tuple[Hashable, Hashable]] = []
    for start in graph.vertices():
        ops.add()
        if start in seen:
            continue
        parent = bfs_tree(graph, start, ops)
        for v, p in parent.items():
            seen[v] = True
            if p is not None:
                edges.append((p, v))
    return edges
