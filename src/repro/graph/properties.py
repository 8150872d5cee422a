"""Structural graph properties used for verification and workload setup.

These are *reference* implementations: simple, obviously-correct code
used to check the benchmarked algorithms and to characterize generated
workloads (e.g. the diameter ``δ`` that drives Hash-Min's superstep
count).  They are deliberately not instrumented.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.errors import NotATreeError
from repro.graph.graph import Graph
from repro.graph.snapshot import CsrSnapshot


def bfs_distances(graph: CsrSnapshot, source: Hashable) -> Dict[Hashable, int]:
    """Hop distances from ``source`` to every reachable vertex."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eccentricity(graph: CsrSnapshot, vertex: Hashable) -> int:
    """Largest hop distance from ``vertex`` to any reachable vertex."""
    return max(bfs_distances(graph, vertex).values())


def diameter(graph: CsrSnapshot) -> int:
    """Exact diameter via BFS from every vertex (reference only)."""
    return max(eccentricity(graph, v) for v in graph.vertices())


def connected_components(graph: CsrSnapshot) -> List[Set[Hashable]]:
    """Connected components of an undirected graph, as vertex sets."""
    seen: Set[Hashable] = set()
    components = []
    for start in graph.vertices():
        if start in seen:
            continue
        comp = set(bfs_distances(graph, start))
        seen |= comp
        components.append(comp)
    return components


def is_connected(graph: CsrSnapshot) -> bool:
    """Whether the (undirected) graph is connected."""
    if graph.num_vertices == 0:
        return True
    first = next(iter(graph.vertices()))
    return len(bfs_distances(graph, first)) == graph.num_vertices


def is_tree(graph: CsrSnapshot) -> bool:
    """Whether an undirected graph is a tree."""
    return (
        graph.num_vertices > 0
        and graph.num_edges == graph.num_vertices - 1
        and is_connected(graph)
    )


def require_tree(graph: CsrSnapshot) -> None:
    """Raise :class:`NotATreeError` unless ``graph`` is a tree."""
    if not is_tree(graph):
        raise NotATreeError(
            f"expected a tree, got n={graph.num_vertices} "
            f"m={graph.num_edges} connected={is_connected(graph)}"
        )


def bipartition(graph: CsrSnapshot) -> Optional[Tuple[Set, Set]]:
    """A 2-coloring ``(left, right)`` if bipartite, else ``None``."""
    color: Dict[Hashable, int] = {}
    for start in graph.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    left = {v for v, c in color.items() if c == 0}
    right = {v for v, c in color.items() if c == 1}
    return left, right


def degree_histogram(graph: CsrSnapshot) -> Dict[int, int]:
    """Map ``degree -> number of vertices with that degree``."""
    hist: Dict[int, int] = {}
    for v in graph.vertices():
        d = graph.total_degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def max_degree(graph: CsrSnapshot) -> int:
    """The maximum total degree in the graph (0 for empty graphs)."""
    return max(
        (graph.total_degree(v) for v in graph.vertices()), default=0
    )


def is_valid_coloring(graph: CsrSnapshot, colors: Dict[Hashable, int]) -> bool:
    """Whether ``colors`` assigns different colors to adjacent vertices."""
    for u, v in graph.edges():
        if u == v:
            continue
        if u not in colors or v not in colors:
            return False
        if colors[u] == colors[v]:
            return False
    return True


def is_matching(graph: CsrSnapshot, edges: Iterable[Tuple]) -> bool:
    """Whether ``edges`` is a matching in ``graph`` (edge-disjoint and
    present in the graph)."""
    used: Set[Hashable] = set()
    for u, v in edges:
        if not graph.has_edge(u, v):
            return False
        if u in used or v in used or u == v:
            return False
        used.add(u)
        used.add(v)
    return True


def is_maximal_matching(graph: CsrSnapshot, edges: Iterable[Tuple]) -> bool:
    """Whether ``edges`` is a matching no graph edge can extend."""
    edges = list(edges)
    if not is_matching(graph, edges):
        return False
    used: Set[Hashable] = set()
    for u, v in edges:
        used.add(u)
        used.add(v)
    for u, v in graph.edges():
        if u != v and u not in used and v not in used:
            return False
    return True


def spanning_tree_weight(graph: CsrSnapshot, edges: Iterable[Tuple]) -> float:
    """Total weight of ``edges``, verifying they form a spanning tree."""
    t = Graph()
    for v in graph.vertices():
        t.add_vertex(v)
    total = 0.0
    for u, v in edges:
        total += graph.weight(u, v)
        t.add_edge(u, v)
    require_tree(t.freeze())
    return total
