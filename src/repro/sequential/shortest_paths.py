"""Sequential shortest paths (Table 1 row 16's reference).

Dijkstra with a decrease-key heap — the pairing heap stands in for the
paper's Fibonacci heap (``O(m + n log n)``); a binary-heap variant and
Bellman–Ford are included for cross-checks and ablation.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.errors import GraphError
from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter
from repro.sequential.heaps import BinaryHeap, PairingHeap


def dijkstra(
    graph: CsrSnapshot,
    source: Hashable,
    counter: Optional[OpCounter] = None,
    heap: str = "pairing",
) -> Dict[Hashable, float]:
    """Distances from ``source`` (reachable vertices only).

    Requires non-negative weights; raises :class:`GraphError` on a
    negative edge.
    """
    ops = ensure_counter(counter)
    if heap not in ("pairing", "binary"):
        raise ValueError(f"unknown heap kind {heap!r}")
    pq = PairingHeap(ops) if heap == "pairing" else BinaryHeap(ops)
    dist: Dict[Hashable, float] = {}
    pq.insert(source, 0.0)
    while not pq.is_empty():
        v, d = pq.pop_min()
        if v in dist:
            continue
        dist[v] = d
        for u, w in graph.out_edge_items(v):
            ops.add()
            if w < 0:
                raise GraphError(
                    f"negative edge weight on ({v!r}, {u!r})"
                )
            if u not in dist:
                pq.insert(u, d + w)
    return dist


def dijkstra_with_paths(
    graph: CsrSnapshot,
    source: Hashable,
    counter: Optional[OpCounter] = None,
) -> Tuple[Dict[Hashable, float], Dict[Hashable, Optional[Hashable]]]:
    """Distances plus shortest-path-tree parents."""
    ops = ensure_counter(counter)
    pq = PairingHeap(ops)
    dist: Dict[Hashable, float] = {}
    parent: Dict[Hashable, Optional[Hashable]] = {source: None}
    best: Dict[Hashable, float] = {source: 0.0}
    pq.insert(source, 0.0)
    while not pq.is_empty():
        v, d = pq.pop_min()
        if v in dist:
            continue
        dist[v] = d
        for u, w in graph.out_edge_items(v):
            ops.add()
            nd = d + w
            if u not in dist and (u not in best or nd < best[u]):
                best[u] = nd
                parent[u] = v
                pq.insert(u, nd)
    return dist, parent


def dijkstra_to_target(
    graph: CsrSnapshot,
    source: Hashable,
    target: Hashable,
    counter: Optional[OpCounter] = None,
) -> Optional[float]:
    """Early-terminating point-to-point Dijkstra (§3.8 point 1's
    sequential side: an online query touches only the ball around the
    source until the target settles).  Returns ``None`` when the
    target is unreachable."""
    ops = ensure_counter(counter)
    pq = PairingHeap(ops)
    dist: Dict[Hashable, float] = {}
    pq.insert(source, 0.0)
    while not pq.is_empty():
        v, d = pq.pop_min()
        if v in dist:
            continue
        dist[v] = d
        if v == target:
            return d
        for u, w in graph.out_edge_items(v):
            ops.add()
            if u not in dist:
                pq.insert(u, d + w)
    return None


def bellman_ford(
    graph: CsrSnapshot,
    source: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, float]:
    """Textbook Bellman–Ford, ``O(mn)`` — the sequential analogue of
    the Pregel SSSP program (used in ablation benches)."""
    ops = ensure_counter(counter)
    dist: Dict[Hashable, float] = {source: 0.0}
    n = graph.num_vertices
    for _ in range(max(n - 1, 0)):
        changed = False
        for v in list(dist):
            base = dist[v]
            for u, w in graph.out_edge_items(v):
                ops.add()
                nd = base + w
                if u not in dist or nd < dist[u]:
                    dist[u] = nd
                    changed = True
        if not changed:
            break
    return dist
