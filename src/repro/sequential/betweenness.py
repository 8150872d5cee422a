"""Brandes' betweenness centrality (Table 1 row 15's reference,
``O(mn)`` for unweighted graphs), plus the weighted variant
(Dijkstra-based, ``O(nm + n² log n)``) that §3.8 point 4 lists among
the workloads whose vertex-centric feasibility the paper calls
unknown — the reference for our answer in
:mod:`repro.algorithms.betweenness_weighted`."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, Optional

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter
from repro.sequential.heaps import PairingHeap


def betweenness_centrality(
    graph: CsrSnapshot,
    counter: Optional[OpCounter] = None,
    sources: Optional[Iterable[Hashable]] = None,
    normalized: bool = False,
) -> Dict[Hashable, float]:
    """Exact (or source-sampled) betweenness for unweighted graphs.

    ``sources`` restricts the outer loop (the paper's row is the full
    ``O(mn)`` computation; benches use sampling to keep sweeps
    tractable — both sides sample the same sources so the comparison
    stays fair).  With ``normalized`` the undirected convention divides
    by 2.
    """
    ops = ensure_counter(counter)
    bc: Dict[Hashable, float] = {v: 0.0 for v in graph.vertices()}
    source_list = (
        list(sources) if sources is not None else list(graph.vertices())
    )
    for s in source_list:
        # Forward BFS: shortest-path counts sigma and predecessor DAG.
        sigma: Dict[Hashable, float] = {s: 1.0}
        dist: Dict[Hashable, int] = {s: 0}
        preds: Dict[Hashable, list] = {s: []}
        order = []
        queue = deque([s])
        ops.add()
        while queue:
            v = queue.popleft()
            order.append(v)
            ops.add()
            for w in graph.neighbors(v):
                ops.add()
                if w not in dist:
                    dist[w] = dist[v] + 1
                    sigma[w] = 0.0
                    preds[w] = []
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        # Backward accumulation of dependencies.
        delta: Dict[Hashable, float] = {v: 0.0 for v in order}
        ops.add(len(order))
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
                ops.add()
            if w != s:
                bc[w] += delta[w]
    if normalized and not graph.directed:
        for v in bc:
            bc[v] /= 2.0
    return bc


def weighted_betweenness_centrality(
    graph: CsrSnapshot,
    counter: Optional[OpCounter] = None,
    sources: Optional[Iterable[Hashable]] = None,
) -> Dict[Hashable, float]:
    """Brandes for positively weighted graphs (Dijkstra forward
    phase; dependencies accumulated in decreasing-distance order)."""
    ops = ensure_counter(counter)
    bc: Dict[Hashable, float] = {v: 0.0 for v in graph.vertices()}
    source_list = (
        list(sources) if sources is not None else list(graph.vertices())
    )
    for s in source_list:
        dist: Dict[Hashable, float] = {}
        sigma: Dict[Hashable, float] = {s: 1.0}
        preds: Dict[Hashable, list] = {s: []}
        order = []
        pq = PairingHeap(ops)
        pq.insert(s, 0.0)
        seen = {s: 0.0}
        while not pq.is_empty():
            v, d = pq.pop_min()
            if v in dist:
                continue
            dist[v] = d
            order.append(v)
            for w, weight in graph.out_edge_items(v):
                ops.add()
                nd = d + weight
                if w in dist:
                    continue
                if w not in seen or nd < seen[w] - 1e-12:
                    seen[w] = nd
                    sigma[w] = sigma[v]
                    preds[w] = [v]
                    pq.insert(w, nd)
                elif abs(nd - seen[w]) <= 1e-12:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta: Dict[Hashable, float] = {v: 0.0 for v in order}
        ops.add(len(order))
        for w in reversed(order):
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
                ops.add()
            if w != s:
                bc[w] += delta[w]
    return bc
