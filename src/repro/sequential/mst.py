"""Sequential minimum spanning tree baselines (Table 1 row 11).

The paper's theoretical reference is Chazelle's ``O(m α(m, n))``
algorithm, which has no practical implementation anywhere; the paper
itself falls back to "the more widely-used Prim's algorithm" as the
practical sequential comparator.  We provide:

* :func:`prim` — Prim with a pluggable heap (binary or pairing),
  ``O(m + n log n)`` with the pairing heap's decrease-key;
* :func:`kruskal` — union-find Kruskal, ``O(m log m)``;
* :func:`boruvka` — sequential Boruvka, ``O(m log n)`` — the exact
  sequential analogue of the vertex-centric algorithm, useful for
  ablation.

All return ``(edges, total_weight)`` for the spanning forest (tree if
connected).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter
from repro.sequential.heaps import BinaryHeap, PairingHeap
from repro.sequential.unionfind import UnionFind

Edge = Tuple[Hashable, Hashable]


def prim(
    graph: CsrSnapshot,
    counter: Optional[OpCounter] = None,
    heap: str = "pairing",
) -> Tuple[List[Edge], float]:
    """Prim's algorithm per connected component.

    ``heap`` selects ``"pairing"`` (true decrease-key, the Fibonacci
    stand-in) or ``"binary"`` (lazy deletion).
    """
    ops = ensure_counter(counter)
    if heap not in ("pairing", "binary"):
        raise ValueError(f"unknown heap kind {heap!r}")
    in_tree: Dict[Hashable, bool] = {}
    edges: List[Edge] = []
    total = 0.0
    for start in graph.vertices():
        ops.add()
        if start in in_tree:
            continue
        pq = PairingHeap(ops) if heap == "pairing" else BinaryHeap(ops)
        best_edge: Dict[Hashable, Hashable] = {}
        pq.insert(start, 0.0)
        while not pq.is_empty():
            v, key = pq.pop_min()
            if v in in_tree:
                continue
            in_tree[v] = True
            if v in best_edge:
                edges.append((best_edge[v], v))
                total += key
            for u, w in graph.out_edge_items(v):
                ops.add()
                if u in in_tree:
                    continue
                if pq.insert(u, w):
                    best_edge[u] = v
    return edges, total


def kruskal(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Tuple[List[Edge], float]:
    """Kruskal's algorithm: sort edges, union-find the forest."""
    ops = ensure_counter(counter)
    all_edges = [
        (data.weight, u, v) for u, v, data in graph.edges(data=True)
    ]
    ops.add(len(all_edges))
    # Charge the comparison sort.
    import math

    if len(all_edges) > 1:
        ops.add(
            int(len(all_edges) * max(1, math.log2(len(all_edges))))
        )
    all_edges.sort(key=lambda t: (t[0], repr(t[1]), repr(t[2])))
    uf = UnionFind(graph.vertices(), counter=ops)
    edges: List[Edge] = []
    total = 0.0
    for w, u, v in all_edges:
        if uf.union(u, v):
            edges.append((u, v))
            total += w
    return edges, total


def kruskal_counting_sort(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Tuple[List[Edge], float]:
    """Kruskal with a counting sort on integer weights — the
    near-linear sequential MST standing in for Chazelle's
    ``O(m α(m, n))`` algorithm (no implementation of which exists).

    Requires integer-valued weights (as produced by
    ``random_weighted_graph(distinct_weights=True)``); buckets cost
    ``O(m)`` because that generator draws weights from a range linear
    in ``m``.  With near-constant amortized union-find, total cost is
    ``O(m + n)`` ops — the comparison class the paper's row 11 uses.
    """
    ops = ensure_counter(counter)
    buckets: Dict[int, List[Edge]] = {}
    for u, v, data in graph.edges(data=True):
        ops.add()
        weight = int(data.weight)
        if weight != data.weight:
            raise ValueError(
                "kruskal_counting_sort requires integer weights"
            )
        buckets.setdefault(weight, []).append((u, v))
    uf = UnionFind(graph.vertices(), counter=ops)
    edges: List[Edge] = []
    total = 0.0
    for weight in sorted(buckets):
        ops.add()
        for u, v in buckets[weight]:
            if uf.union(u, v):
                edges.append((u, v))
                total += weight
    return edges, total


def boruvka(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Tuple[List[Edge], float]:
    """Sequential Boruvka: rounds of per-component minimum edges.

    Assumes distinct edge weights (ties broken by endpoint ids to stay
    safe); ``O(m log n)``.
    """
    ops = ensure_counter(counter)
    uf = UnionFind(graph.vertices(), counter=ops)
    edges: List[Edge] = []
    total = 0.0
    while True:
        # Cheapest outgoing edge per current component.
        cheapest: Dict[Hashable, Tuple[float, str, Edge]] = {}
        found = False
        for u, v, data in graph.edges(data=True):
            ops.add()
            ru, rv = uf.find(u), uf.find(v)
            if ru == rv:
                continue
            key = (data.weight, repr(u), repr(v))
            for root in (ru, rv):
                if root not in cheapest or key < cheapest[root][:3]:
                    cheapest[root] = (
                        data.weight,
                        repr(u),
                        repr(v),
                        (u, v),
                    )
            found = True
        if not found:
            break
        for weight, _, _, (u, v) in cheapest.values():
            ops.add()
            if uf.union(u, v):
                edges.append((u, v))
                total += weight
    return edges, total
