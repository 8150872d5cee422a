"""Sequential matching baselines (Table 1 rows 13–14).

* **Maximum-weight matching, ½-approximation.**  The paper's reference
  is Preis's linear-time locally-dominant algorithm.  We provide two
  faces of that idea:

  - :func:`locally_dominant_matching` — processes edges in decreasing
    weight order; with distinct weights this computes exactly the
    (unique) locally-dominant matching, the same matching the
    vertex-centric program converges to, so the two sides can be
    compared edge-for-edge.  ``O(m log m)`` because of the sort.
  - :func:`path_growing_matching` — Drake–Hougardy path growing,
    ``O(m)`` with no sorting, the linear-time ½-approximation standing
    in for Preis's bound in op counts.

* **Bipartite maximal matching.**  The reference is the greedy scan —
  ``O(m + n)``.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter

Edge = Tuple[Hashable, Hashable]


def matching_weight(graph: CsrSnapshot, edges: Sequence[Edge]) -> float:
    """Total weight of a matching."""
    return sum(graph.weight(u, v) for u, v in edges)


def locally_dominant_matching(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> List[Edge]:
    """Greedy over edges in decreasing-weight order (ties by ids).

    Equals the unique locally-dominant matching when weights are
    distinct; always a maximal matching and a ½-approximation of the
    maximum weight matching.
    """
    ops = ensure_counter(counter)
    import math

    all_edges = [
        (-data.weight, repr(u), repr(v), u, v)
        for u, v, data in graph.edges(data=True)
        if u != v
    ]
    ops.add(len(all_edges))
    if len(all_edges) > 1:
        ops.add(
            int(len(all_edges) * max(1, math.log2(len(all_edges))))
        )
    all_edges.sort()
    matched: Set[Hashable] = set()
    result: List[Edge] = []
    for _, _, _, u, v in all_edges:
        ops.add()
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            result.append((u, v))
    return result


def path_growing_matching(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> List[Edge]:
    """Drake–Hougardy path-growing ½-approximation, ``O(m)``.

    Grows heaviest-edge paths, alternately assigning edges to two
    candidate matchings, and returns the heavier one.
    """
    ops = ensure_counter(counter)
    removed: Set[Hashable] = set()
    # Mutable residual adjacency: neighbor -> edge weight.
    adj: Dict[Hashable, Dict[Hashable, float]] = {
        v: {u: w for u, w in graph.out_edge_items(v) if u != v}
        for v in graph.vertices()
    }
    ops.add(graph.num_vertices + 2 * graph.num_edges)
    m1: List[Edge] = []
    m2: List[Edge] = []
    w1 = w2 = 0.0
    for start in graph.vertices():
        ops.add()
        if start in removed or not adj[start]:
            continue
        v = start
        side = 0
        while v is not None and adj[v]:
            # Heaviest remaining edge at v (ties by neighbor id).
            best_u, best_w = None, None
            for u, w in adj[v].items():
                ops.add()
                if (
                    best_w is None
                    or w > best_w
                    or (w == best_w and repr(u) < repr(best_u))
                ):
                    best_u, best_w = u, w
            if side == 0:
                m1.append((v, best_u))
                w1 += best_w
            else:
                m2.append((v, best_u))
                w2 += best_w
            side = 1 - side
            # Remove v from the residual graph.
            removed.add(v)
            for u in adj[v]:
                adj[u].pop(v, None)
                ops.add()
            adj[v] = {}
            v = best_u if best_u not in removed else None
    chosen = m1 if w1 >= w2 else m2
    # The heavier path-matching can repeat endpoints across different
    # paths' parity; filter greedily to a valid matching.
    matched: Set[Hashable] = set()
    result: List[Edge] = []
    for u, v in chosen:
        ops.add()
        if u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            result.append((u, v))
    return result


def greedy_maximal_matching(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> List[Edge]:
    """Greedy maximal matching by edge scan — ``O(m + n)``."""
    ops = ensure_counter(counter)
    matched: Set[Hashable] = set()
    result: List[Edge] = []
    for u, v in graph.edges():
        ops.add()
        if u != v and u not in matched and v not in matched:
            matched.add(u)
            matched.add(v)
            result.append((u, v))
    return result


def greedy_bipartite_matching(
    graph: CsrSnapshot,
    left: Sequence[Hashable],
    counter: Optional[OpCounter] = None,
) -> List[Edge]:
    """Greedy maximal matching scanning left vertices in order
    (Table 1 row 14's sequential reference, ``O(m + n)``)."""
    ops = ensure_counter(counter)
    matched: Set[Hashable] = set()
    result: List[Edge] = []
    for u in left:
        ops.add()
        if u in matched:
            continue
        for v in graph.sorted_neighbors(u):
            ops.add()
            if v not in matched:
                matched.add(u)
                matched.add(v)
                result.append((u, v))
                break
    return result
