"""Sequential triangle counting by forward-neighbor intersection —
the baseline for the §3.8 hard-workloads bench (``O(m^{3/2})`` on
graphs with bounded arboricity)."""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def count_triangles(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> int:
    """Count triangles in an undirected graph.

    Uses the node-iterator-with-orientation trick: each edge is
    directed from lower to higher id (by ``repr``) and each triangle
    is found exactly once as a directed wedge whose endpoints are
    adjacent.
    """
    ops = ensure_counter(counter)
    order = {
        v: rank
        for rank, v in enumerate(
            sorted(graph.vertices(), key=repr)
        )
    }
    forward: Dict[Hashable, Set[Hashable]] = {}
    for v in graph.vertices():
        ops.add()
        forward[v] = {
            u for u in graph.neighbors(v) if order[u] > order[v]
        }
        ops.add(graph.degree(v))
    count = 0
    for v in graph.vertices():
        fv = forward[v]
        for u in fv:
            ops.add()
            smaller, larger = (
                (fv, forward[u])
                if len(fv) <= len(forward[u])
                else (forward[u], fv)
            )
            for w in smaller:
                ops.add()
                if w in larger:
                    count += 1
    return count
