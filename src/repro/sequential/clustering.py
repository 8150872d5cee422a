"""Sequential per-vertex triangle counts and clustering coefficients
(the §3.8 LCC baseline): forward-neighbor intersection attributing
each triangle to all three corners — ``O(m^{3/2})`` on graphs of
bounded arboricity."""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def triangle_counts(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, int]:
    """Triangles through each vertex."""
    ops = ensure_counter(counter)
    order = {
        v: rank
        for rank, v in enumerate(sorted(graph.vertices(), key=repr))
    }
    forward: Dict[Hashable, Set[Hashable]] = {}
    for v in graph.vertices():
        ops.add()
        forward[v] = {
            u for u in graph.neighbors(v) if order[u] > order[v]
        }
        ops.add(graph.degree(v))
    counts: Dict[Hashable, int] = {v: 0 for v in graph.vertices()}
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
                    counts[v] += 1
                    counts[u] += 1
                    counts[w] += 1
    return counts


def local_clustering(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, float]:
    """Per-vertex clustering coefficients (degree < 2 gives 0)."""
    ops = ensure_counter(counter)
    counts = triangle_counts(graph, ops)
    out: Dict[Hashable, float] = {}
    for v in graph.vertices():
        degree = graph.degree(v)
        ops.add()
        if degree < 2:
            out[v] = 0.0
        else:
            out[v] = 2.0 * counts[v] / (degree * (degree - 1))
    return out


def average_clustering(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> float:
    """The mean LCC (0 for the empty graph)."""
    coefficients = local_clustering(graph, counter)
    if not coefficients:
        return 0.0
    return sum(coefficients.values()) / len(coefficients)
