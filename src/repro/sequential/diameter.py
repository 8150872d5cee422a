"""Sequential diameter of an unweighted graph: BFS from every vertex.

Table 1 row 1's sequential reference is the BFS-based ``O(mn)``
computation (the paper cites Roditty–Vassilevska Williams for the
context of faster *approximations*; the exact reference bound is
``O(mn)``).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DisconnectedGraphError
from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter
from repro.sequential.bfs import bfs_distances


def diameter(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> int:
    """Exact diameter via ``n`` BFS traversals — ``O(mn)`` ops.

    Raises :class:`DisconnectedGraphError` if the graph is not
    connected (eccentricities are infinite otherwise).
    """
    best = 0
    n = graph.num_vertices
    for v in graph.vertices():
        dist = bfs_distances(graph, v, counter)
        if len(dist) != n:
            raise DisconnectedGraphError(
                "diameter requires a connected graph"
            )
        ecc = max(dist.values())
        if ecc > best:
            best = ecc
    return best


def eccentricities(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> dict:
    """Per-vertex eccentricities (same BFS sweep as :func:`diameter`)."""
    out = {}
    for v in graph.vertices():
        dist = bfs_distances(graph, v, counter)
        out[v] = max(dist.values())
    return out
