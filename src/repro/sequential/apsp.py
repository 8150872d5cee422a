"""Sequential all-pairs shortest paths for unweighted graphs
(Table 1 row 17).

The paper's reference bound is ``O(mn)`` (citing Chan's algorithm; the
classic BFS-from-every-vertex attains the same bound and is the
practical realization)."""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter
from repro.sequential.bfs import bfs_distances


def all_pairs_shortest_paths(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, Dict[Hashable, int]]:
    """``{source: {target: hop distance}}`` via ``n`` BFS sweeps.

    Unreachable pairs are simply absent, so the result doubles as a
    reachability relation.
    """
    return {
        v: bfs_distances(graph, v, counter) for v in graph.vertices()
    }
