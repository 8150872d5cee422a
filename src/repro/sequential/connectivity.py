"""Sequential connectivity baselines (Table 1 rows 3, 4, 6, 10).

Connected components, weakly connected components and spanning trees
are all linear-time BFS sweeps (Hopcroft–Tarjan [8] in the paper's
references); this module packages them with the interfaces the paired
benchmark expects.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter
from repro.sequential.bfs import bfs_components, bfs_spanning_forest


def connected_components(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, Hashable]:
    """Component labels (smallest member id) — ``O(m + n)``."""
    return bfs_components(graph, counter)


def weakly_connected_components(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Hashable, Hashable]:
    """WCC of a directed graph: BFS over the underlying undirected
    graph.  Charges the conversion scan, keeping it ``O(m + n)``."""
    ops = ensure_counter(counter)
    undirected = graph.to_undirected()
    ops.add(graph.num_edges + graph.num_vertices)
    return bfs_components(undirected, ops)


def spanning_forest(
    graph: CsrSnapshot, counter: Optional[OpCounter] = None
) -> List[Tuple[Hashable, Hashable]]:
    """A BFS spanning forest — ``O(m + n)``."""
    return bfs_spanning_forest(graph, counter)
