"""Sequential PageRank by power iteration — Table 1 row 2's reference.

One iteration scans every edge once: ``O(m)`` per iteration, ``O(mK)``
total for ``K`` iterations, matching the complexity the paper assigns
the sequential side.

Conventions match the Pregel formulation in the paper (§3.2): ranks
start at ``1/n`` and update to ``(1 - α)/n + α · Σ incoming``, with
``α`` the *damping* factor (the paper calls it the "teleportation
probability"; its formula makes clear it multiplies the link mass).
Dangling vertices (no out-edges) leak mass exactly as in the Pregel
version, so both sides stay numerically comparable.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def pagerank(
    graph: CsrSnapshot,
    damping: float = 0.85,
    num_iterations: Optional[int] = 30,
    tolerance: Optional[float] = None,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, float]:
    """Power-iteration PageRank.

    Stops after ``num_iterations``, or earlier when the L1 change
    drops below ``tolerance`` (if given).  Returns vertex -> rank.
    """
    ops = ensure_counter(counter)
    n = graph.num_vertices
    if n == 0:
        return {}
    rank = {v: 1.0 / n for v in graph.vertices()}
    base = (1.0 - damping) / n
    iterations = num_iterations if num_iterations is not None else 10**9
    for _ in range(iterations):
        incoming = {v: 0.0 for v in graph.vertices()}
        for u in graph.vertices():
            out_deg = graph.out_degree(u)
            ops.add()
            if out_deg == 0:
                continue
            share = rank[u] / out_deg
            for v in graph.neighbors(u):
                incoming[v] += share
                ops.add()
        new_rank = {
            v: base + damping * incoming[v] for v in graph.vertices()
        }
        ops.add(n)
        if tolerance is not None:
            delta = sum(
                abs(new_rank[v] - rank[v]) for v in graph.vertices()
            )
            ops.add(n)
            rank = new_rank
            if delta < tolerance:
                break
        else:
            rank = new_rank
    return rank
