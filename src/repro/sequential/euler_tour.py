"""Sequential Euler tour of a tree (Table 1 row 8's reference,
``O(n)``).

For each vertex ``v`` with id-sorted neighbors, the successor of
directed edge ``(u, v)`` is ``(v, next_v(u))`` where ``next_v`` cycles
``v``'s adjacency list (§3.4.1).  Building the successor map touches
every directed edge once — ``O(n)`` on a tree.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.graph.properties import require_tree
from repro.metrics.opcounter import OpCounter, ensure_counter

Edge = Tuple[Hashable, Hashable]


def euler_tour_successors(
    tree: CsrSnapshot, counter: Optional[OpCounter] = None
) -> Dict[Edge, Edge]:
    """The Euler-tour successor of every directed tree edge."""
    require_tree(tree)
    ops = ensure_counter(counter)
    nxt: Dict[Edge, Edge] = {}
    for v in tree.vertices():
        nbrs = tree.sorted_neighbors(v)
        ops.add()
        for i, u in enumerate(nbrs):
            nxt[(u, v)] = (v, nbrs[(i + 1) % len(nbrs)])
            ops.add()
    return nxt


def euler_tour(
    tree: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> List[Edge]:
    """The tour as an ordered edge list starting at
    ``(root, first(root))``."""
    ops = ensure_counter(counter)
    if tree.num_vertices <= 1:
        require_tree(tree)
        return []
    nxt = euler_tour_successors(tree, ops)
    start = (root, tree.sorted_neighbors(root)[0])
    tour = [start]
    cur = nxt[start]
    while cur != start:
        tour.append(cur)
        cur = nxt[cur]
        ops.add()
    return tour
