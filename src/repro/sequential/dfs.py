"""Instrumented iterative depth-first search.

DFS is the sequential reference for biconnectivity, strong
connectivity, Euler tours and tree traversals.  Implemented
iteratively: the benchmark sweeps include path graphs thousands of
vertices long, far past Python's recursion limit.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter


def dfs_orders(
    graph: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Tuple[Dict[Hashable, int], Dict[Hashable, int]]:
    """Pre-order and post-order numbers of the DFS from ``root``.

    Children are visited in sorted-id order so the numbering matches
    the Euler-tour-based vertex-centric traversal, which walks the
    id-sorted adjacency lists (§3.4).
    """
    ops = ensure_counter(counter)
    pre: Dict[Hashable, int] = {}
    post: Dict[Hashable, int] = {}
    pre_counter = 0
    post_counter = 0
    # Stack of (vertex, iterator over sorted neighbors).
    pre[root] = pre_counter
    pre_counter += 1
    stack: List[Tuple[Hashable, list, int]] = [
        (root, graph.sorted_neighbors(root), 0)
    ]
    ops.add()
    while stack:
        v, nbrs, i = stack.pop()
        ops.add()
        advanced = False
        while i < len(nbrs):
            u = nbrs[i]
            i += 1
            ops.add()
            if u not in pre:
                stack.append((v, nbrs, i))
                pre[u] = pre_counter
                pre_counter += 1
                stack.append((u, graph.sorted_neighbors(u), 0))
                advanced = True
                break
        if not advanced:
            post[v] = post_counter
            post_counter += 1
    return pre, post


def dfs_tree(
    graph: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, Optional[Hashable]]:
    """DFS parent pointers from ``root`` (sorted-neighbor order)."""
    ops = ensure_counter(counter)
    parent: Dict[Hashable, Optional[Hashable]] = {root: None}
    stack = [root]
    ops.add()
    while stack:
        v = stack.pop()
        ops.add()
        for u in reversed(graph.sorted_neighbors(v)):
            ops.add()
            if u not in parent:
                parent[u] = v
                stack.append(u)
    return parent
