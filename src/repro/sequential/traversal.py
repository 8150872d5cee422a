"""Sequential pre-/post-order tree traversal (Table 1 row 9's
reference: a single DFS, ``O(n)``).

Children are visited in sorted-id order, matching the Euler-tour-based
vertex-centric traversal, so the two sides produce identical
numberings and can be compared exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.graph.snapshot import CsrSnapshot
from repro.graph.properties import require_tree
from repro.metrics.opcounter import OpCounter
from repro.sequential.dfs import dfs_orders


def tree_orders(
    tree: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Tuple[Dict[Hashable, int], Dict[Hashable, int]]:
    """``(preorder, postorder)`` numbers of the tree rooted at
    ``root`` (both 0-based)."""
    require_tree(tree)
    return dfs_orders(tree, root, counter)


def preorder(
    tree: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, int]:
    """Pre-order numbers only."""
    pre, _ = tree_orders(tree, root, counter)
    return pre


def postorder(
    tree: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, int]:
    """Post-order numbers only."""
    _, post = tree_orders(tree, root, counter)
    return post


def euler_orders(
    tree: CsrSnapshot,
    root: Hashable,
    counter: Optional[OpCounter] = None,
) -> Tuple[Dict[Hashable, int], Dict[Hashable, int]]:
    """Pre-/post-order induced by the Euler tour (``O(n)``).

    The vertex-centric traversal of §3.4.2 numbers vertices in the
    order the Euler tour first visits (pre) and finishes (post) them;
    the tour enters a vertex's children in *cyclic* sorted order
    starting after the entering edge, which differs from plain
    sorted-children DFS when a parent id falls between child ids.
    This walk of the sequential tour is the exact reference for it.
    """
    from repro.sequential.euler_tour import euler_tour

    ops = counter
    if tree.num_vertices == 1:
        only = next(iter(tree.vertices()))
        return {only: 0}, {only: 0}
    tour = euler_tour(tree, root, ops)
    pre: Dict[Hashable, int] = {root: 0}
    post: Dict[Hashable, int] = {}
    next_pre = 1
    next_post = 0
    for a, b in tour:
        if b not in pre:
            pre[b] = next_pre
            next_pre += 1
        else:
            # Returning from a: the edge (a, parent) finishes a.
            post[a] = next_post
            next_post += 1
    post[root] = next_post
    return pre, post
