"""Tree analytics: the paper's §3.4 pipeline end to end.

A file-system-like random tree is processed with the row 8–9
machinery — Euler tour, list ranking, pre/post-order numbering — and
the orders are used the way a real system would: pre/post intervals
give O(1) ancestor tests, and the bi-connectivity pipeline (row 5)
finds the cut edges of a network built on top of the tree.

Run with::

    python examples/tree_analytics.py
"""

import random

from repro.algorithms import (
    biconnected_components,
    euler_tour,
    tour_from_successors,
    tree_traversal,
)
from repro.graph import random_tree
from repro.sequential import euler_orders


def main() -> None:
    tree = random_tree(40, seed=21)
    root = 0
    print(f"tree: n={tree.num_vertices}, root={root}")

    # --- Euler tour (row 8): 2 supersteps, BPPA ------------------------
    successors, tour_run = euler_tour(tree)
    tour = tour_from_successors(
        successors, (root, tree.sorted_neighbors(root)[0])
    )
    print(
        f"\nEuler tour: {len(tour)} directed edges in "
        f"{tour_run.num_supersteps} supersteps; starts "
        f"{tour[:4]} ..."
    )

    # --- Pre/post orders (row 9): the list-ranking pipeline ------------
    result = tree_traversal(tree, root)
    pre, post = result.output
    assert (pre, post) == euler_orders(tree, root)
    print(
        f"pre/post orders from {len(result.stages)} Pregel jobs, "
        f"{result.num_supersteps} supersteps total"
    )

    # Ancestor queries via interval containment.
    def is_ancestor(u, v) -> bool:
        return pre[u] <= pre[v] and post[v] <= post[u]

    rng = random.Random(3)
    samples = [(rng.randrange(40), rng.randrange(40)) for _ in range(5)]
    print("\nancestor tests (pre/post intervals):")
    for u, v in samples:
        print(f"  is_ancestor({u:>2}, {v:>2}) = {is_ancestor(u, v)}")

    # --- Cut edges of a tree-plus-shortcuts network (row 5) ------------
    network = tree.to_graph()
    for _ in range(12):
        u, v = rng.randrange(40), rng.randrange(40)
        if u != v and not network.has_edge(u, v):
            network.add_edge(u, v)
    labels = biconnected_components(network.freeze()).output
    by_component = {}
    for edge, label in labels.items():
        by_component.setdefault(label, []).append(tuple(sorted(edge)))
    bridges = [
        edges[0] for edges in by_component.values() if len(edges) == 1
    ]
    print(
        f"\nnetwork with shortcuts: m={network.num_edges}, "
        f"bi-connected components={len(by_component)}, "
        f"bridges={len(bridges)}"
    )
    print(f"  bridges: {sorted(bridges)[:8]}{' ...' if len(bridges) > 8 else ''}")


if __name__ == "__main__":
    main()
