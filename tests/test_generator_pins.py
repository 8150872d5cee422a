"""Pins the frozen CSR columns of every generator and of the edge-list
reader.

Each case freezes the graph a generator (or ``read_edge_list``) returns
with ``CsrSnapshot.from_graph`` and hashes what a run reads of it: the
vertex ids in position order, the out- and in-columns (offsets,
target positions, weights), every vertex label and every edge label
in ``edges(data=True)`` order.  The digests were recorded from the
dict-of-dicts builders; a change to how an input is built must leave
every one of them as it is, so the digests must not be edited to make
a change pass.  Bipartite tuple ids and Barabási–Albert's target set
must not depend on the string-hash salt, so the determinism job runs
this module under several ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.graph import (
    CsrSnapshot,
    balanced_binary_tree,
    barabasi_albert_graph,
    caterpillar_tree,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    linked_list_graph,
    path_graph,
    random_bipartite_graph,
    random_labeled_digraph,
    random_query_graph,
    random_tree,
    random_weighted_graph,
    read_edge_list,
    star_graph,
)

LABELS = ("a", "b", "c")

EDGE_LISTS = {
    "undirected-weighted": "# undirected\n0 1\n1 2 2.5\n2 0 0.5\n3\n",
    "directed-string-ids": "# directed\na b\nb c 3\nc a\nd\nb a 1.5\n",
    "mixed-ids-self-loop": "0 x 4\nx x\n5 0\n7\n",
}


def _bipartite(*args):
    graph, left, right = random_bipartite_graph(*args)
    return graph


CASES = {
    "path-1": lambda: path_graph(1),
    "path-7": lambda: path_graph(7),
    "cycle-2": lambda: cycle_graph(2),
    "cycle-9": lambda: cycle_graph(9),
    "star-1": lambda: star_graph(1),
    "star-6": lambda: star_graph(6),
    "complete-1": lambda: complete_graph(1),
    "complete-6": lambda: complete_graph(6),
    "grid-1x4": lambda: grid_graph(1, 4),
    "grid-4x5": lambda: grid_graph(4, 5),
    "er-30-s1": lambda: erdos_renyi_graph(30, 0.15, seed=1),
    "er-30-s2": lambda: erdos_renyi_graph(30, 0.15, seed=2),
    "er-directed-25-s3": lambda: erdos_renyi_graph(
        25, 0.1, seed=3, directed=True
    ),
    "connected-er-30-s1": lambda: connected_erdos_renyi_graph(30, 0.05, 1),
    "connected-er-40-s7": lambda: connected_erdos_renyi_graph(40, 0.02, 7),
    "ba-3-k4": lambda: barabasi_albert_graph(3, 4, 1),
    "ba-200-k3-s1": lambda: barabasi_albert_graph(200, 3, 1),
    "ba-300-k8-s2": lambda: barabasi_albert_graph(300, 8, 2),
    "tree-40-s1": lambda: random_tree(40, 1),
    "tree-60-s5": lambda: random_tree(60, 5),
    "binary-tree-0": lambda: balanced_binary_tree(0),
    "binary-tree-4": lambda: balanced_binary_tree(4),
    "caterpillar-5x2": lambda: caterpillar_tree(5, 2),
    "caterpillar-8x3": lambda: caterpillar_tree(8, 3),
    "weighted-30-s1": lambda: random_weighted_graph(30, 0.1, seed=1),
    "weighted-uniform-25-s2": lambda: random_weighted_graph(
        25, 0.2, seed=2, distinct_weights=False
    ),
    "weighted-unconnected-20-s3": lambda: random_weighted_graph(
        20, 0.1, seed=3, connected=False
    ),
    "bipartite-6x8-s1": lambda: _bipartite(6, 8, 0.3, 1),
    "bipartite-12x10-s4": lambda: _bipartite(12, 10, 0.2, 4),
    "labeled-digraph-30-s1": lambda: random_labeled_digraph(
        30, 0.1, LABELS, seed=1
    ),
    "labeled-digraph-20-s6": lambda: random_labeled_digraph(
        20, 0.2, LABELS, seed=6
    ),
    "query-5-s1": lambda: random_query_graph(5, LABELS, seed=1),
    "query-8-s2": lambda: random_query_graph(
        8, LABELS, seed=2, extra_edge_prob=2.0
    ),
    "linked-list-10": lambda: linked_list_graph(10),
    "linked-list-12-s3": lambda: linked_list_graph(12, seed=3),
}
CASES.update({
    f"edge-list-{name}": (lambda text=text: read_edge_list(io.StringIO(text)))
    for name, text in EDGE_LISTS.items()
})

PINNED = {
    "ba-200-k3-s1": "87b966f85792d574",
    "ba-3-k4": "f6cbf1cf3e211eaa",
    "ba-300-k8-s2": "c6c70c5625bfa11b",
    "binary-tree-0": "26043877d617632a",
    "binary-tree-4": "3b920824c416f461",
    "bipartite-12x10-s4": "bd2262578e09f557",
    "bipartite-6x8-s1": "7ce29c520465e15d",
    "caterpillar-5x2": "1401001604b4099d",
    "caterpillar-8x3": "55a293a721ea53b0",
    "complete-1": "26043877d617632a",
    "complete-6": "99ac4d9ac8d9e28c",
    "connected-er-30-s1": "c939432172cde3a4",
    "connected-er-40-s7": "f19d3841279fa953",
    "cycle-2": "002e318467ec4b12",
    "cycle-9": "5e47c3aa3335a09a",
    "edge-list-directed-string-ids": "4ff8df3c9206b14c",
    "edge-list-mixed-ids-self-loop": "0d8cc7e47e8c08bf",
    "edge-list-undirected-weighted": "4b33d1fd8bccca72",
    "er-30-s1": "e7dfb8b63ebcd923",
    "er-30-s2": "693b6fbcf1e8a196",
    "er-directed-25-s3": "7ccd7d1a30989a1e",
    "grid-1x4": "cc554a8f12bfeebe",
    "grid-4x5": "fe0a929b1bc18be1",
    "labeled-digraph-20-s6": "ac7b1d5ff77aba10",
    "labeled-digraph-30-s1": "4d1d1578aede821d",
    "linked-list-10": "04c9ee2c90cccb6b",
    "linked-list-12-s3": "199aa6ef38203ccb",
    "path-1": "26043877d617632a",
    "path-7": "c5cbdda0abf89443",
    "query-5-s1": "dd93464c3254de24",
    "query-8-s2": "f540f3d8d867e030",
    "star-1": "26043877d617632a",
    "star-6": "3189639bd8e57dd4",
    "tree-40-s1": "ab8eaf1bc3399ee1",
    "tree-60-s5": "f07ca51c845f3d0c",
    "weighted-30-s1": "fb970486301c26cb",
    "weighted-unconnected-20-s3": "5a6673f6abbcceb7",
    "weighted-uniform-25-s2": "27b1dbff93478388",
}


def frozen_digest(graph) -> str:
    """First 16 hex digits of the SHA-256 of ``graph``'s frozen
    columns, vertex labels and edge labels."""
    snapshot = CsrSnapshot.from_graph(graph)
    columns = [
        None if col is None else list(col)
        for col in snapshot.edge_columns()
    ]
    ids = list(snapshot.vertices())
    text = repr((
        snapshot.directed,
        snapshot.num_edges,
        ids,
        columns,
        [snapshot.label(v) for v in ids],
        [(u, v, d.label) for u, v, d in snapshot.edges(data=True)],
    ))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_frozen_columns_are_pinned(case):
    assert frozen_digest(CASES[case]()) == PINNED[case]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)
