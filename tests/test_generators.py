"""Tests for the synthetic graph generators."""

import gc
import tracemalloc

import pytest

from repro.graph import (
    CsrSnapshot,
    balanced_binary_tree,
    barabasi_albert_graph,
    caterpillar_tree,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    diameter,
    erdos_renyi_graph,
    grid_graph,
    is_connected,
    is_tree,
    linked_list_graph,
    path_graph,
    random_bipartite_graph,
    random_labeled_digraph,
    random_query_graph,
    random_tree,
    random_weighted_graph,
    star_graph,
    bipartition,
)
from tests.test_generator_pins import CASES


class TestDeterministicFamilies:
    def test_path(self):
        g = path_graph(5)
        assert g.num_vertices == 5
        assert g.num_edges == 4
        assert diameter(g) == 4

    def test_cycle(self):
        g = cycle_graph(6)
        assert g.num_edges == 6
        assert diameter(g) == 3
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_star(self):
        g = star_graph(7)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))
        assert diameter(g) == 2

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert diameter(g) == 1

    def test_grid(self):
        g = grid_graph(3, 4)
        assert g.num_vertices == 12
        assert g.num_edges == 3 * 3 + 2 * 4  # horizontal + vertical
        assert diameter(g) == 2 + 3

    def test_balanced_binary_tree(self):
        g = balanced_binary_tree(3)
        assert g.num_vertices == 15
        assert is_tree(g)

    def test_caterpillar(self):
        g = caterpillar_tree(4, 2)
        assert is_tree(g)
        assert g.num_vertices == 4 + 8


class TestRandomFamilies:
    def test_er_seeded_reproducible(self):
        a = erdos_renyi_graph(30, 0.2, seed=5)
        b = erdos_renyi_graph(30, 0.2, seed=5)
        assert sorted(map(sorted, a.edges())) == sorted(
            map(sorted, b.edges())
        )

    def test_er_different_seeds_differ(self):
        a = erdos_renyi_graph(30, 0.2, seed=5)
        b = erdos_renyi_graph(30, 0.2, seed=6)
        assert sorted(map(sorted, a.edges())) != sorted(
            map(sorted, b.edges())
        )

    def test_er_directed(self):
        g = erdos_renyi_graph(20, 0.3, seed=1, directed=True)
        assert g.directed
        assert g.num_vertices == 20

    def test_er_extreme_probabilities(self):
        assert erdos_renyi_graph(10, 0.0, seed=0).num_edges == 0
        assert erdos_renyi_graph(10, 1.0, seed=0).num_edges == 45

    def test_connected_er(self):
        g = connected_erdos_renyi_graph(40, 0.02, seed=2)
        assert is_connected(g)

    def test_barabasi_albert(self):
        g = barabasi_albert_graph(50, 3, seed=4)
        assert g.num_vertices == 50
        assert is_connected(g)
        # Every late vertex attaches with exactly k edges.
        assert g.num_edges == 6 + (50 - 4) * 3

    def test_barabasi_albert_tiny(self):
        g = barabasi_albert_graph(3, 5, seed=0)
        assert g.num_vertices == 3

    def test_random_tree(self):
        g = random_tree(30, seed=9)
        assert is_tree(g)

    def test_random_weighted_distinct(self):
        g = random_weighted_graph(25, 0.2, seed=1)
        weights = [d.weight for _, _, d in g.edges(data=True)]
        assert len(weights) == len(set(weights))
        assert is_connected(g)

    def test_random_weighted_uniform(self):
        g = random_weighted_graph(
            15, 0.3, seed=1, distinct_weights=False, connected=False
        )
        for _, _, d in g.edges(data=True):
            assert 1.0 <= d.weight <= 100.0

    def test_bipartite(self):
        g, left, right = random_bipartite_graph(10, 12, 0.3, seed=2)
        assert len(left) == 10 and len(right) == 12
        parts = bipartition(g)
        assert parts is not None
        for u, v in g.edges():
            assert (u in left) != (v in left)

    def test_labeled_digraph(self):
        g = random_labeled_digraph(20, 0.2, labels="abc", seed=3)
        assert g.directed
        assert all(g.label(v) in "abc" for v in g.vertices())

    def test_query_graph_connected_and_labeled(self):
        q = random_query_graph(6, labels="xy", seed=1)
        assert q.directed
        assert all(q.label(v) in "xy" for v in q.vertices())
        # Weakly connected by construction.
        assert is_connected(q.to_undirected())

    def test_linked_list(self):
        g = linked_list_graph(10, seed=4)
        assert g.directed
        assert g.num_edges == 9
        # Exactly one head (no out-edge) and one tail (no in-edge).
        heads = [v for v in g.vertices() if g.out_degree(v) == 0]
        tails = [v for v in g.vertices() if g.in_degree(v) == 0]
        assert len(heads) == 1 and len(tails) == 1


class TestInputsAreFrozen:
    """Every generator and ``read_edge_list`` return a
    :class:`CsrSnapshot`, and the builder it was frozen from is gone."""

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_returns_exactly_a_snapshot(self, case):
        assert type(CASES[case]()) is CsrSnapshot

    def test_bipartite_returns_snapshot_and_sides(self):
        g, left, right = random_bipartite_graph(4, 3, 0.5, seed=1)
        assert type(g) is CsrSnapshot
        assert left == [("L", i) for i in range(4)]
        assert right == [("R", j) for j in range(3)]

    def test_the_builder_is_not_retained(self):
        """After ``gc.collect()`` the result holds at most a quarter of
        the bytes a ``Graph`` of the same graph holds."""

        def traced_bytes(build):
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                kept = build()
                gc.collect()
                return kept, tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        snapshot, retained = traced_bytes(
            lambda: barabasi_albert_graph(5000, 8, 1)
        )
        builder, held = traced_bytes(snapshot.to_graph)
        assert builder.num_edges == snapshot.num_edges
        assert 0 < retained <= held / 4, (retained, held)


class TestPartitionerInputs:
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_paths(self, n):
        g = path_graph(n)
        assert g.num_vertices == n
