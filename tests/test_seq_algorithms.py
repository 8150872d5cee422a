"""Unit tests for the remaining sequential baselines: MST variants,
coloring, matching, APSP, diameter edge cases, traversals, Euler tour
and Bellman–Ford."""

import networkx as nx
import pytest

from repro.errors import DisconnectedGraphError, GraphError, NotATreeError
from repro.graph import (
    Graph,
    balanced_binary_tree,
    complete_graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    erdos_renyi_graph,
    euler_tour_edges,
    is_matching,
    is_maximal_matching,
    is_valid_coloring,
    path_graph,
    random_bipartite_graph,
    random_tree,
    random_weighted_graph,
    spanning_tree_weight,
    star_graph,
)
from repro.metrics import OpCounter
from repro.sequential import (
    all_pairs_shortest_paths,
    bellman_ford,
    boruvka,
    diameter,
    dijkstra,
    euler_tour,
    greedy_bipartite_matching,
    greedy_maximal_matching,
    greedy_mis_coloring,
    greedy_sequential_coloring,
    lexicographically_first_mis,
    locally_dominant_matching,
    matching_weight,
    path_growing_matching,
    postorder,
    preorder,
    prim,
    tree_orders,
)


class TestMst:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_three_algorithms_agree(self, seed):
        g = random_weighted_graph(25, 0.2, seed=seed)
        _, w_prim = prim(g)
        _, w_boruvka = boruvka(g)
        assert w_prim == pytest.approx(w_boruvka)

    def test_prim_binary_heap(self):
        g = random_weighted_graph(20, 0.25, seed=4)
        _, w_b = prim(g, heap="binary")
        _, w_p = prim(g, heap="pairing")
        assert w_b == pytest.approx(w_p)

    def test_prim_invalid_heap(self):
        with pytest.raises(ValueError):
            prim(path_graph(3), heap="fibonacci")

    def test_spanning_forest_on_disconnected(self):
        g = Graph()
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(2, 3, weight=5.0)
        edges, total = prim(g.freeze())
        assert len(edges) == 2
        assert total == 7.0

    def test_tree_edges_span(self):
        g = random_weighted_graph(20, 0.3, seed=5)
        edges, total = prim(g)
        assert spanning_tree_weight(g, edges) == pytest.approx(total)

    def test_ops_counted(self):
        g = random_weighted_graph(20, 0.3, seed=6)
        c = OpCounter()
        prim(g, counter=c)
        assert c.ops > g.num_edges


class TestColoring:
    def test_lf_mis_is_maximal_independent(self):
        g = connected_erdos_renyi_graph(30, 0.15, seed=1)
        active = set(g.vertices())
        mis = lexicographically_first_mis(g, active)
        for v in mis:
            for u in g.neighbors(v):
                assert u not in mis
        # Maximality: every vertex outside has a neighbor inside.
        for v in active - mis:
            assert any(u in mis for u in g.neighbors(v))

    def test_lf_mis_is_lexicographically_first(self):
        g = path_graph(5)
        mis = lexicographically_first_mis(g, set(g.vertices()))
        assert mis == {0, 2, 4}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mis_coloring_valid(self, seed):
        g = erdos_renyi_graph(30, 0.2, seed=seed)
        colors, k = greedy_mis_coloring(g)
        assert is_valid_coloring(g, colors)
        assert k == len(set(colors.values()))

    def test_complete_graph_needs_n_colors(self):
        g = complete_graph(6)
        _, k = greedy_mis_coloring(g)
        assert k == 6

    def test_greedy_first_fit_valid(self):
        g = erdos_renyi_graph(30, 0.2, seed=3)
        colors, k = greedy_sequential_coloring(g)
        assert is_valid_coloring(g, colors)
        assert k >= 1


class TestMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_locally_dominant_is_maximal(self, seed):
        g = random_weighted_graph(25, 0.2, seed=seed)
        m = locally_dominant_matching(g)
        assert is_maximal_matching(g, m)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_half_approximation(self, seed):
        g = random_weighted_graph(20, 0.3, seed=seed)
        gx = nx.Graph()
        for u, v, d in g.edges(data=True):
            gx.add_edge(u, v, weight=d.weight)
        optimal = sum(
            g.weight(u, v)
            for u, v in nx.max_weight_matching(gx, maxcardinality=False)
        )
        for algo in (locally_dominant_matching, path_growing_matching):
            m = algo(g)
            assert is_matching(g, m)
            assert matching_weight(g, m) >= 0.5 * optimal

    def test_path_growing_on_path(self):
        g = path_graph(5).to_graph()
        for u, v in g.edges():
            g.set_weight(u, v, float(10 * (u + v)))
        g = g.freeze()
        m = path_growing_matching(g)
        assert is_matching(g, m)

    def test_greedy_maximal(self):
        g = erdos_renyi_graph(25, 0.15, seed=4)
        m = greedy_maximal_matching(g)
        assert is_maximal_matching(g, m)

    def test_bipartite_greedy_maximal(self):
        g, left, right = random_bipartite_graph(12, 12, 0.2, seed=5)
        m = greedy_bipartite_matching(g, left)
        assert is_maximal_matching(g, m)
        for u, v in m:
            assert u in left or v in left


class TestShortestPaths:
    def test_bellman_ford_matches_dijkstra(self):
        g = random_weighted_graph(25, 0.2, seed=7, distinct_weights=False)
        assert bellman_ford(g, 0) == pytest.approx(dijkstra(g, 0))

    def test_negative_weight_rejected(self):
        g = Graph()
        g.add_edge(0, 1, weight=-1.0)
        with pytest.raises(GraphError):
            dijkstra(g.freeze(), 0)

    def test_unreachable_absent(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        assert 2 not in dijkstra(g.freeze(), 0)


class TestApspAndDiameter:
    def test_apsp_matches_bfs(self):
        g = connected_erdos_renyi_graph(20, 0.15, seed=8)
        apsp = all_pairs_shortest_paths(g)
        assert apsp[0][0] == 0
        assert all(len(row) == 20 for row in apsp.values())
        # Symmetry on undirected graphs.
        for u in g.vertices():
            for v in g.vertices():
                assert apsp[u][v] == apsp[v][u]

    def test_diameter_disconnected_raises(self):
        g = Graph()
        g.add_vertex(0)
        g.add_vertex(1)
        with pytest.raises(DisconnectedGraphError):
            diameter(g.freeze())

    def test_diameter_known(self):
        assert diameter(cycle_graph(10)) == 5
        assert diameter(star_graph(6)) == 2


class TestTraversalsAndEuler:
    def test_orders_on_binary_tree(self):
        g = balanced_binary_tree(2)
        pre, post = tree_orders(g, 0)
        assert pre[0] == 0
        assert post[0] == 6
        # Pre-order: parent before children; post-order: after.
        for v in g.vertices():
            for u in g.neighbors(v):
                if pre[u] > pre[v]:  # u is in v's subtree
                    assert post[u] < post[v]

    def test_preorder_postorder_helpers(self):
        g = path_graph(4)
        assert preorder(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}
        assert postorder(g, 0) == {3: 0, 2: 1, 1: 2, 0: 3}

    def test_non_tree_raises(self):
        with pytest.raises(NotATreeError):
            tree_orders(cycle_graph(4), 0)

    def test_euler_tour_matches_reference(self):
        g = random_tree(30, seed=9)
        assert euler_tour(g, 0) == euler_tour_edges(g, 0)

    def test_euler_tour_single_vertex(self):
        g = random_tree(1)
        assert euler_tour(g, 0) == []
