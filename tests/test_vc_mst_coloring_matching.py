"""Tests for the vertex-centric MCST (row 11), MIS coloring (row 12)
and the two matchings (rows 13, 14)."""

import pytest

from repro.algorithms import (
    bipartite_matching,
    coloring_from_result,
    locally_dominant_matching,
    luby_coloring,
    minimum_spanning_tree,
)
from repro.graph import (
    Graph,
    complete_graph,
    erdos_renyi_graph,
    is_matching,
    is_maximal_matching,
    is_valid_coloring,
    path_graph,
    random_bipartite_graph,
    random_weighted_graph,
    spanning_tree_weight,
)
from repro.sequential import (
    greedy_bipartite_matching,
    kruskal,
    locally_dominant_matching as seq_matching,
    matching_weight,
)


class TestBoruvkaMst:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_kruskal(self, seed):
        g = random_weighted_graph(35, 0.12, seed=seed)
        edges, total, _ = minimum_spanning_tree(g)
        k_edges, k_total = kruskal(g)
        assert {frozenset(e) for e in edges} == {
            frozenset(e) for e in k_edges
        }
        assert total == pytest.approx(k_total)

    def test_spans(self):
        g = random_weighted_graph(30, 0.15, seed=4)
        edges, total, _ = minimum_spanning_tree(g)
        assert spanning_tree_weight(g, edges) == pytest.approx(total)

    def test_disconnected_forest(self):
        g = random_weighted_graph(24, 0.12, seed=5, connected=False)
        edges, total, _ = minimum_spanning_tree(g)
        k_edges, k_total = kruskal(g)
        assert total == pytest.approx(k_total)
        assert len(edges) == len(k_edges)

    def test_two_vertices(self):
        g = Graph()
        g.add_edge("a", "b", weight=3.0)
        edges, total, _ = minimum_spanning_tree(g.freeze())
        assert total == 3.0
        assert len(edges) == 1

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_tied_weights_still_minimum(self, seed):
        # Regression: with equal-weight parallel edges between two
        # contracted components, both endpoints must retain the SAME
        # witness edge or the tree gains a cycle and extra weight.
        import random

        from repro.graph import grid_graph

        rng = random.Random(seed)
        g = grid_graph(6, 7)
        for u, v, d in g.edges(data=True):
            d.weight = float(rng.randint(1, 3))  # heavy ties
        edges, total, _ = minimum_spanning_tree(g)
        _, k_total = kruskal(g)
        assert total == pytest.approx(k_total)
        assert spanning_tree_weight(g, edges) == pytest.approx(total)

    def test_not_bppa(self):
        # Super-vertices absorb whole adjacency lists (P1/P3 blow up).
        g = random_weighted_graph(40, 0.2, seed=6)
        _, _, result = minimum_spanning_tree(g)
        assert result.bppa.message_factor > 1.0


class TestLubyColoring:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_valid_coloring(self, seed):
        g = erdos_renyi_graph(40, 0.1, seed=seed)
        result = luby_coloring(g, seed=seed)
        colors = coloring_from_result(result)
        assert is_valid_coloring(g, colors)
        assert all(c is not None for c in colors.values())

    def test_complete_graph_n_colors(self):
        g = complete_graph(8)
        colors = coloring_from_result(luby_coloring(g, seed=1))
        assert len(set(colors.values())) == 8

    def test_isolated_vertices_one_color(self):
        g = Graph()
        for v in range(5):
            g.add_vertex(v)
        colors = coloring_from_result(luby_coloring(g))
        assert set(colors.values()) == {0}

    def test_deterministic_under_seed(self):
        g = erdos_renyi_graph(30, 0.15, seed=3)
        a = coloring_from_result(luby_coloring(g, seed=9))
        b = coloring_from_result(luby_coloring(g, seed=9))
        assert a == b

    def test_each_color_class_is_independent_set(self):
        g = erdos_renyi_graph(35, 0.12, seed=4)
        colors = coloring_from_result(luby_coloring(g, seed=4))
        by_color = {}
        for v, c in colors.items():
            by_color.setdefault(c, set()).add(v)
        for members in by_color.values():
            for v in members:
                for u in g.neighbors(v):
                    assert u not in members or u == v


class TestPreisMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_sequential_locally_dominant(self, seed):
        # Distinct weights make the locally-dominant matching unique.
        g = random_weighted_graph(30, 0.15, seed=seed)
        edges, _ = locally_dominant_matching(g)
        seq_edges = seq_matching(g)
        assert {frozenset(e) for e in edges} == {
            frozenset(e) for e in seq_edges
        }

    def test_is_maximal(self):
        g = random_weighted_graph(25, 0.2, seed=4)
        edges, _ = locally_dominant_matching(g)
        assert is_maximal_matching(g, edges)

    def test_single_edge(self):
        g = Graph()
        g.add_edge(0, 1, weight=5.0)
        edges, _ = locally_dominant_matching(g)
        assert edges in ([(0, 1)], [(1, 0)])

    def test_path_picks_heaviest_alternation(self):
        g = path_graph(4).to_graph()
        g.set_weight(0, 1, 1.0)
        g.set_weight(1, 2, 10.0)
        g.set_weight(2, 3, 1.5)
        edges, _ = locally_dominant_matching(g)
        assert {frozenset(e) for e in edges} == {frozenset((1, 2))}

    def test_half_approximation(self):
        import networkx as nx

        g = random_weighted_graph(20, 0.3, seed=5)
        gx = nx.Graph()
        for u, v, d in g.edges(data=True):
            gx.add_edge(u, v, weight=d.weight)
        optimal = sum(
            g.weight(u, v) for u, v in nx.max_weight_matching(gx)
        )
        edges, _ = locally_dominant_matching(g)
        assert matching_weight(g, edges) >= 0.5 * optimal


class TestBipartiteMatching:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_maximal(self, seed):
        g, left, right = random_bipartite_graph(12, 14, 0.2, seed=seed)
        edges, _ = bipartite_matching(g, seed=seed)
        assert is_maximal_matching(g, edges)

    def test_oriented_left_to_right(self):
        g, left, right = random_bipartite_graph(8, 8, 0.3, seed=4)
        edges, _ = bipartite_matching(g)
        for u, v in edges:
            assert u in left and v in right

    def test_comparable_to_greedy_cardinality(self):
        g, left, _ = random_bipartite_graph(15, 15, 0.25, seed=5)
        vc_edges, _ = bipartite_matching(g, seed=5)
        greedy = greedy_bipartite_matching(g, left)
        # Both are maximal matchings: within a factor of 2 of each
        # other (and of the maximum).
        assert len(vc_edges) >= len(greedy) / 2
        assert len(greedy) >= len(vc_edges) / 2

    def test_empty_graph(self):
        g, _, _ = random_bipartite_graph(5, 5, 0.0, seed=6)
        edges, _ = bipartite_matching(g)
        assert edges == []

    def test_perfect_on_complete_bipartite(self):
        g, left, right = random_bipartite_graph(6, 6, 1.0, seed=7)
        edges, _ = bipartite_matching(g, seed=7)
        assert len(edges) == 6
        assert is_matching(g, edges)
