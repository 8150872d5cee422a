"""Tests for reference structural properties (verification helpers)."""

import pytest

from repro.errors import NotATreeError
from repro.graph import (
    Graph,
    bfs_distances,
    bipartition,
    complete_graph,
    connected_components,
    cycle_graph,
    degree_histogram,
    diameter,
    eccentricity,
    grid_graph,
    is_connected,
    is_matching,
    is_maximal_matching,
    is_tree,
    is_valid_coloring,
    max_degree,
    path_graph,
    random_tree,
    require_tree,
    spanning_tree_weight,
    star_graph,
)


class TestDistances:
    def test_bfs_distances_path(self):
        g = path_graph(5)
        assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_bfs_unreachable_absent(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        assert 2 not in bfs_distances(g.freeze(), 0)

    def test_eccentricity(self):
        g = path_graph(5)
        assert eccentricity(g, 0) == 4
        assert eccentricity(g, 2) == 2

    def test_diameter_families(self):
        assert diameter(path_graph(6)) == 5
        assert diameter(cycle_graph(8)) == 4
        assert diameter(star_graph(5)) == 2
        assert diameter(complete_graph(4)) == 1
        assert diameter(grid_graph(4, 4)) == 6


class TestConnectivity:
    def test_connected_components(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        g.add_vertex(4)
        comps = connected_components(g.freeze())
        assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]

    def test_is_connected(self):
        assert is_connected(path_graph(10))
        g = Graph()
        g.add_vertex(0)
        g.add_vertex(1)
        assert not is_connected(g.freeze())
        assert is_connected(Graph().freeze())  # vacuously


class TestTrees:
    def test_is_tree(self):
        assert is_tree(path_graph(4))
        assert is_tree(random_tree(20, seed=0))
        assert not is_tree(cycle_graph(4))
        g = Graph()
        g.add_vertex(0)
        g.add_vertex(1)
        assert not is_tree(g)  # disconnected forest

    def test_require_tree_raises(self):
        with pytest.raises(NotATreeError):
            require_tree(cycle_graph(3))


class TestBipartite:
    def test_bipartition_even_cycle(self):
        parts = bipartition(cycle_graph(6))
        assert parts is not None
        left, right = parts
        assert len(left) == len(right) == 3

    def test_bipartition_odd_cycle_none(self):
        assert bipartition(cycle_graph(5)) is None


class TestDegreeStats:
    def test_histogram(self):
        hist = degree_histogram(star_graph(5))
        assert hist == {4: 1, 1: 4}

    def test_max_degree(self):
        assert max_degree(star_graph(9)) == 8
        assert max_degree(Graph()) == 0


class TestValidators:
    def test_valid_coloring(self):
        g = cycle_graph(4)
        assert is_valid_coloring(g, {0: 0, 1: 1, 2: 0, 3: 1})
        assert not is_valid_coloring(g, {0: 0, 1: 0, 2: 1, 3: 1})
        assert not is_valid_coloring(g, {0: 0})  # missing vertices

    def test_is_matching(self):
        g = path_graph(4)
        assert is_matching(g, [(0, 1), (2, 3)])
        assert not is_matching(g, [(0, 1), (1, 2)])  # shares vertex 1
        assert not is_matching(g, [(0, 2)])  # not an edge

    def test_is_maximal_matching(self):
        g = path_graph(4)
        assert is_maximal_matching(g, [(1, 2)])
        assert not is_maximal_matching(g, [(0, 1)])  # (2,3) extends it
        assert is_maximal_matching(g, [(0, 1), (2, 3)])

    def test_spanning_tree_weight(self):
        g = Graph()
        g.add_edge(0, 1, weight=2.0)
        g.add_edge(1, 2, weight=3.0)
        g.add_edge(0, 2, weight=10.0)
        g = g.freeze()
        assert spanning_tree_weight(g, [(0, 1), (1, 2)]) == 5.0
        with pytest.raises(NotATreeError):
            spanning_tree_weight(g, [(0, 1)])  # does not span
