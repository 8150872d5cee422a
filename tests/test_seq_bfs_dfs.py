"""Tests for instrumented BFS/DFS primitives."""

from repro.graph import (
    Graph,
    connected_erdos_renyi_graph,
    is_tree,
    path_graph,
)
from repro.graph import bfs_distances as reference_bfs
from repro.metrics import OpCounter
from repro.sequential import (
    bfs_components,
    bfs_distances,
    bfs_spanning_forest,
    bfs_tree,
    dfs_orders,
    dfs_tree,
)


class TestBfs:
    def test_distances_match_reference(self):
        g = connected_erdos_renyi_graph(40, 0.08, seed=1)
        assert bfs_distances(g, 0) == reference_bfs(g, 0)

    def test_distances_charge_ops(self):
        g = path_graph(10)
        c = OpCounter()
        bfs_distances(g, 0, c)
        # At least one op per vertex and per directed edge.
        assert c.ops >= g.num_vertices + 2 * g.num_edges

    def test_tree_parents_consistent_with_distances(self):
        g = connected_erdos_renyi_graph(30, 0.1, seed=2)
        dist = bfs_distances(g, 0)
        parent = bfs_tree(g, 0)
        for v, p in parent.items():
            if p is not None:
                assert dist[v] == dist[p] + 1

    def test_components_label_is_min_member(self):
        g = Graph()
        g.add_edge(5, 3)
        g.add_edge(3, 7)
        g.add_edge(10, 11)
        g.add_vertex(99)
        labels = bfs_components(g.freeze())
        assert labels == {5: 3, 3: 3, 7: 3, 10: 10, 11: 10, 99: 99}

    def test_spanning_forest_spans(self):
        g = connected_erdos_renyi_graph(25, 0.1, seed=3)
        edges = bfs_spanning_forest(g)
        t = Graph()
        for v in g.vertices():
            t.add_vertex(v)
        for u, v in edges:
            assert g.has_edge(u, v)
            t.add_edge(u, v)
        assert is_tree(t.freeze())

    def test_spanning_forest_disconnected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        edges = bfs_spanning_forest(g.freeze())
        assert len(edges) == 2


class TestDfs:
    def test_orders_on_known_tree(self):
        #      0
        #     / \
        #    1   2
        #   /
        #  3
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        g.add_edge(1, 3)
        pre, post = dfs_orders(g.freeze(), 0)
        assert pre == {0: 0, 1: 1, 3: 2, 2: 3}
        assert post == {3: 0, 1: 1, 2: 2, 0: 3}

    def test_orders_visit_sorted_neighbors(self):
        g = Graph()
        g.add_edge(0, 5)
        g.add_edge(0, 2)
        pre, _ = dfs_orders(g.freeze(), 0)
        assert pre[2] < pre[5]

    def test_orders_cover_component(self):
        g = connected_erdos_renyi_graph(30, 0.1, seed=4)
        pre, post = dfs_orders(g, 0)
        assert sorted(pre.values()) == list(range(30))
        assert sorted(post.values()) == list(range(30))

    def test_deep_path_no_recursion_error(self):
        g = path_graph(5000)
        pre, post = dfs_orders(g, 0)
        assert pre[4999] == 4999
        assert post[4999] == 0

    def test_dfs_tree_parents(self):
        g = connected_erdos_renyi_graph(20, 0.15, seed=5)
        parent = dfs_tree(g, 0)
        assert parent[0] is None
        assert set(parent) == set(g.vertices())
        for v, p in parent.items():
            if p is not None:
                assert g.has_edge(p, v)
