"""Cross-checks of the sequential baselines against networkx.

networkx is used only in tests, never by the library: the baselines
must be self-contained implementations (the paper's sequential side),
and networkx provides an independent oracle for them.
"""

import networkx as nx
import pytest

from repro.graph import (
    Graph,
    connected_erdos_renyi_graph,
    erdos_renyi_graph,
    random_weighted_graph,
)
from repro.sequential import (
    betweenness_centrality,
    biconnected_components,
    connected_components,
    diameter,
    dijkstra,
    kruskal,
    pagerank,
    prim,
    strongly_connected_components,
)
from tests.conftest import assert_same_partition


def to_nx(graph: Graph):
    gx = nx.DiGraph() if graph.directed else nx.Graph()
    gx.add_nodes_from(graph.vertices())
    for u, v, data in graph.edges(data=True):
        gx.add_edge(u, v, weight=data.weight)
    return gx


class TestConnectivityOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_connected_components(self, seed):
        g = erdos_renyi_graph(50, 0.03, seed=seed)
        ours = connected_components(g)
        theirs = {}
        for comp in nx.connected_components(to_nx(g)):
            label = min(comp)
            for v in comp:
                theirs[v] = label
        assert ours == theirs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_scc(self, seed):
        g = erdos_renyi_graph(40, 0.06, seed=seed, directed=True)
        ours = strongly_connected_components(g)
        theirs = {}
        for comp in nx.strongly_connected_components(to_nx(g)):
            label = min(comp)
            for v in comp:
                theirs[v] = label
        assert ours == theirs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bicc_vertex_sets(self, seed):
        g = connected_erdos_renyi_graph(30, 0.06, seed=seed)
        ours = biconnected_components(g)
        nx_comps = sorted(
            sorted(c) for c in nx.biconnected_components(to_nx(g))
        )
        our_comps = sorted(sorted(c) for c in ours.vertex_components())
        assert our_comps == nx_comps
        assert ours.articulation_points == set(
            nx.articulation_points(to_nx(g))
        )


class TestMetricOracles:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_diameter(self, seed):
        g = connected_erdos_renyi_graph(40, 0.07, seed=seed)
        assert diameter(g) == nx.diameter(to_nx(g))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_betweenness(self, seed):
        g = connected_erdos_renyi_graph(25, 0.15, seed=seed)
        ours = betweenness_centrality(g, normalized=False)
        theirs = nx.betweenness_centrality(to_nx(g), normalized=False)
        # networkx's unnormalized undirected counts halve pair sums.
        for v in g.vertices():
            assert ours[v] / 2.0 == pytest.approx(theirs[v])

    def test_pagerank_without_dangling_vertices(self):
        # Our power iteration leaks dangling mass exactly like the
        # Pregel formulation; compare on a graph with no sinks.
        g = Graph(directed=True)
        for i in range(20):
            g.add_edge(i, (i + 1) % 20)
            g.add_edge(i, (i + 7) % 20)
        g = g.freeze()
        ours = pagerank(g, num_iterations=200)
        theirs = nx.pagerank(to_nx(g), alpha=0.85, tol=1e-12)
        for v in g.vertices():
            assert ours[v] == pytest.approx(theirs[v], abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dijkstra(self, seed):
        g = random_weighted_graph(
            30, 0.12, seed=seed, distinct_weights=False
        )
        for heap in ("binary", "pairing"):
            ours = dijkstra(g, 0, heap=heap)
            theirs = nx.single_source_dijkstra_path_length(to_nx(g), 0)
            assert set(ours) == set(theirs)
            for v in ours:
                assert ours[v] == pytest.approx(theirs[v])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mst_weight(self, seed):
        g = random_weighted_graph(30, 0.15, seed=seed)
        expected = sum(
            d["weight"]
            for _, _, d in nx.minimum_spanning_edges(to_nx(g), data=True)
        )
        _, w_prim = prim(g)
        _, w_kruskal = kruskal(g)
        assert w_prim == pytest.approx(expected)
        assert w_kruskal == pytest.approx(expected)


class TestClusteringOracle:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_triangle_counts(self, seed):
        from repro.sequential import triangle_counts

        g = erdos_renyi_graph(40, 0.15, seed=seed)
        ours = triangle_counts(g)
        theirs = nx.triangles(to_nx(g))
        assert ours == theirs

    @pytest.mark.parametrize("seed", [0, 1])
    def test_local_clustering(self, seed):
        from repro.sequential import local_clustering

        g = erdos_renyi_graph(35, 0.2, seed=seed)
        ours = local_clustering(g)
        theirs = nx.clustering(to_nx(g))
        for v in g.vertices():
            assert ours[v] == pytest.approx(theirs[v])


class TestPartitionHelper:
    def test_assert_same_partition_accepts_relabeling(self):
        assert_same_partition({1: "a", 2: "a", 3: "b"}, {1: 9, 2: 9, 3: 4})

    def test_assert_same_partition_rejects_merge(self):
        with pytest.raises(AssertionError):
            assert_same_partition(
                {1: "a", 2: "a", 3: "b"}, {1: 9, 2: 9, 3: 9}
            )
