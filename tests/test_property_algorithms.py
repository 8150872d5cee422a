"""Property-based cross-checks: every vertex-centric algorithm agrees
with its sequential baseline on arbitrary (hypothesis-generated)
inputs, not just the hand-picked fixtures."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    coloring_from_result,
    diameter as vc_diameter,
    euler_tour,
    hash_min_components,
    locally_dominant_matching,
    luby_coloring,
    minimum_spanning_tree,
    pagerank as vc_pagerank,
    scc,
    scc_labels,
    sssp,
    sv_component_labels,
    sv_components,
    tour_from_successors,
    tree_traversal,
)
from repro.graph import (
    Graph,
    is_maximal_matching,
    is_valid_coloring,
)
from repro.sequential import (
    connected_components,
    dijkstra,
    dual_simulation,
    dual_simulation_efficient,
    euler_orders,
    graph_simulation,
    graph_simulation_efficient,
    kruskal,
    pagerank as seq_pagerank,
    strongly_connected_components,
)
from tests.conftest import assert_same_partition

# -- input strategies ---------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
    min_size=0,
    max_size=30,
)

weighted_edges = st.lists(
    st.tuples(
        st.integers(0, 9),
        st.integers(0, 9),
        st.integers(1, 50),
    ),
    min_size=0,
    max_size=25,
)

tree_parents = st.lists(st.integers(0, 50), min_size=0, max_size=18)

labeled_edges = st.lists(
    st.tuples(st.integers(0, 8), st.integers(0, 8)),
    min_size=0,
    max_size=20,
)


def undirected(edges, n=12):
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g.freeze()


def directed(edges, n=12):
    g = Graph(directed=True)
    for v in range(n):
        g.add_vertex(v)
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g.freeze()


def weighted(entries, n=10):
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for i, (u, v, w) in enumerate(entries):
        if u != v and not g.has_edge(u, v):
            # Perturb weights so they are distinct but ordered as
            # given (keeps the locally-dominant matching unique).
            g.add_edge(u, v, weight=w + i * 1e-4)
    return g.freeze()


def random_tree_from(parents):
    g = Graph()
    g.add_vertex(0)
    for i, p in enumerate(parents, start=1):
        g.add_edge(i, p % i)
    return g.freeze()


def labeled_digraph(edges, n=9):
    g = Graph(directed=True)
    for v in range(n):
        g.add_vertex(v, label="AB"[v % 2])
    for u, v in edges:
        if u != v:
            g.add_edge(u, v)
    return g.freeze()


# -- properties ----------------------------------------------------------


class TestConnectivityAgreement:
    @settings(deadline=None, max_examples=25)
    @given(edge_lists)
    def test_hashmin_equals_bfs(self, edges):
        g = undirected(edges)
        assert hash_min_components(g).values == connected_components(g)

    @settings(deadline=None, max_examples=15)
    @given(edge_lists)
    def test_sv_equals_bfs(self, edges):
        g = undirected(edges)
        labels = sv_component_labels(sv_components(g))
        assert labels == connected_components(g)

    @settings(deadline=None, max_examples=15)
    @given(edge_lists)
    def test_scc_partition(self, edges):
        g = directed(edges)
        assert_same_partition(
            scc_labels(scc(g)), strongly_connected_components(g)
        )


class TestPathsAgreement:
    @settings(deadline=None, max_examples=20)
    @given(weighted_edges)
    def test_sssp_equals_dijkstra(self, entries):
        g = weighted(entries)
        result = sssp(g, 0)
        expected = dijkstra(g, 0)
        for v in g.vertices():
            if v in expected:
                assert math.isclose(result.values[v], expected[v])
            else:
                assert result.values[v] == math.inf

    @settings(deadline=None, max_examples=15)
    @given(edge_lists)
    def test_pagerank_equals_power_iteration(self, edges):
        g = undirected(edges)
        result = vc_pagerank(g, num_supersteps=10)
        expected = seq_pagerank(g, num_iterations=10)
        for v in g.vertices():
            assert math.isclose(
                result.values[v], expected[v], abs_tol=1e-12
            )

    @settings(deadline=None, max_examples=10)
    @given(edge_lists)
    def test_diameter_on_largest_component(self, edges):
        g = undirected(edges)
        labels = connected_components(g)
        # Restrict to one component so eccentricities are finite.
        component = max(
            (
                [v for v, c in labels.items() if c == color]
                for color in set(labels.values())
            ),
            key=len,
        )
        sub = g.subgraph(component)
        value, _ = vc_diameter(sub)
        from repro.graph import diameter as ref_diameter

        assert value == ref_diameter(sub)


class TestTreeAgreement:
    @settings(deadline=None, max_examples=20)
    @given(tree_parents)
    def test_euler_tour_is_a_circuit(self, parents):
        tree = random_tree_from(parents)
        if tree.num_vertices < 2:
            return
        succ, _ = euler_tour(tree)
        start = (0, tree.sorted_neighbors(0)[0])
        tour = tour_from_successors(succ, start)
        assert len(tour) == 2 * (tree.num_vertices - 1)
        assert len(set(tour)) == len(tour)
        for (a1, b1), (a2, b2) in zip(tour, tour[1:]):
            assert b1 == a2

    @settings(deadline=None, max_examples=12)
    @given(tree_parents)
    def test_traversal_equals_euler_orders(self, parents):
        tree = random_tree_from(parents)
        pre, post = tree_traversal(tree, 0).output
        pre_ref, post_ref = euler_orders(tree, 0)
        assert pre == pre_ref
        assert post == post_ref


class TestOptimizationAgreement:
    @settings(deadline=None, max_examples=15)
    @given(weighted_edges)
    def test_mst_weight_equals_kruskal(self, entries):
        g = weighted(entries)
        _, total, _ = minimum_spanning_tree(g)
        _, expected = kruskal(g)
        assert math.isclose(total, expected, abs_tol=1e-6)

    @settings(deadline=None, max_examples=15)
    @given(weighted_edges)
    def test_matching_maximal(self, entries):
        g = weighted(entries)
        edges, _ = locally_dominant_matching(g)
        assert is_maximal_matching(g, edges)

    @settings(deadline=None, max_examples=12)
    @given(edge_lists, st.integers(0, 3))
    def test_coloring_valid(self, edges, seed):
        g = undirected(edges)
        colors = coloring_from_result(luby_coloring(g, seed=seed))
        assert is_valid_coloring(g, colors)


class TestSimulationAgreement:
    @settings(deadline=None, max_examples=15)
    @given(labeled_edges, labeled_edges)
    def test_efficient_equals_naive(self, data_edges, query_edges):
        data = labeled_digraph(data_edges, n=9)
        query = labeled_digraph(query_edges, n=4)
        assert graph_simulation(data, query) == (
            graph_simulation_efficient(data, query)
        )
        assert dual_simulation(data, query) == (
            dual_simulation_efficient(data, query)
        )

    @settings(deadline=None, max_examples=12)
    @given(labeled_edges, labeled_edges)
    def test_vertex_centric_equals_sequential(
        self, data_edges, query_edges
    ):
        from repro.algorithms import (
            dual_simulation as vc_dual,
            graph_simulation as vc_sim,
        )

        data = labeled_digraph(data_edges, n=9)
        query = labeled_digraph(query_edges, n=4)
        assert vc_sim(data, query)[0] == graph_simulation(data, query)
        assert vc_dual(data, query)[0] == dual_simulation(data, query)
