"""Tests for vertex-centric graph/dual/strong simulation (rows 18–20)
and the §3.8 triangle-counting stress case."""

import pytest

from repro.algorithms import (
    count_triangles,
    dual_simulation,
    graph_simulation,
    strong_simulation,
)
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    random_labeled_digraph,
    random_query_graph,
    star_graph,
)
from repro.sequential import (
    count_triangles as seq_triangles,
    dual_simulation as seq_dual,
    graph_simulation as seq_sim,
    strong_simulation as seq_strong,
)


def labeled(edges, labels):
    g = Graph(directed=True)
    for v, lab in labels.items():
        g.add_vertex(v, label=lab)
    for u, v in edges:
        g.add_edge(u, v)
    return g.freeze()


class TestGraphSimulation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_sequential(self, seed):
        data = random_labeled_digraph(30, 0.08, labels="ABC", seed=seed)
        query = random_query_graph(4, labels="ABC", seed=seed + 50)
        relation, _ = graph_simulation(data, query)
        assert relation == seq_sim(data, query)

    def test_childless_vertex_pruned(self):
        # The A vertex with no B successor must not survive.
        query = labeled([(0, 1)], {0: "A", 1: "B"})
        data = labeled([(0, 1)], {0: "A", 1: "B", 2: "A"})
        relation, _ = graph_simulation(data, query)
        assert relation[0] == {0}

    def test_cycle_matches_longer_cycle(self):
        query = labeled(
            [(0, 1), (1, 2), (2, 0)], {0: "A", 1: "B", 2: "C"}
        )
        data = labeled(
            [(i, (i + 1) % 6) for i in range(6)],
            {0: "A", 1: "B", 2: "C", 3: "A", 4: "B", 5: "C"},
        )
        relation, _ = graph_simulation(data, query)
        assert relation == {0: {0, 3}, 1: {1, 4}, 2: {2, 5}}

    def test_supersteps_bounded_by_removal_chain(self):
        # A self-loop query ("A with an A-child forever") on a finite
        # A-chain unravels one vertex per round — the O(m) superstep
        # bound of row 18.
        n = 12
        data = labeled(
            [(i, i + 1) for i in range(n - 1)],
            {i: "A" for i in range(n)},
        )
        query = labeled([(0, 0)], {0: "A"})
        relation, result = graph_simulation(data, query)
        assert relation == seq_sim(data, query)
        assert relation[0] == set()  # no infinite A-chain exists
        assert result.num_supersteps >= n - 2


class TestDualSimulation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_sequential(self, seed):
        data = random_labeled_digraph(30, 0.08, labels="AB", seed=seed)
        query = random_query_graph(3, labels="AB", seed=seed + 60)
        relation, _ = dual_simulation(data, query)
        assert relation == seq_dual(data, query)

    def test_dual_subset_of_plain(self):
        data = random_labeled_digraph(30, 0.1, labels="ABC", seed=7)
        query = random_query_graph(4, labels="ABC", seed=8)
        plain, _ = graph_simulation(data, query)
        dual, _ = dual_simulation(data, query)
        for q in query.vertices():
            assert dual[q] <= plain[q]


class TestStrongSimulation:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_sequential(self, seed):
        data = random_labeled_digraph(25, 0.1, labels="AB", seed=seed)
        query = random_query_graph(3, labels="AB", seed=seed + 70)
        pipeline = strong_simulation(data, query)
        assert pipeline.output == seq_strong(data, query)

    def test_exact_copy_is_perfect_subgraph(self):
        query = labeled(
            [(0, 1), (1, 2), (2, 0)], {0: "A", 1: "B", 2: "C"}
        )
        pipeline = strong_simulation(query.copy(), query)
        assert set(pipeline.output) == {0, 1, 2}

    def test_no_dual_match_short_circuits(self):
        query = labeled([(0, 1)], {0: "A", 1: "B"})
        data = labeled([(0, 1)], {0: "X", 1: "Y"})
        pipeline = strong_simulation(data, query)
        assert pipeline.output == {}
        assert len(pipeline.stages) == 1  # balls never ran

    def test_locality_rejects_distant_pairs(self):
        query = labeled([(0, 1)], {0: "A", 1: "B"})
        data = labeled(
            [(0, 1)], {0: "A", 1: "B", 2: "A", 3: "B"}
        )
        pipeline = strong_simulation(data, query)
        assert set(pipeline.output) == {0, 1}


class TestTriangles:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential(self, seed):
        g = erdos_renyi_graph(30, 0.2, seed=seed)
        ours, _ = count_triangles(g)
        assert ours == seq_triangles(g)

    def test_known_counts(self):
        assert count_triangles(complete_graph(5))[0] == 10
        assert count_triangles(cycle_graph(3))[0] == 1
        assert count_triangles(cycle_graph(5))[0] == 0
        assert count_triangles(star_graph(6))[0] == 0

    def test_message_blowup_on_hubs(self):
        # §3.8: neighborhood shipping is quadratic in hub degree.
        hub = star_graph(30)
        ours, result = count_triangles(hub)
        assert ours == 0
        assert result.stats.total_messages == 29 * 28 // 2
