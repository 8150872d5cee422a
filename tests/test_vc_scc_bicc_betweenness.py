"""Tests for vertex-centric SCC (row 7), BiCC (row 5) and betweenness
(row 15)."""

import math

import pytest

from repro.algorithms import (
    betweenness_centrality,
    betweenness_values,
    biconnected_components,
    scc,
    scc_labels,
)
from repro.errors import DisconnectedGraphError
from repro.graph import (
    Graph,
    connected_erdos_renyi_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.sequential import (
    betweenness_centrality as seq_bc,
    biconnected_components as seq_bicc,
    strongly_connected_components as seq_scc,
)
from tests.conftest import assert_same_partition


class TestScc:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_tarjan(self, seed):
        g = erdos_renyi_graph(40, 0.05, seed=seed, directed=True)
        labels = scc_labels(scc(g))
        assert_same_partition(labels, seq_scc(g))

    def test_directed_cycle_single_scc(self):
        g = Graph(directed=True)
        for i in range(10):
            g.add_edge(i, (i + 1) % 10)
        labels = scc_labels(scc(g))
        assert len(set(labels.values())) == 1

    def test_dag_all_singletons(self):
        g = Graph(directed=True)
        for i in range(10):
            for j in range(i + 1, min(i + 3, 10)):
                g.add_edge(i, j)
        labels = scc_labels(scc(g))
        assert len(set(labels.values())) == 10

    def test_chain_of_two_cycles(self):
        g = Graph(directed=True)
        for i in range(0, 12, 2):
            g.add_edge(i, i + 1)
            g.add_edge(i + 1, i)
            if i + 2 < 12:
                g.add_edge(i + 1, i + 2)
        g = g.freeze()
        labels = scc_labels(scc(g))
        assert_same_partition(labels, seq_scc(g))
        assert len(set(labels.values())) == 6


class TestBicc:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_hopcroft_tarjan(self, seed):
        g = connected_erdos_renyi_graph(25, 0.1, seed=seed)
        ours = biconnected_components(g).output
        ref = seq_bicc(g).edge_component_labels()
        assert_same_partition(ours, ref)

    def test_path_every_edge_is_a_bridge(self):
        g = path_graph(8)
        labels = biconnected_components(g).output
        assert len(set(labels.values())) == 7

    def test_cycle_single_component(self):
        g = cycle_graph(9)
        labels = biconnected_components(g).output
        assert len(set(labels.values())) == 1

    def test_bowtie_two_components(self):
        g = Graph()
        for a, b in [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]:
            g.add_edge(a, b)
        labels = biconnected_components(g).output
        assert len(set(labels.values())) == 2

    def test_disconnected_rejected(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_vertex(2)
        with pytest.raises(DisconnectedGraphError):
            biconnected_components(g)

    def test_pipeline_stage_count(self):
        g = cycle_graph(8)
        result = biconnected_components(g)
        # BFS tree + 5 traversal stages + low/high wave + aux CC.
        assert len(result.stages) == 8


class TestBetweenness:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brandes_all_sources(self, seed):
        g = connected_erdos_renyi_graph(20, 0.2, seed=seed)
        values = betweenness_values(betweenness_centrality(g))
        reference = seq_bc(g)
        for v in g.vertices():
            assert values[v] == pytest.approx(reference[v])

    def test_star_center_dominates(self):
        g = star_graph(10)
        values = betweenness_values(betweenness_centrality(g))
        # All shortest paths between leaves cross the center.
        assert values[0] == pytest.approx(9 * 8)
        assert all(values[v] == 0 for v in range(1, 10))

    def test_path_interior(self):
        g = path_graph(5)
        values = betweenness_values(betweenness_centrality(g))
        assert values[2] == pytest.approx(2 * (2 * 2))  # middle
        assert values[0] == 0

    def test_sampled_sources_match(self):
        g = connected_erdos_renyi_graph(25, 0.15, seed=3)
        sources = [1, 4, 7]
        values = betweenness_values(
            betweenness_centrality(g, sources=sources)
        )
        reference = seq_bc(g, sources=sources)
        for v in g.vertices():
            assert values[v] == pytest.approx(reference[v])

    def test_superstep_count_scales_with_sources_and_depth(self):
        g = path_graph(10)
        one = betweenness_centrality(g, sources=[0])
        three = betweenness_centrality(g, sources=[0, 4, 9])
        assert three.num_supersteps > one.num_supersteps
        assert one.num_supersteps >= 18  # ~2 waves of depth 9

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            betweenness_centrality(path_graph(3), sources=[])
