"""Tests for weighted betweenness centrality — §3.8 point 4's "is it
even implementable?" workload — on both sides."""

import math

import networkx as nx
import pytest

from repro.algorithms import (
    weighted_betweenness,
    weighted_betweenness_values,
)
from repro.graph import Graph, path_graph, random_weighted_graph
from repro.sequential import (
    betweenness_centrality,
    weighted_betweenness_centrality,
)


class TestSequentialWeightedBrandes:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        g = random_weighted_graph(
            25, 0.2, seed=seed, distinct_weights=False
        )
        gx = nx.Graph()
        for u, v, d in g.edges(data=True):
            gx.add_edge(u, v, weight=d.weight)
        gx.add_nodes_from(g.vertices())
        theirs = nx.betweenness_centrality(
            gx, normalized=False, weight="weight"
        )
        ours = weighted_betweenness_centrality(g)
        for v in g.vertices():
            # networkx halves undirected pair sums.
            assert ours[v] / 2.0 == pytest.approx(theirs[v])

    def test_uniform_weights_match_unweighted(self):
        g = path_graph(7)
        assert weighted_betweenness_centrality(g) == pytest.approx(
            betweenness_centrality(g)
        )


class TestVertexCentricWeightedBetweenness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_sequential(self, seed):
        g = random_weighted_graph(
            20, 0.25, seed=seed, distinct_weights=False
        )
        result = weighted_betweenness(g)
        values = weighted_betweenness_values(result)
        reference = weighted_betweenness_centrality(g)
        for v in g.vertices():
            assert values[v] == pytest.approx(
                reference[v], abs=1e-6
            )

    def test_tied_shortest_paths(self):
        # A diamond with two equal-cost routes: sigma counting must
        # split dependencies between the branches.
        g = Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_edge(0, 2, weight=1.0)
        g.add_edge(1, 3, weight=1.0)
        g.add_edge(2, 3, weight=1.0)
        g.add_edge(3, 4, weight=2.0)
        values = weighted_betweenness_values(weighted_betweenness(g))
        assert values[1] == pytest.approx(2.0)
        assert values[2] == pytest.approx(2.0)
        assert values[3] == pytest.approx(7.0)

    def test_weights_change_the_routes(self):
        # A triangle with one heavy edge: shortest routes avoid it,
        # so the opposite vertex gains betweenness that the
        # unweighted analysis would miss.
        g = Graph()
        g.add_edge(0, 1, weight=10.0)
        g.add_edge(0, 2, weight=1.0)
        g.add_edge(1, 2, weight=1.0)
        g = g.freeze()
        values = weighted_betweenness_values(weighted_betweenness(g))
        unweighted = betweenness_centrality(g)
        assert values[2] == pytest.approx(2.0)  # relays 0 <-> 1
        assert unweighted[2] == 0.0

    def test_sampled_sources(self):
        g = random_weighted_graph(
            22, 0.2, seed=5, distinct_weights=False
        )
        sources = [0, 3, 9]
        result = weighted_betweenness(g, sources=sources)
        values = weighted_betweenness_values(result)
        reference = weighted_betweenness_centrality(
            g, sources=sources
        )
        for v in g.vertices():
            assert values[v] == pytest.approx(
                reference[v], abs=1e-6
            )

    def test_disconnected_source(self):
        g = Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_vertex(2)
        result = weighted_betweenness(g)
        values = weighted_betweenness_values(result)
        assert values == {0: 0.0, 1: 0.0, 2: 0.0}

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            weighted_betweenness(path_graph(3), sources=[])

    def test_superstep_cost_is_the_story(self):
        # Expressible but expensive: the per-source phase pipeline
        # needs many more supersteps than the unweighted BFS waves.
        from repro.algorithms import betweenness_centrality as vc_bc

        g = random_weighted_graph(
            18, 0.25, seed=6, distinct_weights=False
        )
        weighted = weighted_betweenness(g)
        unweighted = vc_bc(g)
        assert weighted.num_supersteps > unweighted.num_supersteps
