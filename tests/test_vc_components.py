"""Tests for the vertex-centric connectivity rows (3, 4, 6, 10)."""

import math

import pytest

from repro.algorithms import (
    hash_min_components,
    sv_component_labels,
    sv_components,
    sv_spanning_forest,
    weakly_connected_components,
)
from repro.graph import (
    Graph,
    connected_components as ref_components,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)
from repro.sequential import (
    connected_components as seq_components,
    weakly_connected_components as seq_wcc,
)
from tests.conftest import assert_same_partition


class TestHashMin:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_labels_match_bfs(self, seed):
        g = erdos_renyi_graph(50, 0.04, seed=seed)
        result = hash_min_components(g)
        assert result.values == seq_components(g)

    def test_isolated_vertices(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("b")
        g.add_edge("c", "d")
        result = hash_min_components(g)
        assert result.values["a"] == "a"
        assert result.values["c"] == result.values["d"] == "c"

    def test_supersteps_track_diameter(self):
        # O(δ) supersteps: a path needs ~n rounds, a star ~2.
        path = hash_min_components(path_graph(40))
        star = hash_min_components(star_graph(40))
        assert path.num_supersteps >= 39
        assert star.num_supersteps <= 4

    def test_balanced_per_superstep(self):
        # P1-P3 hold for Hash-Min (it is "balanced but not BPPA").
        g = erdos_renyi_graph(60, 0.06, seed=5)
        result = hash_min_components(g)
        assert result.bppa.message_factor <= 1.0
        assert result.bppa.storage_factor <= 1.0

    def test_work_scales_with_m_delta(self):
        # On paths, total messages grow ~quadratically (m * δ).
        small = hash_min_components(path_graph(20))
        large = hash_min_components(path_graph(40))
        ratio = (
            large.stats.total_messages / small.stats.total_messages
        )
        assert ratio > 3.0  # quadratic: ~4x for 2x size


class TestShiloachVishkin:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_labels_match_bfs(self, seed):
        g = erdos_renyi_graph(50, 0.04, seed=seed)
        result = sv_components(g)
        assert sv_component_labels(result) == seq_components(g)

    def test_long_path(self):
        g = path_graph(128)
        result = sv_components(g)
        assert set(sv_component_labels(result).values()) == {0}
        # O(log n) rounds of 16 supersteps each.
        rounds = result.num_supersteps / 16
        assert rounds <= 2 * math.log2(128)

    def test_logarithmic_supersteps_vs_hashmin(self):
        # On a long path S-V beats Hash-Min's O(δ) rounds — the
        # paper's reason to prefer it despite the log-factor work.
        g = path_graph(200)
        sv = sv_components(g)
        hm = hash_min_components(g)
        assert sv.num_supersteps < hm.num_supersteps

    def test_not_bppa_message_factor(self):
        # A root may exchange messages with many more than d(v)
        # vertices (P3 violation): on a path, the component minimum
        # (degree 1) ends up answering queries from everyone.
        g = path_graph(64)
        result = sv_components(g)
        assert result.bppa.message_factor > 1.0


class TestSpanningForest:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forest_spans_components(self, seed):
        g = erdos_renyi_graph(40, 0.06, seed=seed)
        edges, _ = sv_spanning_forest(g)
        ncomp = len(ref_components(g))
        assert len(edges) == g.num_vertices - ncomp
        skeleton = Graph()
        for v in g.vertices():
            skeleton.add_vertex(v)
        for u, v in edges:
            assert g.has_edge(u, v)
            skeleton.add_edge(u, v)
        # Same partition, no cycles.
        assert len(ref_components(skeleton.freeze())) == ncomp

    def test_tree_on_connected_graph(self):
        g = cycle_graph(20)
        edges, _ = sv_spanning_forest(g)
        assert len(edges) == 19


class TestWcc:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_labels_match_sequential(self, seed):
        g = erdos_renyi_graph(40, 0.04, seed=seed, directed=True)
        result = weakly_connected_components(g)
        assert result.values == seq_wcc(g)

    def test_direction_is_ignored(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 1)  # 2 only reaches 1 forward, but WCC joins
        result = weakly_connected_components(g)
        assert len(set(result.values.values())) == 1

    def test_partition_helper_roundtrip(self):
        g = erdos_renyi_graph(30, 0.05, seed=4, directed=True)
        result = weakly_connected_components(g)
        assert_same_partition(result.values, seq_wcc(g))
