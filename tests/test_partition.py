"""Tests for vertex partitioners."""

import pytest

from repro.graph import (
    GreedyEdgeBalancedPartitioner,
    HashPartitioner,
    RangePartitioner,
    barabasi_albert_graph,
    partition_counts,
    path_graph,
    star_graph,
)


class TestHashPartitioner:
    def test_range_of_outputs(self):
        p = HashPartitioner(4)
        g = path_graph(100)
        for v in g.vertices():
            assert 0 <= p(v) < 4

    def test_roughly_balanced_on_contiguous_ids(self):
        g = path_graph(100)
        counts = partition_counts(g, HashPartitioner(4), 4)
        assert counts == [25, 25, 25, 25]

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_contiguity(self):
        g = path_graph(12)
        p = RangePartitioner(g, 3)
        counts = partition_counts(g, p, 3)
        assert sum(counts) == 12
        assert max(counts) - min(counts) <= 1

    def test_ranges_numerically_contiguous(self):
        # Regression: vertices used to be ordered by ``key=repr``, so
        # int ids sorted lexicographically ("10" < "2") and the
        # "contiguous ranges in sorted-id order" contract silently
        # broke for any graph with >= 10 int vertices.  With 16 ids
        # and 4 workers each range must be a numeric block of 4.
        g = path_graph(16)
        p = RangePartitioner(g, 4)
        assignment = [p(v) for v in range(16)]
        assert assignment == [v // 4 for v in range(16)]

    def test_unknown_vertex_falls_back(self):
        g = path_graph(4)
        p = RangePartitioner(g, 2)
        assert 0 <= p("missing") < 2

    def test_invalid_worker_count(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            RangePartitioner(g, 0)


class TestPartitionCounts:
    def test_out_of_range_partitioner_is_clamped(self):
        # Regression: the diagnostic used to index raw partitioner
        # output, crashing with IndexError on partitioners the
        # engines accept (every engine clamps through ``owner_for``).
        g = path_graph(16)
        counts = partition_counts(g, lambda v: v + 7, 3)
        assert sum(counts) == 16
        expected = [0, 0, 0]
        for v in range(16):
            expected[(v + 7) % 3] += 1
        assert counts == expected


class TestGreedyPartitioner:
    def test_tiebreak_is_numeric_not_repr(self):
        # Regression: equal-degree ties used to break on ``repr``, so
        # int ids >= 10 were assigned out of numeric order.  On a
        # cycle every vertex has degree 2 and LPT degenerates to
        # round-robin in the tie-break order, which must be numeric.
        from repro.graph import cycle_graph

        g = cycle_graph(16)
        p = GreedyEdgeBalancedPartitioner(g, 4)
        assert [p(v) for v in range(16)] == [v % 4 for v in range(16)]

    def test_degree_balance_on_skewed_graph(self):
        g = star_graph(41)  # hub degree 40, leaves degree 1
        p = GreedyEdgeBalancedPartitioner(g, 4)
        loads = [0] * 4
        for v in g.vertices():
            loads[p(v)] += g.degree(v)
        # Hub alone weighs as much as all leaves; greedy LPT puts the
        # hub on one worker and spreads leaves over the others.
        assert max(loads) <= 41

    def test_all_vertices_assigned(self):
        g = barabasi_albert_graph(60, 2, seed=1)
        p = GreedyEdgeBalancedPartitioner(g, 5)
        counts = partition_counts(g, p, 5)
        assert sum(counts) == 60

    def test_invalid_worker_count(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            GreedyEdgeBalancedPartitioner(g, -1)


class TestBfsGrowFrontier:
    def test_frontier_seeds_next_region(self):
        # Regression: when a region filled, the grower used to
        # ``pending.clear()`` — discarding the live frontier — and
        # restart the next region from the next *repr-ordered* seed,
        # which on a 16-path put vertices 4..7 in the LAST region
        # (repr order visits 10..15 before 2).  Keeping the frontier
        # makes consecutive regions grow from each other's boundary:
        # monotone contiguous blocks.
        from repro.graph import BfsGrowPartitioner

        g = path_graph(16)
        p = BfsGrowPartitioner(g, 4)
        assert [p(v) for v in range(16)] == [v // 4 for v in range(16)]

    def test_beats_hash_on_grid_cross_worker_edges(self):
        # The locality test the frontier fix restores: on a grid the
        # grown regions must cut far fewer edges than hash.
        from repro.graph import (
            BfsGrowPartitioner,
            HashPartitioner,
            grid_graph,
            partition_metrics,
        )

        g = grid_graph(12, 12)
        grown = partition_metrics(g, BfsGrowPartitioner(g, 6), 6).edge_cut
        hashed = partition_metrics(g, HashPartitioner(6), 6).edge_cut
        assert grown < hashed / 2
