"""Tests for vertex partitioners."""

import enum
import random
import zlib

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


def _reference_canonical_bytes(value) -> bytes:
    """The vertex-id encoder as it stood before its exact-type fast
    paths, kept as the reference they must reproduce byte for byte."""
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"o1" if value else b"o0"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, tuple):
        parts = [_reference_canonical_bytes(item) for item in value]
        return (
            b"t"
            + str(len(parts)).encode("ascii")
            + b"("
            + b"|".join(parts)
            + b")"
        )
    if isinstance(value, frozenset):
        parts = sorted(_reference_canonical_bytes(item) for item in value)
        return b"z(" + b"|".join(parts) + b")"
    return b"r" + repr(value).encode("utf-8")


def _reference_stable_hash(vertex) -> int:
    if isinstance(vertex, bool):
        return int(vertex)
    if isinstance(vertex, int):
        return vertex
    return zlib.crc32(_reference_canonical_bytes(vertex)) & 0xFFFFFFFF


class _Colour(enum.IntEnum):
    RED = 1
    BLUE = -7


class _Str(str):
    pass


class _Pair(tuple):
    pass


def _random_id(rng, depth=0):
    """One vertex id of a kind the encoder must keep as it was."""
    pick = rng.randrange(14 if depth < 2 else 11)
    if pick == 0:
        return rng.randrange(-1000, 1000)
    if pick == 1:
        return rng.choice([1, -1]) * rng.randrange(2**62, 2**200)
    if pick == 2:
        return rng.choice([float("nan"), -0.0, 0.0, 1e308, rng.random()])
    if pick == 3:
        return "".join(map(chr, rng.sample(range(32, 0x2FFF), 5)))
    if pick == 4:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(4)))
    if pick == 5:
        return None
    if pick == 6:
        return rng.choice([True, False])
    if pick == 7:
        return rng.choice(list(_Colour))
    if pick == 8:
        return _Str("sub-%d" % rng.randrange(99))
    if pick == 9:
        return frozenset(rng.sample(range(50), rng.randrange(4)))
    if pick == 10:
        return rng.randrange(150)
    kids = [_random_id(rng, depth + 1) for _ in range(rng.randrange(4))]
    return _Pair(kids) if pick == 11 else tuple(kids)


def test_stable_hash_fast_paths_keep_the_encoding():
    from repro.graph.partition import _canonical_bytes, stable_hash

    rng = random.Random(20)
    ids = [_random_id(rng) for _ in range(22500)]
    ids += [(r, c) for r in range(30) for c in range(30)]
    for vertex in ids:
        assert _canonical_bytes(vertex) == _reference_canonical_bytes(
            vertex
        ), vertex
        assert stable_hash(vertex) == _reference_stable_hash(vertex)


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
