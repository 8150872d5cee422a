"""Unit tests for the Graph builder; its reads go through the frozen
snapshot (``g.freeze()``), the one graph read API."""

import pytest

from repro.errors import (
    EdgeNotFoundError,
    VertexNotFoundError,
)
from repro.graph import Graph


class TestVertices:
    def test_add_vertex(self):
        g = Graph()
        g.add_vertex(1)
        assert g.has_vertex(1)
        assert g.num_vertices == 1
        assert 1 in g
        assert len(g) == 1

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(1, label="a")
        g.add_vertex(1)
        assert g.num_vertices == 1
        assert g.label(1) == "a"  # None label does not overwrite

    def test_add_vertex_label_overwrite(self):
        g = Graph()
        g.add_vertex(1, label="a")
        g.add_vertex(1, label="b")
        assert g.label(1) == "b"

    def test_hashable_ids(self):
        g = Graph()
        g.add_edge(("L", 0), ("R", 1))
        g.add_edge("x", frozenset({1, 2}))
        assert g.num_vertices == 4

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.remove_vertex(2)
        assert not g.has_vertex(2)
        assert g.num_edges == 0
        s = g.freeze()
        assert list(s.neighbors(1)) == []
        assert list(s.neighbors(3)) == []

    def test_remove_vertex_directed(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(3, 2)
        g.add_edge(2, 4)
        g.remove_vertex(2)
        assert g.num_edges == 0
        s = g.freeze()
        assert list(s.neighbors(1)) == []
        assert list(s.in_neighbors(4)) == []

    def test_remove_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(99)

    def test_label_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.label(0)

    def test_set_label(self):
        g = Graph()
        g.add_vertex(5)
        g.set_label(5, "L")
        assert g.label(5) == "L"


class TestEdges:
    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.has_vertex(1) and g.has_vertex(2)
        assert g.has_edge(1, 2)
        assert g.has_edge(2, 1)  # undirected
        assert g.num_edges == 1

    def test_directed_edge_is_one_way(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        assert g.has_edge(1, 2)
        assert not g.has_edge(2, 1)

    def test_weight_default_and_update(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.freeze().weight(1, 2) == 1.0
        g.set_weight(1, 2, 7.5)
        s = g.freeze()
        assert s.weight(1, 2) == 7.5
        assert s.weight(2, 1) == 7.5  # shared EdgeData

    def test_add_existing_edge_updates_in_place(self):
        g = Graph()
        g.add_edge(1, 2, weight=3.0)
        g.add_edge(1, 2, weight=9.0)
        assert g.num_edges == 1
        assert g.freeze().weight(1, 2) == 9.0

    def test_remove_edge(self):
        g = Graph()
        g.add_edge(1, 2)
        g.remove_edge(2, 1)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 0
        assert g.has_vertex(1)

    def test_remove_missing_edge_raises(self):
        g = Graph()
        g.add_vertex(1)
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 2)

    def test_weight_missing_edge_raises(self):
        g = Graph()
        with pytest.raises(EdgeNotFoundError):
            g.set_weight(1, 2, 3.0)
        with pytest.raises(EdgeNotFoundError):
            g.freeze().weight(1, 2)

    def test_self_loop(self):
        g = Graph()
        g.add_edge(1, 1)
        assert g.has_edge(1, 1)
        assert g.num_edges == 1
        g.remove_edge(1, 1)
        assert g.num_edges == 0

    def test_edges_yields_each_once_undirected(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(1, 3)
        assert len(list(g.edges())) == 3

    def test_undirected_edges_come_from_the_first_met_endpoint(self):
        # The order and orientation the durable fingerprint and the
        # CsrSnapshot rely on: an edge is yielded where a scan of the
        # adjacency first meets it, whatever happened to the graph
        # before (removals, re-insertions, self-loops, mixed ids).
        g = Graph()
        for u, v in [(3, 1), (1, 2), (2, 2), ("a", 3), (1, "a"), (5, 3)]:
            g.add_edge(u, v)
        g.remove_vertex(1)  # re-added below: now last in vertex order
        g.add_edge(2, 1)
        g.add_edge(1, 5)
        g.remove_edge("a", 3)
        g.add_edge(3, "a")

        def first_met(graph):
            seen = set()
            for u in graph.vertices():
                for v in graph.neighbors(u):
                    edge = frozenset((u, v))
                    if edge not in seen:
                        seen.add(edge)
                        yield (u, v)

        assert list(g.edges()) == list(first_met(g.freeze()))
        assert list(g.freeze().edges()) == list(g.edges())
        assert [(u, v) for u, v, _ in g.edges(data=True)] == list(
            g.edges()
        )
        assert len(list(g.edges())) == g.num_edges

    def test_edges_with_data(self):
        g = Graph()
        g.add_edge(1, 2, weight=4.0, label="road")
        ((u, v, data),) = list(g.edges(data=True))
        assert {u, v} == {1, 2}
        assert data.weight == 4.0
        assert data.label == "road"

    def test_edge_label(self):
        g = Graph(directed=True)
        g.add_edge("a", "b", label="knows")
        assert g.freeze().edge_label("a", "b") == "knows"


class TestDegrees:
    def test_undirected_degree(self):
        g = Graph()
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        s = g.freeze()
        assert s.degree(0) == 2
        assert s.total_degree(0) == 2

    def test_directed_degrees(self):
        g = Graph(directed=True)
        g.add_edge(0, 1)
        g.add_edge(2, 0)
        g.add_edge(0, 3)
        s = g.freeze()
        assert s.out_degree(0) == 2
        assert s.in_degree(0) == 1
        assert s.total_degree(0) == 3

    def test_degree_missing_vertex_raises(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.freeze().degree(1)

    def test_sorted_neighbors(self):
        g = Graph()
        for v in (5, 1, 3):
            g.add_edge(0, v)
        assert g.freeze().sorted_neighbors(0) == [1, 3, 5]

    def test_in_neighbors_directed(self):
        g = Graph(directed=True)
        g.add_edge(1, 0)
        g.add_edge(2, 0)
        s = g.freeze()
        assert sorted(s.in_neighbors(0)) == [1, 2]
        assert list(s.neighbors(0)) == []


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph()
        g.add_edge(1, 2, weight=5.0)
        s = g.freeze()
        h = s.copy().to_graph()
        h.set_weight(1, 2, 9.0)
        assert s.weight(1, 2) == 5.0
        assert h.freeze().weight(1, 2) == 9.0

    def test_copy_preserves_labels(self):
        g = Graph(directed=True)
        g.add_vertex(1, label="A")
        g.add_edge(1, 2, label="e")
        h = g.freeze().copy()
        assert h.label(1) == "A"
        assert h.edge_label(1, 2) == "e"
        assert h.directed

    def test_to_undirected(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        g.add_edge(2, 3)
        u = g.freeze().to_undirected()
        assert not u.directed
        assert u.num_edges == 2
        assert u.has_edge(3, 2)

    def test_reverse(self):
        g = Graph(directed=True)
        g.add_edge(1, 2)
        r = g.freeze().reverse()
        assert r.has_edge(2, 1)
        assert not r.has_edge(1, 2)

    def test_subgraph(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 3)
        g.add_edge(3, 4)
        s = g.freeze().subgraph([2, 3, 4])
        assert s.num_vertices == 3
        assert s.num_edges == 2
        assert not s.has_vertex(1)

    def test_subgraph_missing_vertex_raises(self):
        g = Graph()
        g.add_vertex(1)
        with pytest.raises(VertexNotFoundError):
            g.freeze().subgraph([1, 2])
