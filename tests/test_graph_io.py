"""Tests for edge-list I/O: the reader/writer pair, the chunked
streaming iterator's typed entries and line-numbered error reports,
and round-trips across the generator families."""

import io

import pytest

from repro.errors import (
    DuplicateEdgeError,
    EdgeListFormatError,
    GraphError,
)
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
    random_tree,
    random_weighted_graph,
    read_edge_list,
    write_edge_list,
)
from repro.graph.io import iter_edge_list


class TestRead:
    def test_basic(self):
        g = read_edge_list(io.StringIO("1 2\n2 3\n"))
        assert g.num_vertices == 3
        assert g.has_edge(1, 2)
        assert not g.directed

    def test_weights(self):
        g = read_edge_list(io.StringIO("1 2 3.5\n"))
        assert g.weight(1, 2) == 3.5

    def test_comments_and_blanks(self):
        g = read_edge_list(io.StringIO("# hello\n\n1 2\n"))
        assert g.num_edges == 1

    def test_directed_header(self):
        g = read_edge_list(io.StringIO("# directed\n1 2\n"))
        assert g.directed
        assert not g.has_edge(2, 1)

    def test_directed_override(self):
        g = read_edge_list(io.StringIO("1 2\n"), directed=True)
        assert g.directed

    def test_undirected_header_not_directed(self):
        g = read_edge_list(io.StringIO("# undirected n=2 m=1\n1 2\n"))
        assert not g.directed

    def test_isolated_vertices(self):
        g = read_edge_list(io.StringIO("1 2\n7\n"))
        assert g.has_vertex(7)
        assert g.degree(7) == 0

    def test_string_ids(self):
        g = read_edge_list(io.StringIO("alice bob\n"))
        assert g.has_edge("alice", "bob")

    def test_malformed_raises(self):
        with pytest.raises(GraphError):
            read_edge_list(io.StringIO("1 2 3 4 5\n"))

    def test_duplicate_updates_by_default(self):
        g = read_edge_list(io.StringIO("1 2 3.0\n1 2 5.0\n"))
        assert g.num_edges == 1
        assert g.weight(1, 2) == 5.0

    def test_duplicate_error_mode(self):
        with pytest.raises(DuplicateEdgeError) as exc:
            read_edge_list(
                io.StringIO("1 2\n2 3\n2 1\n"), on_duplicate="error"
            )
        # The error names the offending line so large files stay
        # diagnosable.
        assert "line 3" in str(exc.value)

    def test_on_duplicate_validated(self):
        with pytest.raises(ValueError):
            read_edge_list(io.StringIO("1 2\n"), on_duplicate="skip")


class TestIterEdgeList:
    def test_typed_entries_in_file_order(self):
        entries = list(
            iter_edge_list(
                io.StringIO("# directed\n7\n1 2\n2 3 4.5\n")
            )
        )
        assert entries == [
            ("header", 1, True),
            ("vertex", 2, 7),
            ("edge", 3, 1, 2, 1.0),
            ("edge", 4, 2, 3, 4.5),
        ]

    def test_unparsable_weight_carries_lineno(self):
        with pytest.raises(EdgeListFormatError) as exc:
            list(iter_edge_list(io.StringIO("1 2\n3 4 heavy\n")))
        assert exc.value.lineno == 2
        assert "heavy" in exc.value.reason
        assert exc.value.line == "3 4 heavy"

    def test_too_many_tokens_carries_lineno(self):
        with pytest.raises(EdgeListFormatError) as exc:
            list(iter_edge_list(io.StringIO("# ok\n\n1 2 3 4\n")))
        assert exc.value.lineno == 3

    def test_tiny_chunks_preserve_lines(self):
        text = "# directed n=3 m=2\n10 20 1.25\n20 30\n"
        for chunk_size in (1, 2, 3, 7):
            assert list(
                iter_edge_list(io.StringIO(text), chunk_size)
            ) == list(iter_edge_list(io.StringIO(text)))

    def test_no_trailing_newline(self):
        entries = list(iter_edge_list(io.StringIO("1 2")))
        assert entries == [("edge", 1, 1, 2, 1.0)]


class TestRoundTrip:
    def test_roundtrip_file(self, tmp_path):
        g = erdos_renyi_graph(25, 0.2, seed=8).to_graph()
        g.add_vertex(999)  # isolated
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.num_vertices == g.num_vertices
        assert h.num_edges == g.num_edges
        assert h.has_vertex(999)
        for u, v in g.edges():
            assert h.has_edge(u, v)

    def test_roundtrip_weights_directed(self, tmp_path):
        g = Graph(directed=True)
        g.add_edge(1, 2, weight=4.5)
        g.add_edge(2, 1, weight=2.0)
        path = tmp_path / "w.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.directed
        assert h.weight(1, 2) == 4.5
        assert h.weight(2, 1) == 2.0

    def test_write_to_handle(self):
        g = Graph()
        g.add_edge(1, 2)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert "1 2" in buf.getvalue()

    @pytest.mark.parametrize(
        "name,make",
        [
            ("ba", lambda: barabasi_albert_graph(40, 3, seed=6)),
            (
                "er-directed",
                lambda: erdos_renyi_graph(
                    35, 0.12, seed=7, directed=True
                ),
            ),
            ("tree", lambda: random_tree(30, seed=8)),
            (
                "weighted",
                lambda: random_weighted_graph(30, 0.15, seed=9),
            ),
        ],
        ids=["ba", "er-directed", "tree", "weighted"],
    )
    def test_generator_families_exact(self, name, make, tmp_path):
        """Round trip preserves direction, vertex set, edge
        multiset and every weight exactly, for each family the
        benchmarks and fuzz corpus draw from."""
        g = make()
        path = tmp_path / f"{name}.txt"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.directed == g.directed
        assert set(h.vertices()) == set(g.vertices())
        assert h.num_edges == g.num_edges
        for u, v, e in g.edges(data=True):
            assert h.has_edge(u, v)
            assert h.weight(u, v) == e.weight
