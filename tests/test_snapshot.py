"""Property tests for :class:`repro.graph.snapshot.CsrSnapshot`.

The contract under test is exact structural equivalence with the live
dict-of-dicts :class:`Graph` it froze — same vertex iteration order,
same per-row edge insertion order, same weights bit for bit — over
every graph family the fuzz corpus draws from (including tuple and
string vertex ids), in both residence modes (in-RAM ``from_graph``
and saved-then-memory-mapped), plus the on-disk format's error paths
and the streamed edge-list builder's byte-for-byte equivalence.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.errors import (
    DuplicateEdgeError,
    SnapshotCorruptionError,
    SnapshotError,
    VertexNotFoundError,
)
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
    grid_graph,
    random_labeled_digraph,
    random_tree,
    random_weighted_graph,
    read_edge_list,
    write_edge_list,
)
from repro.graph.io import write_snapshot_from_edge_list
from repro.graph.snapshot import CsrSnapshot


def _string_id_graph() -> Graph:
    g = Graph(directed=True)
    base = erdos_renyi_graph(30, 0.15, seed=17, directed=True)
    for v in base.vertices():
        g.add_vertex(f"v{v}")
    for u, v, edata in base.edges(data=True):
        g.add_edge(f"v{u}", f"v{v}", weight=edata.weight)
    return g


def _mixed_weight_graph() -> Graph:
    """Int, float and negative weights — the weight column must fall
    back to the exact pickled representation, not coerce to float."""
    g = Graph()
    g.add_edge(0, 1, weight=2)
    g.add_edge(1, 2, weight=-3.5)
    g.add_edge(2, 3)
    g.add_edge(3, 0, weight=10**19)
    g.add_vertex(99)
    return g


#: One entry per fuzz-corpus family: scale-free, sparse random
#: (directed and undirected), tree, grid (tuple ids), weighted,
#: labeled digraph, string ids, exotic weights.
FAMILIES = [
    ("ba", lambda: barabasi_albert_graph(60, 3, seed=3)),
    ("er", lambda: erdos_renyi_graph(48, 0.12, seed=5)),
    (
        "er-directed",
        lambda: erdos_renyi_graph(48, 0.10, seed=7, directed=True),
    ),
    ("tree", lambda: random_tree(40, seed=11)),
    ("grid", lambda: grid_graph(6, 5)),
    (
        "weighted",
        lambda: random_weighted_graph(36, 0.15, seed=13),
    ),
    (
        "labeled",
        lambda: random_labeled_digraph(
            30, 0.15, labels=("a", "b"), seed=19
        ),
    ),
    ("string-ids", _string_id_graph),
    ("mixed-weights", _mixed_weight_graph),
]

FAMILY_IDS = [f[0] for f in FAMILIES]


def _row(graph, v, incoming=False):
    """One out- (or in-) row of a builder (or a snapshot) as
    ``(neighbor, weight)`` pairs in row order, through the bulk
    ``rows`` read a freeze copies: the test's reader of a builder."""
    _lens, neighbors, weights = graph.rows([v], incoming)
    return list(zip(neighbors, weights))


def assert_equivalent(graph: Graph, snap: CsrSnapshot) -> None:
    """Every read the runtime performs, compared exactly."""
    assert snap.directed == graph.directed
    assert snap.num_vertices == graph.num_vertices
    assert snap.num_edges == graph.num_edges
    assert len(snap) == graph.num_vertices
    vs = list(graph.vertices())
    assert list(snap.vertices()) == vs
    # The CSR position layer must agree with the id layer.
    assert snap.positions(vs) == list(range(len(vs)))
    offsets, targets = snap.edge_columns()[:2]
    for p, v in enumerate(vs):
        assert v in snap
        assert snap.has_vertex(v)
        out_row, in_row = _row(graph, v), _row(graph, v, incoming=True)
        assert list(snap.neighbors(v)) == [u for u, _ in out_row]
        assert list(snap.in_neighbors(v)) == [u for u, _ in in_row]
        assert list(snap.out_edge_items(v)) == out_row
        assert list(snap.in_edge_items(v)) == in_row
        assert snap.degree(v) == len(out_row)
        assert snap.in_degree(v) == len(in_row)
        assert snap.label(v) == graph.label(v)
        row_ids = [vs[q] for q in targets[offsets[p]:offsets[p + 1]]]
        assert row_ids == [u for u, _ in out_row]
    g_edges = [
        (u, v, e.weight, e.label)
        for u, v, e in graph.edges(data=True)
    ]
    s_edges = [
        (u, v, e.weight, e.label)
        for u, v, e in snap.edges(data=True)
    ]
    assert s_edges == g_edges
    for u, v, w, _label in g_edges:
        assert snap.has_edge(u, v)
        got = snap.weight(u, v)
        assert got == w and type(got) is type(w)


@pytest.mark.parametrize(
    "name,make", FAMILIES, ids=FAMILY_IDS
)
def test_from_graph_equivalent(name, make):
    graph = make()
    assert_equivalent(graph, CsrSnapshot.from_graph(graph))


@pytest.mark.parametrize(
    "name,make", FAMILIES, ids=FAMILY_IDS
)
def test_saved_and_mmapped_equivalent(name, make, tmp_path):
    graph = make()
    directory = str(tmp_path / "snap")
    CsrSnapshot.from_graph(graph).save(directory)
    snap = CsrSnapshot.open(directory)
    assert snap.path is not None
    assert_equivalent(graph, snap)
    snap.close()


@pytest.mark.parametrize(
    "name,make", FAMILIES, ids=FAMILY_IDS
)
def test_to_graph_round_trip(name, make):
    """``to_graph`` gives back the same builder: vertex order, every
    out- and in-row in its order, weights, labels and edges."""
    graph = make()
    back = CsrSnapshot.from_graph(graph).to_graph()
    assert back.directed == graph.directed
    assert list(back.vertices()) == list(graph.vertices())
    assert back.num_edges == graph.num_edges
    for v in graph.vertices():
        assert _row(back, v) == _row(graph, v)
        assert _row(back, v, incoming=True) == _row(graph, v, incoming=True)
        assert back.label(v) == graph.label(v)
    assert [
        (u, v, e.weight, e.label) for u, v, e in back.edges(data=True)
    ] == [(u, v, e.weight, e.label) for u, v, e in graph.edges(data=True)]


class TestErrors:
    def test_unknown_vertex(self):
        snap = CsrSnapshot.from_graph(erdos_renyi_graph(8, 0.3, seed=1))
        assert snap.positions(["nope"]) == [None]
        with pytest.raises(VertexNotFoundError):
            list(snap.neighbors("nope"))

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError):
            CsrSnapshot.open(str(tmp_path / "absent"))

    def test_corrupt_data_detected(self, tmp_path):
        directory = str(tmp_path / "snap")
        CsrSnapshot.from_graph(
            barabasi_albert_graph(30, 2, seed=4)
        ).save(directory)
        data = os.path.join(directory, "snapshot.bin")
        blob = bytearray(open(data, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(data, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotCorruptionError):
            CsrSnapshot.open(directory)

    def test_corrupt_manifest_detected(self, tmp_path):
        directory = str(tmp_path / "snap")
        CsrSnapshot.from_graph(
            erdos_renyi_graph(10, 0.3, seed=2)
        ).save(directory)
        manifest = os.path.join(directory, "MANIFEST.json")
        with open(manifest, "w") as fh:
            fh.write("{ not json")
        with pytest.raises(SnapshotCorruptionError):
            CsrSnapshot.open(directory)

    def test_truncated_data_detected(self, tmp_path):
        directory = str(tmp_path / "snap")
        CsrSnapshot.from_graph(
            erdos_renyi_graph(20, 0.2, seed=3)
        ).save(directory)
        data = os.path.join(directory, "snapshot.bin")
        blob = open(data, "rb").read()
        with open(data, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotCorruptionError):
            CsrSnapshot.open(directory)


class TestPickling:
    def test_in_ram_pickles_by_value(self):
        graph = grid_graph(4, 4)
        snap = CsrSnapshot.from_graph(graph)
        clone = pickle.loads(pickle.dumps(snap))
        assert clone.path is None
        assert_equivalent(graph, clone)

    def test_disk_backed_pickles_as_path(self, tmp_path):
        graph = erdos_renyi_graph(25, 0.2, seed=9)
        directory = str(tmp_path / "snap")
        CsrSnapshot.from_graph(graph).save(directory)
        snap = CsrSnapshot.open(directory)
        blob = pickle.dumps(snap)
        # The adjacency must not ride the pickle: the blob stays far
        # smaller than the data file it points at.
        assert len(blob) < os.path.getsize(
            os.path.join(directory, "snapshot.bin")
        )
        clone = pickle.loads(blob)
        assert clone.path == snap.path
        assert_equivalent(graph, clone)


class TestStreamedBuilder:
    def test_byte_identical_to_from_graph(self, tmp_path):
        graph = random_weighted_graph(40, 0.12, seed=21)
        listing = str(tmp_path / "edges.txt")
        write_edge_list(graph, listing)

        via_graph = str(tmp_path / "via_graph")
        CsrSnapshot.from_graph(read_edge_list(listing)).save(
            via_graph
        )
        via_stream = str(tmp_path / "via_stream")
        snap = write_snapshot_from_edge_list(listing, via_stream)
        assert type(snap) is CsrSnapshot
        for name in ("MANIFEST.json", "snapshot.bin"):
            a = open(os.path.join(via_graph, name), "rb").read()
            b = open(os.path.join(via_stream, name), "rb").read()
            assert a == b, name
        assert_equivalent(read_edge_list(listing), snap)
        snap.close()

    def test_directed_stream(self, tmp_path):
        graph = erdos_renyi_graph(30, 0.12, seed=23, directed=True)
        listing = str(tmp_path / "edges.txt")
        write_edge_list(graph, listing)
        snap = write_snapshot_from_edge_list(
            listing, str(tmp_path / "snap")
        )
        assert snap.directed
        assert_equivalent(read_edge_list(listing), snap)
        snap.close()

    def test_tiny_chunk_size(self, tmp_path):
        graph = barabasi_albert_graph(25, 2, seed=27)
        listing = str(tmp_path / "edges.txt")
        write_edge_list(graph, listing)
        snap = write_snapshot_from_edge_list(
            listing, str(tmp_path / "snap"), chunk_size=3
        )
        assert_equivalent(read_edge_list(listing), snap)
        snap.close()

    def test_duplicate_edge_raises(self, tmp_path):
        listing = str(tmp_path / "edges.txt")
        with open(listing, "w") as fh:
            fh.write("1 2\n2 3\n2 1\n")
        with pytest.raises(DuplicateEdgeError):
            write_snapshot_from_edge_list(
                listing, str(tmp_path / "snap")
            )


def test_is_graph_snapshot():
    """A generator's output is frozen, its thaw is a builder, and a
    freeze of either is a snapshot (a snapshot's is itself)."""
    g = erdos_renyi_graph(5, 0.5, seed=1)
    assert type(g) is CsrSnapshot and g.freeze() is g
    assert type(g.to_graph()) is Graph
    assert type(g.to_graph().freeze()) is CsrSnapshot
