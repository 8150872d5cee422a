"""Immutable CSR graph snapshots, optionally memory-mapped from disk.

The mutable :class:`~repro.graph.graph.Graph` is a dict-of-dicts:
every vertex row is a hash table of ``EdgeData`` objects, so resident
memory scales with graph size and the Table-1 suite caps out at what
fits in RAM.  :class:`CsrSnapshot` is the out-of-core answer — an
*immutable* compressed-sparse-row view of the same graph:

* ``out_offsets`` / ``out_targets`` / ``out_weights`` — forward
  adjacency as flat int64/float64 columns over *positions* (the frozen
  0..n-1 numbering of ``Graph.vertices()`` insertion order, which is
  also the order the engines' :class:`~repro.graph.partition.
  DenseIndex` is derived from);
* the mirror ``in_*`` columns for directed graphs (reverse adjacency
  in edge-insertion order, the builder's predecessor rows);
* a type-tagged id table mapping positions back to the original
  hashable vertex ids (an int64 column when every id is an int, a
  pickled list otherwise — tuple and string ids round-trip exactly).

A snapshot is the package's one graph *read* API — ``directed``,
``num_vertices``, ``vertices()``, ``neighbors()``, ``in_neighbors()``,
``weight()``, degrees, ``edges(data=True)``, labels,
``out_edge_items()`` / ``in_edge_items()``, the bulk read ``rows()``
and the derived graphs ``copy()``, ``to_undirected()``, ``reverse()``
and ``subgraph()``, each a snapshot in this one's vertex and row
order.  The :class:`~repro.graph.graph.Graph` builder has none of
these reads: it is frozen once (``Graph.freeze()``) and read as a
snapshot, and ``to_graph()`` thaws a snapshot for editing, each row
in its frozen order.  ``weight()`` scans the row (O(degree)): a loop
over a vertex's neighbours reads ``out_edge_items()`` instead.
Iteration order is preserved bit for bit (vertex insertion order;
per-row edge insertion order), which is what makes snapshot-backed
runs byte-identical to in-memory runs.

Every input starts as one: the generators and the edge-list reader
build through ``Graph``, freeze once and return the snapshot.  Every
run's topology is one snapshot
(:attr:`~repro.bsp.state.StateStore.topology`): the one it is handed,
or a caller's ``Graph`` frozen once.  The runtime reads it by
position (:meth:`CsrSnapshot.rows_at`, a run's vertex states knowing
their positions), builds a vertex's edge dicts from it only when the
per-vertex tier first runs the vertex's lane (:func:`edge_dicts`),
and compares a materialized row with its frozen
row (:func:`same_rows`) to decide whether a checkpoint may share the
baseline.

On-disk format
--------------
A snapshot directory holds one JSON manifest plus one binary data
file, following the durable-checkpoint conventions of
:mod:`repro.bsp.durability` (atomic tmp+fsync+rename writes, CRC'd
sections, typed corruption errors)::

    MANIFEST.json    # format version, counts, per-section index:
                     #   {offset, length, crc32, typecode, count}
    snapshot.bin     # the concatenated sections, raw little-endian
                     # int64/float64 columns (or pickled payloads for
                     # object sections: non-int ids, labels,
                     # non-float weights)

:meth:`CsrSnapshot.open` memory-maps ``snapshot.bin`` read-only —
after the one-time CRC verification pass, the OS page cache is the
only cache, so a rank that touches one shard's rows faults in only
that shard's pages.  Every integrity failure raises
:class:`~repro.errors.SnapshotCorruptionError`; raw pickle or struct
tracebacks never escape.

Disk-backed snapshots pickle as their path (ranks of the parallel
backend re-open and re-map them instead of receiving adjacency over a
pipe); in-RAM snapshots pickle by value.
"""

from __future__ import annotations

import json
import mmap
import operator
import os
import pickle
import sys
import zlib
from array import array
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat, tee
from typing import (
    Any,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import (
    EdgeNotFoundError,
    SnapshotCorruptionError,
    SnapshotError,
    VertexNotFoundError,
)
from repro.graph.graph import EdgeData, Graph

#: Version of the on-disk layout; bumped on incompatible changes.
FORMAT_VERSION = 1

MANIFEST_NAME = "MANIFEST.json"
DATA_NAME = "snapshot.bin"

_OFFSET_TYPECODE = "q"
_WEIGHT_TYPECODE = "d"
#: Manifest tag for sections stored as pickled Python objects.
_PICKLE_TAG = "pickle"

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _pack_weights(weights: List[Any]):
    """The most compact exact representation of an edge-weight column.

    ``None`` when every weight is the default ``1.0`` (the column is
    omitted entirely); an ``array('d')`` when every weight is an exact
    ``float`` (round-trips bit for bit); otherwise the list itself
    (pickled on save), so int or exotic weights keep their exact type
    and the byte-identity contract.
    """
    if not weights or set(map(type, weights)) == {float}:
        if weights.count(1.0) == len(weights):
            return None
        return array(_WEIGHT_TYPECODE, weights)
    return list(weights)


def _csr(graph, ids, pos, incoming=False):
    """One adjacency direction of ``graph`` as CSR columns ``(offsets,
    targets, weights)`` from one bulk read of its rows: offsets
    accumulate the row lengths, one map turns the flattened rows into
    positions (``pos`` is ``None`` when every id is its own position),
    the weights are packed."""
    lens, neighbors, weights = graph.rows(ids, incoming)
    return (
        array(_OFFSET_TYPECODE, accumulate(lens, initial=0)),
        array(_OFFSET_TYPECODE, neighbors if pos is None else map(
            pos.__getitem__, neighbors
        )),
        _pack_weights(list(weights)),
    )


def _ids_storable_as_int64(ids: Sequence[Hashable]) -> bool:
    return all(
        type(v) is int and _INT64_MIN <= v <= _INT64_MAX for v in ids
    )


class CsrSnapshot:
    """An immutable CSR view of a graph (see the module docstring).

    Every generator and :func:`repro.graph.io.read_edge_list` return
    one; build one with :meth:`from_graph`, stream one from an edge
    list with :func:`repro.graph.io.write_snapshot_from_edge_list`, or
    memory-map a saved one with :meth:`open`.  The constructor wires
    pre-built columns together and is not meant to be called directly.
    """

    def __init__(
        self,
        *,
        directed: bool,
        ids: List[Hashable],
        out_offsets,
        out_targets,
        out_weights=None,
        in_offsets=None,
        in_targets=None,
        in_weights=None,
        num_edges: int,
        vertex_labels: Optional[Dict[int, Any]] = None,
        edge_labels: Optional[Dict[Tuple[int, int], Any]] = None,
        path: Optional[str] = None,
        _mmap=None,
        _file=None,
    ):
        self._directed = directed
        self._ids = ids
        self._out_off = out_offsets
        self._out_tgt = out_targets
        self._out_w = out_weights
        if directed:
            self._in_off = in_offsets
            self._in_tgt = in_targets
            self._in_w = in_weights
        else:
            self._in_off = out_offsets
            self._in_tgt = out_targets
            self._in_w = out_weights
        self._num_edges = num_edges
        self._vlabels = vertex_labels or {}
        self._elabels = edge_labels or {}
        self._path = path
        self._mmap = _mmap
        self._fh = _file

    @cached_property
    def _pos(self) -> Dict[Hashable, int]:
        """Vertex id -> position, built on the first read by id (a run
        reads its own topology by position and never needs it)."""
        pos = dict(zip(self._ids, range(len(self._ids))))
        if len(pos) != len(self._ids):
            raise SnapshotError("duplicate vertex ids in snapshot")
        return pos

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_graph(cls, graph) -> "CsrSnapshot":
        """Freeze a :class:`Graph` builder (what ``Graph.freeze()``
        calls) or copy a snapshot into in-RAM CSR columns, preserving
        vertex and per-row edge iteration order exactly.  The labels
        are scanned only when the source says it holds any
        (:meth:`has_labels`)."""
        ids = list(graph.vertices())
        # Ids 0..n-1 in order (what the generators make) are their own
        # positions: no table lookup per edge.
        pos = None
        if set(map(type, ids)) - {int} or ids != list(range(len(ids))):
            pos = dict(zip(ids, range(len(ids))))
        out_off, out_tgt, out_w = _csr(graph, ids, pos)
        in_off = in_tgt = in_w = None
        if graph.directed:
            in_off, in_tgt, in_w = _csr(graph, ids, pos, incoming=True)
        vlabels = {}
        elabels: Dict[Tuple[int, int], Any] = {}
        if graph.has_labels():
            pos = pos or dict(zip(ids, range(len(ids))))
            for i, v in enumerate(ids):
                label = graph.label(v)
                if label is not None:
                    vlabels[i] = label
            for u, v, data in graph.edges(data=True):
                if data.label is not None:
                    pu, pv = pos[u], pos[v]
                    elabels[(pu, pv)] = data.label
                    if not graph.directed:
                        elabels[(pv, pu)] = data.label
        return cls(
            directed=graph.directed,
            ids=ids,
            out_offsets=out_off,
            out_targets=out_tgt,
            out_weights=out_w,
            in_offsets=in_off,
            in_targets=in_tgt,
            in_weights=in_w,
            num_edges=graph.num_edges,
            vertex_labels=vlabels,
            edge_labels=elabels,
        )

    def freeze(self) -> "CsrSnapshot":
        """This snapshot, already frozen (as ``Graph.freeze()`` is)."""
        return self

    def to_graph(self) -> Graph:
        """Thaw into a mutable :class:`~repro.graph.graph.Graph` to
        edit an input (a generator's, say); the runtime never needs
        this.  ``s.to_graph().freeze()`` has ``s``'s columns exactly."""
        return self._thaw(range(len(self._ids)))

    def _thaw(self, kept, flip=False) -> Graph:
        """A builder of the vertices at the ascending positions
        ``kept``, each row restricted to them and written in its order
        (an undirected edge's two entries, and a directed edge's out-
        and in-entry, share one ``EdgeData``); ``flip`` swaps the out-
        and in-rows."""
        g, ids, new = Graph(directed=self._directed), self._ids, set(kept)
        for p in kept:
            g.add_vertex(ids[p], self._vlabels.get(p))
        out = self._out_off, self._out_tgt, self._out_w
        inc = self._in_off, self._in_tgt, self._in_w
        (off, tgt, w), (in_off, in_tgt, _) = (inc, out) if flip else (out, inc)
        adj = g._adj
        for p in kept:
            row = adj[ids[p]]
            for i in range(off[p], off[p + 1]):
                q = tgt[i]
                if q not in new:
                    continue
                if self._directed or q >= p:
                    row[ids[q]] = EdgeData(
                        1.0 if w is None else w[i],
                        self._elabels.get((q, p) if flip else (p, q)),
                    )
                    g._num_edges += 1
                else:  # written with row q, earlier
                    row[ids[q]] = adj[ids[q]][ids[p]]
        if self._directed:
            for p in kept:
                g._pred[ids[p]] = {
                    ids[q]: adj[ids[q]][ids[p]]
                    for q in in_tgt[in_off[p]:in_off[p + 1]] if q in new
                }
        g._labelled = self.has_labels()
        return g

    # ------------------------------------------------------------------
    # Graph read API
    # ------------------------------------------------------------------

    @property
    def directed(self) -> bool:
        return self._directed

    @property
    def num_vertices(self) -> int:
        return len(self._ids)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def path(self) -> Optional[str]:
        """The on-disk directory backing this snapshot (``None`` for
        in-RAM snapshots)."""
        return self._path

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, vertex: Hashable) -> bool:
        return vertex in self._pos

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        where = f" path={self._path!r}" if self._path else ""
        return (
            f"<CsrSnapshot {kind} n={self.num_vertices} "
            f"m={self.num_edges}{where}>"
        )

    def has_vertex(self, vertex: Hashable) -> bool:
        return vertex in self._pos

    def vertices(self) -> Iterator[Hashable]:
        return iter(self._ids)

    def label(self, vertex: Hashable) -> Any:
        """The label of ``vertex`` (``None`` if unlabeled)."""
        return self._vlabels.get(self._position(vertex))

    def has_labels(self) -> bool:
        """Whether any vertex or edge carries a label."""
        return bool(self._vlabels or self._elabels)

    def _position(self, vertex: Hashable) -> int:
        pos = self._pos.get(vertex)
        if pos is None:
            raise VertexNotFoundError(vertex)
        return pos

    def neighbors(self, vertex: Hashable) -> Iterator[Hashable]:
        """Out-neighbors (directed) or neighbors (undirected)."""
        pos = self._position(vertex)
        ids = self._ids
        tgt = self._out_tgt
        lo, hi = self._out_off[pos], self._out_off[pos + 1]
        return (ids[tgt[i]] for i in range(lo, hi))

    out_neighbors = neighbors

    def in_neighbors(self, vertex: Hashable) -> Iterator[Hashable]:
        """In-neighbors; equal to :meth:`neighbors` when undirected."""
        pos = self._position(vertex)
        ids = self._ids
        tgt = self._in_tgt
        lo, hi = self._in_off[pos], self._in_off[pos + 1]
        return (ids[tgt[i]] for i in range(lo, hi))

    def sorted_neighbors(self, vertex: Hashable) -> list:
        """Neighbors sorted by id — the adjacency-list order the Euler
        tour construction of the paper (§3.4.1) assumes."""
        if vertex not in self._pos:
            return []
        return sorted(self.neighbors(vertex))

    def degree(self, vertex: Hashable) -> int:
        """Degree (undirected) or out-degree (directed)."""
        pos = self._position(vertex)
        return self._out_off[pos + 1] - self._out_off[pos]

    out_degree = degree

    def in_degree(self, vertex: Hashable) -> int:
        pos = self._position(vertex)
        return self._in_off[pos + 1] - self._in_off[pos]

    def total_degree(self, vertex: Hashable) -> int:
        """``d(v)`` undirected, ``d_in(v) + d_out(v)`` directed — the
        balance denominator of the BPPA properties (§2.2)."""
        if self._directed:
            return self.in_degree(vertex) + self.out_degree(vertex)
        return self.degree(vertex)

    def out_edge_items(
        self, vertex: Hashable
    ) -> Iterator[Tuple[Hashable, Any]]:
        """``(neighbor, weight)`` pairs in row (edge-insertion) order.
        A per-row read for callers: a run reads its topology by
        position (:meth:`rows_at`) and builds edge dicts with
        :func:`edge_dicts`, never through this."""
        pos = self._position(vertex)
        lo, hi = self._out_off[pos], self._out_off[pos + 1]
        ids = self._ids
        tgt = self._out_tgt
        w = self._out_w
        if w is None:
            for i in range(lo, hi):
                yield ids[tgt[i]], 1.0
        else:
            for i in range(lo, hi):
                yield ids[tgt[i]], w[i]

    def in_edge_items(
        self, vertex: Hashable
    ) -> Iterator[Tuple[Hashable, Any]]:
        """``(in-neighbor, weight)`` pairs in reverse-row order; equal
        to :meth:`out_edge_items` when undirected."""
        pos = self._position(vertex)
        lo, hi = self._in_off[pos], self._in_off[pos + 1]
        ids = self._ids
        tgt = self._in_tgt
        w = self._in_w
        if w is None:
            for i in range(lo, hi):
                yield ids[tgt[i]], 1.0
        else:
            for i in range(lo, hi):
                yield ids[tgt[i]], w[i]

    def _find_slot(self, upos: int, vpos: int) -> int:
        """The flat column index of edge ``(upos, vpos)`` in the
        forward adjacency, or -1."""
        tgt = self._out_tgt
        for i in range(self._out_off[upos], self._out_off[upos + 1]):
            if tgt[i] == vpos:
                return i
        return -1

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        upos = self._pos.get(u)
        vpos = self._pos.get(v)
        if upos is None or vpos is None:
            return False
        return self._find_slot(upos, vpos) >= 0

    def weight(self, u: Hashable, v: Hashable) -> float:
        upos = self._pos.get(u)
        vpos = self._pos.get(v)
        slot = (
            self._find_slot(upos, vpos)
            if upos is not None and vpos is not None
            else -1
        )
        if slot < 0:
            raise EdgeNotFoundError(u, v)
        return 1.0 if self._out_w is None else self._out_w[slot]

    def edge_label(self, u: Hashable, v: Hashable) -> Any:
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        return self._elabels.get((self._pos[u], self._pos[v]))

    def edges(self, data: bool = False) -> Iterator[Tuple]:
        """Iterate edges in the same order and orientation as the
        source :class:`Graph`'s ``edges()``: rows in vertex order, row
        entries in edge-insertion order, each undirected edge yielded
        once from its earlier-positioned endpoint.  With ``data=True``
        yields ``(u, v, EdgeData)`` triples, a fresh ``EdgeData`` per
        edge."""
        ids = self._ids
        off, tgt, w = self._out_off, self._out_tgt, self._out_w
        for p in range(len(ids)):
            for i in range(off[p], off[p + 1]):
                q = tgt[i]
                if not self._directed and q < p:
                    continue
                if data:
                    yield ids[p], ids[q], EdgeData(
                        1.0 if w is None else w[i], self._elabels.get((p, q))
                    )
                else:
                    yield ids[p], ids[q]

    # ------------------------------------------------------------------
    # Derived graphs: snapshots in this one's vertex and row order
    # ------------------------------------------------------------------

    def copy(self) -> "CsrSnapshot":
        """An in-RAM snapshot with this one's columns."""
        return CsrSnapshot.from_graph(self)

    def subgraph(self, vertices) -> "CsrSnapshot":
        """The induced subgraph on ``vertices``: its vertices, and each
        of its rows, in this snapshot's order, however ``vertices`` is
        ordered (a set's order may follow the hash seed)."""
        return self._thaw(sorted(set(map(self._position, vertices)))).freeze()

    def reverse(self) -> "CsrSnapshot":
        """The transpose: a directed snapshot's in-rows are its out-rows
        and back, so ``s.reverse().reverse()`` has ``s``'s columns; an
        undirected snapshot is its own reverse."""
        return self._thaw(range(len(self._ids)), self._directed).freeze()

    def to_undirected(self) -> "CsrSnapshot":
        """The underlying undirected graph (used for WCC): this
        snapshot's vertices, and its :meth:`edges` added in that order,
        so antiparallel edges collapse to one that carries the later
        edge's weight and label."""
        if not self._directed:
            return self.copy()
        g = Graph()
        for v in self._ids:
            g.add_vertex(v, self.label(v))
        for u, v, data in self.edges(data=True):
            g.add_edge(u, v, weight=data.weight, label=data.label)
        return g.freeze()

    # ------------------------------------------------------------------
    # Position-level reads (the dense fast path compiles from these
    # without re-hashing ids)
    # ------------------------------------------------------------------

    def positions(self, vertices) -> List[Optional[int]]:
        """The position of each of ``vertices`` (``None``: not held)."""
        return list(map(self._pos.get, vertices))

    def rows(self, vertices, incoming: bool = False):
        """The out- (or in-) rows of ``vertices`` as ``(lengths,
        neighbor ids, weights)``: a list of row lengths, then two
        iterators over every row's neighbor ids and weights end to
        end, in row order, built lazily off the CSR columns and good
        for one pass — the bulk read :meth:`from_graph` copies, as it
        does :meth:`Graph.rows <repro.graph.graph.Graph.rows>`."""
        try:
            positions = list(map(self._pos.__getitem__, vertices))
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        return self.rows_at(positions, incoming)

    def rows_at(
        self, positions, incoming: bool = False, live=None, names=None
    ):
        """:meth:`rows` of the vertices at ``positions`` — how a run
        reads its topology, whose states know their positions.
        ``live``, one entry per position, overrides a frozen row with a
        dict (a run's materialized row) where the entry is not
        ``None``; such an entry's position is never read.  ``names``,
        a list indexed by position, stands in for the vertex ids (a
        run's dense index of each vertex, say)."""
        if live is not None:
            return _interleave(self.rows_at(
                [p for p, row in zip(positions, live) if row is None],
                incoming, names=names,
            ), live)
        if incoming:
            off, tgt, w = self._in_off, self._in_tgt, self._in_w
        else:
            off, tgt, w = self._out_off, self._out_tgt, self._out_w
        lo = list(map(off.__getitem__, positions))
        hi = list(map(off.__getitem__, map((1).__add__, positions)))
        lens = list(map(operator.sub, hi, lo))
        names = self._ids if names is None else names
        neighbors = map(names.__getitem__, chain.from_iterable(
            map(tgt.__getitem__, map(slice, lo, hi))
        ))
        if w is None:
            return lens, neighbors, repeat(1.0, sum(lens))
        weights = map(w.__getitem__, map(slice, lo, hi))
        return lens, neighbors, chain.from_iterable(weights)

    def live_rows(self, positions, out_maps, in_maps):
        """A run's current rows of the vertices at ``positions`` as
        ``(aliased, lens, neighbor ids, weights)`` lists: every
        out-row, then the in-row of each vertex whose in-row is not its
        out-row (``aliased`` has a 1 byte per vertex where it is).  A
        row is the live dict in ``out_maps``/``in_maps`` where there is
        one, else its frozen row — aliased exactly when the snapshot is
        undirected."""
        aliased = bytes(
            not self._directed if out is None else inc is out
            for out, inc in zip(out_maps, in_maps)
        )
        keep = [not shared for shared in aliased]
        out = self.rows_at(positions, False, out_maps)
        inc = self.rows_at(
            list(compress(positions, keep)), True,
            list(compress(in_maps, keep)),
        )
        return (
            aliased, out[0] + inc[0],
            list(chain(out[1], inc[1])), list(chain(out[2], inc[2])),
        )

    def edge_columns(self) -> tuple:
        """The CSR columns as held, zero-copy (in RAM or mmapped): out
        offsets, targets (positions) and weights (``None``: every
        weight is the default ``1.0``), then the in-columns when
        directed."""
        out = self._out_off, self._out_tgt, self._out_w
        if not self._directed:
            return out
        return out + (self._in_off, self._in_tgt, self._in_w)

    def edge_rows(self, positions):
        """``(out, in)``: the rows of the vertices at ``positions`` both
        ways (:meth:`rows_at`), as ``(lengths, neighbor ids, weights)``
        lists — ``weights`` is ``None`` when every weight is the
        default ``1.0``; ``in`` is ``None`` when undirected (the
        in-rows are the out-rows)."""
        positions = list(positions)

        def listed(incoming):
            lens, neighbors, weights = self.rows_at(positions, incoming)
            default = (self._in_w if incoming else self._out_w) is None
            return lens, list(neighbors), None if default else list(weights)

        return listed(False), listed(True) if self._directed else None

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def _column_sections(self) -> List[Tuple[str, bytes, str, int]]:
        """``(name, payload, typecode, count)`` for every section this
        snapshot needs on disk (``typecode`` is an array code or the
        pickle tag): raw columns, pickled lists (non-int ids, non-float
        weights) and label dicts; absent columns are left out."""
        directions = ("out", "in") if self._directed else ("out",)
        columns = [
            (f"{way}_{name}", getattr(self, f"_{way}_{attr}"), code)
            for way in directions
            for name, attr, code in (
                ("offsets", "off", _OFFSET_TYPECODE),
                ("targets", "tgt", _OFFSET_TYPECODE),
                ("weights", "w", _WEIGHT_TYPECODE),
            )
        ]
        ids = self._ids
        if _ids_storable_as_int64(ids):
            ids = array(_OFFSET_TYPECODE, ids)
        columns += [
            ("ids", ids, _OFFSET_TYPECODE),
            ("vertex_labels", self._vlabels or None, _PICKLE_TAG),
            ("edge_labels", self._elabels or None, _PICKLE_TAG),
        ]
        return [
            (name, pickle.dumps(col, pickle.HIGHEST_PROTOCOL),
             _PICKLE_TAG, len(col))
            if isinstance(col, (list, dict))
            else (name, memoryview(col).tobytes(), typecode, len(col))
            for name, col, typecode in columns
            if col is not None
        ]

    def save(self, directory: str) -> str:
        """Write this snapshot under ``directory`` (created if
        missing) with durable-checkpoint conventions: the data file
        and the manifest are each written atomically, every section
        carries its CRC-32 and byte length, and a crash mid-write can
        never leave a half-written file under a valid name."""
        from repro.bsp.durability import atomic_write

        directory = os.fspath(directory)
        os.makedirs(directory, exist_ok=True)
        sections = self._column_sections()
        index: Dict[str, Dict[str, Any]] = {}
        blob = bytearray()
        for name, payload, typecode, count in sections:
            index[name] = {
                "offset": len(blob),
                "length": len(payload),
                "crc32": zlib.crc32(payload) & 0xFFFFFFFF,
                "typecode": typecode,
                "count": count,
            }
            blob.extend(payload)
        manifest = {
            "format_version": FORMAT_VERSION,
            "kind": "csr-snapshot",
            "directed": self._directed,
            "num_vertices": self.num_vertices,
            "num_edges": self._num_edges,
            "byteorder": sys.byteorder,
            "itemsize": array(_OFFSET_TYPECODE).itemsize,
            "data_file": DATA_NAME,
            "sections": index,
        }
        atomic_write(os.path.join(directory, DATA_NAME), bytes(blob))
        atomic_write(
            os.path.join(directory, MANIFEST_NAME),
            json.dumps(manifest, indent=2, sort_keys=True).encode(
                "utf-8"
            ),
        )
        return directory

    @classmethod
    def open(cls, directory: str) -> "CsrSnapshot":
        """Memory-map a saved snapshot read-only.

        Section lengths and CRC-32s are verified once up front
        (sequential reads); after that the OS page cache is the only
        cache.  Any integrity failure raises
        :class:`~repro.errors.SnapshotCorruptionError`.
        """
        directory = os.path.abspath(os.fspath(directory))
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        try:
            with open(manifest_path, "rb") as fh:
                manifest = json.loads(fh.read().decode("utf-8"))
        except FileNotFoundError:
            raise SnapshotError(
                f"no snapshot manifest at {manifest_path!r}"
            ) from None
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            raise SnapshotCorruptionError(
                f"unreadable snapshot manifest {manifest_path!r}: "
                f"{exc}"
            ) from None
        if (
            not isinstance(manifest, dict)
            or manifest.get("kind") != "csr-snapshot"
        ):
            raise SnapshotCorruptionError(
                f"{manifest_path!r} is not a CSR snapshot manifest"
            )
        if manifest.get("format_version") != FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot format version "
                f"{manifest.get('format_version')!r} is not supported "
                f"(this build reads {FORMAT_VERSION})"
            )
        if manifest.get("byteorder") != sys.byteorder or manifest.get(
            "itemsize"
        ) != array(_OFFSET_TYPECODE).itemsize:
            raise SnapshotError(
                "snapshot was written on an incompatible host "
                f"(byteorder={manifest.get('byteorder')!r}, "
                f"itemsize={manifest.get('itemsize')!r})"
            )
        data_path = os.path.join(
            directory, manifest.get("data_file", DATA_NAME)
        )
        try:
            fh = open(data_path, "rb")
        except OSError as exc:
            raise SnapshotCorruptionError(
                f"snapshot data file missing: {exc}"
            ) from None
        size = os.fstat(fh.fileno()).st_size
        if size:
            mapped = mmap.mmap(
                fh.fileno(), 0, access=mmap.ACCESS_READ
            )
            buf = memoryview(mapped)
        else:
            mapped = None
            buf = memoryview(b"")

        def section_bytes(name, entry):
            offset, length = entry.get("offset"), entry.get("length")
            if (
                not isinstance(offset, int)
                or not isinstance(length, int)
                or offset < 0
                or length < 0
                or offset + length > len(buf)
            ):
                raise SnapshotCorruptionError(
                    f"snapshot section {name!r} is out of bounds "
                    f"(offset={offset!r}, length={length!r}, "
                    f"file size {len(buf)})"
                )
            chunk = buf[offset:offset + length]
            if zlib.crc32(chunk) & 0xFFFFFFFF != entry.get("crc32"):
                raise SnapshotCorruptionError(
                    f"snapshot section {name!r} failed its CRC-32 "
                    "check"
                )
            return chunk

        sections = manifest.get("sections")
        if not isinstance(sections, dict):
            raise SnapshotCorruptionError(
                f"{manifest_path!r} has no section index"
            )

        def column(name, typecode, required=True):
            entry = sections.get(name)
            if entry is None:
                if required:
                    raise SnapshotCorruptionError(
                        f"snapshot section {name!r} is missing"
                    )
                return None
            chunk = section_bytes(name, entry)
            if entry.get("typecode") == _PICKLE_TAG:
                try:
                    return pickle.loads(bytes(chunk))
                except Exception as exc:
                    raise SnapshotCorruptionError(
                        f"snapshot section {name!r} failed to "
                        f"decode: {exc}"
                    ) from None
            if entry.get("typecode") != typecode:
                raise SnapshotCorruptionError(
                    f"snapshot section {name!r} has typecode "
                    f"{entry.get('typecode')!r}, expected "
                    f"{typecode!r}"
                )
            return chunk.cast(typecode)

        try:
            directed = bool(manifest.get("directed"))
            out_off = column("out_offsets", _OFFSET_TYPECODE)
            out_tgt = column("out_targets", _OFFSET_TYPECODE)
            out_w = column(
                "out_weights", _WEIGHT_TYPECODE, required=False
            )
            in_off = in_tgt = in_w = None
            if directed:
                in_off = column("in_offsets", _OFFSET_TYPECODE)
                in_tgt = column("in_targets", _OFFSET_TYPECODE)
                in_w = column(
                    "in_weights", _WEIGHT_TYPECODE, required=False
                )
            ids_col = column("ids", _OFFSET_TYPECODE)
            ids = (
                ids_col
                if isinstance(ids_col, list)
                else list(ids_col)
            )
            vlabels = column(
                "vertex_labels", _PICKLE_TAG, required=False
            )
            elabels = column(
                "edge_labels", _PICKLE_TAG, required=False
            )
            n = manifest.get("num_vertices")
            if len(ids) != n or len(out_off) != n + 1:
                raise SnapshotCorruptionError(
                    "snapshot column lengths disagree with the "
                    f"manifest (n={n!r}, ids={len(ids)}, "
                    f"offsets={len(out_off)})"
                )
            snapshot = cls(
                directed=directed,
                ids=ids,
                out_offsets=out_off,
                out_targets=out_tgt,
                out_weights=out_w,
                in_offsets=in_off,
                in_targets=in_tgt,
                in_weights=in_w,
                num_edges=int(manifest.get("num_edges", 0)),
                vertex_labels=vlabels,
                edge_labels=elabels,
                path=directory,
                _mmap=mapped,
                _file=fh,
            )
            snapshot._pos  # builds the id table: a duplicate id raises
            return snapshot
        except BaseException:
            buf.release()
            if mapped is not None:
                try:
                    mapped.close()
                except BufferError:
                    # Column views created before the failing section
                    # are still referenced by the propagating
                    # traceback's frame; the map closes when they are
                    # collected.
                    pass
            fh.close()
            raise

    def close(self) -> None:
        """Release the mmap (no-op for in-RAM snapshots).  Reads
        after close raise ``ValueError`` from the released views."""
        # Drop every view into the map before closing it; a surviving
        # exported buffer would make mmap.close() raise BufferError.
        self._out_off = self._out_tgt = self._out_w = None
        self._in_off = self._in_tgt = self._in_w = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:  # pragma: no cover - defensive
                pass
            self._mmap = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------

    def __reduce__(self):
        if self._path is not None:
            # Disk-backed snapshots pickle as their path: the
            # receiver re-opens and mmaps the file.  (The parallel
            # backend never ships a graph; its ranks get pickled
            # slices of the coordinator's live partition.)
            return (CsrSnapshot.open, (self._path,))
        return (
            _rebuild_snapshot,
            (
                self._directed,
                self._ids,
                _plain_column(self._out_off, _OFFSET_TYPECODE),
                _plain_column(self._out_tgt, _OFFSET_TYPECODE),
                _plain_column(self._out_w, _WEIGHT_TYPECODE),
                _plain_column(self._in_off, _OFFSET_TYPECODE)
                if self._directed
                else None,
                _plain_column(self._in_tgt, _OFFSET_TYPECODE)
                if self._directed
                else None,
                _plain_column(self._in_w, _WEIGHT_TYPECODE)
                if self._directed
                else None,
                self._num_edges,
                self._vlabels,
                self._elabels,
            ),
        )


def _plain_column(col, typecode):
    """A picklable copy of a CSR column (mmap views become arrays)."""
    if col is None or isinstance(col, (array, list)):
        return col
    return array(typecode, col)


def _rebuild_snapshot(
    directed,
    ids,
    out_off,
    out_tgt,
    out_w,
    in_off,
    in_tgt,
    in_w,
    num_edges,
    vlabels,
    elabels,
):
    return CsrSnapshot(
        directed=directed,
        ids=ids,
        out_offsets=out_off,
        out_targets=out_tgt,
        out_weights=out_w,
        in_offsets=in_off,
        in_targets=in_tgt,
        in_weights=in_w,
        num_edges=num_edges,
        vertex_labels=vlabels,
        edge_labels=elabels,
    )


def _interleave(frozen, live):
    """:meth:`CsrSnapshot.rows` of a run's rows: each ``live`` dict in
    place of the next row of ``frozen``, the frozen rows of the
    vertices whose entry is ``None``."""
    lens, neighbors, weights = frozen
    if len(live) == len(lens):  # every row still frozen
        return frozen
    frozen_lens = iter(lens)
    lens = [next(frozen_lens) if row is None else len(row) for row in live]
    return lens, chain.from_iterable(
        islice(neighbors, n) if row is None else row
        for row, n in zip(live, lens)
    ), chain.from_iterable(
        islice(weights, n) if row is None else row.values()
        for row, n in zip(live, lens)
    )


def row_dicts(lens, neighbors, weights):
    """One fresh ``{neighbor: weight}`` dict per row of
    :meth:`CsrSnapshot.rows` columns, lazily, in row order (``weights``
    ``None``: every weight is the default ``1.0``)."""
    rows = map(islice, repeat(iter(neighbors)), lens)
    if weights is None:
        return map(dict.fromkeys, rows, repeat(1.0))
    return map(dict, map(zip, rows, map(islice, repeat(iter(weights)), lens)))


def edge_dicts(rows):
    """Fresh ``(out_edges, in_edges)`` dicts per vertex of
    :meth:`CsrSnapshot.edge_rows` columns — one dict twice when they
    have no in-rows (undirected)."""
    out, incoming = rows
    if incoming is None:
        return zip(*tee(row_dicts(*out)))
    return zip(row_dicts(*out), row_dicts(*incoming))


def same_rows(one, other) -> bool:
    """Whether two ``(lengths, neighbor ids, weights)`` list triples
    are the same rows to a restore: equal lengths, the very neighbor
    objects, and the very weight objects or, for exact floats, equal
    bits — a frozen float row reads fresh float objects."""
    if one[0] != other[0] or not all(map(operator.is_, one[1], other[1])):
        return False
    mine, theirs = one[2], other[2]
    return all(map(operator.is_, mine, theirs)) or (
        set(map(type, mine)) == {float} == set(map(type, theirs))
        and array(_WEIGHT_TYPECODE, mine).tobytes()
        == array(_WEIGHT_TYPECODE, theirs).tobytes()
    )
