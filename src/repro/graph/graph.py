"""The mutable graph builder shared by every subsystem in the package.

The :class:`Graph` class supports directed and undirected graphs, with
optional edge weights, optional vertex labels and optional edge labels —
everything the twenty benchmarked workloads need.  Vertex ids may be any
hashable value; the tree-traversal algorithms, for instance, build derived
graphs whose vertices are ``(u, v)`` tuples naming directed tree edges.

It is a builder: the generators and the edge-list reader build through
it, freeze it once with :meth:`CsrSnapshot.from_graph
<repro.graph.snapshot.CsrSnapshot.from_graph>` and return the
snapshot, so no dict graph sits beside a run.  ``snapshot.to_graph()``
thaws an input for editing.

Design notes
------------
* Adjacency is a dict-of-dicts: ``_adj[u][v]`` is the :class:`EdgeData`
  for the edge.  Undirected edges appear under both endpoints and share
  one ``EdgeData`` instance, so a weight update through either endpoint
  is seen by both.
* Directed graphs additionally maintain a predecessor map ``_pred`` so
  in-neighbors are O(in-degree), which the simulation algorithms and
  SCC need.
* Multi-edges are not supported (an ``add_edge`` on an existing pair
  updates it in place); self-loops are allowed but can be stripped.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterable, Iterator, Tuple

from repro.errors import EdgeNotFoundError, VertexNotFoundError

VertexId = Hashable

_WEIGHT = attrgetter("weight")


class EdgeData:
    """Mutable attributes of a single edge (shared between directions
    for undirected graphs)."""

    __slots__ = ("weight", "label")

    def __init__(self, weight: float = 1.0, label: Any = None):
        self.weight = weight
        self.label = label

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"EdgeData(weight={self.weight!r}, label={self.label!r})"


class DerivedGraphs:
    """The derived graphs, written once over the read API that a
    :class:`Graph` and a :class:`~repro.graph.snapshot.CsrSnapshot`
    share (``directed``, ``vertices()``, ``label()``,
    ``edges(data=True)``).  Each is a fresh mutable :class:`Graph`."""

    def copy(self) -> "Graph":
        """A deep structural copy (edge data is duplicated)."""
        return self._derived(self.directed)

    def to_undirected(self) -> "Graph":
        """The underlying undirected graph (used for WCC).

        Antiparallel directed edges collapse to one undirected edge; the
        weight/label of the last one inserted wins.
        """
        return self._derived(False)

    def reverse(self) -> "Graph":
        """The reverse (transpose) of a directed graph."""
        return self._derived(self.directed, flip=self.directed)

    def subgraph(self, vertices: Iterable[VertexId]) -> "Graph":
        """The induced subgraph on ``vertices``."""
        return self._derived(self.directed, keep=set(vertices))

    def _derived(self, directed, flip=False, keep=None) -> "Graph":
        g = Graph(directed=directed)
        for v in self.vertices() if keep is None else keep:
            g.add_vertex(v, self.label(v))
        for u, v, edata in self.edges(data=True):
            if keep is None or u in keep and v in keep:
                u, v = (v, u) if flip else (u, v)
                g.add_edge(u, v, weight=edata.weight, label=edata.label)
        return g


class Graph(DerivedGraphs):
    """A directed or undirected graph with weights and labels.

    Parameters
    ----------
    directed:
        If true, edges are one-way and in/out neighborhoods are distinct.

    Examples
    --------
    >>> g = Graph()
    >>> g.add_edge(1, 2, weight=3.0)
    >>> g.add_edge(2, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.weight(1, 2)
    3.0
    """

    def __init__(self, directed: bool = False):
        self._directed = directed
        self._adj: Dict[VertexId, Dict[VertexId, EdgeData]] = {}
        # Predecessor adjacency; only maintained for directed graphs.
        self._pred: Dict[VertexId, Dict[VertexId, EdgeData]] = {}
        self._vertex_labels: Dict[VertexId, Any] = {}
        self._num_edges = 0
        self._labelled = False

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def directed(self) -> bool:
        """Whether this graph is directed."""
        return self._directed

    @property
    def num_vertices(self) -> int:
        """The number of vertices, ``n`` in the paper's notation."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """The number of edges, ``m`` in the paper's notation.

        For undirected graphs each edge counts once.
        """
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, vertex: VertexId) -> bool:
        return vertex in self._adj

    def __repr__(self):  # pragma: no cover - debugging aid
        kind = "directed" if self._directed else "undirected"
        return (
            f"<Graph {kind} n={self.num_vertices} m={self.num_edges}>"
        )

    # ------------------------------------------------------------------
    # Vertex operations
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: VertexId, label: Any = None) -> None:
        """Add ``vertex`` if absent; set its label if ``label`` is given.

        Adding an existing vertex is a no-op except that a non-``None``
        label overwrites the stored label.
        """
        if vertex not in self._adj:
            self._adj[vertex] = {}
            if self._directed:
                self._pred[vertex] = {}
        if label is not None:
            self._vertex_labels[vertex] = label
            self._labelled = True

    def remove_vertex(self, vertex: VertexId) -> None:
        """Remove ``vertex`` and every edge incident to it."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._directed:
            for succ in list(self._adj[vertex]):
                self.remove_edge(vertex, succ)
            for pred in list(self._pred[vertex]):
                self.remove_edge(pred, vertex)
            del self._pred[vertex]
        else:
            for nbr in list(self._adj[vertex]):
                self.remove_edge(vertex, nbr)
        del self._adj[vertex]
        self._vertex_labels.pop(vertex, None)

    def has_vertex(self, vertex: VertexId) -> bool:
        """Whether ``vertex`` is in the graph."""
        return vertex in self._adj

    def vertices(self) -> Iterator[VertexId]:
        """Iterate over all vertex ids (insertion order)."""
        return iter(self._adj)

    def label(self, vertex: VertexId) -> Any:
        """The label of ``vertex`` (``None`` if unlabeled)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return self._vertex_labels.get(vertex)

    def has_labels(self) -> bool:
        """Whether a label other than ``None`` was ever written through
        :meth:`add_vertex`, :meth:`set_label` or :meth:`add_edge` —
        what a snapshot must scan the labels for.  O(1)."""
        return self._labelled

    def set_label(self, vertex: VertexId, label: Any) -> None:
        """Set the label of an existing ``vertex``."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        self._vertex_labels[vertex] = label
        self._labelled = self._labelled or label is not None

    # ------------------------------------------------------------------
    # Edge operations
    # ------------------------------------------------------------------

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        weight: float = 1.0,
        label: Any = None,
    ) -> None:
        """Add edge ``(u, v)``, creating missing endpoints.

        If the edge already exists its weight and label are updated in
        place (no multi-edges).
        """
        self.add_vertex(u)
        self.add_vertex(v)
        self._labelled = self._labelled or label is not None
        existing = self._adj[u].get(v)
        if existing is not None:
            existing.weight = weight
            existing.label = label
            return
        data = EdgeData(weight, label)
        self._adj[u][v] = data
        if self._directed:
            self._pred[v][u] = data
        elif u != v:
            self._adj[v][u] = data
        self._num_edges += 1

    def remove_edge(self, u: VertexId, v: VertexId) -> None:
        """Remove edge ``(u, v)``."""
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        del self._adj[u][v]
        if self._directed:
            del self._pred[v][u]
        elif u != v:
            del self._adj[v][u]
        self._num_edges -= 1

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether edge ``(u, v)`` is present."""
        return u in self._adj and v in self._adj[u]

    def weight(self, u: VertexId, v: VertexId) -> float:
        """The weight of edge ``(u, v)``."""
        return self._edge_data(u, v).weight

    def set_weight(self, u: VertexId, v: VertexId, weight: float) -> None:
        """Update the weight of an existing edge."""
        self._edge_data(u, v).weight = weight

    def edge_label(self, u: VertexId, v: VertexId) -> Any:
        """The label of edge ``(u, v)`` (``None`` if unlabeled)."""
        return self._edge_data(u, v).label

    def _edge_data(self, u: VertexId, v: VertexId) -> EdgeData:
        if u not in self._adj or v not in self._adj[u]:
            raise EdgeNotFoundError(u, v)
        return self._adj[u][v]

    def edges(
        self, data: bool = False
    ) -> Iterator[Tuple]:
        """Iterate over edges.

        For undirected graphs each edge is yielded once, where
        iteration first meets it: from its endpoint that comes first
        in vertex order.  With ``data=True`` yields
        ``(u, v, EdgeData)`` triples.
        """
        if self._directed:
            for u, nbrs in self._adj.items():
                for v, edata in nbrs.items():
                    yield (u, v, edata) if data else (u, v)
        else:
            position = {u: i for i, u in enumerate(self._adj)}
            for u, nbrs in self._adj.items():
                first = position[u]
                for v, edata in nbrs.items():
                    if position[v] >= first:
                        yield (u, v, edata) if data else (u, v)

    # ------------------------------------------------------------------
    # Neighborhoods and degrees
    # ------------------------------------------------------------------

    def neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """Out-neighbors (directed) or neighbors (undirected)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return iter(self._adj[vertex])

    # Alias used by code written from the directed-graph perspective.
    out_neighbors = neighbors

    def in_neighbors(self, vertex: VertexId) -> Iterator[VertexId]:
        """In-neighbors.  Equal to :meth:`neighbors` when undirected."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._directed:
            return iter(self._pred[vertex])
        return iter(self._adj[vertex])

    def out_edge_items(
        self, vertex: VertexId
    ) -> Iterator[Tuple[VertexId, float]]:
        """``(neighbor, weight)`` pairs in row (edge-insertion) order —
        the sequence a :class:`~repro.graph.snapshot.CsrSnapshot` of
        the graph yields too.  A per-row read for callers: a run reads
        its topology in bulk (:meth:`rows`), never through this."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return (
            (u, data.weight) for u, data in self._adj[vertex].items()
        )

    def in_edge_items(
        self, vertex: VertexId
    ) -> Iterator[Tuple[VertexId, float]]:
        """``(in-neighbor, weight)`` pairs; equals
        :meth:`out_edge_items` when undirected."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        row = self._pred[vertex] if self._directed else self._adj[vertex]
        return ((u, data.weight) for u, data in row.items())

    def rows(self, vertices, incoming: bool = False):
        """The out- (or in-) rows of ``vertices`` as ``(lengths,
        neighbor ids, weights)``: a list of row lengths, then two
        iterators over every row's neighbor ids and weights end to
        end, in row order, good for one pass while the graph is not
        edited — the ``GraphSource`` bulk read a CSR snapshot (and so
        every run's topology) is built from, shared with
        :meth:`CsrSnapshot.rows <repro.graph.snapshot.CsrSnapshot.
        rows>`."""
        adj = self._pred if incoming and self._directed else self._adj
        try:
            rows = list(map(adj.__getitem__, vertices))
        except KeyError as exc:
            raise VertexNotFoundError(exc.args[0]) from None
        return (
            list(map(len, rows)),
            chain.from_iterable(rows),
            map(_WEIGHT, chain.from_iterable(map(dict.values, rows))),
        )

    def sorted_neighbors(self, vertex: VertexId) -> list:
        """Neighbors sorted by id — the adjacency-list order the Euler
        tour construction of the paper (§3.4.1) assumes."""
        return sorted(self._adj[vertex]) if vertex in self._adj else []

    def degree(self, vertex: VertexId) -> int:
        """Degree (undirected) or out-degree (directed) of ``vertex``."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        return len(self._adj[vertex])

    out_degree = degree

    def in_degree(self, vertex: VertexId) -> int:
        """In-degree of ``vertex`` (== degree when undirected)."""
        if vertex not in self._adj:
            raise VertexNotFoundError(vertex)
        if self._directed:
            return len(self._pred[vertex])
        return len(self._adj[vertex])

    def total_degree(self, vertex: VertexId) -> int:
        """``d(v)`` for undirected graphs, ``d_in(v) + d_out(v)`` for
        directed graphs — the balance denominator used by the BPPA
        properties (§2.2)."""
        if self._directed:
            return self.in_degree(vertex) + self.out_degree(vertex)
        return self.degree(vertex)
