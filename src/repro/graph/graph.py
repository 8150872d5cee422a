"""The mutable graph builder shared by every subsystem in the package.

The :class:`Graph` class builds directed and undirected graphs, with
optional edge weights, optional vertex labels and optional edge labels —
everything the twenty benchmarked workloads need.  Vertex ids may be any
hashable value; the tree-traversal algorithms, for instance, build derived
graphs whose vertices are ``(u, v)`` tuples naming directed tree edges.

It is only a builder: it adds and removes vertices and edges, sets
weights and labels, answers ``has_vertex``/``has_edge`` and the
counters, and :meth:`Graph.freeze` turns it into the immutable
:class:`~repro.graph.snapshot.CsrSnapshot`, the one graph that
anything reads (neighbourhoods, degrees, weights, labels, edges and
the derived graphs).  The generators and the edge-list reader build
through it and return the frozen snapshot; ``snapshot.to_graph()``
thaws one for editing, each row in its frozen order.

Design notes
------------
* Adjacency is a dict-of-dicts: ``_adj[u][v]`` is the :class:`EdgeData`
  for the edge.  Undirected edges appear under both endpoints and share
  one ``EdgeData`` instance, so a weight update through either endpoint
  is seen by both.
* Directed graphs additionally maintain a predecessor map ``_pred``:
  the in-rows a freeze writes, in edge-insertion order.
* Multi-edges are not supported (an ``add_edge`` on an existing pair
  updates it in place); self-loops are allowed.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Any, Dict, Hashable, Iterator, Tuple

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


class Graph:
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
    >>> s = g.freeze()
    >>> sorted(s.neighbors(2))
    [1, 3]
    >>> s.weight(1, 2)
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

    def set_weight(self, u: VertexId, v: VertexId, weight: float) -> None:
        """Update the weight of an existing edge."""
        self._edge_data(u, v).weight = weight

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

    def rows(self, vertices, incoming: bool = False):
        """The out- (or in-) rows of ``vertices`` as ``(lengths,
        neighbor ids, weights)``: the row lengths, then every row's
        neighbor ids and weights end to end in row order, lazily and
        good for one pass while the graph is not edited — the bulk
        read :meth:`freeze` copies, as it does ``CsrSnapshot.rows``."""
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

    def freeze(self):
        """The immutable :class:`~repro.graph.snapshot.CsrSnapshot` of
        this graph — the same vertices, rows and labels in the same
        order — through which it is read."""
        from repro.graph.snapshot import CsrSnapshot

        return CsrSnapshot.from_graph(self)
