"""Edge-list I/O: the reader returns a frozen
:class:`~repro.graph.snapshot.CsrSnapshot`, built either in RAM or
streamed straight to disk.

The format is the plain whitespace-separated edge list used by most
graph-processing systems (SNAP, Giraph's simple text formats):

* comment lines start with ``#``;
* ``u v`` adds an unweighted edge;
* ``u v w`` adds an edge of weight ``w``;
* a lone ``u`` adds an isolated vertex;
* an optional header ``# directed`` switches to a directed graph.

Vertex ids are read as integers when possible, else kept as strings.

Three readers share one chunked tokenizer:

* :func:`iter_edge_list` — the streaming layer: reads the source in
  fixed-size chunks (never the whole file) and yields typed entries,
  raising :class:`~repro.errors.EdgeListFormatError` on malformed
  lines with the offending line number and text;
* :func:`read_edge_list` — builds through the mutable :class:`Graph`
  and freezes it once into a :class:`~repro.graph.snapshot.
  CsrSnapshot` (``on_duplicate="error"`` upgrades the default
  update-in-place behavior to :class:`~repro.errors.
  DuplicateEdgeError`);
* :func:`write_snapshot_from_edge_list` — builds an on-disk CSR
  snapshot in two streaming passes (degree count, then row fill)
  without ever materializing the dict-of-dicts representation, so a
  graph larger than RAM can be frozen for the out-of-core engine
  paths.  Duplicate edges always raise here: a CSR row layout is
  sized at first sight of each edge.
"""

from __future__ import annotations

import os
from array import array
from typing import IO, Iterator, Optional, Tuple, Union

from repro.errors import DuplicateEdgeError, EdgeListFormatError
from repro.graph.graph import Graph
from repro.graph.snapshot import CsrSnapshot

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]

#: Characters read per chunk by the streaming tokenizer.
DEFAULT_CHUNK_SIZE = 1 << 16


def _parse_vertex(token: str):
    try:
        return int(token)
    except ValueError:
        return token


def _iter_lines_chunked(
    handle: IO[str], chunk_size: int
) -> Iterator[str]:
    """Lines of ``handle`` read ``chunk_size`` characters at a time.

    Unlike file iteration this never holds more than one chunk plus
    one partial line in memory regardless of line length, and it works
    on any object with ``read`` (sockets, pipes, ``StringIO``).
    """
    tail = ""
    while True:
        chunk = handle.read(chunk_size)
        if not chunk:
            break
        tail += chunk
        lines = tail.split("\n")
        tail = lines.pop()
        for line in lines:
            yield line
    if tail:
        yield tail


def iter_edge_list(
    source: PathOrFile,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[Tuple]:
    """Stream typed entries from an edge list without materializing
    anything graph-sized.

    Yields, in file order:

    * ``("header", lineno, directed)`` for a ``# directed`` /
      ``# undirected`` comment (other comments are skipped);
    * ``("vertex", lineno, v)`` for an isolated-vertex line;
    * ``("edge", lineno, u, v, weight)`` with ``weight`` a float
      (``1.0`` when the line carries none).

    Malformed lines — too many tokens, an unparsable weight — raise
    :class:`~repro.errors.EdgeListFormatError` carrying the 1-based
    line number.
    """
    if hasattr(source, "read"):
        yield from _iter_entries(source, chunk_size)
        return
    with open(os.fspath(source)) as handle:
        yield from _iter_entries(handle, chunk_size)


def _iter_entries(handle: IO[str], chunk_size: int) -> Iterator[Tuple]:
    for lineno, raw in enumerate(
        _iter_lines_chunked(handle, chunk_size), start=1
    ):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            lowered = line.lower()
            if "undirected" in lowered:
                yield ("header", lineno, False)
            elif "directed" in lowered:
                yield ("header", lineno, True)
            continue
        parts = line.split()
        if len(parts) == 1:
            yield ("vertex", lineno, _parse_vertex(parts[0]))
        elif len(parts) == 2:
            yield (
                "edge",
                lineno,
                _parse_vertex(parts[0]),
                _parse_vertex(parts[1]),
                1.0,
            )
        elif len(parts) == 3:
            try:
                weight = float(parts[2])
            except ValueError:
                raise EdgeListFormatError(
                    lineno, line, f"unparsable weight {parts[2]!r}"
                ) from None
            yield (
                "edge",
                lineno,
                _parse_vertex(parts[0]),
                _parse_vertex(parts[1]),
                weight,
            )
        else:
            raise EdgeListFormatError(
                lineno, line, "expected 'u', 'u v' or 'u v w'"
            )


def read_edge_list(
    source: PathOrFile,
    directed: Optional[bool] = None,
    on_duplicate: str = "update",
) -> CsrSnapshot:
    """Read a graph from an edge-list file or open text handle, frozen.

    ``directed`` overrides any ``# directed`` header when not
    ``None``.  ``on_duplicate`` is ``"update"`` (the mutable graph's
    native update-in-place semantics) or ``"error"`` (raise
    :class:`~repro.errors.DuplicateEdgeError` — the strictness the
    streamed snapshot builder always applies, exposed here so callers
    can validate a file before freezing it).
    """
    if on_duplicate not in ("update", "error"):
        raise ValueError(
            f"on_duplicate must be 'update' or 'error', got "
            f"{on_duplicate!r}"
        )
    # Two phases, preserving historical semantics: a '# directed'
    # header anywhere in the file applies to every edge, so entries
    # are collected first and the graph built after.
    pending = []
    file_directed = False
    for entry in iter_edge_list(source):
        if entry[0] == "header":
            # Historical semantics: a 'directed' header anywhere wins;
            # 'undirected' headers are descriptive, never a reset.
            file_directed = file_directed or entry[2]
        else:
            pending.append(entry)
    is_directed = file_directed if directed is None else directed
    g = Graph(directed=is_directed)
    for entry in pending:
        if entry[0] == "vertex":
            g.add_vertex(entry[2])
        else:
            _, lineno, u, v, weight = entry
            if on_duplicate == "error" and g.has_edge(u, v):
                raise DuplicateEdgeError(u, v, lineno=lineno)
            g.add_edge(u, v, weight=weight)
    return g.freeze()


def write_snapshot_from_edge_list(
    source: Union[str, "os.PathLike[str]"],
    directory: str,
    directed: Optional[bool] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
):
    """Freeze an edge-list file straight into an on-disk CSR snapshot.

    Two streaming passes over ``source`` — degree counting, then row
    filling — so peak memory is O(n) id table plus the CSR columns
    themselves, never the dict-of-dicts :class:`Graph`.  The result is
    byte-identical to ``read_edge_list(source).save(directory)``:
    vertex order is first appearance, row order is file order, exactly
    as ``Graph.add_edge`` would have built them.

    Duplicate edges raise :class:`~repro.errors.DuplicateEdgeError`
    (a CSR row is sized at first sight of each edge, so there is no
    update-in-place to fall back to).  Returns the opened, mmap-backed
    :class:`~repro.graph.snapshot.CsrSnapshot`.
    """
    source = os.fspath(source)

    # ---- pass 1: id table, degree counts, directedness ----------
    pos = {}
    ids = []
    fwd_deg = array("q")
    rev_deg = array("q")
    self_loops = {}
    file_directed = False
    num_edges = 0

    def intern(v):
        p = pos.get(v)
        if p is None:
            p = len(ids)
            pos[v] = p
            ids.append(v)
            fwd_deg.append(0)
            rev_deg.append(0)
        return p

    for entry in iter_edge_list(source, chunk_size):
        kind = entry[0]
        if kind == "header":
            file_directed = file_directed or entry[2]
        elif kind == "vertex":
            intern(entry[2])
        else:
            up = intern(entry[2])
            vp = intern(entry[3])
            fwd_deg[up] += 1
            rev_deg[vp] += 1
            if up == vp:
                self_loops[up] = self_loops.get(up, 0) + 1
            num_edges += 1
    is_directed = file_directed if directed is None else directed

    # ---- row layout ---------------------------------------------
    n = len(ids)
    out_off = array("q", bytes(8 * (n + 1)))
    if is_directed:
        in_off = array("q", bytes(8 * (n + 1)))
        for p in range(n):
            out_off[p + 1] = out_off[p] + fwd_deg[p]
            in_off[p + 1] = in_off[p] + rev_deg[p]
        total_in = in_off[n]
    else:
        # An undirected edge occupies both endpoints' rows; a
        # self-loop (which incremented both counters) occupies one.
        in_off = None
        total_in = 0
        for p in range(n):
            row = fwd_deg[p] + rev_deg[p] - self_loops.get(p, 0)
            out_off[p + 1] = out_off[p] + row
    total_out = out_off[n]
    out_tgt = array("q", bytes(8 * total_out))
    out_w = array("d", bytes(8 * total_out))
    in_tgt = array("q", bytes(8 * total_in)) if is_directed else None
    in_w = array("d", bytes(8 * total_in)) if is_directed else None

    # ---- pass 2: fill rows in file order, catching duplicates ---
    cursor = array("q", out_off[:n])
    in_cursor = array("q", in_off[:n]) if is_directed else None
    seen = set()
    all_default = True
    for entry in iter_edge_list(source, chunk_size):
        if entry[0] != "edge":
            continue
        _, lineno, u, v, weight = entry
        up, vp = pos[u], pos[v]
        key = (
            (up, vp)
            if is_directed or up <= vp
            else (vp, up)
        )
        if key in seen:
            raise DuplicateEdgeError(u, v, lineno=lineno)
        seen.add(key)
        if weight != 1.0:
            all_default = False
        slot = cursor[up]
        out_tgt[slot] = vp
        out_w[slot] = weight
        cursor[up] = slot + 1
        if is_directed:
            slot = in_cursor[vp]
            in_tgt[slot] = up
            in_w[slot] = weight
            in_cursor[vp] = slot + 1
        elif up != vp:
            slot = cursor[vp]
            out_tgt[slot] = up
            out_w[slot] = weight
            cursor[vp] = slot + 1

    snapshot = CsrSnapshot(
        directed=is_directed,
        ids=ids,
        out_offsets=out_off,
        out_targets=out_tgt,
        out_weights=None if all_default else out_w,
        in_offsets=in_off,
        in_targets=in_tgt,
        in_weights=(
            None if all_default or not is_directed else in_w
        ),
        num_edges=num_edges,
    )
    snapshot.save(directory)
    snapshot.close()
    return CsrSnapshot.open(directory)


def write_edge_list(graph, target: PathOrFile) -> None:
    """Write ``graph`` as an edge list (weights included when != 1)."""
    if hasattr(target, "write"):
        _write_lines(graph, target)
        return
    with open(os.fspath(target), "w") as handle:
        _write_lines(graph, handle)


def _write_lines(graph, handle: IO[str]) -> None:
    handle.write(
        f"# {'directed' if graph.directed else 'undirected'} "
        f"n={graph.num_vertices} m={graph.num_edges}\n"
    )
    connected = set()
    for u, v, edata in graph.edges(data=True):
        connected.add(u)
        connected.add(v)
        if edata.weight == 1.0:
            handle.write(f"{u} {v}\n")
        else:
            handle.write(f"{u} {v} {edata.weight}\n")
    for v in graph.vertices():
        if v not in connected:
            handle.write(f"{v}\n")
