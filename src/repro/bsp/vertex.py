"""Per-vertex runtime state held by the simulated Pregel workers."""

from __future__ import annotations

from typing import Any, Dict, Hashable, List


class VertexState:
    """The state a vertex program sees and mutates.

    Attributes
    ----------
    id:
        The vertex id (any hashable).
    value:
        The program-defined vertex value.  Programs may store any
        (nested) structure here; the BPPA checker sizes it each
        superstep via :func:`repro.metrics.bppa.state_atoms`.
    out_edges:
        ``{target_id: weight}``.  Programs may mutate this directly —
        Pregel allows local edge mutation (e.g. Luby's MIS deletes
        edges to vertices that joined the independent set).  ``None``
        while still the run's frozen row; the engine builds a private
        dict before the first ``compute`` call, the same on every visit.
    in_edges:
        ``{source_id: weight}``.  Populated for directed graphs so
        programs that must message predecessors (simulation, SCC) do
        not each need a discovery superstep; for undirected graphs it
        aliases ``out_edges``.  ``None`` together with ``out_edges``.
    halted:
        Set by :meth:`vote_to_halt`; cleared by the engine when a
        message arrives.
    row:
        The vertex's position in the run's frozen topology (``None``
        for a vertex a mutation added).
    """

    __slots__ = ("id", "value", "out_edges", "in_edges", "halted", "row")

    def __init__(
        self,
        vertex_id: Hashable,
        value: Any = None,
        out_edges: Dict[Hashable, float] = None,
        in_edges: Dict[Hashable, float] = None,
    ):
        self.id = vertex_id
        self.value = value
        self.out_edges = out_edges if out_edges is not None else {}
        self.in_edges = (
            in_edges if in_edges is not None else self.out_edges
        )
        self.halted, self.row = False, None

    @classmethod
    def of_rows(cls, vertex_id, value, row, out_edges=None, in_edges=None):
        """A state at frozen position ``row`` with these edge dicts."""
        state = cls.__new__(cls)
        state.id, state.value, state.row = vertex_id, value, row
        state.out_edges, state.in_edges = out_edges, in_edges
        state.halted = False
        return state

    # ------------------------------------------------------------------

    def vote_to_halt(self) -> None:
        """Declare this vertex inactive until a message wakes it."""
        self.halted = True

    @property
    def active(self) -> bool:
        return not self.halted

    def out_degree(self) -> int:
        return len(self.out_edges)

    def in_degree(self) -> int:
        return len(self.in_edges)

    def neighbors(self) -> List[Hashable]:
        """Current out-neighbors (a list, safe to mutate edges while
        iterating over it)."""
        return list(self.out_edges)

    def sorted_neighbors(self) -> List[Hashable]:
        """Out-neighbors in id order — the adjacency-list order the
        Euler tour construction assumes."""
        return sorted(self.out_edges)

    def __repr__(self):  # pragma: no cover - debugging aid
        state = "halted" if self.halted else "active"
        return (
            f"<VertexState {self.id!r} value={self.value!r} "
            f"deg={len(self.out_edges)} {state}>"
        )


