"""Compute and master contexts: the API surface a vertex program uses
beyond its own vertex state."""

from __future__ import annotations

import random
from typing import Any, Dict, Hashable, Iterable, Optional

from repro.bsp.mutation import MutationLog
from repro.bsp.vertex import VertexState


class ComputeContext:
    """Passed to every ``compute()`` call.

    One instance is reused across all vertices of a superstep; the
    engine rebinds it per vertex so the per-vertex send/charge counters
    feed the BPPA tracker.  Programs should treat it as opaque API.

    ``engine`` is anything implementing the narrow host contract the
    context consumes: ``_enqueue`` / ``_fanout`` / ``_aggregate``,
    ``num_vertices``, and an ``rng`` attribute.  Besides
    :class:`~repro.bsp.engine.PregelEngine` this is implemented by the
    per-process partition runtime of the parallel backend
    (:mod:`repro.bsp.parallel`); on the dense path both forward
    ``_enqueue``/``_fanout`` to the send methods of the executing
    :class:`~repro.bsp.fabric.DenseLane`, and the rank ships its
    lane's effects back to the coordinator.
    """

    def __init__(self, engine):
        self._engine = engine
        self.superstep: int = 0
        #: Number of vertices currently in the computation.  Plain
        #: attribute (not a property) because hot compute loops read
        #: it per vertex; rebound each superstep — mutations only
        #: apply at superstep boundaries, so it cannot go stale
        #: mid-superstep.
        self.num_vertices: int = engine.num_vertices
        self._current_vertex: Optional[VertexState] = None
        self._sent: int = 0
        self._charged: float = 0.0
        self._aggregates_prev: Dict[str, Any] = {}
        self._mutations = MutationLog()
        # Hot-path binding: forward aggregate() straight to the engine
        # (shadows the class method; one call frame per contribution).
        self.aggregate = engine._aggregate

    # -- rebinding (engine-internal) -----------------------------------

    def _begin_superstep(
        self, superstep: int, aggregates_prev: Dict[str, Any]
    ) -> None:
        self.superstep = superstep
        self.num_vertices = self._engine.num_vertices
        self._aggregates_prev = aggregates_prev

    def _begin_vertex(self, vertex: VertexState) -> None:
        self._current_vertex = vertex
        self._sent = 0
        self._charged = 0.0

    def _take_mutations(self) -> Optional[MutationLog]:
        """Detach and return the superstep's mutation log, or ``None``
        when no mutation was requested.

        Used by the parallel backend's partition workers to ship their
        local logs to the coordinator, which splices them together in
        worker-rank order — reproducing exactly the append order the
        serial engine's single shared log would have seen.
        """
        log = self._mutations
        if log.is_empty():
            return None
        self._mutations = MutationLog()
        return log

    # -- global read-only views ----------------------------------------

    @property
    def random(self) -> random.Random:
        """The run's seeded RNG (deterministic execution order makes
        randomized programs reproducible)."""
        return self._engine.rng

    def get_aggregate(self, name: str) -> Any:
        """The aggregator value reduced during the *previous*
        superstep, Pregel-style."""
        return self._aggregates_prev.get(name)

    # -- messaging -------------------------------------------------------

    def send(self, target: Hashable, message: Any) -> None:
        """Send ``message`` to ``target``, delivered next superstep.

        Raises :class:`~repro.errors.MessageToUnknownVertexError`
        (from the engine) when ``target`` is not a current vertex.
        """
        self._engine._enqueue(self._current_vertex.id, target, message)
        self._sent += 1

    def send_to_neighbors(
        self, vertex: VertexState, message: Any
    ) -> None:
        """Send ``message`` along every out-edge of ``vertex``.

        Dispatched as one bulk engine call so the fast path can hoist
        its per-message lookups out of the loop; accounting is
        identical to calling :meth:`send` per target.
        """
        self._sent += self._engine._fanout(
            self._current_vertex.id, vertex.out_edges, message
        )

    def send_to(self, targets: Iterable[Hashable], message: Any) -> None:
        """Send the same ``message`` to each vertex in ``targets``."""
        self._sent += self._engine._fanout(
            self._current_vertex.id, targets, message
        )

    # -- work accounting --------------------------------------------------

    def charge(self, ops: float) -> None:
        """Charge ``ops`` extra units of local work.

        The engine already charges one unit per compute call, per
        message consumed and per message sent; programs use ``charge``
        for additional loops (scanning a history set, sorting, …) so
        the cost model sees their true local work.
        """
        self._charged += ops

    # -- aggregation -------------------------------------------------------

    def aggregate(self, name: str, value: Any) -> None:
        """Contribute ``value`` to aggregator ``name`` (visible to all
        next superstep)."""
        self._engine._aggregate(name, value)

    # -- topology mutation --------------------------------------------------

    def add_vertex(self, vertex_id: Hashable, value: Any = None) -> None:
        """Request creation of a new vertex before the next superstep."""
        self._mutations.add_vertices.append((vertex_id, value))

    def add_edge(
        self, u: Hashable, v: Hashable, weight: float = 1.0
    ) -> None:
        """Request a new directed runtime edge ``u -> v``."""
        self._mutations.add_edges.append((u, v, weight))

    def remove_edge(self, u: Hashable, v: Hashable) -> None:
        """Request removal of runtime edge ``u -> v``."""
        self._mutations.remove_edges.append((u, v))

    def remove_vertex(self, vertex_id: Hashable) -> None:
        """Request removal of a vertex (and its incident edges)."""
        self._mutations.remove_vertices.append(vertex_id)


class MasterContext:
    """Passed to ``master_compute`` between supersteps.

    Exposes the aggregates just reduced, activity counts, and the two
    global controls Pregel masters have: halting the computation and
    waking every vertex for the next superstep.
    """

    def __init__(
        self,
        superstep: int,
        aggregates: Dict[str, Any],
        num_active: int,
        num_vertices: int,
        pending_messages: int,
    ):
        self.superstep = superstep
        self._aggregates = aggregates
        self.num_active = num_active
        self.num_vertices = num_vertices
        self.pending_messages = pending_messages
        self._halt = False
        self._activate_all = False

    def get_aggregate(self, name: str) -> Any:
        """The aggregator value reduced in the superstep that just
        finished."""
        return self._aggregates.get(name)

    def halt(self) -> None:
        """Terminate the computation after this superstep."""
        self._halt = True

    def activate_all(self) -> None:
        """Wake every vertex for the next superstep (phase changes)."""
        self._activate_all = True
