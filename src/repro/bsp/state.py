"""The state store: vertex values, ownership, and the Pregel
engine's checkpoint baseline.

Middle layer of the decomposed runtime (``docs/architecture.md``).
:class:`StateStore` owns the Pregel engine's partitioned vertex
state — the ``states`` dict, the ``owner`` map (built through the
shared :func:`~repro.graph.partition.owner_for` rule), the worker
vertex lists, the run's one frozen CSR ``topology`` — plus the
``baseline`` its checkpoints share.  The checkpoint store, its
schedule and the checkpoint charges belong to the
:class:`~repro.bsp.loop.SuperstepLoop`, for every engine.

:func:`apply_mutations` implements Pregel's superstep-boundary
topology mutations, in Pregel's order (edge removals, vertex
removals, vertex additions, edge additions).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set

from repro.bsp.checkpoint import Baseline
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.graph.graph import Graph
from repro.graph.partition import owner_for
from repro.graph.snapshot import edge_dicts


class StateStore:
    """One engine's partitioned vertex state."""

    def __init__(
        self,
        graph: Graph,
        program,
        partitioner,
        num_workers: int,
    ):
        self.partitioner = partitioner
        self.num_workers = num_workers
        self.workers = [Worker(i) for i in range(num_workers)]
        #: The run's one immutable topology: the caller's snapshot, or
        #: the ``Graph`` frozen into CSR columns (the same rows).  A
        #: row gets a dict only when needed (:meth:`materialize`).
        self.topology = graph.freeze()
        self.lay_out()

        # Recovery bookkeeping.  ``baseline`` is the topology frozen
        # right after construction (:meth:`freeze_baseline`) that later
        # checkpoints share for as long as it verifiably still holds.
        self.baseline: Optional[Baseline] = None
        self.reset(program)

    def lay_out(self) -> None:
        """A fresh state per vertex of the frozen topology, and the
        owner map and worker lists over them: the partition every run
        starts from, whatever an earlier run mutated."""
        self.states: Dict[Hashable, VertexState] = {}
        self.owner: Dict[Hashable, int] = {}
        for worker in self.workers:
            worker.vertex_ids = []
        for row, v in enumerate(self.topology.vertices()):
            self.states[v] = VertexState.of_rows(v, None, row)
            self.workers[self.assign(v)].vertex_ids.append(v)

    def reset(self, program) -> None:
        """Every vertex back to its initial value over the frozen
        topology, not halted: the state a run starts from."""
        top = self.topology
        for vid, state in self.states.items():
            state.value, state.halted = program.initial_value(vid, top), False

    def freeze_baseline(self) -> None:
        """Freeze the topology checkpoints are columns over.  Called
        once, before any program code can touch an edge map."""
        self.baseline = Baseline.freeze(self)

    def materialize(self, state: VertexState) -> VertexState:
        """``state``, given private edge dicts if it has none yet."""
        if state.out_edges is None:
            (rows,) = edge_dicts(self.topology.edge_rows([state.row]))
            state.out_edges, state.in_edges = rows
        return state

    def assign(self, vertex_id: Hashable) -> int:
        """Record ``vertex_id``'s ownership (the shared
        :func:`~repro.graph.partition.owner_for` rule) and return the
        worker index.  The caller appends to the worker's vertex list
        (construction and mutation-added vertices do so at different
        points)."""
        widx = owner_for(vertex_id, self.partitioner, self.num_workers)
        self.owner[vertex_id] = widx
        return widx



def apply_mutations(engine) -> Optional[Set[Hashable]]:
    """Apply the superstep's requested topology mutations.

    Returns ``None`` when no mutation was requested, else the set of
    removed vertex ids (possibly empty) whose ownership entries the
    caller reclaims after delivery — delivery still needs the owner
    map to reverse the senders' charges for messages whose destination
    was removed.
    """
    log = engine._ctx._mutations
    if log.is_empty():
        return None
    store = engine._store
    states = store.states
    directed = engine._graph.directed
    # Every row edited below is materialized first: a private dict is
    # the one mark that a row may differ from the frozen topology.
    edit = store.materialize
    for u, v in log.remove_edges:
        src = states.get(u)
        if src is not None:
            edit(src).out_edges.pop(v, None)
        if directed:
            dst = states.get(v)
            if dst is not None:
                edit(dst).in_edges.pop(u, None)
    removed: Set[Hashable] = set()
    for vid in log.remove_vertices:
        state = states.pop(vid, None)
        if state is None:
            continue
        removed.add(vid)
        for src in list(edit(state).in_edges):
            other = states.get(src)
            if other is not None:
                edit(other).out_edges.pop(vid, None)
        if directed:
            for dst in list(state.out_edges):
                other = states.get(dst)
                if other is not None:
                    edit(other).in_edges.pop(vid, None)
        # Pending messages for vid stay put: delivery sees the missing
        # destination, drops them and reverses the senders' charges so
        # the logical books balance.  (Its inbox is already empty: the
        # compute pass drained it.)
    if removed:
        # Compact the owners' id lists so later supersteps do not pay
        # a dead-vertex skip per removed vertex forever.
        for worker in {
            store.workers[store.owner[vid]] for vid in removed
        }:
            worker.vertex_ids = [
                v for v in worker.vertex_ids if v not in removed
            ]
    for vid, value in log.add_vertices:
        if vid in states:
            continue
        state = VertexState(vid, value=value, out_edges={})
        if directed:
            state.in_edges = {}
        states[vid] = state
        store.workers[store.assign(vid)].vertex_ids.append(vid)
        # A removed-then-re-added id keeps its (new) ownership.
        removed.discard(vid)
    for u, v, weight in log.add_edges:
        src = states.get(u)
        if src is None:
            continue
        edit(src).out_edges[v] = weight
        if directed:
            dst = states.get(v)
            if dst is not None:
                edit(dst).in_edges[u] = weight
    log.clear()
    return removed
