"""The state store: vertex values, the frozen topology, and the
Pregel engine's checkpoint baseline.

Middle layer of the decomposed runtime (``docs/architecture.md``).
:class:`StateStore` owns the Pregel engine's vertex state — the
``states`` dict, the one record of result and checkpoint order, and
the run's one frozen CSR ``topology`` — plus the ``baseline`` its
checkpoints share.  Which worker owns which vertex, and in what order,
is the fabric's :class:`~repro.graph.partition.DenseIndex`:
:meth:`StateStore.lay_out` hands it the partition construction lays
out.  The checkpoint store, its schedule and the checkpoint charges
belong to the :class:`~repro.bsp.loop.SuperstepLoop`, for every
engine.

:func:`apply_mutations` implements Pregel's superstep-boundary
topology mutations, in Pregel's order (edge removals, vertex
removals, vertex additions, edge additions).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.bsp.checkpoint import Baseline
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.graph.graph import Graph
from repro.graph.partition import owner_for
from repro.graph.snapshot import edge_dicts


class StateStore:
    """One engine's vertex state."""

    def __init__(self, graph: Graph, partitioner, num_workers: int):
        self.partitioner = partitioner
        self.num_workers = num_workers
        self.workers = [Worker(i) for i in range(num_workers)]
        #: The run's one immutable topology: the caller's snapshot, or
        #: the ``Graph`` frozen into CSR columns (the same rows).  A
        #: row gets a dict only when needed (:meth:`materialize`).
        self.topology = graph.freeze()
        self.states: Dict[Hashable, VertexState] = {}
        # Recovery bookkeeping.  ``baseline`` is the topology frozen
        # right after construction (:meth:`freeze_baseline`) that later
        # checkpoints share for as long as it verifiably still holds.
        self.baseline: Optional[Baseline] = None

    def lay_out(self) -> List[List[Hashable]]:
        """A fresh state per vertex of the frozen topology, and the
        partition every run starts from, whatever an earlier run
        mutated: per worker, its vertex ids in topology order (each id
        hashed to its owner once)."""
        states = self.states = {}
        lists: List[List[Hashable]] = [[] for _ in self.workers]
        for row, v in enumerate(self.topology.vertices()):
            states[v] = VertexState.of_rows(v, None, row)
            lists[owner_for(v, self.partitioner, self.num_workers)].append(v)
        return lists

    def reset(self, program) -> None:
        """Every vertex back to its initial value over the frozen
        topology, not halted: the state a run starts from."""
        top = self.topology
        for vid, state in self.states.items():
            state.value, state.halted = program.initial_value(vid, top), False

    def freeze_baseline(self, dense) -> None:
        """Freeze the topology checkpoints are columns over, laid out
        by the partition ``dense``.  Called once, before any
        ``compute`` can touch an edge map."""
        self.baseline = Baseline.freeze(self, dense)

    def materialize(self, state: VertexState) -> VertexState:
        """``state``, given private edge dicts if it has none yet."""
        if state.out_edges is None:
            (rows,) = edge_dicts(self.topology.edge_rows([state.row]))
            state.out_edges, state.in_edges = rows
        return state


def apply_mutations(engine) -> bool:
    """Apply the superstep's requested topology mutations; False when
    none was requested.

    A removed vertex leaves ``states`` at once, but the partition
    keeps it until the barrier's delivery has read its owner to
    reverse the senders' charges for messages to it
    (:meth:`~repro.bsp.fabric.MessageFabric.reindex` lays the new one
    out).  An added vertex goes to the end of ``states``.
    """
    log = engine._ctx._mutations
    if log.is_empty():
        return False
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
    for vid in log.remove_vertices:
        state = states.pop(vid, None)
        if state is None:
            continue
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
    for vid, value in log.add_vertices:
        if vid in states:
            continue
        state = VertexState(vid, value=value, out_edges={})
        if directed:
            state.in_edges = {}
        states[vid] = state
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
    return True
