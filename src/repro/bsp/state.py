"""The state store: vertex values, ownership, and the Pregel
engine's recovery state.

Middle layer of the decomposed runtime (``docs/architecture.md``).
:class:`StateStore` owns the Pregel engine's partitioned vertex
state — the ``states`` dict, the ``owner`` map (built through the
shared :func:`~repro.graph.partition.owner_for` rule), the worker
vertex lists, the run's one frozen CSR ``topology`` — plus what its
checkpoints and confined recovery need beyond the loop's ledgers: the
``baseline``, the confined-recovery message/wake logs, and the flag
that vetoes confined replay.  The checkpoint store, its schedule and
the checkpoint charges belong to the :class:`~repro.bsp.loop.
SuperstepLoop`, for every engine.

The module-level functions implement the state-changing protocols
that used to live inline in the engine:

* :func:`apply_mutations` — Pregel's superstep-boundary topology
  mutations, in Pregel's order (edge removals, vertex removals,
  vertex additions, edge additions);
* :func:`confined_replay` — recompute only a crashed worker's
  partition from the logged per-superstep inboxes.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.bsp.checkpoint import Baseline, restore_partition
from repro.bsp.context import ComputeContext
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.errors import WorkerCrashError
from repro.graph.graph import Graph
from repro.graph.partition import owner_for
from repro.graph.snapshot import CsrSnapshot, edge_dicts, is_graph_snapshot
from repro.metrics.stats import RunStats
from repro.trace.events import Rollback


class StateStore:
    """One engine's partitioned vertex state and recovery logs."""

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
        self.topology = (
            graph if is_graph_snapshot(graph)
            else CsrSnapshot.from_graph(graph)
        )
        self.lay_out()

        # Recovery bookkeeping.  ``baseline`` is the topology frozen
        # right after construction (:meth:`freeze_baseline`) that later
        # checkpoints share for as long as it verifiably still holds.
        self.baseline: Optional[Baseline] = None
        self.reset(program, graph)

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

    def reset(self, program, graph: Graph) -> None:
        """Every vertex back to its initial value, not halted, and the
        confined-recovery logs empty: the state a run starts from."""
        self.message_log: Dict[int, Dict[Hashable, List[Any]]] = {}
        self.wake_log: Dict[int, bool] = {}
        self.mutated_since_checkpoint = False
        for vid, state in self.states.items():
            state.value, state.halted = program.initial_value(vid, graph), False

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

    def prune_logs(self, superstep: int) -> None:
        """Drop confined-recovery log entries before ``superstep``
        (they can never be replayed once a checkpoint at that
        superstep exists)."""
        self.message_log = {
            t: log
            for t, log in self.message_log.items()
            if t >= superstep
        }
        self.wake_log = {
            t: wake
            for t, wake in self.wake_log.items()
            if t >= superstep
        }


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
    store.mutated_since_checkpoint = True
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


def confined_replay(
    engine,
    crash: WorkerCrashError,
    superstep: int,
    stats: RunStats,
    ckpt,
) -> None:
    """Rebuild only the crashed worker's partition.

    The healthy workers keep their live state; the crashed partition
    is restored from the checkpoint and its vertices' ``compute``
    calls are replayed against the logged per-superstep inboxes, with
    outgoing messages and aggregator contributions suppressed (their
    effects are already in the live state of the other workers).
    Replay work is charged as recovery cost but does not touch the
    committed superstep stats.

    The log is keyed by vertex id (delivery writes it), the partition
    is restored into the live ``VertexState`` objects (which the dense
    plane indexes by position), suppression is a binding (the replay
    context's sends are the fabric's null pair, its ``aggregate`` a
    no-op) and the lost inbox goes back through ``restore_inbox``.
    """
    store = engine._store
    fabric = engine._fabric
    worker_idx = crash.worker % store.num_workers
    restored = restore_partition(engine, ckpt, worker_idx)
    if engine._trace is not None:
        engine._trace.emit(
            Rollback(
                superstep=superstep,
                restored_vertices=restored,
                confined=True,
            )
        )
    worker = store.workers[worker_idx]
    program = engine._program
    # Contributions were reduced when the superstep first ran.
    ctx = ComputeContext(engine.rng, lambda name, value: None)
    ctx._enqueue = fabric.replayed_send
    ctx._fanout = fabric.replayed_fanout
    replay_work = 0.0
    for t in range(ckpt.superstep, superstep):
        prev_aggs = engine._aggregate_history[t - 1] if t >= 1 else {}
        ctx._begin_superstep(t, prev_aggs, len(store.states))
        wake_all = store.wake_log.get(t, t == 0)
        log_t = store.message_log.get(t, {})
        for vid in worker.vertex_ids:
            state = store.states.get(vid)
            if state is None:
                continue
            messages = log_t.get(vid)
            if messages:
                state.halted = False
            elif state.halted and not wake_all:
                continue
            elif wake_all:
                state.halted = False
            messages = list(messages) if messages else []
            ctx._begin_vertex(store.materialize(state))
            program.compute(state, messages, ctx)
            replay_work += 1 + len(messages) + ctx._sent + ctx._charged
    # The crashed worker lost its incoming queue for the current
    # superstep; restore it from the delivery log.
    log_now = store.message_log.get(superstep, {})
    ids, lens, msgs = fabric.inbox_columns()
    flat = iter(msgs)
    inbox = {vid: list(islice(flat, n)) for vid, n in zip(ids, lens)}
    for vid in worker.vertex_ids:
        if vid in log_now:
            inbox[vid] = log_now[vid]
        else:
            inbox.pop(vid, None)
    boxes = inbox.values()
    fabric.restore_inbox(
        list(inbox), list(map(len, boxes)), chain.from_iterable(boxes)
    )
    stats.replay_cost += replay_work
    stats.supersteps_replayed += superstep - ckpt.superstep
    # Backends with external execution state resynchronize, as after
    # a full rollback.
    engine._post_restore_sync()
