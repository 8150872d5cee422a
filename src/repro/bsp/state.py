"""The state store: vertex values, ownership, and the
checkpoint/rollback machinery behind every engine.

Middle layer of the decomposed runtime (``docs/architecture.md``).
:class:`StateStore` owns the Pregel engine's partitioned vertex
state — the ``states`` dict, the ``owner`` map (built through the
shared :func:`~repro.graph.partition.owner_for` rule), the worker
vertex lists — plus the recovery bookkeeping (checkpoint store and
per-superstep costs, the confined-recovery message/wake logs, the
mutation flag that vetoes confined replay).

The module-level functions implement the state-changing protocols
that used to live inline in the engine:

* :func:`apply_mutations` — Pregel's superstep-boundary topology
  mutations, in Pregel's order (edge removals, vertex removals,
  vertex additions, edge additions);
* :func:`confined_replay` — recompute only a crashed worker's
  partition from the logged per-superstep inboxes.

:class:`SnapshotRecovery` is the checkpoint/rollback mixin the
re-hosted GAS/block/async engines compose with the shared
:class:`~repro.bsp.loop.SuperstepLoop`: engines that can describe
their complete mutable state as a payload dict get write/rollback —
with the same cost accounting, trace events, and attempt budget as
the Pregel engine — by implementing ``_snapshot_payload()`` /
``_restore_payload()``.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set

from repro.bsp.checkpoint import (
    CheckpointStore,
    EngineSnapshot,
    TopologySnapshot,
    restore_partition,
)
from repro.bsp.context import ComputeContext
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.errors import WorkerCrashError
from repro.graph.graph import Graph
from repro.graph.partition import owner_for
from repro.metrics.stats import RunStats
from repro.trace.events import CheckpointWrite, Rollback


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
        self.states: Dict[Hashable, VertexState] = {}
        self.owner: Dict[Hashable, int] = {}
        # The GraphSource seam: both the live dict Graph and the
        # immutable CsrSnapshot yield per-vertex (neighbor, weight)
        # rows in identical order through *_edge_items, so the states
        # built here — and everything downstream — are byte-identical
        # whichever representation backs the run.  Exotic graph-likes
        # without the protocol fall back to the per-neighbor reads.
        out_items = getattr(graph, "out_edge_items", None)
        in_items = getattr(graph, "in_edge_items", None)
        for v in graph.vertices():
            if out_items is not None:
                out_edges = dict(out_items(v))
            else:
                out_edges = {
                    u: graph.weight(v, u) for u in graph.neighbors(v)
                }
            if not graph.directed:
                in_edges = out_edges
            elif in_items is not None:
                in_edges = dict(in_items(v))
            else:
                in_edges = {
                    u: graph.weight(u, v) for u in graph.in_neighbors(v)
                }
            state = VertexState(
                v,
                value=program.initial_value(v, graph),
                out_edges=out_edges,
                in_edges=in_edges,
            )
            self.states[v] = state
            self.workers[self.assign(v)].vertex_ids.append(v)

        # Recovery bookkeeping.  ``baseline`` is the topology frozen
        # right after construction (:meth:`freeze_baseline`) that later
        # checkpoints share for as long as it verifiably still holds.
        self.baseline: Optional[TopologySnapshot] = None
        self.ckpt_store = CheckpointStore()
        self.ckpt_costs: Dict[int, float] = {}
        self.message_log: Dict[int, Dict[Hashable, List[Any]]] = {}
        self.wake_log: Dict[int, bool] = {}
        self.mutated_since_checkpoint = False

    def freeze_baseline(self) -> None:
        """Capture the topology checkpoints are columns over.  Called
        once, before any program code can touch an edge map."""
        self.baseline = TopologySnapshot.capture(self)

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
    for u, v in log.remove_edges:
        src = states.get(u)
        if src is not None:
            src.out_edges.pop(v, None)
        if directed:
            dst = states.get(v)
            if dst is not None:
                dst.in_edges.pop(u, None)
    removed: Set[Hashable] = set()
    for vid in log.remove_vertices:
        state = states.pop(vid, None)
        if state is None:
            continue
        removed.add(vid)
        for src in list(state.in_edges):
            other = states.get(src)
            if other is not None:
                other.out_edges.pop(vid, None)
        if directed:
            for dst in list(state.out_edges):
                other = states.get(dst)
                if other is not None:
                    other.in_edges.pop(vid, None)
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
        src.out_edges[v] = weight
        if directed:
            dst = states.get(v)
            if dst is not None:
                dst.in_edges[u] = weight
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

    One implementation for both mailbox layouts: the log is keyed by
    vertex id (both delivery routines write it), the partition is
    restored into the live ``VertexState`` objects (which the dense
    plane indexes by position), suppression is a binding
    (``fabric.replayed_sends()``, a no-op ``aggregate`` on the replay
    context) and the lost inbox goes back through ``restore_inbox``.
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
    ctx = ComputeContext(engine)
    # Contributions were reduced when the superstep first ran.
    ctx.aggregate = lambda name, value: None
    replay_work = 0.0
    with fabric.replayed_sends():
        for t in range(ckpt.superstep, superstep):
            prev_aggs = (
                engine._aggregate_history[t - 1] if t >= 1 else {}
            )
            ctx._begin_superstep(t, prev_aggs)
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
                ctx._begin_vertex(state)
                program.compute(state, messages, ctx)
                replay_work += (
                    1 + len(messages) + ctx._sent + ctx._charged
                )
    # The crashed worker lost its incoming queue for the current
    # superstep; restore it from the delivery log.
    log_now = store.message_log.get(superstep, {})
    inbox = dict(fabric.inbox_snapshot_items())
    for vid in worker.vertex_ids:
        if vid in log_now:
            inbox[vid] = log_now[vid]
        else:
            inbox.pop(vid, None)
    fabric.restore_inbox(inbox)
    stats.replay_cost += replay_work
    stats.supersteps_replayed += superstep - ckpt.superstep
    # Backends with external execution state resynchronize, as after
    # a full rollback.
    engine._post_restore_sync()


class SnapshotRecovery:
    """Checkpoint/rollback plumbing for payload-snapshot engines.

    Mixed into the re-hosted GAS/block/async engines.  Expects the
    host to define ``_loop`` (a
    :class:`~repro.bsp.loop.SuperstepLoop`), ``_ckpt_store``,
    ``_ckpt_costs``, ``_cost_model`` and ``_trace``, plus the two
    payload hooks:

    ``_snapshot_payload() -> dict``
        A deep-enough copy of all mutable run state (use
        :func:`~repro.bsp.checkpoint.cow_copy` per value).
    ``_restore_payload(payload)``
        Adopt a snapshot payload (copying again, so one snapshot can
        restore repeatedly).

    Rollback is always full for these engines: the snapshot restores
    every partition, the discarded supersteps' charges become replay
    cost, and their stats entries are deleted for re-execution —
    exactly the Pregel engine's full-rollback accounting.
    """

    def _latest_checkpoint(self):
        return self._ckpt_store.latest

    def _restored_count(self) -> int:
        return len(self._values)

    def _write_checkpoint(
        self, superstep: int, stats: RunStats
    ) -> None:
        snap = self._ckpt_store.save(
            EngineSnapshot(
                superstep=superstep, payload=self._snapshot_payload()
            )
        )
        cost = self._cost_model.checkpoint_cost(snap.size)
        stats.checkpoints_written += 1
        stats.checkpoint_cost += cost
        self._ckpt_costs[superstep] = cost
        if self._ckpt_store.durable:
            # Payload engines write durably too (a swapped-in
            # DurableCheckpointStore); cross-process resume context is
            # a Pregel-engine feature, so none is attached here.
            self._ckpt_store.persist(snap, None)
        if self._trace is not None:
            self._trace.emit(
                CheckpointWrite(
                    superstep=superstep, size=snap.size, cost=cost
                )
            )

    def _recover(
        self, crash: WorkerCrashError, superstep: int, stats: RunStats
    ) -> int:
        return self._loop.recover(self, crash, superstep, stats)

    def _rollback(
        self,
        crash: WorkerCrashError,
        superstep: int,
        stats: RunStats,
        ckpt: EngineSnapshot,
    ) -> int:
        discarded = stats.supersteps[ckpt.superstep:]
        for entry in discarded:
            stats.replay_cost += entry.cost(self._cost_model)
        stats.supersteps_replayed += len(discarded)
        del stats.supersteps[ckpt.superstep:]
        self._restore_payload(ckpt.payload)
        if self._trace is not None:
            self._trace.emit(
                Rollback(
                    superstep=ckpt.superstep,
                    restored_vertices=self._restored_count(),
                    confined=False,
                    discarded_supersteps=len(discarded),
                )
            )
        return ckpt.superstep
