"""Superstep-boundary checkpointing for the simulated Pregel engine.

Pregel and Giraph owe their practicality to checkpoint/rollback fault
tolerance: every ``k`` supersteps each worker persists its partition,
and a worker failure rolls the computation back to the last checkpoint
(Malewicz et al. §4.2; Ammar & Özsu treat checkpoint overhead as a
first-class cost dimension).  This module is the simulated analogue.

A :class:`Checkpoint` is the run's *columns* over one frozen topology
(``docs/fault_tolerance.md``): a value and a halted-flag column in
``states`` order, the undelivered inbox as delivery-ordered columns,
the aggregator, RNG, BPPA and wake-all scalars, and ``topology`` — a
:class:`TopologySnapshot`, or ``None`` for "the baseline the engine's
state store froze at construction".  Programs may mutate topology (at
superstep boundaries, and ``VertexState.out_edges`` in place), so
sharing the baseline is **verified, never assumed**:
:func:`take_checkpoint` shares it only when
:meth:`TopologySnapshot.holds` and captures a fresh snapshot into the
checkpoint otherwise.

Value and message columns are **copy-on-write**: exact floats or
exact ints become one typed array, anything else goes through
:func:`cow_copy`, which shares immutable leaves and copies mutable
containers.  Later mutation of live state cannot reach a checkpoint,
and a restore copies again, so one snapshot can restore repeatedly.

The *write cost* charged to the run is the snapshot's size in state
atoms (:func:`repro.metrics.bppa.state_atoms`) times the cost model's
``c_ckpt`` (:meth:`~repro.metrics.cost_model.BSPCostModel.
checkpoint_cost`).
"""

from __future__ import annotations

import copy
import dataclasses
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import is_, methodcaller
from typing import Any, Dict, Hashable, List, NamedTuple, Optional
from typing import Sequence, Tuple

from repro.bsp.shm_transport import typed_column
from repro.bsp.vertex import VertexState
from repro.errors import CheckpointError
from repro.metrics.bppa import BppaObservation, state_atoms
from repro.trace.events import Rollback

#: Types shared (not copied) by :func:`cow_copy`.
_IMMUTABLE_TYPES = (
    type(None), bool, int, float, complex, str, bytes, frozenset
)


def cow_copy(value: Any) -> Any:
    """Structural-sharing copy: copy mutable containers, share leaves.

    Returns ``value`` itself when it is (recursively) immutable and a
    recursive copy otherwise (``copy.deepcopy`` for unknown objects),
    so later in-place mutation of live containers cannot reach into
    the snapshot.
    """
    if isinstance(value, _IMMUTABLE_TYPES):
        return value
    if isinstance(value, tuple):
        copied = [cow_copy(item) for item in value]
        if all(c is o for c, o in zip(copied, value)):
            return value  # tuple of immutables: share it
        return tuple(copied)
    if isinstance(value, dict):
        return {cow_copy(k): cow_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [cow_copy(item) for item in value]
    if isinstance(value, set):
        return {cow_copy(item) for item in value}
    return copy.deepcopy(value)


def _split(column, lens):
    """``column`` cut into consecutive rows of ``lens`` entries."""
    at = 0
    for n in lens:
        yield column[at:at + n]
        at += n


def _live_topology(store):
    """``store``'s topology as ``(shape, leaves)``, in the field order
    of :class:`TopologySnapshot`: ``shape`` is what compares by value
    (aliasing, row lengths, worker indices), ``leaves`` iterate the id
    and weight objects themselves, column after column."""
    states = store.states.values()
    out_maps = [s.out_edges for s in states]
    in_maps = [s.in_edges for s in states]
    aliased = bytes(map(is_, in_maps, out_maps))
    maps = out_maps + [m for m, a in zip(in_maps, aliased) if not a]
    lists = [w.vertex_ids for w in store.workers]
    return (
        aliased,
        list(map(len, maps)),
        list(store.owner.values()),
        list(map(len, lists)),
    ), (
        store.states,
        chain.from_iterable(maps),
        chain.from_iterable(map(methodcaller("values"), maps)),
        store.owner,
        chain.from_iterable(lists),
    )


class TopologySnapshot(NamedTuple):
    """Frozen edge maps, ownership and worker lists as flat columns:
    what a restore needs besides the per-vertex columns.  Never handed
    out — a restore builds fresh dicts and lists from them."""

    #: Per vertex in ``states`` order: 1 where ``in_edges is
    #: out_edges`` (undirected graphs).
    aliased: bytes
    #: Lengths of the edge rows: every vertex's out-row, then the
    #: in-row of each vertex that is not aliased.
    row_lens: List[int]
    owner_workers: List[int]
    worker_lens: List[int]
    #: Vertex ids in ``states`` order — what the columns align to.
    ids: List[Hashable]
    #: The edge rows end to end, each in dict iteration order.
    edge_ids: List[Hashable]
    edge_weights: List[Any]
    owner_ids: List[Hashable]
    #: The workers' vertex lists end to end.
    worker_ids: List[Hashable]

    @classmethod
    def capture(cls, store) -> "TopologySnapshot":
        shape, leaves = _live_topology(store)
        return cls(*shape, *map(list, leaves))

    def holds(self, store) -> bool:
        """Whether ``store``'s live topology still is this snapshot.
        Order-sensitive, and identity rather than equality on the
        leaves (``1 == 1.0 == True``, ``0.0 == -0.0``: a restore must
        not change a type or a sign); an equal shape makes every live
        column as long as its frozen one."""
        shape, leaves = _live_topology(store)
        return shape == self[:len(shape)] and all(
            all(map(is_, live, frozen))
            for live, frozen in zip(leaves, self[len(shape):])
        )

    def edge_maps(self):
        """Per vertex, fresh ``(out_edges, in_edges)`` dicts — one
        dict twice where the two were aliased."""
        maps = [
            dict(zip(ids, weights))
            for ids, weights in zip(
                _split(self.edge_ids, self.row_lens),
                _split(self.edge_weights, self.row_lens),
            )
        ]
        in_maps = iter(maps[len(self.aliased):])
        return [
            (out, out if shared else next(in_maps))
            for out, shared in zip(maps, self.aliased)
        ]


@dataclass
class Checkpoint:
    """A full engine snapshot taken at the *start* of ``superstep``."""

    superstep: int
    #: Per-vertex columns, aligned to the topology's ``ids``.
    values: Sequence[Any]
    halted: bytes
    #: The inbox in delivery order: ids, lengths, messages end to end.
    inbox_ids: List[Hashable]
    inbox_lens: List[int]
    inbox_msgs: Sequence[Any]
    agg_finalized: Dict[str, Any]
    history_len: int
    rng_state: Tuple
    wake_all: bool
    bppa_observation: Optional[BppaObservation]
    #: State atoms (one per vertex, plus value, edge, inbox and
    #: aggregator atoms) — drives the write-cost charge.
    size: int
    #: ``None``: the state store's verified baseline.
    topology: Optional[TopologySnapshot] = None


@dataclass
class EngineSnapshot:
    """A generic payload snapshot for the re-hosted engines.

    The GAS/block/async engines describe their complete mutable run
    state as a payload dict (each engine's ``_snapshot_payload``);
    this wrapper adds what the shared machinery needs: the
    ``superstep`` the :class:`~repro.bsp.loop.CheckpointPolicy`
    schedule keys on and the ``size`` in state atoms that drives the
    write-cost charge, exactly like :class:`Checkpoint`.
    """

    superstep: int
    payload: Dict[str, Any]
    size: int = 0

    def __post_init__(self):
        if self.size == 0:
            self.size = state_atoms(self.payload)


class CheckpointStore:
    """Holds the most recent checkpoint and write-side accounting.

    Only the latest checkpoint is retained (rollback always targets
    it, as in Pregel); ``written`` counts every checkpoint of the run
    and ``total_size`` their cumulative atoms.  Stores a Pregel
    :class:`Checkpoint` or a re-hosted engine's :class:`EngineSnapshot`
    — anything with ``superstep`` and ``size``.
    """

    #: Whether checkpoints survive the process.  The on-disk subclass
    #: (:class:`~repro.bsp.durability.DurableCheckpointStore`) flips
    #: this so engines know to call :meth:`persist` after each save.
    durable = False

    def __init__(self):
        self.latest: Optional[Checkpoint] = None
        self.written: int = 0
        self.total_size: int = 0

    def save(self, checkpoint: Checkpoint) -> Checkpoint:
        self.latest = checkpoint
        self.written += 1
        self.total_size += checkpoint.size
        return checkpoint

    def persist(self, checkpoint, context=None) -> None:
        """Write ``checkpoint`` beyond the process.  The in-memory
        store keeps nothing durable; the durable subclass overrides
        this with the atomic on-disk write."""

    def require_latest(self) -> Checkpoint:
        if self.latest is None:
            raise CheckpointError(
                "no checkpoint available to restore from"
            )
        return self.latest


def _freeze(values: List[Any], floor: int):
    """``(column, atoms)`` of a snapshot column, each entry counting
    its ``state_atoms`` but at least ``floor``.  Exact floats or exact
    ints make one immutable typed array, sized in one step."""
    column = typed_column(values)
    if column is not values:
        return column, len(column)
    return (
        [cow_copy(v) for v in values],
        sum(state_atoms(v) or floor for v in values),
    )


def _thaw(column: Sequence[Any]) -> Sequence[Any]:
    """Values a restore may hand to live state."""
    if isinstance(column, array):
        return column
    return [cow_copy(v) for v in column]


def take_checkpoint(engine, superstep: int) -> Checkpoint:
    """Snapshot ``engine`` at the start of ``superstep``: a superstep
    boundary, where the outbox is empty (the previous superstep's
    traffic is in the inbox) and no ``compute()`` is in flight."""
    store = engine._store
    states = store.states.values()
    values, value_atoms = _freeze([s.value for s in states], 0)
    # One pass: a list of live pairs would cost a full GC collection.
    inbox_ids, boxes = [], []
    for vid, box in engine._inbox_snapshot_items():
        inbox_ids.append(vid)
        boxes.append(box)
    msgs, msg_atoms = _freeze(list(chain.from_iterable(boxes)), 1)
    baseline = store.baseline
    shared = baseline is not None and baseline.holds(store)
    topology = baseline if shared else TopologySnapshot.capture(store)
    tracker = engine._tracker
    return Checkpoint(
        superstep=superstep,
        values=values,
        halted=bytes(s.halted for s in states),
        inbox_ids=inbox_ids,
        inbox_lens=list(map(len, boxes)),
        inbox_msgs=msgs,
        agg_finalized=cow_copy(engine._agg_finalized),
        history_len=len(engine._aggregate_history),
        rng_state=engine.rng.getstate(),
        wake_all=engine._wake_all,
        bppa_observation=None
        if tracker is None
        else dataclasses.replace(tracker.observation),
        size=len(values) + value_atoms + len(topology.edge_ids)
        + msg_atoms + state_atoms(engine._agg_finalized),
        topology=None if shared else topology,
    )


def _topology_of(engine, checkpoint: Checkpoint) -> TopologySnapshot:
    topology = checkpoint.topology or engine._store.baseline
    if topology is None:
        raise CheckpointError(
            "checkpoint shares a topology baseline this engine never "
            "froze (it was built with no checkpointing configured)"
        )
    return topology


def _restored_states(checkpoint: Checkpoint, topology, keep=None):
    """A fresh ``VertexState`` per vertex of ``checkpoint`` (only
    those whose id is in ``keep``, when given)."""
    for vid, value, halted, (out_edges, in_edges) in zip(
        topology.ids,
        _thaw(checkpoint.values),
        checkpoint.halted,
        topology.edge_maps(),
    ):
        if keep is None or vid in keep:
            state = VertexState(vid, value, out_edges, in_edges)
            state.halted = bool(halted)
            yield state


def restore_checkpoint(
    engine, checkpoint: Checkpoint, discarded_supersteps: int = 0
) -> None:
    """Rewind ``engine`` to ``checkpoint`` (full rollback).

    Everything the snapshot captured is put back, so re-execution from
    ``checkpoint.superstep`` is byte-for-byte identical to the
    original execution of those supersteps.  ``discarded_supersteps``
    (committed supersteps the caller threw away) goes on the
    ``Rollback`` trace event.
    """
    topology = _topology_of(engine, checkpoint)
    engine._states = {
        state.id: state
        for state in _restored_states(checkpoint, topology)
    }
    engine._owner = dict(zip(topology.owner_ids, topology.owner_workers))
    lists = _split(topology.worker_ids, topology.worker_lens)
    for worker, vids in zip(engine._workers, lists):
        worker.vertex_ids = vids
        worker.reset_counters()
    # A snapshot is layout-free: the engine's own plane re-indexes
    # over the restored worker lists and adopts the undelivered inbox.
    msgs = _split(_thaw(checkpoint.inbox_msgs), checkpoint.inbox_lens)
    engine._fabric.reindex(dict(zip(checkpoint.inbox_ids, msgs)))
    engine._agg_finalized = cow_copy(checkpoint.agg_finalized)
    del engine._aggregate_history[checkpoint.history_len:]
    engine.rng.setstate(checkpoint.rng_state)
    engine._wake_all = checkpoint.wake_all
    observation = checkpoint.bppa_observation
    if engine._tracker is not None and observation is not None:
        engine._tracker.observation = dataclasses.replace(observation)
    # Backends with external execution state (the process-parallel
    # pool's rank copies) resynchronize against the restored engine.
    engine._post_restore_sync()
    trace = getattr(engine, "_trace", None)
    if trace is not None:
        trace.emit(
            Rollback(
                superstep=checkpoint.superstep,
                restored_vertices=len(checkpoint.values),
                confined=False,
                discarded_supersteps=discarded_supersteps,
            )
        )


def restore_partition(engine, checkpoint: Checkpoint, worker: int) -> int:
    """Confined restore: rewind only ``worker``'s vertices, in place
    (the dense plane indexes the live ``VertexState`` objects), and
    return how many.  Topology must not have changed since the
    checkpoint (the engine falls back to full rollback otherwise)."""
    topology = _topology_of(engine, checkpoint)
    owned = {
        vid
        for vid, widx in zip(topology.owner_ids, topology.owner_workers)
        if widx == worker
    }
    live = engine._states
    for saved in _restored_states(checkpoint, topology, owned):
        state = live[saved.id]
        state.value, state.halted = saved.value, saved.halted
        state.out_edges, state.in_edges = saved.out_edges, saved.in_edges
    return len(owned)
