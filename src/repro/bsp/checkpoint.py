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
:class:`TopologySnapshot`, or ``None`` for the state store's
:class:`Baseline`, whose rows are the run's own ``CsrSnapshot``.
Either holds the partition as two columns, the fabric's dense-order
ids (``worker_ids``) and each worker's count (``worker_lens``).
Programs may mutate topology (at superstep boundaries, and
``VertexState.out_edges`` in place), so sharing the baseline is
**verified, never assumed** (:meth:`Baseline.holds`).

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
from itertools import islice, repeat
from operator import is_
from typing import Any, Dict, Hashable, List, NamedTuple, Optional
from typing import Sequence, Tuple

from repro.bsp.columns import typed_column
from repro.bsp.vertex import VertexState
from repro.errors import CheckpointError
from repro.graph.snapshot import CsrSnapshot, row_dicts, same_rows
from repro.metrics.bppa import BppaObservation, state_atoms

#: Types shared (not copied) by :func:`cow_copy`.
_IMMUTABLE_TYPES = (
    type(None), bool, int, float, complex, str, bytes, frozenset
)


def cow_copy(value: Any) -> Any:
    """Structural-sharing copy: copy mutable containers, share leaves.

    Returns ``value`` itself when it is (recursively) immutable and a
    recursive copy otherwise (``copy.deepcopy`` for unknown objects),
    so later in-place mutation of live containers cannot reach into
    the snapshot.  Dict keys and set members are shared as they are:
    they are hashable, a snapshot never mutates them, and a vertex id
    that hashes by identity must stay the same object to be found.
    """
    if isinstance(value, _IMMUTABLE_TYPES):
        return value
    if isinstance(value, tuple):
        copied = [cow_copy(item) for item in value]
        if all(c is o for c, o in zip(copied, value)):
            return value  # tuple of immutables: share it
        return tuple(copied)
    if isinstance(value, dict):
        return {k: cow_copy(v) for k, v in value.items()}
    if isinstance(value, list):
        return [cow_copy(item) for item in value]
    if isinstance(value, set):
        return set(value)
    return copy.deepcopy(value)


def _vertex_columns(store, dense):
    """The partition's worker range lengths (by value), and the ids
    of ``states`` and of the partition ``dense`` in dense order (by
    id)."""
    return [b - a for a, b in dense.ranges], (list(store.states), dense.id_of)


class TopologySnapshot(NamedTuple):
    """Edge maps and the partition as flat columns, captured once the
    live topology is no longer the :class:`Baseline`."""

    #: Per vertex in ``states`` order: 1 where ``in_edges is
    #: out_edges`` (undirected graphs).
    aliased: bytes
    #: Lengths of the edge rows: every vertex's out-row, then the
    #: in-row of each vertex that is not aliased.
    row_lens: List[int]
    #: Per worker, how many vertices it owns.
    worker_lens: List[int]
    #: Vertex ids in ``states`` order — what the columns align to.
    ids: List[Hashable]
    #: The edge rows end to end, each in dict iteration order.
    edge_ids: List[Hashable]
    edge_weights: List[Any]
    #: The partition's ids in dense order (``DenseIndex.id_of``): the
    #: workers' ids end to end, each worker's in execution order.
    worker_ids: List[Hashable]

    @classmethod
    def capture(cls, store, dense) -> "TopologySnapshot":
        """``store``'s live topology over the partition ``dense``; a row
        that is not materialized is read off the frozen topology's
        columns, never built into a dict."""
        lens, (ids, worker_ids) = _vertex_columns(store, dense)
        states = store.states.values()
        aliased, rows, nbrs, wts = store.topology.live_rows(
            [s.row for s in states],
            [s.out_edges for s in states], [s.in_edges for s in states],
        )
        return cls(aliased, rows, lens, ids, nbrs, wts, worker_ids)

    edge_entries = property(lambda self: len(self.edge_ids))

    def edge_maps(self):
        """Per vertex, fresh ``(out_edges, in_edges)`` dicts — one
        dict twice where the two were aliased."""
        maps = list(
            row_dicts(self.row_lens, self.edge_ids, self.edge_weights)
        )
        in_maps = iter(maps[len(self.aliased):])
        return [
            (out, out if shared else next(in_maps))
            for out, shared in zip(maps, self.aliased)
        ]


class Baseline(NamedTuple):
    """The topology and partition frozen at construction: a
    :class:`TopologySnapshot`'s vertex columns, O(n), over the run's own
    ``CsrSnapshot`` rows."""

    worker_lens: List[int]
    ids: List[Hashable]
    worker_ids: List[Hashable]
    rows: CsrSnapshot
    edge_entries: int  # out-row entries, and in-row ones when directed

    @classmethod
    def freeze(cls, store, dense) -> "Baseline":
        targets = store.topology.edge_columns()[1::3]  # out, in if directed
        lens, leaves = _vertex_columns(store, dense)
        return cls(lens, *leaves, store.topology, sum(map(len, targets)))

    def holds(self, store, dense) -> bool:
        """Whether ``store``'s live topology over the partition
        ``dense`` still is this baseline: the vertex columns by
        identity (``1 == 1.0 == True``), and the materialized rows, the
        only ones that can differ — O(n + touched)."""
        lens, leaves = _vertex_columns(store, dense)
        kept = self.ids, self.worker_ids
        if (
            lens != self.worker_lens
            or list(map(len, leaves)) != list(map(len, kept))
            or not all(map(all, map(map, repeat(is_), leaves, kept)))
        ):
            return False  # past here every vertex has a frozen row
        touched = [s for s in store.states.values() if s.out_edges is not None]
        rows = [s.row for s in touched]
        live = self.rows.live_rows(
            rows, [s.out_edges for s in touched], [s.in_edges for s in touched]
        )
        frozen = self.rows.live_rows(rows, *[[None] * len(rows)] * 2)
        return live[0] == frozen[0] and same_rows(live[1:], frozen[1:])

    def edge_maps(self):
        """Per vertex, no dict: a restored row is the frozen one."""
        return repeat((None, None))


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
    #: ``None``: the state store's verified :class:`Baseline`.
    topology: Optional[TopologySnapshot] = None


@dataclass
class EngineSnapshot:
    """A generic payload snapshot for the re-hosted engines.

    The GAS/block/async engines describe their complete mutable run
    state as a payload dict (each engine's ``_checkpoint``); this
    wrapper adds what the shared machinery needs: the ``superstep`` the
    :class:`~repro.bsp.loop.CheckpointPolicy` schedule keys on and the
    ``size`` in state atoms that drives the write-cost charge.
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
    store, dense = engine._store, engine._fabric.dense
    states = store.states.values()
    values, value_atoms = _freeze([s.value for s in states], 0)
    # Copies the fabric's live message column (``_freeze`` never
    # returns the list it was given).
    inbox_ids, inbox_lens, msgs = engine._fabric.inbox_columns()
    msgs, msg_atoms = _freeze(msgs, 1)
    baseline = store.baseline
    shared = baseline is not None and baseline.holds(store, dense)
    topology = baseline if shared else TopologySnapshot.capture(store, dense)
    tracker = engine._tracker
    return Checkpoint(
        superstep=superstep,
        values=values,
        halted=bytes(s.halted for s in states),
        inbox_ids=inbox_ids,
        inbox_lens=inbox_lens,
        inbox_msgs=msgs,
        agg_finalized=cow_copy(engine._agg_finalized),
        history_len=len(engine._aggregate_history),
        rng_state=engine.rng.getstate(),
        wake_all=engine._wake_all,
        bppa_observation=None
        if tracker is None
        else dataclasses.replace(tracker.observation),
        size=len(values) + value_atoms + topology.edge_entries
        + msg_atoms + state_atoms(engine._agg_finalized),
        topology=None if shared else topology,
    )


def _topology_of(engine, checkpoint: Checkpoint):
    topology = checkpoint.topology or engine._store.baseline
    if topology is None:
        raise CheckpointError(
            "checkpoint shares a topology baseline this engine never "
            "froze (it was built with no checkpointing configured)"
        )
    return topology


def _restored_states(engine, checkpoint: Checkpoint, topology):
    """A fresh ``VertexState`` per vertex of ``checkpoint``.  A
    restore of a checkpoint sharing the baseline puts the frozen rows
    back: it builds no dict."""
    for vid, value, halted, row, (out_edges, in_edges) in zip(
        topology.ids,
        _thaw(checkpoint.values),
        checkpoint.halted,
        engine._store.topology.positions(topology.ids),
        topology.edge_maps(),
    ):
        state = VertexState.of_rows(vid, value, row, out_edges, in_edges)
        state.halted = bool(halted)
        yield state


def restore_checkpoint(engine, checkpoint: Checkpoint) -> int:
    """Rewind ``engine`` to ``checkpoint`` (full rollback) and return
    how many vertices it restored.

    Everything the snapshot captured is put back, so re-execution from
    ``checkpoint.superstep`` is byte-for-byte identical to the
    original execution of those supersteps.  The ``Rollback`` event is
    the loop's (:meth:`~repro.bsp.loop.SuperstepLoop.rollback`).
    """
    topology = _topology_of(engine, checkpoint)
    engine._store.states = {
        state.id: state
        for state in _restored_states(engine, checkpoint, topology)
    }
    for worker in engine._workers:
        worker.reset_counters()
    # A snapshot is layout-free: the engine's own plane re-indexes
    # over the restored partition and adopts the undelivered inbox.
    ids = iter(topology.worker_ids)
    inbox = checkpoint.inbox_ids, checkpoint.inbox_lens
    engine._fabric.reindex(
        (*inbox, _thaw(checkpoint.inbox_msgs)),
        [list(islice(ids, n)) for n in topology.worker_lens],
    )
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
    return len(checkpoint.values)
