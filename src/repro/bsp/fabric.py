"""The message fabric: routing, combining, ledger accounting, and
fault-injected delivery.

The engine composes exactly one fabric: every mailbox, the send paths
the compute kernels call, and the delivery that moves a superstep's
traffic across the barrier.  A :class:`DenseLane` is one worker's
share of the dense plane and owns the send paths; the fabric binds the
compute context's sends to the lane whose worker is executing
(:meth:`MessageFabric.bind_lane`), and a pool rank of the parallel
backend runs the same lane code over its slice.  Neither holds its
engine (``docs/architecture.md``, "One-way ownership").

One plane
---------

Vertex ids are compiled to contiguous ints
(:class:`~repro.graph.partition.DenseIndex`), re-indexed in place by
:meth:`MessageFabric.reindex` after a barrier that mutated topology.
Its orders are the ones the test-side oracle defines
(``docs/architecture.md``, "Oracle"): workers execute sequentially, so
global send order is all of worker 0's sends, then worker 1's, …;
``out_dirty`` holds the destinations in first-send order (each
worker's first touches, deduplicated across workers in worker order),
which fixes the fault-draw sequence and the inbox (and checkpoint)
order; a destination's messages arrive in worker order.

A per-vertex pass sends into its lane's slots, by dense destination:
with a combiner one combined message in ``acc[dst]`` plus its logical
count in ``cnt[dst]`` (occupied: ``cnt > 0``, so a message may be any
value), without one a list of messages in send order.  Full-neighbor
fanouts read the compiled row while :meth:`DenseLane.held_row` finds
it current.  A vectorized kernel scattering through its compiled plan
writes no slot: it emits its :class:`LaneRecord` payload column in an
order fixed at compile time, which delivery puts where a
:class:`DeliveryLayout`, compiled with the plans, says the scan would.

The inbox holds no container per destination: delivery appends each
destination's messages to one flat column ``in_msgs`` and records
their offset and number in the position-indexed ``in_start``/
``in_count`` (0: no mail); ``in_dirty`` lists the destinations in
delivery order.  Off the accumulators a lane's slots have one form,
:class:`LaneRecord`: what a pool rank replies with (grouped by owning
rank), what the coordinator holds, forwards or adopts, what the spill
tier sizes, writes and reloads, and a rank's inbound batch.
"""

from __future__ import annotations

import operator
import os
import pickle
import shutil
import tempfile
from array import array
from collections import deque
from itertools import accumulate, chain, islice, repeat
from typing import Any, Dict, Hashable, List, NamedTuple, Optional

from repro.bsp.combiner import SumCombiner
from repro.bsp.faults import DeliveryFaults
from repro.bsp.columns import typed_column
from repro.errors import MessageToUnknownVertexError, SpillError
from repro.graph.partition import build_dense_index, dense_adjacency
from repro.graph.snapshot import edge_dicts
from repro.trace.events import FaultInjected


class LaneRecord(NamedTuple):
    """Slots of one lane, detached from its accumulator arrays.

    ``touched`` is the slots' dense indices (``array('q')``, first-
    touch order).  With a combiner ``payloads`` holds one combined
    message per slot and ``counts`` the slots' logical counts; without
    one ``payloads`` is the slots' messages laid end to end and
    ``counts`` the bucket lengths.  ``counts`` is an ``array('q')``;
    ``payloads`` is a typed array when
    :func:`~repro.bsp.columns.typed_column` takes the column
    (exact floats or in-range exact ints — bit- and type-identical on
    the way back) and the plain list otherwise.
    """

    touched: array
    payloads: Any
    counts: array

    @classmethod
    def from_buckets(cls, touched, buckets) -> "LaneRecord":
        """The plain-layout record of ``buckets`` (one message list
        per touched slot)."""
        return cls(
            array("q", touched),
            typed_column([m for b in buckets for m in b]),
            array("q", map(len, buckets)),
        )

    def buckets(self):
        """``(slot, message list)`` pairs of a plain-layout record."""
        flat = self.payloads
        if type(flat) is array:
            flat = flat.tolist()
        pos = 0
        for slot, n in zip(self.touched, self.counts):
            end = pos + n
            yield slot, flat[pos:end]
            pos = end

    @property
    def nbytes(self) -> int:
        """What the spill tier charges for the record: raw bytes for
        typed columns, the pickled size for an un-typed payload
        column."""
        payloads = self.payloads
        if type(payloads) is array:
            size = payloads.itemsize * len(payloads)
        else:
            size = len(pickle.dumps(payloads, pickle.HIGHEST_PROTOCOL))
        return size + 8 * len(self.counts) + 8 * len(self.touched)


class DeliveryLayout(NamedTuple):
    """Where planned lane records land (:meth:`MessageFabric.
    plan_delivery`): ``dirty`` the destinations in first-touch order,
    ``starts`` their mail's offsets then the end; per worker ``w``,
    ``scatter[w]`` its record entries' inbox positions, ``tallies[w]``
    its ``(sent_network, received_network, received_logical)``."""

    dirty: array
    starts: array
    scatter: list
    tallies: list


class DenseLane:
    """One worker's lane of the dense plane: everything a single
    worker's compute pass reads and writes, and the send paths that
    write it.

    The serial engine holds one lane per worker over the fabric's
    arrays (``base == 0``), a pool rank one over its slice (``base ==
    start``); both run the same kernels and send methods on it.

    ``states``/``in_start``/``in_count`` and the adjacency columns
    (``out_start``/``out_dst``/``remote_out``/``dangling``) are indexed
    by ``dense idx - base`` (the inbox columns are the fabric's on the
    serial host, the lane's own on a pool rank, which fills them from
    its inbound :class:`LaneRecord`); the slots (:meth:`slots`, this
    worker's ``(src_worker, destination)`` slots) and ``idx_of``/
    ``owner_of`` by global dense index.  ``touched`` lists the
    destinations first written this pass, in first-touch order;
    ``cur`` is the position of the vertex executing (the full-neighbor
    fanout reads its compiled row).  The host binds its compute
    context's sends to :meth:`sends`.  The frontier is two ascending
    position lists: ``arrivals``, the lane's share of this superstep's
    mailed positions (set by the host before a pass that visits them),
    and ``awake``, the vertices the last per-vertex pass left
    un-halted — ``None`` when unknown: whatever writes ``halted``
    outside that pass resets it.
    """

    __slots__ = (
        "worker", "index", "start", "stop", "base",
        "states", "in_msgs", "in_start", "in_count",
        "out_start", "out_dst", "remote_out", "dangling",
        "idx_of", "owner_of",
        "acc", "cnt", "combine", "touched", "cur", "arrivals", "awake",
        "rows",
    )

    def __init__(
        self, worker, base, states, inbox,
        adjacency, idx_of, owner_of, combiner, rows=None,
    ):
        self.worker = worker
        self.index = worker.index
        self.start = worker.range_start
        self.stop = worker.range_stop
        self.base = base
        self.states = states
        # The host's inbox columns, or (``None``) the lane's own.
        own = len(states)
        self.in_msgs, self.in_start, self.in_count = inbox or (
            [], [0] * own, [0] * own
        )
        (
            self.out_start, self.out_dst, self.remote_out, self.dangling
        ) = adjacency
        self.idx_of = idx_of
        self.owner_of = owner_of
        # The slots, allocated by slots(): a lane whose sends all go
        # through its scatter plan never needs them.
        self.acc = self.cnt = None
        self.touched: List[int] = []
        self.cur = -1
        self.arrivals, self.awake = (), None
        self.rows = rows
        if combiner is None:
            self.combine = None
        elif type(combiner) is SumCombiner:
            # The C-level add is exactly SumCombiner.combine's ``a + b``
            # without its Python frame; gated on the exact type so a
            # subclass keeps its own behavior.
            self.combine = operator.add
        else:
            self.combine = combiner.combine

    def slots(self):
        """``(acc, cnt)``, allocated when first needed."""
        if self.acc is None:
            n = len(self.owner_of)
            self.acc = [None] * n
            self.cnt = None if self.combine is None else [0] * n
        return self.acc, self.cnt

    def materialize(self) -> None:
        """Give the lane's vertices private edge dicts, in one pass,
        from ``rows(positions)``: the run's ``CsrSnapshot.edge_rows``,
        or a rank's shipped columns of them."""
        rows, self.rows = self.rows, None
        if rows is not None:
            lo, hi = self.start - self.base, self.stop - self.base
            lazy = [s for s in self.states[lo:hi] if s.out_edges is None]
            pairs = edge_dicts(rows([s.row for s in lazy]))
            for state, (out, incoming) in zip(lazy, pairs):
                state.out_edges, state.in_edges = out, incoming

    # Send paths.  A slot without a combiner is the list of messages in
    # send order; with one it is the send-time fold in ``acc`` plus the
    # logical count in ``cnt``.  A confined replay binds its own
    # context's sends to the fabric's null pair, so no replay guard is
    # needed here.

    def sends(self):
        """``(enqueue, fanout)``: the plain or the combining pair, as
        the lane is laid out (not stored: a cycle through the lane)."""
        if self.slots()[1] is None:
            return self.enqueue_plain, self.fanout_plain
        return self.enqueue_combining, self.fanout_combining

    def held_row(self, pos: int, targets):
        """Position ``pos``'s compiled row, or ``None`` when it may not
        stand in for ``targets``: it must have compiled, ``targets``
        must be the vertex's live ``out_edges``, and no in-place edit
        may show — a removal or an insertion changes the length, the
        two together put the new id last, so both are O(1) to see."""
        if targets is not self.states[pos].out_edges or pos in self.dangling:
            return None
        lo, hi = self.out_start[pos], self.out_start[pos + 1]
        if hi - lo != len(targets) or lo != hi and (
            self.idx_of.get(next(reversed(targets))) != self.out_dst[hi - 1]
        ):
            return None
        return self.out_dst[lo:hi]

    def enqueue_plain(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        dst = self.idx_of.get(target)
        if dst is None:
            raise MessageToUnknownVertexError(target)
        bucket = self.acc[dst]
        if bucket is None:
            self.acc[dst] = [message]
            self.touched.append(dst)
        else:
            bucket.append(message)
        worker = self.worker
        worker.sent_logical += 1
        if self.owner_of[dst] != self.index:
            worker.sent_remote += 1

    def enqueue_combining(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        dst = self.idx_of.get(target)
        if dst is None:
            raise MessageToUnknownVertexError(target)
        cnt = self.cnt
        c = cnt[dst]
        if c:
            self.acc[dst] = self.combine(self.acc[dst], message)
            cnt[dst] = c + 1
        else:
            self.acc[dst] = message
            cnt[dst] = 1
            self.touched.append(dst)
        worker = self.worker
        worker.sent_logical += 1
        if self.owner_of[dst] != self.index:
            worker.sent_remote += 1

    def fanout_plain(self, source, targets, message) -> int:
        cur = self.cur
        acc = self.acc
        touched = self.touched
        worker = self.worker
        nbrs = self.held_row(cur, targets)
        if nbrs is not None:
            # Full-neighbor fanout: use the precompiled dense
            # adjacency — no per-target hashing.
            for dst in nbrs:
                bucket = acc[dst]
                if bucket is None:
                    acc[dst] = [message]
                    touched.append(dst)
                else:
                    bucket.append(message)
            n = len(nbrs)
            worker.sent_logical += n
            worker.sent_remote += self.remote_out[cur]
            return n
        idx_get = self.idx_of.get
        owner_of = self.owner_of
        src = self.index
        n = remote = 0
        try:
            for target in targets:
                dst = idx_get(target)
                if dst is None:
                    raise MessageToUnknownVertexError(target)
                bucket = acc[dst]
                if bucket is None:
                    acc[dst] = [message]
                    touched.append(dst)
                else:
                    bucket.append(message)
                if owner_of[dst] != src:
                    remote += 1
                n += 1
        finally:
            # Commit partial counts on an unknown-target raise, exactly
            # as per-message sends would have.
            worker.sent_logical += n
            worker.sent_remote += remote
        return n

    def fanout_combining(self, source, targets, message) -> int:
        cur = self.cur
        acc = self.acc
        cnt = self.cnt
        touched = self.touched
        combine = self.combine
        worker = self.worker
        nbrs = self.held_row(cur, targets)
        if nbrs is not None:
            for dst in nbrs:
                c = cnt[dst]
                if c:
                    acc[dst] = combine(acc[dst], message)
                    cnt[dst] = c + 1
                else:
                    acc[dst] = message
                    cnt[dst] = 1
                    touched.append(dst)
            n = len(nbrs)
            worker.sent_logical += n
            worker.sent_remote += self.remote_out[cur]
            return n
        idx_get = self.idx_of.get
        owner_of = self.owner_of
        src = self.index
        n = remote = 0
        try:
            for target in targets:
                dst = idx_get(target)
                if dst is None:
                    raise MessageToUnknownVertexError(target)
                c = cnt[dst]
                if c:
                    acc[dst] = combine(acc[dst], message)
                    cnt[dst] = c + 1
                else:
                    acc[dst] = message
                    cnt[dst] = 1
                    touched.append(dst)
                if owner_of[dst] != src:
                    remote += 1
                n += 1
        finally:
            worker.sent_logical += n
            worker.sent_remote += remote
        return n

    # The two moves between accumulator slots and a LaneRecord.

    def detach(self, touched) -> LaneRecord:
        """Gather the ``touched`` slots into a record and clear
        them."""
        acc, cnt = self.slots()
        slots = [acc[d] for d in touched]
        if cnt is None:
            record = LaneRecord.from_buckets(touched, slots)
        else:
            record = LaneRecord(
                array("q", touched),
                typed_column(slots),
                array("q", [cnt[d] for d in touched]),
            )
            for d in touched:
                cnt[d] = 0
        for d in touched:
            acc[d] = None
        return record

    def adopt(self, record: LaneRecord) -> None:
        """Write a record's slots back into the (clear) accumulator
        slots they were detached from."""
        acc, cnt = self.slots()
        if cnt is None:
            for d, bucket in record.buckets():
                acc[d] = bucket
        else:
            for d, payload, count in zip(
                record.touched, record.payloads, record.counts
            ):
                acc[d] = payload
                cnt[d] = count

    # The two moves of the inbox columns.

    def receive(self, positions, counts, msgs) -> None:
        """Fill the (drained) inbox: ``counts[k]`` messages of
        ``msgs``, laid end to end, for position ``positions[k]``."""
        self.in_msgs += msgs
        in_start, in_count = self.in_start, self.in_count
        lo = 0
        for pos, count in zip(positions, counts):
            in_start[pos] = lo
            in_count[pos] = count
            lo += count

    def drain(self, positions) -> None:
        """Empty the inbox, which holds mail for ``positions``."""
        in_count = self.in_count
        for pos in positions:
            in_count[pos] = 0
        self.in_msgs.clear()


class MessageFabric:
    """One engine's mailboxes, send paths, and delivery routines.

    Handed what it reads, not its engine: ``store`` supplies the
    vertex partition (``states``/``owner``/``workers``, mirrored here
    for the per-message hot paths, plus the confined-recovery message
    log, and the frozen ``topology`` every index compiles from),
    ``ctx`` the context whose sends :meth:`bind_lane` binds; delivery
    reads ``injector``/``trace``/``confined_recovery`` and ``run_stats``,
    which the engine sets when a run starts.  The engine's
    ``_states``/``_owner`` setters refresh the mirrors whenever a
    checkpoint restore swaps the underlying dicts.
    """

    def __init__(
        self,
        store,
        combiner,
        ctx,
        injector=None,
        trace=None,
        confined_recovery: bool = False,
        memory_budget: Optional[int] = None,
        spill_dir: Optional[str] = None,
    ):
        self._store = store
        self._combiner = combiner
        self._ctx = ctx
        self._injector = injector
        self._trace = trace
        self._confined_recovery = confined_recovery
        self.run_stats = None
        #: Soft cap, in encoded bytes, on one superstep's buffered
        #: lane records; ``None`` disables the spill tier entirely.
        self.memory_budget = memory_budget
        self._spill_dir = spill_dir
        self._spill_tmp: Optional[str] = None
        self._spilled: Dict[int, str] = {}
        self._spill_seq = 0
        self._resident_bytes = 0
        #: Observability counters (never part of RunStats: a budgeted
        #: run must stay byte-identical to an unbudgeted one).
        self.spilled_lanes = 0
        self.spilled_bytes = 0
        # Hot-path mirrors of the store's partition (see class doc).
        self.states = store.states
        self.owner = store.owner
        self.workers = store.workers

        # The dense plane (compiled by engage_fast_path, below).
        self.dense = None
        self.dense_states = None
        self.adjacency = None
        #: The inbox columns (module docstring).
        self.in_msgs: List[Any] = []
        self.in_start: Optional[List[int]] = None
        self.in_count: Optional[List[int]] = None
        self.in_dirty: List[int] = []
        self.out_dirty: List[int] = []
        #: Per source rank, the effect set whose records the parallel
        #: backend holds off this inbox for the ranks to deliver.
        self.held: Optional[list] = None
        #: One :class:`DenseLane` per worker, in worker order.
        self.lanes: Optional[List[DenseLane]] = None
        self.slot_seen: Optional[List[int]] = None
        self.stamp = 0
        #: The plans' :class:`DeliveryLayout`; the held planned records.
        self.layout = self.records = None
        self.engage_fast_path()

    # ------------------------------------------------------------------
    # Send paths: the lane binding, and the null pair of a confined
    # replay
    # ------------------------------------------------------------------

    def replayed_send(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        """The null send a confined replay's context is bound to: a
        re-issued send is checked like a live one, then dropped — the
        original was delivered, and logged, when the superstep first
        ran."""
        if target not in self.states:
            raise MessageToUnknownVertexError(target)

    def replayed_fanout(
        self, source: Hashable, targets, message: Any
    ) -> int:
        """One :meth:`replayed_send` check per target."""
        n = 0
        for target in targets:
            self.replayed_send(source, target, message)
            n += 1
        return n

    def bind_lane(self, lane: DenseLane) -> None:
        """Route the context's sends to ``lane`` — the worker whose
        compute pass is about to run (workers run sequentially)."""
        self._ctx._enqueue, self._ctx._fanout = lane.sends()

    def flush_worker_sends(self, lane: DenseLane) -> None:
        """Commit the finished worker's sends: record its first-touched
        destinations in the global dirty list.

        The lane's slots stay resident in its accumulators until
        delivery (the parallel coordinator adopts a rank's records
        into them first).  Runs once per worker per superstep,
        O(touched destinations).  Workers flush in index order, which
        is also global send order, so ``out_dirty`` gets the
        destinations in first-send order.
        """
        touched = lane.touched
        seen = self.slot_seen
        stamp = self.stamp
        dirty = self.out_dirty
        for dst in touched:
            if seen[dst] != stamp:
                seen[dst] = stamp
                dirty.append(dst)
        lane.touched = []
        if self.memory_budget is not None and touched:
            record = lane.detach(touched)
            if self.account_lane(lane.index, record):
                lane.adopt(record)

    def hold(self, index: int, plan, payloads) -> None:
        """Keep a planned lane's record payload column for delivery,
        charged against the memory budget like a flushed lane."""
        self.records = self.records or [(None, ())] * len(self.lanes)
        self.records[index] = plan, payloads
        if self.memory_budget is not None and payloads:
            record = _planned(plan, typed_column(payloads))
            if not self.account_lane(index, record):
                self.records[index] = plan, None

    # ------------------------------------------------------------------
    # Spill tier: byte-accounted lane eviction under a memory budget
    # ------------------------------------------------------------------
    #
    # With a ``memory_budget``, every finished lane's LaneRecord (its
    # detached slots, or a planned lane's record) is charged against
    # it; a record past the budget is pickled to disk, the others stay
    # (slots adopted back).  Delivery first reloads spilled records, in
    # worker order, so the spill is invisible downstream: the values
    # round-trip exactly (typed columns, else pickle — the rank
    # boundary's equality contract).

    def account_lane(self, worker_index: int, record: LaneRecord) -> bool:
        """Charge one worker's finished lane ``record`` against the
        budget; False when it went past it, to disk."""
        nbytes = record.nbytes
        if self._resident_bytes + nbytes <= self.memory_budget:
            self._resident_bytes += nbytes
            return True
        root = self._spill_root()
        path = os.path.join(
            root, f"lane_{self._spill_seq}_{worker_index}.bin"
        )
        self._spill_seq += 1
        # Listed first: a partial file goes with the rest at run end.
        self._spilled[worker_index] = path
        try:
            with open(path, "wb") as fh:
                pickle.dump(record, fh, pickle.HIGHEST_PROTOCOL)
        except OSError as exc:
            raise SpillError(f"cannot spill lane to {path}: {exc}") from exc
        self.spilled_lanes += 1
        self.spilled_bytes += nbytes
        return False

    def _reload_spilled(self) -> None:
        """Load every spilled record back into its lane (worker order
        — the order the delivery scan consumes lanes) and delete the
        files."""
        for worker_index, path in sorted(self._spilled.items()):
            try:
                with open(path, "rb") as fh:
                    record = pickle.load(fh)
            except (OSError, EOFError, pickle.UnpicklingError) as exc:
                raise SpillError(
                    f"cannot reload spilled lane {path}: {exc!r}"
                ) from exc
            os.unlink(path)
            if self.records is not None:
                plan = self.records[worker_index][0]
                self.records[worker_index] = plan, record.payloads
            else:
                self.lanes[worker_index].adopt(record)
        self._spilled = {}

    def _spill_root(self) -> str:
        if self._spill_dir is not None:
            path = os.fspath(self._spill_dir)
            os.makedirs(path, exist_ok=True)
            return path
        if self._spill_tmp is None:
            self._spill_tmp = tempfile.mkdtemp(prefix="repro-spill-")
        return self._spill_tmp

    def _drop_spill_files(self) -> None:
        """Discard pending spill files (path resets, rollbacks)."""
        for path in self._spilled.values():
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - defensive
                pass
        self._spilled = {}
        self._resident_bytes = 0

    def cleanup_spill(self) -> None:
        """Release everything the spill tier put on disk, including
        the lazily created temp directory.  Called by the engine when
        a run finishes (success or not)."""
        self._drop_spill_files()
        if self._spill_tmp is not None:
            shutil.rmtree(self._spill_tmp, ignore_errors=True)
            self._spill_tmp = None

    # ------------------------------------------------------------------
    # Execution-path management
    # ------------------------------------------------------------------

    def engage_fast_path(self) -> None:
        """Compile the dense index over the store's current partition
        and lay out empty slot mailboxes.

        Called at construction and by :meth:`reindex`.  The dense
        order mirrors worker/`vertex_ids` order exactly, so execution
        sequencing is unchanged.
        """
        dense = build_dense_index(self.workers)
        self.dense = dense
        for worker, (start, stop) in zip(self.workers, dense.ranges):
            worker.range_start = start
            worker.range_stop = stop
        states = self.states
        dense_states = [states[vid] for vid in dense.id_of]
        self.dense_states = dense_states
        n = len(dense.id_of)
        # Compile the dense adjacency: full-neighbor fanouts iterate
        # precomputed int indices instead of hashing ids per message.
        topology = self._store.topology
        adjacency = self.adjacency = dense_adjacency(
            dense_states, dense, topology
        )
        inbox = self.in_msgs, self.in_start, self.in_count = (
            [], [0] * n, [0] * n
        )
        self.in_dirty = []
        self.out_dirty = []
        self.lanes = [
            DenseLane(
                worker, 0, dense_states, inbox,
                adjacency, dense.idx_of, dense.owner_of, self._combiner,
                topology.edge_rows,
            )
            for worker in self.workers
        ]
        self.slot_seen = [0] * n
        self.stamp = 0
        self.layout = self.records = None
        self._drop_spill_files()
        self.bind_lane(self.lanes[0])

    def reindex(self, inbox=None) -> None:
        """Rebuild the dense plane over the store's current partition
        and carry ``inbox`` — ``(ids, lens, msgs)`` columns, default:
        the undelivered inbox — across by vertex id.  Ends a barrier
        that applied topology mutations (one O(n + m) recompile of
        the index, the adjacency and, ``self.dense`` being new, the
        lanes' vectorized plans) and a checkpoint restore, which
        passes the snapshot's inbox columns."""
        if inbox is None:
            inbox = self.inbox_columns()
        self.engage_fast_path()
        self.restore_inbox(*inbox)

    def drain_inbox(self) -> None:
        """Clear the inbox a finished compute pass consumed —
        O(touched) via the dirty list (the lanes share its columns)."""
        self.lanes[0].drain(self.in_dirty)
        self.in_dirty = []

    def rank_inbound(self, num_ranks: int) -> List[LaneRecord]:
        """The dense inbox split by owning rank, for a parallel step
        after coordinator delivery: one plain-layout :class:`LaneRecord`
        per rank, in delivery order (``in_dirty``)."""
        owner_of = self.dense.owner_of
        msgs, in_start, in_count = self.in_msgs, self.in_start, self.in_count
        parts = [([], [], []) for _ in range(num_ranks)]
        for idx in self.in_dirty:
            touched, flat, counts = parts[owner_of[idx]]
            lo = in_start[idx]
            count = in_count[idx]
            touched.append(idx)
            flat += msgs[lo:lo + count]
            counts.append(count)
        return [
            LaneRecord(array("q", touched), typed_column(flat),
                       array("q", counts))
            for touched, flat, counts in parts
        ]

    # ------------------------------------------------------------------
    # Checkpoint views
    # ------------------------------------------------------------------

    def inbox_columns(self):
        """The undelivered inbox as ``(ids, lens, msgs)`` columns in
        delivery order, messages end to end (``msgs`` is the live
        column, not a copy)."""
        dirty = self.in_dirty
        return (
            list(map(self.dense.id_of.__getitem__, dirty)),
            list(map(self.in_count.__getitem__, dirty)),
            self.in_msgs,
        )

    def restore_inbox(self, ids, lens, msgs) -> None:
        """Replace the undelivered inbox with a copy of the ``(ids,
        lens, msgs)`` columns (delivery-ordered)."""
        flat = list(msgs)  # before draining: ``msgs`` may be live
        self.drain_inbox()
        self.in_dirty = list(map(self.dense.idx_of.__getitem__, ids))
        self.lanes[0].receive(self.in_dirty, lens, flat)
        for lane in self.lanes:  # the caller rewrote ``halted``
            lane.awake = None

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def plan_delivery(self, plans) -> None:
        """Compile :attr:`layout` for the lanes' scatter ``plans``, once
        per dense index: a destination's entries in worker order, the
        destinations in first-touch order — where the slot scan puts them."""
        plain = self._combiner is None
        ranges, dirty = self.dense.ranges, array("i")
        width = [0] * len(self.dense.id_of)  # entries per destination
        logical = list(width)  # messages per destination
        for plan in plans:
            for dst in plan.order:
                if not width[dst]:
                    dirty.append(dst)
                width[dst] += 1
        for plan in plans if plain else ():
            for dst, count in zip(*plan.shape()):
                width[dst] += count - 1
        network = [sum(width[lo:hi]) for lo, hi in ranges]
        starts = array(
            "i", accumulate(map(width.__getitem__, dirty), initial=0)
        )
        cursor = width  # from here: each destination's next free entry
        _drain(map(operator.setitem, repeat(cursor), dirty, starts))
        scatter = []
        for plan in plans:
            slots, counts = plan.shape()
            at = array("i")
            put = at.append
            for dst, count in zip(slots, counts):
                put(cursor[dst])
                cursor[dst] += count if plain else 1
                logical[dst] += count
            scatter.append(array("i", chain.from_iterable(
                map(range, at, map(operator.add, at, counts))
            )) if plain else at)
        self.layout = DeliveryLayout(dirty, starts, scatter, [
            (len(at), net, sum(logical[lo:hi]))
            for at, net, (lo, hi) in zip(scatter, network, ranges)
        ])

    def _deliver_planned(self, records) -> int:
        """Put the records' payloads where :attr:`layout` places them and
        charge its tallies: the slot scan's inbox and ledger, at C level."""
        layout = self.layout
        starts, put = layout.starts, operator.setitem
        self.in_msgs += repeat(None, starts[-1])
        for index, scatter in enumerate(layout.scatter):
            (_plan, payloads), records[index] = records[index], None
            _drain(map(put, repeat(self.in_msgs), scatter, payloads))
        _drain(map(put, repeat(self.in_start), layout.dirty, starts))
        _drain(map(put, repeat(self.in_count), layout.dirty, map(
            operator.sub, islice(starts, 1, None), starts
        )))
        for worker, (sent, received, logical) in zip(
            self.workers, layout.tallies
        ):
            worker.sent_network += sent
            worker.received_network += received
            worker.received_logical += logical
        self.in_dirty, self._resident_bytes = layout.dirty, 0
        return starts[-1]

    def deliver_fast(self, superstep: int, mutated: bool) -> int:
        """Move the superstep's slots into next superstep's inbox
        columns; return the number of messages delivered.

        Charges ``received_logical`` from the per-slot logical
        tallies and the network counts from the occupied
        ``(destination, src_worker)`` slots (the combiner already
        folded at send time), appends a destination's messages in
        worker order, and runs the injected network faults through
        the reliable-delivery layer, one draw per destination in
        ``out_dirty`` order.  ``mutated`` enables the
        removed-destination check: messages to a vertex a mutation
        removed are dropped and their senders' charges reversed, so
        the books balance.  Without a mutation this superstep the
        check is skipped, because every dense id is live by
        construction.

        Planned records go through the layout (:meth:`_deliver_planned`)
        unless a mutation or a recovery log needs them in the slots.
        """
        injector = self._injector
        workers = self.workers
        dense = self.dense
        owner_of = dense.owner_of
        id_of = dense.id_of
        in_msgs = self.in_msgs
        put = in_msgs.append
        in_start = self.in_start
        in_count = self.in_count
        first = hi = len(in_msgs)
        states = self.states
        combining = self._combiner is not None
        # Confined recovery replays from an id-keyed log entry.
        log_entry: Optional[Dict[Hashable, List[Any]]] = (
            {} if self._confined_recovery else None
        )
        faults = DeliveryFaults() if injector is not None else None
        if self._spilled:
            self._reload_spilled()
        records, self.records = self.records, None
        if records is not None:
            if not mutated and log_entry is None:
                return self._deliver_planned(records)
            self.out_dirty = self.layout.dirty
            for lane, (plan, payloads) in zip(self.lanes, records):
                if plan is not None:
                    lane.adopt(_planned(plan, payloads))
        lanes = [(lane.worker, lane.acc, lane.cnt)
                 for lane in self.lanes if lane.acc is not None]
        for dst in self.out_dirty:
            if mutated and id_of[dst] not in states:
                # Dropped: destination removed this superstep —
                # reverse the senders' charges.
                target_owner = self.owner.get(id_of[dst])
                for w, acc_w, cnt_w in lanes:
                    if combining:
                        count, cnt_w[dst] = cnt_w[dst], 0
                    else:
                        count = len(acc_w[dst] or ())
                    acc_w[dst] = None
                    w.sent_logical -= count
                    if w.index != target_owner:
                        w.sent_remote -= count
                continue
            dst_worker = workers[owner_of[dst]]
            lo = hi
            if combining:
                received = 0
                for src_worker, acc_w, cnt_w in lanes:
                    count = cnt_w[dst]
                    if count:
                        cnt_w[dst] = 0
                        put(acc_w[dst])
                        acc_w[dst] = None
                        hi += 1
                        received += count
                        src_worker.sent_network += 1
                count = hi - lo
                dst_worker.received_logical += received
                dst_worker.received_network += count
            else:
                for src_worker, acc_w, _cnt in lanes:
                    bucket = acc_w[dst]
                    if bucket is not None:
                        acc_w[dst] = None
                        count = len(bucket)
                        src_worker.sent_network += count
                        in_msgs += bucket
                        hi += count
                count = hi - lo
                dst_worker.received_logical += count
                dst_worker.received_network += count
            if injector is not None:
                faults.absorb(injector.network_faults(count))
            in_start[dst] = lo
            in_count[dst] = count
            if log_entry is not None:
                log_entry[id_of[dst]] = in_msgs[lo:]
        if log_entry is not None:
            self._store.message_log[superstep + 1] = log_entry
        # Every destination not dropped holds mail, in out_dirty order.
        self.in_dirty = self.out_dirty if not mutated else [
            dst for dst in self.out_dirty if in_count[dst]
        ]
        self.out_dirty = []
        self._resident_bytes = 0
        if faults is not None:
            injector.commit(faults, self.run_stats)
            if self._trace is not None and faults.any:
                self._trace.emit(
                    FaultInjected(
                        superstep=superstep,
                        fault="network",
                        retransmitted=faults.retransmitted,
                        duplicated=faults.duplicated,
                        delayed=faults.delayed,
                    )
                )
        return hi - first


def _drain(iterator) -> None:
    """Run a C-level ``map`` pipeline for its side effects."""
    deque(iterator, maxlen=0)


def _planned(plan, payloads) -> LaneRecord:
    """A planned lane's record: ``payloads`` laid out by ``plan``."""
    slots, counts = plan.shape()
    return LaneRecord(slots, payloads, counts)
