"""The message fabric: routing, combining, ledger accounting, and
fault-injected delivery.

This layer owns every mailbox the Pregel engine has, the send/fanout
entry points the compute kernels call and the delivery routine that
moves a superstep's traffic across the barrier.  The engine composes
exactly one fabric and forwards its ``_enqueue``/``_fanout`` to the
fabric's current bindings: the send methods of the :class:`DenseLane`
whose worker is executing (:meth:`MessageFabric.bind_lane`).  A lane
is one worker's share of the dense plane; the dense send paths are
written once against it, and a pool rank of the parallel backend runs
the very same lane code over its partition slice.

One plane per run; the dict path is the oracle
----------------------------------------------

A fabric's mailbox layout is fixed at construction (``fast_active`` is
assigned in ``__init__`` and ``engage_fast_path`` only):

* the **dense plane** (every engine but the oracle) — vertex ids
  compiled to contiguous ints
  (:class:`~repro.graph.partition.DenseIndex`), slot mailboxes (flat
  lists indexed by dense id with per-superstep dirty lists, so
  clearing — and, through the lanes' frontiers, visiting — is
  O(active) not O(n)), and the combiner folded *at send
  time* into a per-``(destination, sending worker)`` slot.  Mutations,
  rollbacks and confined recovery all run here: a barrier that
  applied mutations ends with :meth:`MessageFabric.reindex`;
* the **dict path** (``use_fast_path=False``) — hashable-keyed
  ``inbox``/``outbox`` dicts, one ``(src_worker, message)`` tuple per
  logical message, combiner applied at delivery: the oracle the dense
  plane is tested against, allocated only for an engine that asks.

Key properties that keep the dense plane byte-identical to the oracle:

* Workers execute sequentially, so global send order is "all of
  worker 0's sends, then worker 1's, …".  Each worker owns a
  persistent accumulator array indexed by dense destination (its
  ``(src_worker, destination)`` slots), and delivery scans the workers
  in index order per destination — which is exactly the
  per-destination grouping order the oracle's outbox produces at
  delivery time.
* ``out_dirty`` is rebuilt per superstep by stamping first touches per
  worker and deduplicating across workers in worker order; that
  equals the oracle outbox's key insertion order, which fixes the
  fault-injection draw sequence and the inbox (and checkpoint)
  insertion order.
* The dense adjacency (``dense_out``/``remote_out``, compiled at every
  engage) replaces the per-message id hash for full-neighbor fanouts,
  row by row while :meth:`DenseLane.row_holds`: an ``out_edges`` dict
  edited in place sends through the per-target loop.

With a combiner, a slot is a single combined message in worker
``w``'s ``lane.acc[dst]`` plus its logical count in ``lane.cnt[dst]``
(occupancy is ``cnt > 0``, so messages may be any value, including
None); without one it is a list of messages in send order (occupancy:
non-None).

Off its accumulator arrays a lane's slots have exactly one form,
:class:`LaneRecord` — three columns over the dense slot index.  It is
what a pool rank detaches and replies with, what the coordinator
commits, what the spill tier sizes, writes and reloads, and (in the
plain layout) what an inbound slot batch is; :meth:`DenseLane.detach`
and :meth:`DenseLane.adopt` are the only code that moves slots between
the two forms.
"""

from __future__ import annotations

import operator
import os
import pickle
import shutil
import tempfile
from array import array
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Dict, Hashable, List, NamedTuple, Optional

from repro.bsp.combiner import SumCombiner
from repro.bsp.faults import DeliveryFaults
from repro.bsp.shm_transport import typed_column
from repro.errors import (
    MessageToUnknownVertexError,
    VertexNotFoundError,
)
from repro.graph.partition import build_dense_index
from repro.graph.snapshot import is_graph_snapshot
from repro.trace.events import FaultInjected


class LaneRecord(NamedTuple):
    """Slots of one lane, detached from its accumulator arrays.

    ``touched`` is the slots' dense indices (``array('q')``, first-
    touch order).  With a combiner ``payloads`` holds one combined
    message per slot and ``counts`` the slots' logical counts; without
    one ``payloads`` is the slots' messages laid end to end and
    ``counts`` the bucket lengths.  ``counts`` is an ``array('q')``;
    ``payloads`` is a typed array when
    :func:`~repro.bsp.shm_transport.typed_column` takes the column
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


class DenseLane:
    """One worker's lane of the dense plane: everything a single
    worker's compute pass reads and writes, and the send paths that
    write it.

    The serial engine holds one lane per worker over the fabric's
    global arrays (``base == 0``); a pool rank holds exactly one over
    its resident slice (``base == start``).  Both run the same compute
    loops (:mod:`repro.bsp.kernels`) and the same send methods against
    their lanes, so what one worker's pass *is* exists once.

    ``states``/``in_slots``/``dense_out``/``remote_out`` are indexed by
    ``dense idx - base``; ``acc``/``cnt`` — this worker's
    ``(src_worker, destination)`` slots — and the ``idx_of``/
    ``owner_of`` tables by global dense index.  ``touched`` lists the
    destinations first written this pass, in first-touch order;
    ``cur`` is the position of the vertex currently executing (the
    full-neighbor fanout reads its precompiled row).  ``enqueue``/
    ``fanout`` are bound once to the plain or the combining pair, and
    the host forwards its ``_enqueue``/``_fanout`` to them.  The
    frontier is two ascending position lists: ``arrivals``, the lane's
    share of this superstep's occupied inbound slots (set by the host
    before a pass that visits them), and ``awake``, the vertices the
    last per-vertex pass left un-halted — ``None`` when unknown:
    whatever writes ``halted`` outside that pass resets it.
    """

    __slots__ = (
        "worker", "index", "start", "stop", "base",
        "states", "in_slots", "dense_out", "remote_out",
        "idx_of", "owner_of",
        "acc", "cnt", "combine", "touched", "cur",
        "enqueue", "fanout", "arrivals", "awake",
    )

    def __init__(
        self, worker, base, states, in_slots,
        dense_out, remote_out, idx_of, owner_of, combiner,
    ):
        self.worker = worker
        self.index = worker.index
        self.start = worker.range_start
        self.stop = worker.range_stop
        self.base = base
        self.states = states
        self.in_slots = in_slots
        self.dense_out = dense_out
        self.remote_out = remote_out
        self.idx_of = idx_of
        self.owner_of = owner_of
        n = len(owner_of)
        self.acc: List[Any] = [None] * n
        self.touched: List[int] = []
        self.cur = -1
        self.arrivals, self.awake = (), None
        if combiner is None:
            self.cnt = None
            self.combine = None
            self.enqueue = self.enqueue_plain
            self.fanout = self.fanout_plain
        else:
            self.cnt = [0] * n
            # Stock SumCombiner folds with the C-level add (exactly
            # ``a + b``, the same expression its combine() evaluates),
            # skipping a Python frame per fold.  Gated on the exact
            # type so subclasses keep their overridden behavior.
            if type(combiner) is SumCombiner:
                self.combine = operator.add
            else:
                self.combine = combiner.combine
            self.enqueue = self.enqueue_combining
            self.fanout = self.fanout_combining

    # Send paths.  A slot without a combiner is the list of messages in
    # send order; with one it is the send-time fold in ``acc`` plus the
    # logical count in ``cnt``.  Confined recovery rebinds the host's
    # sends to the fabric's null pair for the replay, so no replay
    # guard is needed here.

    def row_holds(self, pos: int, targets) -> bool:
        """Whether position ``pos``'s compiled row may stand in for
        ``targets``: it compiled, ``targets`` is the vertex's live
        ``out_edges``, and no in-place edit shows — a removal or an
        insertion changes the length, the two together put the new
        id last, so both are O(1) to see."""
        nbrs = self.dense_out[pos]
        if (
            nbrs is None
            or targets is not self.states[pos].out_edges
            or len(nbrs) != len(targets)
        ):
            return False
        return not nbrs or (
            self.idx_of.get(next(reversed(targets))) == nbrs[-1]
        )

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
        if self.row_holds(cur, targets):
            # Full-neighbor fanout: use the precompiled dense
            # adjacency — no per-target hashing.
            nbrs = self.dense_out[cur]
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
        if self.row_holds(cur, targets):
            nbrs = self.dense_out[cur]
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
        acc = self.acc
        cnt = self.cnt
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
        acc = self.acc
        cnt = self.cnt
        if cnt is None:
            for d, bucket in record.buckets():
                acc[d] = bucket
        else:
            for d, payload, count in zip(
                record.touched, record.payloads, record.counts
            ):
                acc[d] = payload
                cnt[d] = count


def snapshot_adjacency(snapshot, id_of, owner_of, start: int, stop: int):
    """Compile the dense adjacency of dense range ``[start, stop)``
    straight from a snapshot's CSR columns.

    Row positions are permuted to dense indices with one flat table
    instead of hashing every target id.  Row order equals the
    ``out_edges`` insertion order by construction (vertex states are
    built from the same ``out_edge_items`` rows), so the result is
    identical to walking ``out_edges`` through ``idx_of``.  Returns
    ``(dense_out, remote_out)`` rows for the range, in order.
    """
    positions = [snapshot.position_of(vid) for vid in id_of]
    perm = [0] * len(positions)
    for idx, p in enumerate(positions):
        perm[p] = idx
    dense_out: List[List[int]] = []
    remote_out: List[int] = []
    for idx in range(start, stop):
        src = owner_of[idx]
        nbrs = [perm[q] for q in snapshot.out_row_positions(positions[idx])]
        dense_out.append(nbrs)
        remote_out.append(len([j for j in nbrs if owner_of[j] != src]))
    return dense_out, remote_out


class MessageFabric:
    """One engine's mailboxes, send paths, and delivery routines.

    ``engine`` supplies the run-scoped collaborators the fabric reads
    at superstep boundaries (``_injector``, ``_run_stats``, ``_trace``,
    ``_confined_recovery``); ``store`` supplies the vertex partition
    (``states``/``owner``/``workers``, mirrored here as direct
    attributes for the per-message hot paths, plus the
    confined-recovery message log).  The engine's ``_states``/
    ``_owner`` property setters refresh the mirrors whenever a
    checkpoint restore swaps the underlying dicts.  ``dense`` picks
    the run's one mailbox layout: the dense plane, or (``False``) the
    dict-path oracle.
    """

    def __init__(
        self,
        engine,
        store,
        combiner,
        memory_budget: Optional[int] = None,
        spill_dir: Optional[str] = None,
        dense: bool = True,
    ):
        self._engine = engine
        self._store = store
        self._combiner = combiner
        #: Soft cap, in encoded bytes, on one superstep's buffered
        #: message volume across the slot-mailbox accumulator lanes.
        #: ``None`` (the default) disables the spill tier entirely —
        #: no accounting, no detaching.
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

        # The dict-path oracle's mailboxes (allocated below, for an
        # oracle engine only).
        self.inbox: Optional[Dict[Hashable, List[Any]]] = None
        self.outbox: Optional[Dict[Hashable, List]] = None

        # The dense plane (compiled by engage_fast_path).
        self.fast_active = False
        self.dense = None
        self.dense_states = None
        self.dense_out: Optional[List[Optional[List[int]]]] = None
        self.remote_out: Optional[List[int]] = None
        self.in_slots: Optional[List[Optional[List[Any]]]] = None
        self.in_dirty: List[int] = []
        self.out_dirty: List[int] = []
        #: One :class:`DenseLane` per worker, in worker order (the
        #: order delivery scans their accumulator arrays).
        self.lanes: Optional[List[DenseLane]] = None
        self.slot_seen: Optional[List[int]] = None
        self.stamp = 0

        if dense:
            self.engage_fast_path()
        else:
            self.inbox = defaultdict(list)
            self.outbox = defaultdict(list)
            self.enqueue = self.enqueue_reference
            self.fanout = self.fanout_reference

    # ------------------------------------------------------------------
    # Send paths: the oracle's, and the null pair of a confined replay
    # ------------------------------------------------------------------

    @contextmanager
    def replayed_sends(self):
        """Bind the engine's sends to a validating null pair while a
        confined replay re-executes ``compute`` calls, on either
        layout: a re-issued send is checked like a live one, then
        dropped — the original was delivered, and logged, when the
        superstep first ran."""
        engine = self._engine
        live = self.enqueue, self.fanout
        self.enqueue = engine._enqueue = self._enqueue_replayed
        self.fanout = engine._fanout = self.fanout_reference
        try:
            yield
        finally:
            self.enqueue, self.fanout = live
            engine._enqueue, engine._fanout = live

    def _enqueue_replayed(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        if target not in self.states:
            raise MessageToUnknownVertexError(target)

    def enqueue_reference(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        if target not in self.states:
            raise MessageToUnknownVertexError(target)
        src_worker = self.owner[source]
        dst_worker = self.owner[target]
        self.outbox[target].append((src_worker, message))
        self.workers[src_worker].sent_logical += 1
        if src_worker != dst_worker:
            self.workers[src_worker].sent_remote += 1

    def fanout_reference(
        self, source: Hashable, targets, message: Any
    ) -> int:
        """One ``self.enqueue`` call per target."""
        enqueue = self.enqueue
        n = 0
        for target in targets:
            enqueue(source, target, message)
            n += 1
        return n

    def bind_lane(self, lane: DenseLane) -> None:
        """Route the engine's sends to ``lane`` — the worker whose
        compute pass is about to run (workers run sequentially)."""
        engine = self._engine
        self.enqueue = engine._enqueue = lane.enqueue
        self.fanout = engine._fanout = lane.fanout

    def flush_worker_sends(
        self, lane: DenseLane, record: Optional[LaneRecord] = None
    ) -> None:
        """Commit the finished worker's sends: record its first-touched
        destinations in the global dirty list.

        The serial engine's lanes keep their slots resident in the
        accumulators until delivery; the coordinator of the parallel
        backend passes the ``record`` a rank detached from its lane
        instead, which is adopted into this lane's (or spilled).
        Runs once per worker per superstep, O(touched destinations).
        Workers flush in index order, which is also global send
        order, so ``out_dirty`` gets the reference outbox's
        first-touch key order.
        """
        touched = lane.touched if record is None else record.touched
        seen = self.slot_seen
        stamp = self.stamp
        dirty = self.out_dirty
        for dst in touched:
            if seen[dst] != stamp:
                seen[dst] = stamp
                dirty.append(dst)
        lane.touched = []
        if self.memory_budget is not None and touched:
            self.account_lane(lane.index, touched, record)
        elif record is not None:
            lane.adopt(record)

    # ------------------------------------------------------------------
    # Spill tier: byte-accounted lane eviction under a memory budget
    # ------------------------------------------------------------------
    #
    # When ``memory_budget`` is set, every finished lane is detached
    # into its LaneRecord and the record's size charged against the
    # budget; a record that would push the superstep's buffered volume
    # past it is pickled to disk as it is, the others are adopted back.
    # Delivery reloads spilled records — in worker-index order, the
    # order the delivery scan reads lanes — before the normal slot
    # scan, so the spill is invisible to everything downstream:
    # ``out_dirty`` was recorded at flush time and the reloaded values
    # round-trip exactly (typed columns for conforming floats/ints,
    # pickle otherwise — the same equality contract the parallel
    # backend's rank boundary relies on).

    def account_lane(
        self,
        worker_index: int,
        touched,
        record: Optional[LaneRecord] = None,
    ) -> None:
        """Charge one worker's finished lane against the memory
        budget, spilling it to disk when the budget is exceeded.
        ``record`` is the lane as already detached (the one a rank
        replied with); without it the ``touched`` slots are detached
        here.  No-op without a budget or an empty lane."""
        if self.memory_budget is None or not touched:
            return
        lane = self.lanes[worker_index]
        if record is None:
            record = lane.detach(touched)
        nbytes = record.nbytes
        if self._resident_bytes + nbytes <= self.memory_budget:
            self._resident_bytes += nbytes
            lane.adopt(record)
            return
        root = self._spill_root()
        path = os.path.join(
            root, f"lane_{self._spill_seq}_{worker_index}.bin"
        )
        self._spill_seq += 1
        with open(path, "wb") as fh:
            pickle.dump(record, fh, pickle.HIGHEST_PROTOCOL)
        self._spilled[worker_index] = path
        self.spilled_lanes += 1
        self.spilled_bytes += nbytes

    def _reload_spilled(self) -> None:
        """Load every spilled record back into its lane (worker order
        — the order the delivery scan consumes lanes) and delete the
        files."""
        for worker_index, path in sorted(self._spilled.items()):
            with open(path, "rb") as fh:
                record = pickle.load(fh)
            os.unlink(path)
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
        first = self.dense is None
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
        # A vertex with a dangling out-edge (no matching state) gets
        # None and falls back to the generic per-target loop, which
        # raises MessageToUnknownVertexError exactly as the oracle
        # would.
        idx_of = dense.idx_of
        owner_of = dense.owner_of
        dense_out: Optional[List[Optional[List[int]]]] = None
        # A snapshot-backed graph compiles its first index straight
        # from the CSR arrays (the states were just built from the
        # same rows); a re-index walks the live edge maps, which
        # mutations may have moved off the snapshot.
        graph = self._engine._graph
        if first and is_graph_snapshot(graph) and graph.num_vertices == n:
            try:
                dense_out, remote_out = snapshot_adjacency(
                    graph, dense.id_of, owner_of, 0, n
                )
            except VertexNotFoundError:  # pragma: no cover - defensive
                pass
        if dense_out is None:
            dense_out = [None] * n
            remote_out = [0] * n
            for idx, state in enumerate(dense_states):
                src = owner_of[idx]
                nbrs: List[int] = []
                remote = 0
                for target in state.out_edges:
                    j = idx_of.get(target)
                    if j is None:
                        nbrs = None
                        break
                    nbrs.append(j)
                    if owner_of[j] != src:
                        remote += 1
                if nbrs is not None:
                    dense_out[idx] = nbrs
                    remote_out[idx] = remote
        self.dense_out = dense_out
        self.remote_out = remote_out
        self.in_slots = [None] * n
        self.in_dirty = []
        self.out_dirty = []
        self.lanes = [
            DenseLane(
                worker, 0, dense_states, self.in_slots,
                dense_out, remote_out, idx_of, owner_of,
                self._combiner,
            )
            for worker in self.workers
        ]
        self.slot_seen = [0] * n
        self.stamp = 0
        self._drop_spill_files()
        self.bind_lane(self.lanes[0])
        self.fast_active = True

    def reindex(self, inbox=None) -> None:
        """Rebuild this run's mailbox layout over the store's current
        partition and carry ``inbox`` — default: the undelivered one
        — across by vertex id.  Ends a barrier that applied topology
        mutations (one O(n + m) recompile of the index, the adjacency
        and, ``self.dense`` being new, the lanes' vectorized plans)
        and a checkpoint restore, which passes the snapshot's inbox.
        The oracle's dicts are keyed by id: the inbox is all there is
        to adopt."""
        if inbox is None:
            inbox = dict(self.inbox_snapshot_items())
        if self.fast_active:
            self.engage_fast_path()
        self.restore_inbox(inbox)

    def reset_outbox(self) -> None:
        self.outbox = defaultdict(list)

    def drain_inbox(self) -> None:
        """Clear the inbound slots a finished compute pass consumed —
        O(active) via the dirty list."""
        in_slots = self.in_slots
        for idx in self.in_dirty:
            in_slots[idx] = None
        self.in_dirty = []

    def rank_inbound(self, num_ranks: int) -> List[LaneRecord]:
        """The dense inbox bucketed by owning rank for the parallel
        backend's dispatch: one plain-layout :class:`LaneRecord` per
        rank, in slot-delivery order (``in_dirty``), which is the
        order the serial dense pass would consume the same slots."""
        owner_of = self.dense.owner_of
        in_slots = self.in_slots
        slots: List[List[int]] = [[] for _ in range(num_ranks)]
        for idx in self.in_dirty:
            slots[owner_of[idx]].append(idx)
        return [
            LaneRecord.from_buckets(idxs, [in_slots[i] for i in idxs])
            for idxs in slots
        ]

    # ------------------------------------------------------------------
    # Checkpoint views
    # ------------------------------------------------------------------

    def inbox_snapshot_items(self):
        """``(vertex_id, messages)`` pairs of the undelivered inbox in
        delivery order, independent of mailbox layout, for one pass
        (no list of pairs is built).  Used by
        :func:`~repro.bsp.checkpoint.take_checkpoint`."""
        if self.fast_active:
            return zip(
                map(self.dense.id_of.__getitem__, self.in_dirty),
                map(self.in_slots.__getitem__, self.in_dirty),
            )
        return self.inbox.items()

    def restore_inbox(self, inbox: Dict[Hashable, List[Any]]) -> None:
        """Replace the undelivered inbox with a copy of ``inbox``
        (delivery-ordered), in this run's mailbox layout."""
        if self.fast_active:
            self.drain_inbox()
            idx_of = self.dense.idx_of
            in_slots = self.in_slots
            dirty = self.in_dirty
            for vid, msgs in inbox.items():
                idx = idx_of[vid]
                in_slots[idx] = list(msgs)
                dirty.append(idx)
            for lane in self.lanes:  # the caller rewrote ``halted``
                lane.awake = None
        else:
            self.inbox = defaultdict(
                list, {vid: list(msgs) for vid, msgs in inbox.items()}
            )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def deliver(self, superstep: int) -> int:
        """Move the outbox into next superstep's inbox.

        Applies the combiner per (destination, sending worker),
        accounts network traffic, charges ``received_logical`` at
        delivery time (so send/receive totals balance even when a
        mutation removed the destination — the sender's charges are
        reversed for such dropped messages), and runs the injected
        network faults through the reliable-delivery layer.  Returns
        the number of logical messages delivered.
        """
        engine = self._engine
        delivered = 0
        combiner = self._combiner
        inbox = self.inbox
        injector = engine._injector
        log_deliveries = engine._confined_recovery
        log_entry: Dict[Hashable, List[Any]] = {}
        faults = DeliveryFaults() if injector is not None else None
        for target, entries in self.outbox.items():
            if target not in self.states:
                # Destination removed by a mutation this superstep:
                # the messages are dropped, so reverse the senders'
                # charges to keep the logical books balanced.
                dst_idx = self.owner.get(target)
                for src_worker, _ in entries:
                    w = self.workers[src_worker]
                    w.sent_logical -= 1
                    if dst_idx is None or src_worker != dst_idx:
                        w.sent_remote -= 1
                continue
            dst_worker = self.workers[self.owner[target]]
            dst_worker.received_logical += len(entries)
            if combiner is None:
                msgs = [m for _, m in entries]
                for src_worker, _ in entries:
                    self.workers[src_worker].sent_network += 1
                dst_worker.received_network += len(entries)
            else:
                groups: Dict[int, Any] = {}
                for src_worker, m in entries:
                    if src_worker in groups:
                        groups[src_worker] = combiner.combine(
                            groups[src_worker], m
                        )
                    else:
                        groups[src_worker] = m
                msgs = list(groups.values())
                for src_worker in groups:
                    self.workers[src_worker].sent_network += 1
                dst_worker.received_network += len(groups)
            if injector is not None:
                faults.absorb(injector.network_faults(len(msgs)))
            inbox[target].extend(msgs)
            if log_deliveries:
                log_entry[target] = list(inbox[target])
            delivered += len(msgs)
        if log_deliveries:
            self._store.message_log[superstep + 1] = log_entry
        self._commit_faults(superstep, faults)
        self.outbox = defaultdict(list)
        return delivered

    def _commit_faults(self, superstep: int, faults) -> None:
        """Book one delivery's network-fault draws (``None``: no
        injector) and trace them."""
        if faults is None:
            return
        engine = self._engine
        engine._injector.commit(faults, engine._run_stats)
        if engine._trace is not None and faults.any:
            engine._trace.emit(
                FaultInjected(
                    superstep=superstep,
                    fault="network",
                    retransmitted=faults.retransmitted,
                    duplicated=faults.duplicated,
                    delayed=faults.delayed,
                )
            )

    def deliver_fast(self, superstep: int, mutated: bool) -> int:
        """Slot-mailbox delivery: identical accounting and fault-draw
        order to :meth:`deliver`, over dense indices.

        Network counts are the occupied ``(destination, src_worker)``
        slots — the combiner already folded at send time — and
        ``received_logical`` comes from the per-slot logical tallies,
        so the logical/network split matches the reference path
        exactly.  ``mutated`` enables the removed-destination check
        (and charge reversal) that the reference path performs; when
        no mutation was applied this superstep the check is skipped,
        because every dense id is live by construction.
        """
        engine = self._engine
        delivered = 0
        injector = engine._injector
        workers = self.workers
        dense = self.dense
        owner_of = dense.owner_of
        id_of = dense.id_of
        in_slots = self.in_slots
        in_dirty = self.in_dirty
        states = self.states
        combining = self._combiner is not None
        # Confined recovery replays from the same id-keyed log entry
        # on either layout.
        log_entry: Optional[Dict[Hashable, List[Any]]] = (
            {} if engine._confined_recovery else None
        )
        faults = DeliveryFaults() if injector is not None else None
        if self._spilled:
            self._reload_spilled()
        lanes = [(lane.worker, lane.acc, lane.cnt) for lane in self.lanes]
        for dst in self.out_dirty:
            if mutated and id_of[dst] not in states:
                # Dropped: destination removed this superstep —
                # reverse the senders' charges, as the oracle's
                # delivery does.
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
            if combining:
                received = 0
                msgs = []
                for src_worker, acc_w, cnt_w in lanes:
                    count = cnt_w[dst]
                    if count:
                        cnt_w[dst] = 0
                        msgs.append(acc_w[dst])
                        acc_w[dst] = None
                        received += count
                        src_worker.sent_network += 1
                dst_worker.received_logical += received
                dst_worker.received_network += len(msgs)
            else:
                msgs = None
                for src_worker, acc_w, _cnt in lanes:
                    bucket = acc_w[dst]
                    if bucket is not None:
                        acc_w[dst] = None
                        src_worker.sent_network += len(bucket)
                        if msgs is None:
                            msgs = bucket
                        else:
                            msgs.extend(bucket)
                received = len(msgs)
                dst_worker.received_logical += received
                dst_worker.received_network += received
            if injector is not None:
                faults.absorb(injector.network_faults(len(msgs)))
            in_slots[dst] = msgs  # empty: every pass drains its mail
            in_dirty.append(dst)
            if log_entry is not None:
                log_entry[id_of[dst]] = list(msgs)
            delivered += len(msgs)
        if log_entry is not None:
            self._store.message_log[superstep + 1] = log_entry
        self.out_dirty = []
        self._resident_bytes = 0
        self._commit_faults(superstep, faults)
        return delivered
