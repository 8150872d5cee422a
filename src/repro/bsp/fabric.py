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
global send order is all of worker 0's sends, then worker 1's, ….
Delivery puts the destinations in first-touch order (each worker's
first touches, deduplicated across workers in worker order), which
fixes the fault-draw sequence and the inbox (and checkpoint) order,
and a destination's messages in worker order.

One mail representation
-----------------------

A lane's mail for one barrier is a :class:`LaneRecord`.  A per-vertex
pass sends into its lane's ``mail`` dict, keyed by dense destination
(O(touched); insertion order is the first-touch order): with a
combiner the send-time fold, and in ``folded`` the logical count of
a destination that folded more than one message, without one the
list of its messages in send order.  Full-neighbor fanouts read the compiled
row while :meth:`DenseLane.held_row` finds it current.  The pass ends
in :meth:`DenseLane.detach`.  A vectorized kernel scattering through
its compiled plan writes no mail: it emits its record's payload
column in an order fixed at compile time.  A pool rank replies with
its record grouped by owning rank.  Every lane hands the barrier one
``(order, record)`` (:meth:`MessageFabric.flush_worker_sends`),
``order`` its
first-touch destination order; the spill tier sizes, writes and
reloads records; and one merge (:class:`MailMerge`) delivers any set
of them — the serial barrier's and a rank's inbound alike — directly
when it is small and new, else through a layout cached by the
records' shape, so a planned run lays out once.

The inbox holds no container per destination: delivery appends each
destination's messages to one flat column ``in_msgs`` and records
their offset and number in the position-indexed ``in_start``/
``in_count`` (0: no mail); ``in_dirty`` lists the destinations in
delivery order.
"""

from __future__ import annotations

import operator
import os
import pickle
import shutil
import tempfile
from array import array
from collections import deque
from itertools import accumulate, chain, compress, repeat
from typing import Any, Dict, Hashable, List, NamedTuple, Optional

from repro.bsp.combiner import SumCombiner
from repro.bsp.faults import DeliveryFaults
from repro.bsp.columns import typed_column
from repro.errors import MessageToUnknownVertexError, SpillError
from repro.graph.partition import build_dense_index, dense_adjacency
from repro.graph.snapshot import edge_dicts
from repro.trace.events import FaultInjected


class LaneRecord(NamedTuple):
    """One lane's mail for one barrier, detached from the lane.

    ``touched`` is the destinations' dense indices, one entry each.
    With a combiner ``payloads`` holds one combined message per entry
    and ``counts`` the entries' logical counts; without one
    ``payloads`` is the entries' messages laid end to end and
    ``counts`` how many each holds.  ``touched`` and ``counts`` are
    int sequences (``array('q')`` wherever the record crosses the rank
    pipe); there ``payloads`` is a typed array when
    :func:`~repro.bsp.columns.typed_column` takes the column (exact
    floats or in-range exact ints — bit- and type-identical on the way
    back) and the plain list otherwise, as it is on the spill tier.
    """

    touched: array
    payloads: Any
    counts: array

    def select(self, keep) -> "LaneRecord":
        """The record of the entries whose ``keep`` flag is set (an
        entry holds one payload with a combiner, ``counts`` without)."""
        flags = keep if len(self.payloads) == len(self.touched) else (
            chain.from_iterable(map(repeat, keep, self.counts))
        )
        return LaneRecord(
            array("q", compress(self.touched, keep)),
            typed_column(list(compress(self.payloads, flags))),
            array("q", compress(self.counts, keep)),
        )

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


#: The record of a lane that sent nothing (shared: records are never
#: edited in place).
_NO_MAIL = LaneRecord(array("q"), array("d"), array("q"))


class MailLayout(NamedTuple):
    """Where one set of lane records lands (:class:`MailMerge`):
    ``positions`` the destinations' inbox positions in delivery order,
    ``starts`` their mail's offsets then the end, ``widths`` its
    sizes, ``gather`` which payload of the records laid end to end
    fills each inbox slot (``None`` after a direct merge), and per
    worker ``tallies`` its ``(sent_network, received_network,
    received_logical)`` (``None`` where the merge serves a pool
    rank)."""

    positions: Any
    starts: Any
    widths: Any
    gather: Any
    tallies: Optional[list]


#: Payloads from which a record set is laid out at first sight rather
#: than merged directly.  A layout costs 1.2-1.9x a direct merge the
#: first time and a replay 0.2-0.6x, so it pays for a shape that
#: repeats: a planned pass's (at least 19,968 payloads a set in the
#: benchmark), not a per-vertex pass's (at most 6,506, in Table 1).
#: ``docs/performance.md``, "One mail representation".
LAY_OUT_AT = 8192


class MailMerge:
    """The one merge that delivers lane records into an inbox.

    It is handed one ``(order, record)`` per source lane in worker
    order (``None`` for a lane without mail) and puts the destinations
    in first-touch order — the lanes' ``order``s, deduplicated across
    lanes in worker order, or ascending when ``order`` is ``None`` —
    and each destination's entries in worker order, filling a box per
    destination.  A lane's entries may come in any order.  Where the
    entries land depends on the records' shape only (orders,
    ``touched``, ``counts``, payload count), so a set of at least
    :data:`LAY_OUT_AT` payloads, or of the shape seen at the previous
    barrier, is laid out — the same merge, of its payloads' indices —
    and the layout cached and replayed, a C-level gather, while the
    shape repeats: a planned pass, whose shape is fixed when its plan
    compiles, lays out once.  Any other set (a per-vertex pass's, whose
    shape moves with the frontier) is merged directly.  ``base`` is
    subtracted from a destination for its inbox position (a pool
    rank's slice); without ``owner_of`` (a pool rank's) no ledger
    tallies are kept.
    """

    __slots__ = (
        "owner_of", "num_workers", "base", "_seen", "_key", "_layout",
    )

    def __init__(self, owner_of=None, num_workers: int = 0, base: int = 0):
        self.owner_of = owner_of
        self.num_workers = num_workers
        self.base = base
        self._seen = self._key = self._layout = None

    def fill(self, parts, lane) -> MailLayout:
        """Fill ``lane``'s drained inbox columns from ``parts``; return
        the layout it followed."""
        payloads = [part[1].payloads for part in parts if part is not None]
        key = [part and (
            part[0], part[1].touched, part[1].counts, len(part[1].payloads)
        ) for part in parts]
        if sum(map(len, payloads)) < LAY_OUT_AT and (
            key != self._key and key != self._seen
        ):
            self._seen = key
            boxes, layout = self._merge(parts)
            lane.in_msgs += chain.from_iterable(boxes)
        else:
            if key != self._key:
                self._key, self._layout = key, self._lay_out(parts)
            layout = self._layout
            flat = payloads[0] if len(payloads) == 1 else list(
                chain.from_iterable(payloads)
            )
            lane.in_msgs += map(flat.__getitem__, layout.gather)
        put, positions = operator.setitem, layout.positions
        _drain(map(put, repeat(lane.in_start), positions, layout.starts))
        _drain(map(put, repeat(lane.in_count), positions, layout.widths))
        return layout

    def _merge(self, parts):
        """``(boxes, layout)`` of a direct merge: every destination's
        payloads, in worker order, and the layout but its gather."""
        boxes = _boxes(parts)
        return boxes.values(), self._layout_of(parts, boxes)

    def _lay_out(self, parts) -> MailLayout:
        """The layout of ``parts``: the merge of the indices of their
        payloads laid end to end, in compact columns."""
        ends = accumulate(
            len(part[1].payloads) if part else 0 for part in parts
        )
        boxes = _boxes([part and (part[0], part[1]._replace(  # by index
            payloads=range(end - len(part[1].payloads), end),
        )) for part, end in zip(parts, ends)])
        layout = self._layout_of(parts, boxes)
        return layout._replace(
            positions=array("q", layout.positions),
            starts=array("q", layout.starts),
            widths=array("q", layout.widths),
            gather=array("q", chain.from_iterable(boxes.values())),
        )

    def _layout_of(self, parts, boxes) -> MailLayout:
        """The layout of ``parts`` merged into ``boxes`` but its
        gather, with every worker's payloads sent and messages
        received, on the network and logically, where the merge keeps
        the ledger tallies."""
        destinations = list(boxes)
        widths = list(map(len, boxes.values()))
        tallies = None
        if self.owner_of is not None:
            owner_of = self.owner_of
            network = [0] * self.num_workers
            logical = [0] * self.num_workers
            for dst, n in zip(destinations, widths):
                network[owner_of[dst]] += n
            for _order, record in filter(None, parts):
                for dst, n in zip(record.touched, record.counts):
                    logical[owner_of[dst]] += n
            tallies = list(zip(
                [0 if part is None else len(part[1].payloads)
                 for part in parts],
                network, logical,
            ))
        if self.base:
            destinations = list(
                map(operator.sub, destinations, repeat(self.base))
            )
        return MailLayout(
            destinations, list(accumulate(widths, initial=0)), widths,
            None, tallies,
        )


def _boxes(parts) -> dict:
    """Every destination's payloads in ``parts``, in worker order,
    keyed in delivery order: ascending for a rank's inbound (``order``
    ``None``), else the lanes' orders deduplicated in worker order —
    the order a per-vertex pass's entries already come in, so their
    boxes are keyed as they fill."""
    parts = list(filter(None, parts))
    if parts and parts[0][0] is None:
        boxes = dict.fromkeys(sorted(set(chain.from_iterable(
            record.touched for _order, record in parts
        ))))
    elif all(order is record.touched for order, record in parts):
        boxes = {}
    else:
        boxes = dict.fromkeys(chain.from_iterable(
            order for order, _record in parts
        ))
    get = boxes.get
    for _order, record in parts:
        if len(record.payloads) == len(record.touched):
            for dst, payload in zip(record.touched, record.payloads):
                box = get(dst)
                if box is None:
                    boxes[dst] = [payload]
                else:
                    box.append(payload)
            continue
        at, flat = 0, record.payloads
        for dst, n in zip(record.touched, record.counts):  # n payloads
            box = get(dst)
            if box is None:
                boxes[dst] = box = []
            box += flat[at:at + n]
            at += n
    return boxes


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
    its inbound :class:`LaneRecord`); ``mail`` (this pass's sends, by
    destination, in first-touch order), ``folded`` (the logical count
    of a combined destination past one) and ``idx_of``/``owner_of`` by
    global dense index.  ``cur`` is the position of the vertex
    executing (the full-neighbor fanout reads its compiled row).  The
    host binds its compute context's sends to :meth:`sends`.  The
    frontier is two ascending position lists: ``arrivals``, the lane's
    share of this superstep's mailed positions (set by the host before
    a pass that visits them), and ``awake``, the vertices the last
    per-vertex pass left un-halted — ``None`` when unknown: whatever
    writes ``halted`` outside that pass resets it.
    """

    __slots__ = (
        "worker", "index", "start", "stop", "base",
        "states", "in_msgs", "in_start", "in_count",
        "out_start", "out_dst", "remote_out", "dangling",
        "idx_of", "owner_of",
        "mail", "folded", "combine", "cur", "arrivals", "awake",
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
        self.mail: Dict[int, Any] = {}
        self.folded: Dict[int, int] = {}
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

    # Send paths.  Without a combiner a destination's mail is the list
    # of its messages in send order; with one it is the send-time fold,
    # its logical count in ``folded`` once past one.  A confined replay
    # binds its own context's sends to the fabric's null pair, so no
    # replay guard is needed here.

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

    def enqueue(
        self, source: Hashable, target: Hashable, message: Any
    ) -> None:
        dst = self.idx_of.get(target)
        if dst is None:
            raise MessageToUnknownVertexError(target)
        mail = self.mail
        if dst not in mail:
            mail[dst] = [message] if self.combine is None else message
        elif self.combine is None:
            mail[dst].append(message)
        else:
            mail[dst] = self.combine(mail[dst], message)
            folded = self.folded
            folded[dst] = folded.get(dst, 1) + 1
        worker = self.worker
        worker.sent_logical += 1
        if self.owner_of[dst] != self.index:
            worker.sent_remote += 1

    def fanout(self, source, targets, message) -> int:
        """Send ``message`` to every one of ``targets``; a full-neighbor
        fanout scatters along the compiled row, with no per-target
        hashing."""
        cur = self.cur
        row = self.held_row(cur, targets)
        if row is not None:
            self.scatter(row, message, self.remote_out[cur])
            return len(row)
        targets = list(targets)
        row = list(map(self.idx_of.get, targets))
        if None in row:  # the sends before it stand, as per-message ones
            row = row[:row.index(None)]
            self.scatter(row, message, self._remote(row))
            raise MessageToUnknownVertexError(targets[len(row)])
        self.scatter(row, message, self._remote(row))
        return len(row)

    def _remote(self, row) -> int:
        """How many of the dense destinations ``row`` live on other
        workers."""
        return sum(map(
            self.index.__ne__, map(self.owner_of.__getitem__, row)
        ))

    def scatter(self, row, message, remote: int) -> None:
        """Send ``message`` to every dense destination of ``row``,
        ``remote`` of them on other workers."""
        mail = self.mail
        combine = self.combine
        if combine is None:
            for dst in row:
                if dst in mail:
                    mail[dst].append(message)
                else:
                    mail[dst] = [message]
        else:
            folded = self.folded
            for dst in row:
                if dst in mail:
                    mail[dst] = combine(mail[dst], message)
                    folded[dst] = folded.get(dst, 1) + 1
                else:
                    mail[dst] = message
        worker = self.worker
        worker.sent_logical += len(row)
        worker.sent_remote += remote

    def detach(self) -> LaneRecord:
        """The pass's mail as a record, its entries in first-touch
        order, and the lane's mail emptied."""
        mail = self.mail
        if not mail:
            return _NO_MAIL
        self.mail = {}
        touched = list(mail)
        if self.combine is None:
            buckets = mail.values()
            payloads = list(chain.from_iterable(buckets))
            counts = list(map(len, buckets))
        else:
            folded, self.folded = self.folded, {}
            payloads = list(mail.values())
            counts = list(
                map(folded.get, touched, repeat(1)) if folded
                else repeat(1, len(touched))
            )
        return LaneRecord(touched, payloads, counts)

    def drain(self, positions) -> None:
        """Empty the inbox, which holds mail for ``positions``."""
        _drain(map(
            operator.setitem, repeat(self.in_count), positions, repeat(0)
        ))
        self.in_msgs.clear()


class MessageFabric:
    """One engine's mailboxes, send paths, and delivery routines.

    Handed what it reads, not its engine: ``store`` supplies the
    vertex partition (``states``/``owner``/``workers``, mirrored here
    for the per-message hot paths, plus the confined-recovery message
    log, and the frozen ``topology`` every index compiles from),
    ``ctx`` the context whose sends :meth:`bind_lane` binds; delivery
    reads ``injector``/``trace``/``confined_recovery`` and ``run_stats``,
    which the engine sets when a run starts.  A checkpoint restore and
    :meth:`restart` refresh the mirrors when they swap the store's
    dicts.
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
        #: Whether :meth:`reindex` ran since the partition was laid
        #: out (:meth:`restart`).
        self.reindexed = False
        # Hot-path mirrors of the store's partition (see class doc).
        self.states = store.states
        self.owner = store.owner
        self.workers = store.workers
        self.engage_fast_path()  # the dense plane

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
        return len([
            self.replayed_send(source, target, message) for target in targets
        ])

    def bind_lane(self, lane: DenseLane) -> None:
        """Route the context's sends to ``lane`` — the worker whose
        compute pass is about to run (workers run sequentially)."""
        self._ctx._enqueue, self._ctx._fanout = lane.enqueue, lane.fanout

    def flush_worker_sends(self, index: int, order, record) -> None:
        """Take worker ``index``'s mail for the barrier: ``record``,
        whose destinations its lane first touched in ``order``;
        charged against the memory budget, past which it spills."""
        if not len(record.touched):
            return
        self.parts[index] = order, record
        if self.memory_budget is not None:
            if type(record.payloads) is not array:  # what the budget charges
                record = record._replace(
                    payloads=typed_column(record.payloads)
                )
            if not self.account_lane(index, record):
                self.parts[index] = order, None

    # ------------------------------------------------------------------
    # Spill tier: byte-accounted lane eviction under a memory budget
    # ------------------------------------------------------------------
    #
    # With a ``memory_budget``, every record a lane hands the barrier
    # is charged against it; a record past the budget is pickled to
    # disk, the others stay.  Delivery first reloads spilled records,
    # so the spill is invisible downstream: the values round-trip
    # exactly (typed columns, else pickle — the rank boundary's
    # equality contract).

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
        """Load every spilled record back into :attr:`parts` and
        delete the files."""
        for worker_index, path in sorted(self._spilled.items()):
            try:
                with open(path, "rb") as fh:
                    record = pickle.load(fh)
            except (OSError, EOFError, pickle.UnpicklingError) as exc:
                raise SpillError(
                    f"cannot reload spilled lane {path}: {exc!r}"
                ) from exc
            os.unlink(path)
            self.parts[worker_index] = self.parts[worker_index][0], record
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
        """Compile the dense index over the store's current partition,
        with empty lanes and no undelivered mail.

        Called at construction and by :meth:`reindex`.  The dense
        order mirrors worker/`vertex_ids` order exactly, so execution
        sequencing is unchanged.
        """
        dense = self.dense = build_dense_index(self.workers)
        for worker, (start, stop) in zip(self.workers, dense.ranges):
            worker.range_start = start
            worker.range_stop = stop
        states = self.states
        dense_states = self.dense_states = [states[vid] for vid in dense.id_of]
        n = len(dense.id_of)
        # Compile the dense adjacency: full-neighbor fanouts iterate
        # precomputed int indices instead of hashing ids per message.
        topology = self._store.topology
        adjacency = self.adjacency = dense_adjacency(
            dense_states, dense, topology
        )
        #: The inbox columns (module docstring).
        inbox = self.in_msgs, self.in_start, self.in_count = (
            [], [0] * n, [0] * n
        )
        self.in_dirty = []
        #: One :class:`DenseLane` per worker, in worker order.
        self.lanes = [
            DenseLane(
                worker, 0, dense_states, inbox,
                adjacency, dense.idx_of, dense.owner_of, self._combiner,
                topology.edge_rows,
            )
            for worker in self.workers
        ]
        #: Per worker, the ``(order, record)`` its lane handed the
        #: barrier (the record ``None`` while spilled), or ``None``.
        self.parts: List[Optional[tuple]] = [None] * len(self.workers)
        #: Per source rank, the effect set whose records the parallel
        #: backend holds off this inbox for the ranks to deliver.
        self.held: Optional[list] = None
        self.merge = MailMerge(dense.owner_of, len(self.workers))
        self._drop_spill_files()
        self.bind_lane(self.lanes[0])

    def restart(self, program, graph) -> None:
        """Put the store and the plane where a run starts: every
        vertex at its initial value over the partition construction
        laid out, and an empty inbox, which resets every lane's
        frontier.  A run that re-indexed the plane (a mutation, a
        restore) moved the partition: it is laid out again from the
        frozen topology.  Edge dicts a pass gave a lane's rows, which
        the program may have edited in place, are dropped."""
        store = self._store
        if self.reindexed:
            store.lay_out()
            self.states, self.owner = store.states, store.owner
            self.engage_fast_path()
            self.reindexed = False
        for lane in self.lanes:
            if lane.rows is None:  # materialized
                for state in lane.states[lane.start:lane.stop]:
                    state.out_edges = state.in_edges = None
                lane.rows = store.topology.edge_rows
        store.reset(program, graph)
        self.restore_inbox((), (), ())

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
        self.reindexed = True

    def drain_inbox(self) -> None:
        """Clear the inbox a finished compute pass consumed —
        O(touched) via the dirty list (the lanes share its columns)."""
        self.lanes[0].drain(self.in_dirty)
        self.in_dirty = []

    def rank_inbound(self, num_ranks: int) -> List[LaneRecord]:
        """The dense inbox split by owning rank, for a parallel step
        after coordinator delivery: one plain-layout :class:`LaneRecord`
        per rank, in delivery order (``in_dirty``)."""
        dirty = self.in_dirty
        inbox = LaneRecord(
            dirty, self.in_msgs, list(map(self.in_count.__getitem__, dirty))
        )
        owners = list(map(self.dense.owner_of.__getitem__, dirty))
        return [
            inbox.select(list(map(rank.__eq__, owners)))
            for rank in range(num_ranks)
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
        touched = list(map(self.dense.idx_of.__getitem__, ids))
        # Copied before draining: ``msgs`` may be live.
        record = LaneRecord(touched, list(msgs), list(lens))
        self.drain_inbox()
        self.in_dirty = self.merge.fill(
            [(touched, record)], self.lanes[0]
        ).positions
        for lane in self.lanes:  # the caller rewrote ``halted``
            lane.awake = None

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    def _drop_removed(self, parts) -> None:
        """Drop the mail of destinations a mutation removed this
        superstep and reverse their senders' charges, so the books
        balance."""
        id_of, states, owner = self.dense.id_of, self.states, self.owner
        for index, part in enumerate(parts):
            if part is None:
                continue
            order, record = part
            live = [id_of[dst] in states for dst in record.touched]
            if all(live):
                continue
            worker = self.workers[index]
            for dst, n, kept in zip(record.touched, record.counts, live):
                if not kept:
                    worker.sent_logical -= n
                    if index != owner.get(id_of[dst]):
                        worker.sent_remote -= n
            parts[index] = (
                array("q", [dst for dst in order if id_of[dst] in states]),
                record.select(live),
            )

    def deliver_fast(self, superstep: int, mutated: bool) -> int:
        """Move the records the lanes handed this barrier into next
        superstep's inbox columns through the one merge; return the
        number of messages delivered.

        Charges ``sent_network`` per record payload (the combiner
        already folded at send time), ``received_network`` per inbox
        message and ``received_logical`` from the records' logical
        counts, and runs the injected network faults through the
        reliable-delivery layer, one draw per destination in delivery
        order.  ``mutated`` enables the removed-destination check:
        messages to a vertex a mutation removed are dropped and their
        senders' charges reversed.  Without a mutation this superstep
        the check is skipped, because every dense id is live by
        construction.
        """
        if self._spilled:
            self._reload_spilled()
        parts, self.parts = self.parts, [None] * len(self.lanes)
        if mutated:
            self._drop_removed(parts)
        layout = self.merge.fill(parts, self.lanes[0])
        for worker, (sent, network, logical) in zip(
            self.workers, layout.tallies
        ):
            worker.sent_network += sent
            worker.received_network += network
            worker.received_logical += logical
        self.in_dirty, self._resident_bytes = layout.positions, 0
        if self._confined_recovery:
            # Confined recovery replays from an id-keyed log entry.
            id_of, msgs = self.dense.id_of, self.in_msgs
            self._store.message_log[superstep + 1] = {
                id_of[dst]: msgs[lo:lo + n]
                for dst, lo, n in zip(
                    layout.positions, layout.starts, layout.widths
                )
            }
        injector = self._injector
        if injector is not None:
            faults = DeliveryFaults()
            for n in layout.widths:
                faults.absorb(injector.network_faults(n))
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
        return layout.starts[-1]


def _drain(iterator) -> None:
    """Run a C-level ``map`` pipeline for its side effects."""
    deque(iterator, maxlen=0)


def _planned(plan, payloads) -> LaneRecord:
    """A planned lane's record: ``payloads`` laid out by ``plan``."""
    touched, counts = plan.shape()
    return LaneRecord(touched, payloads, counts)
