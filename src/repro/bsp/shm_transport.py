"""Shared-memory columnar transport for the process-parallel backend.

The pickle transport ships every superstep's inbound slots and effect
sets as fully pickled Python structures through the coordinator/rank
pipes — for a fixed-width numeric workload like PageRank that is tens
of kilobytes per rank per superstep of redundant framing around what
is really two flat ``float64`` arrays.  This module provides the
columnar alternative (``docs/parallel_backend.md``, transport tiers):

* one :class:`multiprocessing.shared_memory.SharedMemory` segment per
  pool, created by the coordinator at pool start and mapped once by
  every rank, laid out as fixed-offset per-rank **lanes** over the
  dense slot index — inbound slot indices/lengths/messages going down,
  executed indices, value/halt columns, touched-slot indices, combined
  payloads, BPPA tracker columns and aggregator contributions coming
  up;
* a lane codec that moves homogeneous ``float``/``int`` columns as raw
  ``float64``/``int64`` bytes (``array`` + ``memoryview`` — C-speed
  bulk copies, and bit-exact round-trips: CPython floats *are*
  float64, and ints within int64 range convert losslessly);
* per-lane degradation: any column the codec cannot take — mixed or
  non-numeric types, out-of-range ints, capacity overflow — rides the
  pipe pickled in the reply's ``spill`` dict instead, so the transport
  never constrains what a program may compute with.  The pipe message
  itself shrinks to a small header of scalars and lane descriptors.

The transport changes only the wire format.  Ranks still compute the
exact effect sets the pickle transport ships, and the coordinator
decodes lanes back into the *same Python structures* before the
unchanged rank-ordered merge — so byte-identity with serial execution
is preserved structurally, not re-proven per workload (the
differential-fuzz suite pins it anyway).

Segment lifecycle and leak handling
-----------------------------------
Segment names are ``repro_shm_<pid-hex>_<uid-hex>`` (short enough for
every platform's name limit) so a leaked segment is attributable to
its creating coordinator.  Unlink routes, in order of preference:

* the owning engine destroys the segment on every pool teardown
  (normal stop, rank-failure restart, run end, ``atexit`` pool sweep);
* a module ``atexit`` hook unlinks anything still registered here;
* each rank's orphan watchdog unlinks the segment (idempotently —
  double unlink is harmless) before ``os._exit`` when the coordinator
  vanishes, covering a SIGKILLed coordinator whose own hooks never
  ran;
* :func:`sweep_leaked_segments` scans ``/dev/shm`` for prefix-matching
  names whose embedded creator pid is dead — a belt-and-braces sweep
  callable from fresh processes (the chaos CLI runs it on resume);
* CPython's ``resource_tracker`` remains the final backstop: the
  coordinator's registration survives in the shared tracker process
  and unlinks the name when every registered process has died.

Ranks attach with resource-tracker registration *suppressed* (3.x
registers on attach, not only on create; under the fork start method
all processes share one tracker whose registry is a plain name set,
so a rank's attach+unregister would erase the coordinator's
registration and later unregisters would spam ``KeyError`` tracebacks
from the tracker process).  Suppressing the rank-side registration
keeps the tracker's books at exactly one registration — the
coordinator's — which its own ``unlink()`` retires cleanly.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import secrets
from array import array
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name prefix of every segment this module creates; the sweep and the
#: chaos tests key on it.
SEG_PREFIX = "repro_shm_"

#: Lane type codes: ``array`` typecodes for the two fixed-width
#: numeric column types the codec moves as raw bytes.
LANE_FLOAT = "d"  # IEEE-754 float64 — CPython's float, bit-exact
LANE_INT = "q"  # int64 — exact for every int in range

_SLOT = 8  # bytes per lane slot (both typecodes are 8-wide)


# ---------------------------------------------------------------------
# Lane codec
# ---------------------------------------------------------------------


def encode_lane(values: Sequence[Any]) -> Optional[Tuple[str, array]]:
    """Encode a column as a typed array, or ``None`` if it does not
    conform (the caller then spills the column over the pipe).

    Conforming means *exactly* ``float`` or *exactly* ``int`` (within
    int64 range) throughout — checked with C-speed ``type`` mapping,
    never coercion: ``array('d', [3])`` would silently turn the int 3
    into 3.0 and break byte-identity, and ``bool`` is excluded because
    ``type(True)`` is not ``int`` under this check (True pickles
    differently from 1).  Empty columns encode as an empty float lane.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        return LANE_FLOAT, array(LANE_FLOAT, values)
    if kinds == {int}:
        try:
            return LANE_INT, array(LANE_INT, values)
        except OverflowError:
            return None
    if not kinds:
        return LANE_FLOAT, array(LANE_FLOAT)
    return None


# ---------------------------------------------------------------------
# Segment layout and lifecycle
# ---------------------------------------------------------------------

#: Names created by this process and not yet unlinked; the module
#: atexit hook sweeps whatever an interrupted run leaves here.
_LIVE_SEGMENT_NAMES: set = set()
_ATEXIT_REGISTERED = False


def _unlink_registered_segments() -> None:
    for name in list(_LIVE_SEGMENT_NAMES):
        _unlink_by_name(name)


@contextlib.contextmanager
def _suppressed_tracking() -> Iterator[None]:
    """No-op the resource tracker's register/unregister for the
    duration: used when attaching from a rank (the creator already
    registered; see the module docstring) and when sweeping names
    this process never owned (the dead creator's tracker is gone, and
    an unregister for an unknown name makes a fresh tracker print a
    ``KeyError`` traceback)."""
    orig_register = resource_tracker.register
    orig_unregister = resource_tracker.unregister
    resource_tracker.register = lambda *a, **k: None
    resource_tracker.unregister = lambda *a, **k: None
    try:
        yield
    finally:
        resource_tracker.register = orig_register
        resource_tracker.unregister = orig_unregister


def _unlink_by_name(name: str) -> bool:
    """Best-effort unlink of a segment by name; True if it existed."""
    _LIVE_SEGMENT_NAMES.discard(name)
    try:
        with _suppressed_tracking():
            seg = shared_memory.SharedMemory(name=name)
            seg.close()
            seg.unlink()
    except FileNotFoundError:
        return False
    except OSError:
        return False
    return True


def _segment_name() -> str:
    # pid identifies the creating coordinator (the sweep checks its
    # liveness); the random suffix guards against pid reuse within
    # one boot and against two pools in one process.
    return f"{SEG_PREFIX}{os.getpid():x}_{secrets.token_hex(4)}"


class ColumnarSegment:
    """One pool's shared-memory segment: fixed per-rank lane offsets
    over the dense slot index, plus the read/write primitives the
    codec uses.

    The layout is a pure function of ``(num_slots, ranges, combining,
    tracking)``, so the coordinator ships only those plus the segment
    *name* and every rank reconstructs identical offsets on attach.
    Lane capacities are sized so that every conforming workload fits
    (inbound and combined payloads are bounded by the slot count when
    a combiner is active); a non-combining superstep that overflows
    its data lane degrades to the pickle spill for that rank, never
    truncates.
    """

    #: Lane names in layout order.  ``P`` is the rank's partition
    #: size, ``n`` the total slot count, ``W`` the rank count.
    def __init__(
        self,
        num_slots: int,
        ranges: Sequence[Tuple[int, int]],
        combining: bool,
        tracking: bool,
        name: Optional[str] = None,
    ):
        self.num_slots = int(num_slots)
        self.ranges = [tuple(r) for r in ranges]
        self.combining = bool(combining)
        self.tracking = bool(tracking)
        n = self.num_slots
        num_ranks = len(self.ranges)
        self._offsets: Dict[Tuple[int, str], Tuple[int, int]] = {}
        offset = 0

        def add(rank: int, lane: str, cap: int) -> None:
            nonlocal offset
            self._offsets[(rank, lane)] = (offset, cap)
            offset += cap * _SLOT

        for rank, (start, stop) in enumerate(self.ranges):
            part = stop - start
            add(rank, "down_idx", part)
            add(rank, "down_len", part)
            add(rank, "down_data", max(part * num_ranks, 1024))
            add(rank, "up_executed", part)
            add(rank, "up_values", part)
            add(rank, "up_halted", part)
            add(rank, "up_touched", n)
            if self.combining:
                add(rank, "up_counts", n)
            else:
                add(rank, "up_lens", n)
            add(rank, "up_data", max(2 * n, 1024))
            if self.tracking:
                add(rank, "up_tr_sent", part)
                add(rank, "up_tr_recv", part)
                add(rank, "up_tr_ops", part)
                add(rank, "up_tr_size", part)
            agg_cap = max(2 * part, 256)
            add(rank, "up_agg_name", agg_cap)
            add(rank, "up_agg_val", agg_cap)
        self.size = max(offset, _SLOT)
        self._closed = False
        if name is None:
            global _ATEXIT_REGISTERED
            self.name = _segment_name()
            self.owner = True
            self._shm = shared_memory.SharedMemory(
                name=self.name, create=True, size=self.size
            )
            _LIVE_SEGMENT_NAMES.add(self.name)
            if not _ATEXIT_REGISTERED:
                atexit.register(_unlink_registered_segments)
                _ATEXIT_REGISTERED = True
        else:
            self.name = name
            self.owner = False
            # The creator already registered the segment with the
            # resource tracker; a second (rank-side) registration
            # must be suppressed, not undone — see module docstring.
            with _suppressed_tracking():
                self._shm = shared_memory.SharedMemory(name=name)

    # -- shipping the layout to ranks -------------------------------

    @property
    def descriptor(self) -> Tuple:
        """Everything a rank needs to attach with identical offsets."""
        return (
            self.name,
            self.num_slots,
            self.ranges,
            self.combining,
            self.tracking,
        )

    @classmethod
    def attach(cls, descriptor: Tuple) -> "ColumnarSegment":
        name, num_slots, ranges, combining, tracking = descriptor
        return cls(num_slots, ranges, combining, tracking, name=name)

    # -- lane primitives --------------------------------------------

    def cap(self, rank: int, lane: str) -> int:
        return self._offsets[(rank, lane)][1]

    def write(self, rank: int, lane: str, column: array) -> int:
        """Bulk-copy ``column`` into the lane; returns bytes moved."""
        offset, cap_slots = self._offsets[(rank, lane)]
        data = column.tobytes()
        if len(data) > cap_slots * _SLOT:
            raise ValueError(
                f"lane {lane} overflow: {len(column)} > {cap_slots}"
            )
        self._shm.buf[offset : offset + len(data)] = data
        return len(data)

    def read(
        self, rank: int, lane: str, typecode: str, count: int
    ) -> list:
        offset, _cap = self._offsets[(rank, lane)]
        column = array(typecode)
        column.frombytes(
            self._shm.buf[offset : offset + count * _SLOT]
        )
        return column.tolist()

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        """Remove the backing object (idempotent; attachment views of
        other processes survive until they close)."""
        _LIVE_SEGMENT_NAMES.discard(self.name)
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:
            pass

    def destroy(self) -> None:
        """Close and unlink — every coordinator teardown route, and
        the rank orphan watchdog, end up here."""
        self.close()
        self.unlink()


def sweep_leaked_segments() -> List[str]:
    """Unlink prefix-matching ``/dev/shm`` segments whose creating
    process is dead; returns the names removed.

    A no-op on platforms without ``/dev/shm`` (the resource tracker
    covers them).  A live or unparseable pid means the segment is
    left alone — pid-reuse can only cause a leak to *survive* until
    the tracker's backstop, never remove a live pool's segment.
    """
    shm_dir = "/dev/shm"
    removed: List[str] = []
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return removed
    for name in names:
        if not name.startswith(SEG_PREFIX):
            continue
        tail = name[len(SEG_PREFIX) :]
        pid_hex = tail.split("_", 1)[0]
        try:
            pid = int(pid_hex, 16)
        except ValueError:
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # creator alive: not leaked
        except ProcessLookupError:
            pass
        except PermissionError:
            continue  # alive, someone else's
        except OSError:
            continue
        if _unlink_by_name(name):
            removed.append(name)
    return removed


# ---------------------------------------------------------------------
# Inbound (coordinator -> rank)
# ---------------------------------------------------------------------


def encode_inbound(
    seg: ColumnarSegment,
    rank: int,
    pairs: List[Tuple[int, List[Any]]],
) -> Optional[Tuple]:
    """Write one rank's inbound slot batch ``[(dense idx, messages)]``
    into its down lanes; returns the pipe descriptor, or ``None`` when
    the batch does not conform (caller ships it pickled instead)."""
    if len(pairs) > seg.cap(rank, "down_idx"):
        return None
    flat: List[Any] = []
    for _idx, msgs in pairs:
        flat.extend(msgs)
    encoded = encode_lane(flat)
    if encoded is None:
        return None
    code, data = encoded
    if len(data) > seg.cap(rank, "down_data"):
        return None
    seg.write(rank, "down_idx", array(LANE_INT, (p[0] for p in pairs)))
    seg.write(
        rank, "down_len", array(LANE_INT, (len(p[1]) for p in pairs))
    )
    seg.write(rank, "down_data", data)
    return ("shm", len(pairs), code, len(data))


def decode_inbound(
    seg: ColumnarSegment, rank: int, descriptor: Tuple
) -> List[Tuple[int, List[Any]]]:
    """Rank-side inverse of :func:`encode_inbound`: rebuild the exact
    ``[(idx, messages)]`` batch the pickle transport would have
    shipped."""
    _tag, count, code, data_len = descriptor
    idxs = seg.read(rank, "down_idx", LANE_INT, count)
    lens = seg.read(rank, "down_len", LANE_INT, count)
    flat = seg.read(rank, "down_data", code, data_len)
    pairs: List[Tuple[int, List[Any]]] = []
    pos = 0
    for i in range(count):
        end = pos + lens[i]
        pairs.append((idxs[i], flat[pos:end]))
        pos = end
    return pairs


# ---------------------------------------------------------------------
# Reply (rank -> coordinator)
# ---------------------------------------------------------------------


def encode_reply(
    seg: ColumnarSegment,
    rank: int,
    resp: Dict[str, Any],
    agg_index: Dict[str, int],
) -> Dict[str, Any]:
    """Encode a rank's effect set into its up lanes; returns the small
    pipe header (scalars, lane descriptors, and a ``spill`` dict
    holding any column that did not conform).

    Never fails: a lane group the codec rejects rides the pipe in
    ``spill`` exactly as the pickle transport would ship it, so the
    transport tier degrades per column, not per run.
    """
    spill: Dict[str, Any] = {}
    shm_bytes = 0
    values = resp["values"]
    executed = array(LANE_INT, (idx for idx, _v in values))
    shm_bytes += seg.write(rank, "up_executed", executed)
    header: Dict[str, Any] = {
        "active": resp["active"],
        "work": resp["work"],
        "sent_logical": resp["sent_logical"],
        "sent_remote": resp["sent_remote"],
        "drew": resp["drew"],
        "kernel_tier": resp["kernel_tier"],
        "n_exec": len(values),
    }

    encoded = encode_lane([v for _idx, v in values])
    if encoded is None:
        header["values"] = None
        spill["values"] = values
    else:
        code, column = encoded
        shm_bytes += seg.write(rank, "up_values", column)
        header["values"] = code

    halted = resp["halted"]
    shm_bytes += seg.write(rank, "up_halted", array(LANE_INT, halted))
    header["n_halt"] = len(halted)

    touched = resp["touched"]
    payloads = resp["payloads"]
    counts = resp["counts"]
    msgs_desc: Optional[Tuple] = None
    if len(touched) <= seg.cap(rank, "up_touched"):
        if counts is not None:
            encoded = encode_lane(payloads)
            if encoded is not None:
                code, column = encoded
                shm_bytes += seg.write(
                    rank, "up_touched", array(LANE_INT, touched)
                )
                shm_bytes += seg.write(
                    rank, "up_counts", array(LANE_INT, counts)
                )
                shm_bytes += seg.write(rank, "up_data", column)
                msgs_desc = ("c", len(touched), code)
        else:
            flat: List[Any] = []
            for bucket in payloads:
                flat.extend(bucket)
            encoded = encode_lane(flat)
            if (
                encoded is not None
                and len(flat) <= seg.cap(rank, "up_data")
            ):
                code, column = encoded
                shm_bytes += seg.write(
                    rank, "up_touched", array(LANE_INT, touched)
                )
                shm_bytes += seg.write(
                    rank,
                    "up_lens",
                    array(LANE_INT, (len(b) for b in payloads)),
                )
                shm_bytes += seg.write(rank, "up_data", column)
                msgs_desc = ("p", len(touched), code, len(flat))
    header["msgs"] = msgs_desc
    if msgs_desc is None:
        spill["msgs"] = (touched, payloads, counts)

    tracker = resp["tracker"]
    if tracker is None:
        header["tracker"] = "none"
    elif not tracker:
        header["tracker"] = "empty"
    elif not seg.tracking:  # pragma: no cover - layout always matches
        header["tracker"] = None
        spill["tracker"] = tracker
    else:
        ops_enc = encode_lane([row[3] for row in tracker])
        size_enc = encode_lane([row[4] for row in tracker])
        if ops_enc is None or size_enc is None:
            header["tracker"] = None
            spill["tracker"] = tracker
        else:
            # vids are recovered coordinator-side from the executed
            # lane (tracker rows are per executed vertex, in order).
            shm_bytes += seg.write(
                rank,
                "up_tr_sent",
                array(LANE_INT, (row[1] for row in tracker)),
            )
            shm_bytes += seg.write(
                rank,
                "up_tr_recv",
                array(LANE_INT, (row[2] for row in tracker)),
            )
            shm_bytes += seg.write(rank, "up_tr_ops", ops_enc[1])
            shm_bytes += seg.write(rank, "up_tr_size", size_enc[1])
            header["tracker"] = (ops_enc[0], size_enc[0])

    aggs = resp["aggs"]
    if not aggs:
        header["aggs"] = "empty"
    elif len(aggs) > seg.cap(rank, "up_agg_name"):
        header["aggs"] = None
        spill["aggs"] = aggs
    else:
        val_enc = encode_lane([value for _name, value in aggs])
        if val_enc is None:
            header["aggs"] = None
            spill["aggs"] = aggs
        else:
            shm_bytes += seg.write(
                rank,
                "up_agg_name",
                array(
                    LANE_INT,
                    (agg_index[name] for name, _value in aggs),
                ),
            )
            shm_bytes += seg.write(rank, "up_agg_val", val_enc[1])
            header["aggs"] = (len(aggs), val_enc[0])

    mutations = resp["mutations"]
    if mutations is not None:
        spill["mutations"] = mutations
    header["spill"] = spill
    header["shm_bytes"] = shm_bytes
    return header


def decode_reply(
    seg: ColumnarSegment,
    rank: int,
    header: Dict[str, Any],
    id_of: Sequence,
    agg_names: Sequence[str],
) -> Tuple[Dict[str, Any], bool]:
    """Coordinator-side inverse of :func:`encode_reply`: rebuild the
    exact effect-set dict the pickle transport ships, so the merge
    code downstream cannot tell the transports apart.  Returns
    ``(effect set, fully_columnar)``."""
    spill = header["spill"]
    fully_columnar = not spill
    n_exec = header["n_exec"]
    executed = seg.read(rank, "up_executed", LANE_INT, n_exec)

    if header["values"] is None:
        values = spill["values"]
    else:
        column = seg.read(rank, "up_values", header["values"], n_exec)
        values = list(zip(executed, column))

    halted = seg.read(rank, "up_halted", LANE_INT, header["n_halt"])

    msgs_desc = header["msgs"]
    if msgs_desc is None:
        touched, payloads, counts = spill["msgs"]
    elif msgs_desc[0] == "c":
        _tag, k, code = msgs_desc
        touched = seg.read(rank, "up_touched", LANE_INT, k)
        counts = seg.read(rank, "up_counts", LANE_INT, k)
        payloads = seg.read(rank, "up_data", code, k)
    else:
        _tag, k, code, data_len = msgs_desc
        touched = seg.read(rank, "up_touched", LANE_INT, k)
        lens = seg.read(rank, "up_lens", LANE_INT, k)
        flat = seg.read(rank, "up_data", code, data_len)
        payloads = []
        pos = 0
        for i in range(k):
            end = pos + lens[i]
            payloads.append(flat[pos:end])
            pos = end
        counts = None

    tr_desc = header["tracker"]
    if tr_desc == "none":
        tracker = None
    elif tr_desc == "empty":
        tracker = []
    elif tr_desc is None:
        tracker = spill["tracker"]
    else:
        ops_code, size_code = tr_desc
        sent = seg.read(rank, "up_tr_sent", LANE_INT, n_exec)
        recv = seg.read(rank, "up_tr_recv", LANE_INT, n_exec)
        ops = seg.read(rank, "up_tr_ops", ops_code, n_exec)
        sizes = seg.read(rank, "up_tr_size", size_code, n_exec)
        tracker = list(
            zip((id_of[idx] for idx in executed), sent, recv, ops, sizes)
        )

    agg_desc = header["aggs"]
    if agg_desc == "empty":
        aggs = []
    elif agg_desc is None:
        aggs = spill["aggs"]
    else:
        count, code = agg_desc
        name_idx = seg.read(rank, "up_agg_name", LANE_INT, count)
        agg_vals = seg.read(rank, "up_agg_val", code, count)
        aggs = list(
            zip((agg_names[i] for i in name_idx), agg_vals)
        )

    resp = {
        "active": header["active"],
        "work": header["work"],
        "sent_logical": header["sent_logical"],
        "sent_remote": header["sent_remote"],
        "values": values,
        "halted": halted,
        "touched": touched,
        "payloads": payloads,
        "counts": counts,
        "aggs": aggs,
        "tracker": tracker,
        "mutations": spill.get("mutations"),
        "drew": header["drew"],
        "kernel_tier": header.get("kernel_tier", "dense"),
        "seconds": header["seconds"],
        "shm_bytes": header["shm_bytes"],
    }
    return resp, fully_columnar
