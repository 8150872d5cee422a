"""The effect-set codec and the shared-memory segment of the
process-parallel backend.

One superstep crosses the rank boundary as **columns**: the inbound
slot batch going down, the rank's effect set — executed indices,
value/halt columns, the detached lane record (touched slots, payloads,
counts) with its first-touch order, and aggregator contributions —
coming up.  Each column is a typed ``array`` when its values conform
(:func:`typed_column`) and a plain list otherwise.  There is one wire
format (``docs/parallel_backend.md``, transport tiers): a pair
``(placed, pipe)`` where ``pipe`` holds the columns that ride the
pipe message itself and ``placed`` the descriptors of those that do
not.  The segment is only *where a conforming column travels*:

* one :class:`multiprocessing.shared_memory.SharedMemory` segment per
  pool, created by the coordinator at pool start and mapped once by
  every rank, laid out as fixed-offset per-rank **lanes** over the
  dense slot index (:class:`ColumnarSegment`);
* a column is *placed* in its lane when there is a segment, the
  column is a typed array and it fits the lane's capacity — moved as
  raw ``float64``/``int64`` bytes (C-speed bulk copies, and bit-exact
  round-trips: CPython floats *are* float64, and ints within int64
  range convert losslessly) — and the pipe carries only its
  ``(typecode, count)`` descriptor;
* every other column — mixed or non-numeric types, out-of-range ints,
  capacity overflow, or no segment at all (shared memory
  unavailable) — rides the pipe as it is, so the
  transport never constrains what a program may compute with.

The decision is per column and per superstep, made by one table-driven
loop (:data:`DOWN_LANES`/:data:`UP_LANES`); the coordinator and the
ranks run the same code whether or not a segment exists.

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


def typed_column(values: List[Any]):
    """``values`` as the typed array :func:`encode_lane` makes of it,
    or ``values`` itself when it does not conform."""
    encoded = encode_lane(values)
    return values if encoded is None else encoded[1]


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

    The layout is a pure function of ``(num_slots, ranges)``, so the
    coordinator ships only those plus the segment *name* and every
    rank reconstructs identical offsets on attach.
    Lane capacities are sized so that every conforming workload fits
    (inbound and combined payloads are bounded by the slot count when
    a combiner is active); a non-combining column that overflows its
    data lane rides the pipe for that superstep, never truncates.
    """

    def __init__(
        self,
        num_slots: int,
        ranges: Sequence[Tuple[int, int]],
        combining: bool,
        name: Optional[str] = None,
    ):
        self.num_slots = int(num_slots)
        self.ranges = [tuple(r) for r in ranges]
        self.combining = bool(combining)
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
            # Inbound: one entry per (source rank, destination) at most.
            add(rank, "down_idx", part * num_ranks)
            add(rank, "down_len", part * num_ranks)
            add(rank, "down_data", max(part * num_ranks, 1024))
            add(rank, "up_executed", part)
            add(rank, "up_values", part)
            add(rank, "up_halted", part)
            add(rank, "up_touched", n)
            # Slot counts with a combiner, bucket lengths without.
            add(rank, "up_counts", n)
            add(rank, "up_data", max(2 * n, 1024))
            add(rank, "up_order", n)
            agg_cap = max(2 * part, 256)
            add(rank, "up_agg_name", agg_cap)
            add(rank, "up_agg_val", agg_cap)
        self.size = max(offset, _SLOT)
        self._closed = False
        if name is None:
            global _ATEXIT_REGISTERED
            self.name = _segment_name()
            self.owner = True
            # Registered by hand: the stdlib registers after creating
            # the name and, when that fails (EMFILE starting the
            # tracker), leaves the name behind for good.
            with _suppressed_tracking():
                self._shm = shared_memory.SharedMemory(
                    name=self.name, create=True, size=self.size
                )
            try:
                resource_tracker.register(self._shm._name, "shared_memory")
            except BaseException:
                with _suppressed_tracking():
                    self.destroy()
                raise
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
        )

    @classmethod
    def attach(cls, descriptor: Tuple) -> "ColumnarSegment":
        name, num_slots, ranges, combining = descriptor
        return cls(num_slots, ranges, combining, name=name)

    # -- lane primitives --------------------------------------------

    def cap(self, rank: int, lane: Optional[str]) -> int:
        """Slots in the lane; -1 (nothing fits) when this layout has
        no such lane."""
        return self._offsets.get((rank, lane), (0, -1))[1]

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
    ) -> array:
        """Bulk-copy ``count`` slots of the lane out as a typed
        array."""
        offset, _cap = self._offsets[(rank, lane)]
        column = array(typecode)
        column.frombytes(
            self._shm.buf[offset : offset + count * _SLOT]
        )
        return column

    # -- lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Unmap this process's view (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(Exception):
            self._shm.close()

    def unlink(self) -> None:
        """Remove the backing object (idempotent; attachment views of
        other processes survive until they close)."""
        _LIVE_SEGMENT_NAMES.discard(self.name)
        with contextlib.suppress(OSError):
            self._shm.unlink()

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
        pid_hex = name[len(SEG_PREFIX) :].split("_", 1)[0]
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
            pass  # creator dead: leaked
        except OSError:
            continue  # alive and someone else's, or unknowable
        if _unlink_by_name(name):
            removed.append(name)
    return removed


# ---------------------------------------------------------------------
# The effect-set codec
# ---------------------------------------------------------------------

#: Column name -> segment lane, per direction.  The inbound batch is a
#: lane record (the sub-records forwarded to the rank, or its share of
#: the inbox); the reply carries the rank's whole effect set.  A column
#: with no lane here (a mutation log) always rides the pipe.
DOWN_LANES = {
    "touched": "down_idx",
    "counts": "down_len",
    "payloads": "down_data",
}
UP_LANES = {
    "executed": "up_executed",
    "values": "up_values",
    "halted": "up_halted",
    "touched": "up_touched",
    "counts": "up_counts",
    "payloads": "up_data",
    "order": "up_order",
    "agg_name": "up_agg_name",
    "agg_val": "up_agg_val",
}

#: ``(placed, pipe)``: ``placed`` maps a column name to the
#: ``(typecode, count)`` of its copy in the segment, ``pipe`` maps
#: every other column name to the column itself.
Wire = Tuple[Dict[str, Tuple[str, int]], Dict[str, Any]]


def _encode(
    seg: Optional[ColumnarSegment],
    rank: int,
    lanes: Dict[str, str],
    columns: Dict[str, Any],
) -> Wire:
    placed: Dict[str, Tuple[str, int]] = {}
    pipe: Dict[str, Any] = {}
    for key, column in columns.items():
        lane = lanes.get(key)
        if (
            seg is not None
            and type(column) is array
            and len(column) <= seg.cap(rank, lane)
        ):
            seg.write(rank, lane, column)
            placed[key] = (column.typecode, len(column))
        else:
            pipe[key] = column
    return placed, pipe


def _decode(
    seg: Optional[ColumnarSegment],
    rank: int,
    lanes: Dict[str, str],
    wire: Wire,
) -> Tuple[Dict[str, Any], bool]:
    placed, pipe = wire
    columns = dict(pipe)
    for key, (typecode, count) in placed.items():
        columns[key] = seg.read(rank, lanes[key], typecode, count)
    return columns, not pipe


def encode_inbound(
    seg: Optional[ColumnarSegment], rank: int, columns: Dict[str, Any]
) -> Wire:
    """Coordinator side: place one rank's inbound columns in its down
    lanes where they go, leave the rest for the pipe."""
    return _encode(seg, rank, DOWN_LANES, columns)


def decode_inbound(
    seg: Optional[ColumnarSegment], rank: int, wire: Wire
) -> Tuple[Dict[str, Any], bool]:
    """Rank-side inverse of :func:`encode_inbound`; returns
    ``(columns, every column was in the segment)``."""
    return _decode(seg, rank, DOWN_LANES, wire)


def encode_reply(
    seg: Optional[ColumnarSegment], rank: int, columns: Dict[str, Any]
) -> Wire:
    """Rank side: place the effect set's columns in the rank's up
    lanes where they go, leave the rest for the pipe."""
    return _encode(seg, rank, UP_LANES, columns)


def decode_reply(
    seg: Optional[ColumnarSegment], rank: int, wire: Wire
) -> Tuple[Dict[str, Any], bool]:
    """Coordinator-side inverse of :func:`encode_reply`; returns
    ``(columns, every column was in the segment)``."""
    return _decode(seg, rank, UP_LANES, wire)
