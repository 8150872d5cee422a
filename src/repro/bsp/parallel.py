"""Process-parallel execution backend for the Pregel engine.

:class:`ParallelPregelEngine` runs the dense plane's per-worker
compute loops in **real OS processes** (one per simulated worker) while
keeping every observable byte of a run — ``PregelResult.values``,
``RunStats``, BPPA observations, the aggregate history, and the fault
draw sequence — identical to the serial
:class:`~repro.bsp.engine.PregelEngine`, which remains the default
backend and the correctness oracle (``docs/parallel_backend.md``).

Architecture
------------

The coordinator (this process) stays authoritative: it owns the full
vertex-state dict, the mailboxes, aggregators, RNG, checkpoint store
and fault injector, exactly as the serial engine does.  Only the
*compute pass* of a superstep is farmed out:

* at pool start every worker rank receives its dense partition — the
  ``[range_start, range_stop)`` slice of vertex states, the compiled
  dense adjacency, the shared ``idx_of``/``owner_of`` tables, the
  program, the combiner, and the run RNG state.  When the run's graph
  is a file-backed :class:`~repro.graph.snapshot.CsrSnapshot` the
  pickled topology never crosses the pipe at all: the rank receives
  the snapshot *path* plus its slice's mutable values, opens the file
  itself (the mmap'd adjacency pages are shared read-only across
  ranks) and rederives states, dense index, and compiled adjacency
  locally (:func:`_expand_snapshot_init`), so coordinator and rank
  memory stay bounded by the partition, not the graph;
* each superstep the coordinator ships ``(superstep, wake_all,
  finalized aggregates, this rank's inbound slots, program state if it
  changed, the vectorized-kernel verdict)`` to every rank, and each
  rank runs **the serial fast path's own compute code** — the dense
  per-vertex loop, the lane send methods and the registered
  vectorized kernels of :mod:`repro.bsp.kernels` /
  :class:`~repro.bsp.fabric.DenseLane` — over one lane holding its
  slice and its private accumulator arrays
  (:class:`_PartitionRuntime` is that lane's host);
* the coordinator then collects the per-rank effect sets **in fixed
  worker-rank order** and replays them into its own engine state: new
  vertex values and halted flags, per-``(rank, destination)``
  accumulator slots, first-touch destination order, aggregator
  contributions, BPPA tracker rows, mutation logs, and the per-worker
  counters.

Because the serial engine *also* executes workers in rank order, the
rank-ordered merge reconstructs exactly the global send order, the
``_out_dirty`` first-touch order (= the reference outbox's key
insertion order, which fixes the fault-injection draw sequence), the
aggregator reduce order (contributions are replayed through
``engine._aggregate`` on the coordinator, so even non-associative
reducers see the serial order), and the mutation-log append order.
Delivery, combining at delivery, master compute, mutation application,
checkpointing, and recovery all run the *unchanged* serial code on the
coordinator — there is nothing left to diverge.

Degrading to serial
-------------------

Real parallelism cannot be byte-identical when compute breaks
partition isolation, so the backend degrades to the serial path (it
*is* a ``PregelEngine``; degrading just means never consulting the
pool) instead of returning different bytes:

* programs flagged ``parallel_safe = False`` or the
  ``use_fast_path=False`` oracle — decided up front, the pool never
  spawns;
* an unpicklable program or a worker pipe failure — the pool is
  abandoned and the superstep re-executes serially;
* **broken isolation**: each rank compares its RNG state before and
  after the pass (a draw consumed the run's shared sequential stream)
  and its executed vertices' compiled rows against their ``out_edges``
  (:meth:`~repro.bsp.fabric.DenseLane.row_holds`: an in-place edit
  never reaches the coordinator's copy).  Either way the whole
  superstep's results are discarded, the pool shuts down permanently,
  and the superstep re-executes serially from the coordinator's
  (untouched) state;
* **topology mutation**: the barrier re-indexes the coordinator's
  dense plane in place; the pool, compiled for the old index, is
  retired and the dense plane carries on serially.

Fault tolerance
---------------

Injected crashes become *real* process deaths: ``_recover`` kills the
crashed rank's OS process before running the stock recovery, and the
``_post_restore_sync`` hook (called at the end of a full rollback and
of a confined replay alike) respawns dead ranks from a fresh
partition snapshot and reloads the restored values into surviving
ranks.  The dense index a restore recompiles is identical to the
pool's (topology cannot have changed while the pool is alive), so
adjacency is never reshipped.

Supervision of the real processes is hang-aware: the coordinator
never blocks on a worker pipe.  Each rank runs a heartbeat thread
reporting a monotonic per-vertex progress counter; the coordinator
collects step replies with deadline polling and extends a rank's
deadline only when its progress *advances*, so a SIGKILLed rank is
detected immediately, an infinite-looping or sleeping rank within
``rank_stall_timeout``, and a merely slow rank is never killed.  A
failed rank aborts the (side-effect-free) collection, the whole pool
is torn down — ``kill()`` escalates SIGTERM to SIGKILL so even a rank
that ignores signals dies — and the pass retries on a fresh pool
after bounded exponential backoff, up to ``max_rank_restarts``
restarts per run; past the budget the run degrades to the
byte-identical serial path.  Because results merge only after every
rank replies, a failed pass leaves the coordinator at the exact
superstep boundary and the retry is byte-identical by construction.
An ``atexit`` sweep kills any pool the interpreter abandons, so no
orphan rank processes outlive an interrupted run.

Transport tiers
---------------

A superstep crosses the rank boundary in one format
(:mod:`repro.bsp.shm_transport`): the inbound slot batch and the
rank's effect set are *columns* — typed ``float64``/``int64`` arrays
where the values conform, plain lists otherwise — built once on the
sending side and consumed as columns on the receiving side.  The
``transport`` kwarg only decides whether the pool has a shared-memory
segment for conforming columns to travel in:

* ``"auto"``/``"columnar"`` (the default): a typed column that fits
  its lane is bulk-copied into the segment and the pipe message
  carries only its descriptor; any other column (e.g. BFS-tree's dict
  values) rides the pipe message as it is — per column and per
  superstep, never a mode switch.  ``columnar_supersteps`` counts
  supersteps in which every column of every rank travelled in the
  segment, both directions.
* ``"pickle"``: no segment; every column rides the pipe message.
  Same code, same columns — selectable for A/B measurement.

If the segment cannot be created the pool runs exactly as under
``"pickle"``, recording why in ``transport_disabled_reason``.  The
segment's lifecycle is tied to the pool's (every teardown route
destroys it; see :mod:`repro.bsp.shm_transport` for the leak
handling).

``RunStats.wall`` records per-rank compute seconds, barrier wait and
pipe payload bytes: measurements, excluded from the byte-identity
contract (``bench/`` reports them per workload).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import random
import threading
import time
import weakref
from array import array
from functools import cached_property
from itertools import repeat
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple

from repro.bsp import shm_transport
from repro.bsp.shm_transport import typed_column
from repro.bsp.context import ComputeContext
from repro.bsp.engine import PregelEngine, PregelResult
from repro.bsp.fabric import DenseLane, LaneRecord, snapshot_adjacency
from repro.bsp.kernels import (
    compile_plan,
    lane_compute_pass,
    vector_phase,
)
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.graph.graph import Graph
from repro.graph.partition import build_dense_index, owner_for
from repro.graph.snapshot import CsrSnapshot, is_graph_snapshot
from repro.bsp.program import VertexProgram
from repro.trace.events import Handoff

#: Pickle protocol for all pool traffic and for the program-state
#: change detection blobs (highest = fastest, and both sides of every
#: comparison use the same protocol).
_PROTO = pickle.HIGHEST_PROTOCOL

#: Recognised values of the engine's ``transport`` kwarg.
TRANSPORTS = ("auto", "columnar", "pickle")


def _send_msg(conn, msg) -> int:
    """Ship one pipe message explicitly framed as a pickle blob;
    returns the blob length.  Framing the bytes ourselves (instead of
    ``Connection.send``'s implicit pickling) is what makes the
    per-superstep ``payload_bytes`` observable exact, not estimated."""
    blob = pickle.dumps(msg, _PROTO)
    conn.send_bytes(blob)
    return len(blob)


def _recv_msg(conn):
    return pickle.loads(conn.recv_bytes())


def default_start_method() -> str:
    """``"fork"`` where available (cheap: the child inherits loaded
    modules), else ``"spawn"``.  Both are supported and tested; pass
    ``mp_start_method="spawn"`` to force the portable one."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------


def _expand_snapshot_init(
    rank: int, init: Dict[str, Any]
) -> Dict[str, Any]:
    """Rebuild a standard init payload from a memory-mapped snapshot.

    When the run's graph is a file-backed
    :class:`~repro.graph.snapshot.CsrSnapshot`, the coordinator ships
    only the snapshot *path* plus the partitioner and this slice's
    values/halted flags; each rank opens the file itself (mmap — the
    adjacency pages are shared read-only across ranks, not copied) and
    rederives everything the pickle payload would have carried:

    * the dense index, the way the coordinator built its own — bucket
      ``snapshot.vertices()`` (insertion order) through the shared
      :func:`~repro.graph.partition.owner_for` rule, then
      :func:`~repro.graph.partition.build_dense_index` over the
      buckets;
    * this slice's vertex states, from the snapshot's ``*_edge_items``
      rows (the same rows ``StateStore`` read, so the dict order is
      byte-identical);
    * this slice's compiled adjacency, straight off the CSR columns
      (:func:`~repro.bsp.fabric.snapshot_adjacency` — the same plan
      the coordinator's fabric compiled).

    The rederived slice boundary must equal the one the coordinator
    shipped; any mismatch (e.g. an unstable partitioner) raises, the
    init fails, and the engine degrades to the byte-identical serial
    path.
    """
    snap = CsrSnapshot.open(init["snapshot_path"])
    partitioner = init["partitioner"]
    num_workers: int = init["num_workers"]
    buckets = [Worker(i) for i in range(num_workers)]
    for v in snap.vertices():
        buckets[owner_for(v, partitioner, num_workers)].vertex_ids.append(v)
    dense = build_dense_index(buckets)
    if dense.ranges[rank] != tuple(init["range"]):
        raise ValueError(
            f"rank {rank}: rederived slice {dense.ranges[rank]} does "
            f"not match the coordinator's {tuple(init['range'])} — "
            "unstable partitioner?"
        )
    start, stop = dense.ranges[rank]
    directed = snap.directed
    values = init["values"]
    halted = init["halted"]
    snaps = []
    for off, vid in enumerate(dense.id_of[start:stop]):
        out_edges = dict(snap.out_edge_items(vid))
        in_edges = (
            dict(snap.in_edge_items(vid)) if directed else None
        )
        snaps.append(
            (vid, values[off], out_edges, in_edges, halted[off])
        )
    dense_out, remote_out = snapshot_adjacency(
        snap, dense.id_of, dense.owner_of, start, stop
    )
    expanded = dict(init)
    expanded.update(
        num_vertices=len(dense.id_of),
        idx_of=dense.idx_of,
        owner_of=dense.owner_of,
        states=snaps,
        dense_out=dense_out,
        remote_out=remote_out,
    )
    return expanded


class _TrackerRows:
    """Rank-side stand-in for the BPPA tracker: logs the rows the
    coordinator replays into the real tracker in rank order."""

    def __init__(self):
        self.rows: List[Tuple] = []

    def record_vertex(self, *row) -> None:
        self.rows.append(row)


class _PartitionRuntime:
    """One rank's resident partition: the second host of the dense
    compute plane (:mod:`repro.bsp.kernels`), next to the serial
    engine.

    The partition is one :class:`~repro.bsp.fabric.DenseLane` over the
    rank's slice — its states, inbound slots, compiled adjacency, a
    private accumulator array and a :class:`~repro.bsp.worker.Worker`
    for the counters — executed by the same per-vertex loop, lane send
    methods and vectorized kernels the serial engine runs over its
    workers' lanes.  This class supplies only what a host owes the
    lane code (``_program``/``_ctx``/``_tracker``/``num_vertices``,
    the ``_enqueue``/``_fanout`` forwards) and the bookkeeping that
    genuinely differs across the process boundary: aggregate
    contributions and tracker rows are *logged* for the coordinator
    to replay in rank order, and the touched accumulator slots are
    detached (:meth:`~repro.bsp.fabric.DenseLane.detach`) and shipped
    instead of committed to ``out_dirty``.  What :meth:`step` returns
    is the rank's effect set as columns, built once; the codec only
    decides where each column travels.
    """

    def __init__(self, rank: int, init: Dict[str, Any]):
        if "snapshot_path" in init:
            init = _expand_snapshot_init(rank, init)
        self.num_vertices: int = init["num_vertices"]
        worker = Worker(rank)
        worker.range_start, worker.range_stop = init["range"]
        self._program: VertexProgram = init["program"]
        self._tracker: Optional[_TrackerRows] = (
            _TrackerRows() if init["track_bppa"] else None
        )
        # Shipped sorted; contributions are logged under a name's
        # position (the coordinator holds the same sorted list).
        self.agg_index = {
            name: i for i, name in enumerate(init["agg_names"])
        }
        self.rng = random.Random()
        self.rng.setstate(init["rng_state"])
        self._rng_baseline = init["rng_state"]
        states = []
        for vid, value, out_edges, in_edges, halted in init["states"]:
            state = VertexState(
                vid,
                value=value,
                out_edges=out_edges,
                in_edges=out_edges if in_edges is None else in_edges,
            )
            state.halted = halted
            states.append(state)
        self.states: List[VertexState] = states
        # The slice's arrays are indexed by local offset (dense idx -
        # range start), hence the base; each step fills ``in_slots``
        # from the shipped inbound batch and clears it again.
        self.lane = lane = DenseLane(
            worker, worker.range_start, states, [None] * len(states),
            init["dense_out"], init["remote_out"],
            init["idx_of"], init["owner_of"], init["combiner"],
        )
        self._enqueue = lane.enqueue
        self._fanout = lane.fanout
        self.agg_name = array("q")
        self.agg_val: List[Any] = []
        #: Compute passes started over the partition's lifetime (see
        #: :attr:`progress`).
        self._passes = 0
        self._ctx = ComputeContext(self)

    @cached_property
    def _plan(self):
        """The lane's vectorized plan (``None`` when compilation
        bails), compiled on the first superstep the coordinator grants
        a phase for.  Survives reload()s — the plan depends only on
        topology, which is frozen while the pool is alive; program
        parameters are read live each pass."""
        return compile_plan(self._program, self.lane)

    @property
    def progress(self) -> int:
        """Monotonic while the rank advances — passes started, then
        the position of the vertex executing within the pass — so the
        heartbeat can tell a slow rank from a stuck one."""
        return self._passes * (len(self.states) + 1) + self.lane.cur + 1

    # -- host contract (ComputeContext, lane kernels) ---------------

    def _aggregate(self, name: str, value: Any) -> None:
        # Contributions are *recorded*, not reduced: the coordinator
        # replays them through the real aggregator registry in rank
        # order, so non-associative reducers see the serial order and
        # an unknown name raises the same KeyError the registry
        # lookup would.
        self.agg_name.append(self.agg_index[name])
        self.agg_val.append(value)

    def _aggregate_many(self, name: str, values) -> None:
        index = self.agg_index[name]
        before = len(self.agg_val)
        self.agg_val.extend(values)
        self.agg_name.extend(
            repeat(index, len(self.agg_val) - before)
        )

    # -- superstep execution ----------------------------------------

    def step(
        self,
        superstep: int,
        wake_all: bool,
        agg_prev: Dict[str, Any],
        inbound: LaneRecord,
        program_state: Optional[Dict[str, Any]],
        phase,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Run my lane's share of one compute pass; return the effect
        set as ``(scalars, columns)``.

        ``phase`` is the coordinator's
        :func:`~repro.bsp.kernels.vector_phase` verdict, evaluated
        against the authoritative fabric state: with one, the lane
        runs the program's vectorized kernel if its plan compiles,
        and the per-vertex dense loop otherwise — byte-identical
        either way, reported via ``kernel_tier``.
        """
        if program_state is not None:
            # master_compute mutated the program since the last ship.
            self._program.__dict__.clear()
            self._program.__dict__.update(program_state)
        lane = self.lane
        start = lane.start
        in_slots = lane.in_slots
        for idx, messages in inbound.buckets():
            in_slots[idx - start] = messages
        lane.arrivals = sorted(idx - start for idx in inbound.touched)
        lane.worker.reset_counters()
        lane.cur = -1
        self._passes += 1
        self._ctx._begin_superstep(superstep, agg_prev)
        plan = self._plan if phase is not None else None
        kernel_tier, executed, scattered = lane_compute_pass(
            self, lane, wake_all, phase, plan
        )
        for pos in lane.arrivals:
            in_slots[pos] = None
        record = lane.detach(
            lane.touched if scattered is None else scattered.order
        )
        lane.touched = []
        rng_state = self.rng.getstate()
        states = self.states
        # What the pass did that a partition may not, if anything (an
        # edge edit here would never reach the coordinator's copy).
        broke = None
        if rng_state != self._rng_baseline:
            broke = "program drew from the shared RNG stream"
        elif kernel_tier == "dense" and not all(
            lane.row_holds(idx - start, states[idx - start].out_edges)
            for idx in executed
        ):
            broke = "program edited out_edges in place"
        self._rng_baseline = rng_state
        worker = lane.worker
        scalars = {
            "active": len(executed),
            "work": worker.work,
            "sent_logical": worker.sent_logical,
            "sent_remote": worker.sent_remote,
            "broke": broke,
            "kernel_tier": kernel_tier,
        }
        columns = {
            "executed": array("q", executed),
            "values": typed_column(
                [states[idx - start].value for idx in executed]
            ),
            "halted": array(
                "q",
                [idx for idx in executed if states[idx - start].halted],
            ),
            "agg_name": self.agg_name,
            "agg_val": typed_column(self.agg_val),
            **record._asdict(),
        }
        self.agg_name = array("q")
        self.agg_val = []
        tracker = self._tracker
        if tracker is not None:
            # One row per executed vertex, in order: the vertex ids
            # are recovered coordinator-side from ``executed``.
            rows, tracker.rows = tracker.rows, []
            _vids, sent, recv, ops, size = zip(*rows) if rows else [()] * 5
            columns.update(
                tr_sent=array("q", sent),
                tr_recv=array("q", recv),
                tr_ops=typed_column(ops),
                tr_size=typed_column(size),
            )
        mutations = self._ctx._take_mutations()
        if mutations is not None:
            columns["mutations"] = mutations
        return scalars, columns

    def reload(self, payload: Dict[str, Any]) -> None:
        """Adopt post-rollback values/flags (topology is unchanged
        while the pool is alive, so edges stay resident)."""
        start = self.lane.start
        states = self.states
        for idx, value, halted in payload["states"]:
            state = states[idx - start]
            state.value = value
            state.halted = halted
        self.lane.awake = None
        self.rng.setstate(payload["rng_state"])
        self._rng_baseline = payload["rng_state"]
        self._program.__dict__.clear()
        self._program.__dict__.update(payload["program_state"])


def _worker_main(
    rank: int, conn, hb_interval: float = 0.25
) -> None:
    """Command loop of one pool process (top-level: spawn-safe).

    A daemon heartbeat thread reports the partition's progress
    counter every ``hb_interval`` seconds while a step is running, so
    the coordinator can tell a hung rank (progress frozen) from a
    slow one (progress advancing).  All pipe writes share one lock so
    a heartbeat never interleaves with a reply.

    The same thread is the orphan watchdog: when the parent pid
    changes the coordinator died (e.g. SIGKILLed mid-run), and this
    rank must not linger — under the fork start method sibling ranks
    inherit each other's pipe fds, so the EOF a dead coordinator
    would normally deliver can be held open indefinitely by a
    sibling.  ``os._exit`` keeps the no-orphans guarantee regardless;
    before exiting, the watchdog unlinks the pool's shared-memory
    segment (idempotently — every exiting rank may try), because the
    dead coordinator's own cleanup hooks never ran.
    """
    part: Optional[_PartitionRuntime] = None
    seg: Optional[shm_transport.ColumnarSegment] = None
    send_lock = threading.Lock()
    stepping = threading.Event()
    stop = threading.Event()
    parent_pid = os.getppid()

    def _send(msg) -> None:
        blob = pickle.dumps(msg, _PROTO)
        with send_lock:
            conn.send_bytes(blob)

    def _heartbeat() -> None:
        while not stop.wait(hb_interval):
            if os.getppid() != parent_pid:
                # Orphaned: the coordinator is gone and cannot unlink
                # the segment itself.
                if seg is not None:
                    try:
                        seg.destroy()
                    except Exception:
                        pass
                os._exit(0)
            if part is None or not stepping.is_set():
                continue
            try:
                _send(("hb", part.progress))
            except Exception:
                return

    threading.Thread(
        target=_heartbeat,
        daemon=True,
        name=f"repro-bsp-hb-{rank}",
    ).start()
    try:
        while True:
            try:
                msg = _recv_msg(conn)
            except (EOFError, OSError):
                return
            cmd = msg[0]
            try:
                if cmd == "init":
                    part = _PartitionRuntime(rank, msg[1])
                    desc = msg[1].get("shm")
                    if seg is not None:
                        seg.close()
                        seg = None
                    if desc is not None:
                        seg = shm_transport.ColumnarSegment.attach(
                            desc
                        )
                    _send(("ready", rank))
                elif cmd == "step":
                    (
                        superstep, wake_all, agg_prev,
                        inbound, state, phase,
                    ) = msg[1:]
                    columns, _ = shm_transport.decode_inbound(
                        seg, rank, inbound
                    )
                    t0 = time.perf_counter()
                    stepping.set()
                    try:
                        scalars, columns = part.step(
                            superstep, wake_all, agg_prev,
                            LaneRecord(**columns), state, phase,
                        )
                    finally:
                        stepping.clear()
                    scalars["seconds"] = time.perf_counter() - t0
                    wire = shm_transport.encode_reply(seg, rank, columns)
                    _send(("ok", scalars, wire))
                elif cmd == "reload":
                    part.reload(msg[1])
                    _send(("ready", rank))
                elif cmd == "stop":
                    stop.set()
                    with send_lock:
                        conn.close()
                    return
            except BaseException as exc:  # ship failure, stay alive
                try:
                    _send(("err", exc))
                except Exception:
                    _send(("err", RuntimeError(repr(exc))))
    finally:
        if seg is not None:
            seg.close()


# ---------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------


class _WorkerLink:
    """A pool process and the coordinator's end of its pipe."""

    def __init__(self, mp_ctx, rank: int, hb_interval: float = 0.25):
        self.rank = rank
        self.conn, child_conn = mp_ctx.Pipe()
        self.process = mp_ctx.Process(
            target=_worker_main,
            args=(rank, child_conn, hb_interval),
            daemon=True,
            name=f"repro-bsp-worker-{rank}",
        )
        self.process.start()
        child_conn.close()

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the process.  SIGTERM first; if the rank has not
        exited shortly after — hung in compute, or ignoring signals —
        escalate to SIGKILL, so nothing survives ``kill()``."""
        process = self.process
        try:
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        except Exception:
            pass
        try:
            self.conn.close()
        except Exception:
            pass

    def stop(self) -> None:
        try:
            _send_msg(self.conn, ("stop",))
        except Exception:
            pass
        try:
            self.process.join(timeout=1)
        except Exception:
            pass
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except Exception:
                pass


class _RankFailure(Exception):
    """Internal: a pool rank died or stalled mid-operation.  Carries
    what the supervisor needs to account and restart; never escapes
    :class:`ParallelPregelEngine`."""

    def __init__(self, rank: int, reason: str):
        super().__init__(f"rank {rank} {reason}")
        self.rank = rank
        self.reason = reason


#: Engines with live pools, swept at interpreter exit.  Weak refs: a
#: collected engine already tore its pool down in ``__del__``.
_LIVE_POOLS: "weakref.WeakSet" = weakref.WeakSet()
_ATEXIT_REGISTERED = False


def _kill_leaked_pools() -> None:
    """atexit hook: hard-kill any pool the interpreter abandons, so
    an interrupted run never leaves orphan rank processes behind."""
    for engine in list(_LIVE_POOLS):
        try:
            engine._teardown_links()
        except Exception:
            pass


def _track_pool(engine: "ParallelPregelEngine") -> None:
    global _ATEXIT_REGISTERED
    if not _ATEXIT_REGISTERED:
        atexit.register(_kill_leaked_pools)
        _ATEXIT_REGISTERED = True
    _LIVE_POOLS.add(engine)


class ParallelPregelEngine(PregelEngine):
    """:class:`PregelEngine` whose fast compute pass runs on a
    persistent pool of worker processes, one per simulated worker.

    Accepts every ``PregelEngine`` parameter plus:

    mp_start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default
        :func:`default_start_method`.
    rank_stall_timeout:
        Seconds a rank may go without *progress* before the
        coordinator declares it hung and restarts the pool (default
        60).  Progress is a per-vertex counter shipped by the rank's
        heartbeat thread, so a slow-but-advancing rank is never
        killed.
    rank_heartbeat_interval:
        Seconds between a rank's progress heartbeats (default 0.25).
    max_rank_restarts:
        Pool restarts allowed per run after rank deaths or stalls
        before degrading to the serial path for good (default 2).
    rank_restart_backoff:
        Base of the bounded exponential backoff slept before each
        pool restart (default 0.05s; doubles per restart, capped at
        2s).
    transport:
        ``"auto"`` / ``"columnar"`` (equivalent defaults): conforming
        columns cross the rank boundary in a shared-memory segment,
        the pipe carrying scalars, descriptors and whatever column
        does not conform.  ``"pickle"``: no segment, every column
        rides the pipe — for A/B measurement, and what a run gets
        when shared memory is unavailable (see
        :attr:`transport_disabled_reason`).

    The engine degrades to the byte-identical serial path whenever
    process parallelism cannot preserve the contract; inspect
    :attr:`parallel_disabled_reason` / :attr:`parallel_supersteps` /
    :attr:`rank_restarts` / :attr:`rank_failures` to see what a run
    actually did, and :attr:`transport_tier` /
    :attr:`columnar_supersteps` / :attr:`pickle_supersteps` for how
    its bytes moved.
    """

    backend_name = "parallel"

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        *args,
        mp_start_method: Optional[str] = None,
        rank_stall_timeout: float = 60.0,
        rank_heartbeat_interval: float = 0.25,
        max_rank_restarts: int = 2,
        rank_restart_backoff: float = 0.05,
        transport: str = "auto",
        **kwargs,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got "
                f"{transport!r}"
            )
        if rank_stall_timeout <= 0:
            raise ValueError(
                "rank_stall_timeout must be > 0, got "
                f"{rank_stall_timeout!r}"
            )
        if rank_heartbeat_interval <= 0:
            raise ValueError(
                "rank_heartbeat_interval must be > 0, got "
                f"{rank_heartbeat_interval!r}"
            )
        if max_rank_restarts < 0:
            raise ValueError(
                "max_rank_restarts must be >= 0, got "
                f"{max_rank_restarts!r}"
            )
        if rank_restart_backoff < 0:
            raise ValueError(
                "rank_restart_backoff must be >= 0, got "
                f"{rank_restart_backoff!r}"
            )
        super().__init__(graph, program, *args, **kwargs)
        self._mp_method = mp_start_method or default_start_method()
        self._rank_stall_timeout = float(rank_stall_timeout)
        self._rank_heartbeat_interval = float(rank_heartbeat_interval)
        self._max_rank_restarts = int(max_rank_restarts)
        self._rank_restart_backoff = float(rank_restart_backoff)
        #: Init/reload replies get a generous fixed deadline: setup
        #: has no progress counter to extend it with.
        self._pool_setup_timeout = max(
            120.0, float(rank_stall_timeout)
        )
        self._transport = (
            "columnar" if transport == "auto" else transport
        )
        self._segment: Optional[
            shm_transport.ColumnarSegment
        ] = None
        #: Aggregator names, sorted: ranks log a contribution under
        #: its name's position here.
        self._agg_list: List[str] = sorted(self._aggregators)
        self._links: Optional[List[_WorkerLink]] = None
        self._pool_disabled = False
        self._program_blob: Optional[bytes] = None
        #: Ship init payloads as a snapshot path instead of pickled
        #: per-vertex state; decided at pool start (file-backed
        #: snapshot graph + picklable partitioner).
        self._ship_snapshot = False
        #: Pool restarts performed after rank deaths/stalls.
        self.rank_restarts = 0
        #: One ``(superstep, rank, reason)`` per detected failure.
        self.rank_failures: List[Tuple[int, int, str]] = []
        #: Supersteps whose compute pass actually ran on the pool.
        self.parallel_supersteps = 0
        #: Pool supersteps in which every column of every rank
        #: travelled in the segment, both directions.
        self.columnar_supersteps = 0
        #: Why there is no segment although one was requested (shared
        #: memory could not be set up); ``None`` while it works or was
        #: never requested.  Distinct from
        #: ``parallel_disabled_reason``: without a segment the columns
        #: ride the pipe, the pool keeps running.
        self.transport_disabled_reason: Optional[str] = None
        #: Why the pool is (or became) unused; None while eligible.
        self.parallel_disabled_reason: Optional[str] = None
        if not getattr(program, "parallel_safe", True):
            self._disable_pool("program declares parallel_safe=False")
        elif not self._fast_enabled:
            self._disable_pool("reference execution path forced")

    # -- pool management --------------------------------------------

    @property
    def parallel_active(self) -> bool:
        """True while the process pool is alive."""
        return self._links is not None

    @property
    def transport_tier(self) -> str:
        """``"columnar"`` while the pool has a segment to place
        columns in, ``"pickle"`` otherwise (individual columns can
        still ride the pipe; see :attr:`columnar_supersteps` for the
        all-in-segment count)."""
        if (
            self._transport == "pickle"
            or self.transport_disabled_reason is not None
        ):
            return "pickle"
        return "columnar"

    @property
    def pickle_supersteps(self) -> int:
        """Pool supersteps that moved at least one column over the
        pipe (all of them when there is no segment)."""
        return self.parallel_supersteps - self.columnar_supersteps

    def _destroy_segment(self) -> None:
        seg, self._segment = self._segment, None
        if seg is not None:
            seg.destroy()

    def _disable_pool(self, reason: str) -> None:
        self._pool_disabled = True
        if self.parallel_disabled_reason is None:
            self.parallel_disabled_reason = reason
            if self._trace is not None:
                # Backend-specific by nature, so Handoff events are
                # excluded from cross-backend modeled-trace equality
                # (-1: decided before the first superstep ran).
                self._trace.emit(
                    Handoff(
                        superstep=getattr(
                            self._ctx, "superstep", -1
                        ),
                        from_path="parallel",
                        to_path="serial",
                        reason=reason,
                    )
                )

    def _init_payload(self, rank: int) -> Dict[str, Any]:
        fabric = self._fabric
        dense = fabric.dense
        start, stop = dense.ranges[rank]
        slice_states = fabric.dense_states[start:stop]
        payload = {
            "range": (start, stop),
            "program": self._program,
            "combiner": self._combiner,
            "track_bppa": self._tracker is not None,
            "agg_names": self._agg_list,
            "rng_state": self.rng.getstate(),
            "shm": (
                None
                if self._segment is None
                else self._segment.descriptor
            ),
        }
        if self._ship_snapshot:
            # Out-of-core shipping: the rank opens the memory-mapped
            # snapshot itself (_expand_snapshot_init) and rederives
            # topology, adjacency, and the dense index locally; only
            # this slice's mutable run state crosses the pipe.
            payload.update(
                snapshot_path=self._graph.path,
                partitioner=self._partitioner,
                num_workers=self._num_workers,
                values=[state.value for state in slice_states],
                halted=[state.halted for state in slice_states],
            )
            return payload
        payload.update(
            num_vertices=len(dense.id_of),
            idx_of=dense.idx_of,
            owner_of=dense.owner_of,
            states=[
                (
                    state.id,
                    state.value,
                    state.out_edges,
                    None
                    if state.in_edges is state.out_edges
                    else state.in_edges,
                    state.halted,
                )
                for state in slice_states
            ],
            dense_out=fabric.dense_out[start:stop],
            remote_out=fabric.remote_out[start:stop],
        )
        return payload

    def _reload_payload(self, rank: int) -> Dict[str, Any]:
        fabric = self._fabric
        dense = fabric.dense
        start, stop = dense.ranges[rank]
        dense_states = fabric.dense_states
        return {
            "states": [
                (
                    idx,
                    dense_states[idx].value,
                    dense_states[idx].halted,
                )
                for idx in range(start, stop)
            ],
            "rng_state": self.rng.getstate(),
            "program_state": getattr(self._program, "__dict__", {}),
        }

    def _start_pool(self) -> bool:
        """Spawn one process per worker and ship the partitions.
        Returns False (and disables the pool) on any failure."""
        try:
            self._program_blob = pickle.dumps(
                getattr(self._program, "__dict__", {}), _PROTO
            )
            pickle.dumps(self._program, _PROTO)
        except Exception as exc:
            self._disable_pool(f"program not picklable: {exc!r}")
            return False
        self._ship_snapshot = False
        if (
            is_graph_snapshot(self._graph)
            and self._graph.path is not None
        ):
            # Snapshot shipping additionally needs the partitioner on
            # the rank side; an unpicklable one just falls back to the
            # pickled-state payload, it does not cost the pool.
            try:
                pickle.dumps(self._partitioner, _PROTO)
            except Exception:
                pass
            else:
                self._ship_snapshot = True
        if (
            self._transport == "columnar"
            and self.transport_disabled_reason is None
        ):
            # Losing shared memory only costs the segment — the pool
            # still runs, every column riding the pipe.
            try:
                dense = self._fabric.dense
                self._segment = shm_transport.ColumnarSegment(
                    len(dense.id_of),
                    dense.ranges,
                    combining=self._combiner is not None,
                    tracking=self._tracker is not None,
                )
            except Exception as exc:
                self._segment = None
                self.transport_disabled_reason = (
                    f"shared memory unavailable: {exc!r}"
                )
        links: List[_WorkerLink] = []
        try:
            mp_ctx = multiprocessing.get_context(self._mp_method)
            for rank in range(self._num_workers):
                links.append(
                    _WorkerLink(
                        mp_ctx, rank, self._rank_heartbeat_interval
                    )
                )
            self._sync_links(links, range(self._num_workers))
        except Exception as exc:
            for link in links:
                link.kill()
            self._destroy_segment()
            self._disable_pool(f"pool startup failed: {exc!r}")
            return False
        self._links = links
        _track_pool(self)
        return True

    def _sync_links(self, links: List[_WorkerLink], fresh) -> None:
        """Ship every link its set-up payload — the full partition to
        the ranks in ``fresh``, only the current values to the others
        (topology cannot have changed while the pool is alive) — then
        wait for every rank's ``ready``; a rank's error reply is
        raised."""
        for link in links:
            if link.rank in fresh:
                msg = ("init", self._init_payload(link.rank))
            else:
                msg = ("reload", self._reload_payload(link.rank))
            _send_msg(link.conn, msg)
        for link in links:
            reply = self._recv_ready(link)
            if reply[0] != "ready":
                raise reply[1]

    def _recv_ready(self, link: _WorkerLink) -> Tuple:
        """One non-heartbeat reply from ``link``, polled with a
        deadline instead of a blocking ``recv`` — a rank that dies or
        wedges during init/reload must not wedge the coordinator."""
        deadline = time.monotonic() + self._pool_setup_timeout
        conn = link.conn
        while True:
            try:
                if conn.poll(0.05):
                    msg = _recv_msg(conn)
                    if msg[0] != "hb":
                        return msg
                    continue
                dead = (
                    not link.process.is_alive()
                    and not conn.poll(0)
                )
            except (EOFError, OSError) as exc:
                raise _RankFailure(
                    link.rank, f"pipe closed during setup ({exc!r})"
                )
            if dead:
                raise _RankFailure(
                    link.rank, "process died during setup"
                )
            if time.monotonic() > deadline:
                raise _RankFailure(
                    link.rank,
                    "stalled during setup: no reply within "
                    f"{self._pool_setup_timeout:g}s",
                )

    def _shutdown_pool(self, reason: Optional[str] = None) -> None:
        """Stop every pool process; with ``reason`` the shutdown is
        permanent (subsequent supersteps run serially)."""
        if reason is not None:
            self._disable_pool(reason)
        links = self._links
        self._links = None
        if links is not None:
            for link in links:
                link.stop()
        self._destroy_segment()

    def __del__(self):  # pragma: no cover - interpreter teardown
        try:
            self._shutdown_pool()
        except Exception:
            pass

    # -- engine overrides -------------------------------------------

    def run(self) -> PregelResult:
        try:
            return super().run()
        finally:
            self._shutdown_pool()

    def _compute_pass_fast(self, wake_all: bool) -> int:
        # Supervision loop: a rank death or stall aborts the (side-
        # effect-free) parallel pass and the pass retries on a fresh
        # pool until the restart budget runs out.
        while True:
            if self._pool_disabled:
                return super()._compute_pass_fast(wake_all)
            if self._links is None and not self._start_pool():
                return super()._compute_pass_fast(wake_all)
            try:
                return self._compute_pass_parallel(wake_all)
            except _RankFailure as failure:
                self._handle_rank_failure(failure)

    def _teardown_links(self) -> None:
        """Hard-kill every pool process without touching the
        degradation state (unlike ``_shutdown_pool``; also what the
        atexit sweep calls)."""
        links, self._links = self._links, None
        if links:
            for link in links:
                link.kill()
        self._destroy_segment()

    def _handle_rank_failure(self, failure: _RankFailure) -> None:
        """Account one rank failure, kill the whole pool, and either
        back off for a restart or degrade to serial for good.

        Nothing from the failed pass was applied — results merge only
        once every rank has replied — so the coordinator still holds
        the exact superstep boundary and the retry (parallel or
        serial) is byte-identical by construction.
        """
        superstep = getattr(self._ctx, "superstep", -1)
        self.rank_failures.append(
            (superstep, failure.rank, failure.reason)
        )
        self._teardown_links()
        self.rank_restarts += 1
        if self.rank_restarts > self._max_rank_restarts:
            self._disable_pool(
                f"rank {failure.rank} {failure.reason}; restart "
                f"budget ({self._max_rank_restarts}) exhausted"
            )
            return
        delay = min(
            self._rank_restart_backoff
            * (2 ** (self.rank_restarts - 1)),
            2.0,
        )
        if delay > 0:
            time.sleep(delay)

    def _reindex(self) -> None:
        # The ranks hold partitions of the old index.
        self._shutdown_pool("topology mutation re-indexed the dense plane")
        super()._reindex()

    def _recover(self, crash, superstep, stats):
        # Make the injected crash a real process death before the
        # stock rollback; _post_restore_sync respawns the rank.
        if self._links is not None:
            self._links[crash.worker % self._num_workers].kill()
        return super()._recover(crash, superstep, stats)

    def _post_restore_sync(self) -> None:
        """Called after a full rollback or a confined replay: respawn
        dead ranks with a fresh partition snapshot, reload the
        restored values into surviving ranks."""
        links = self._links
        if links is None:
            return
        try:
            reload_blob = pickle.dumps(
                getattr(self._program, "__dict__", {}), _PROTO
            )
            mp_ctx = multiprocessing.get_context(self._mp_method)
            respawned = set()
            for i, link in enumerate(links):
                if not link.alive:
                    link.kill()  # reap the pipe of the dead process
                    links[i] = _WorkerLink(
                        mp_ctx,
                        link.rank,
                        self._rank_heartbeat_interval,
                    )
                    respawned.add(link.rank)
            self._sync_links(links, respawned)
            self._program_blob = reload_blob
        except Exception as exc:
            self._shutdown_pool(f"post-restore resync failed: {exc!r}")

    # -- the parallel compute pass ----------------------------------

    def _compute_pass_parallel(self, wake_all: bool) -> int:
        links = self._links
        fabric = self._fabric
        seg = self._segment
        # Program state may have been mutated by master_compute since
        # the last superstep; ship it only when its bytes changed.
        try:
            program_state = getattr(self._program, "__dict__", {})
            blob = pickle.dumps(program_state, _PROTO)
        except Exception as exc:
            self._shutdown_pool(
                f"program state not picklable: {exc!r}"
            )
            return super()._compute_pass_fast(wake_all)
        ship_state = None
        if blob != self._program_blob:
            self._program_blob = blob
            ship_state = program_state
        inbound = fabric.rank_inbound(len(links))
        superstep = self._ctx.superstep
        agg_prev = self._agg_finalized
        # Kernel-tier verdict, decided here against the authoritative
        # fabric state so every rank is offered the same phase.
        phase = vector_phase(self, wake_all)
        down_bytes: List[int] = [0] * len(links)
        # Counts towards columnar_supersteps when every column of
        # every rank crossed in the segment, both ways.
        all_columnar = True
        for link in links:
            wire = shm_transport.encode_inbound(
                seg, link.rank, inbound[link.rank]._asdict()
            )
            all_columnar = all_columnar and not wire[1]
            try:
                down_bytes[link.rank] = _send_msg(
                    link.conn,
                    (
                        "step",
                        superstep,
                        wake_all,
                        agg_prev,
                        wire,
                        ship_state,
                        phase,
                    ),
                )
            except (EOFError, OSError, BrokenPipeError) as exc:
                # A dead rank is a restartable failure, not a
                # permanent degradation: nothing was applied, and the
                # supervisor in _compute_pass_fast retries the pass.
                raise _RankFailure(
                    link.rank, f"pipe closed on dispatch ({exc!r})"
                )
        replies, reply_bytes = self._collect_step_replies(links)
        for reply in replies:  # rank order = serial raise order
            if reply[0] == "err":
                raise reply[1]
        effects: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for link, (_ok, scalars, wire) in zip(links, replies):
            columns, columnar = shm_transport.decode_reply(
                seg, link.rank, wire
            )
            all_columnar = all_columnar and columnar
            scalars["payload_bytes"] = (
                down_bytes[link.rank] + reply_bytes[link.rank]
            )
            effects.append((scalars, columns))
        for scalars, _columns in effects:
            if scalars["broke"]:
                # A draw from the sequential shared RNG stream, or an
                # edge edit the coordinator's topology never saw:
                # discard the superstep (nothing was applied) and
                # re-execute it serially.
                self._shutdown_pool(scalars["broke"])
                return super()._compute_pass_fast(wake_all)
        if all_columnar:
            self.columnar_supersteps += 1
        return self._apply_parallel_results(effects)

    def _collect_step_replies(
        self, links: List[_WorkerLink]
    ) -> Tuple[List[Tuple], List[int]]:
        """Collect one step reply per rank with hang-aware deadline
        polling instead of blocking ``recv`` calls; returns the
        replies and each reply's pipe blob length in rank order.

        A rank's deadline is extended only when its heartbeat
        progress counter *advances*: a rank that is alive but stuck
        (infinite loop, blocked syscall, endless sleep) exhausts its
        deadline even though heartbeats keep arriving, while a slow
        rank that keeps executing vertices is never killed.  A dead
        process or closed pipe raises :class:`_RankFailure` at the
        next poll tick.
        """
        timeout = self._rank_stall_timeout
        now = time.monotonic()
        pending: Dict[int, _WorkerLink] = {
            link.rank: link for link in links
        }
        link_of = {link.conn: link for link in links}
        replies: Dict[int, Tuple] = {}
        reply_bytes: Dict[int, int] = {}
        progress: Dict[int, int] = {
            link.rank: -1 for link in links
        }
        deadline: Dict[int, float] = {
            link.rank: now + timeout for link in links
        }
        while pending:
            ready = mp_connection.wait(
                [link.conn for link in pending.values()],
                timeout=0.05,
            )
            now = time.monotonic()
            for conn in ready:
                link = link_of[conn]
                rank = link.rank
                try:
                    while rank in pending and conn.poll(0):
                        raw = conn.recv_bytes()
                        msg = pickle.loads(raw)
                        if msg[0] == "hb":
                            if msg[1] > progress[rank]:
                                progress[rank] = msg[1]
                                deadline[rank] = now + timeout
                        else:
                            replies[rank] = msg
                            reply_bytes[rank] = len(raw)
                            del pending[rank]
                except (EOFError, OSError) as exc:
                    raise _RankFailure(
                        rank, f"process lost mid-step ({exc!r})"
                    )
            for rank, link in pending.items():
                try:
                    has_data = link.conn.poll(0)
                except (EOFError, OSError):
                    has_data = False
                if not link.process.is_alive() and not has_data:
                    raise _RankFailure(
                        rank, "process died mid-step"
                    )
                if now > deadline[rank]:
                    raise _RankFailure(
                        rank,
                        "stalled: no progress within "
                        f"{timeout:g}s",
                    )
        return (
            [replies[link.rank] for link in links],
            [reply_bytes[link.rank] for link in links],
        )

    def _apply_parallel_results(
        self, effects: List[Tuple[Dict[str, Any], Dict[str, Any]]]
    ) -> int:
        """Replay the per-rank effect sets — ``(scalars, columns)``,
        as the ranks built them — into the coordinator's engine
        state, in fixed rank order (= serial execution order).
        Everything downstream — delivery, combining, fault draws,
        master compute — runs the unchanged serial code against this
        state."""
        fabric = self._fabric
        dense_states = fabric.dense_states
        id_of = fabric.dense.id_of
        agg_list = self._agg_list
        tracker = self._tracker
        workers = self._workers
        # Same per-pass stamp as the serial fast pass: each rank's
        # lane record commits through the fabric's own flush, so first
        # touches dedup across ranks in rank order.
        fabric.stamp += 1
        aggregate = self._aggregate
        mutation_log = self._ctx._mutations
        max_seconds = max(
            scalars["seconds"] for scalars, _columns in effects
        )
        active_count = 0
        tiers = set()
        for rank, (scalars, columns) in enumerate(effects):
            worker = workers[rank]
            worker.work = scalars["work"]
            worker.sent_logical = scalars["sent_logical"]
            worker.sent_remote = scalars["sent_remote"]
            worker.wall_seconds = scalars["seconds"]
            worker.barrier_seconds = max_seconds - scalars["seconds"]
            worker.payload_bytes = scalars["payload_bytes"]
            worker.kernel_tier = tier = scalars["kernel_tier"]
            tiers.add(tier)
            active_count += scalars["active"]
            executed = columns["executed"]
            for idx, value in zip(executed, columns["values"]):
                state = dense_states[idx]
                state.value = value
                state.halted = False
            for idx in columns["halted"]:
                dense_states[idx].halted = True
            fabric.lanes[rank].awake = None  # for a later serial pass
            record = LaneRecord(
                columns["touched"], columns["payloads"], columns["counts"]
            )
            if record.touched:
                # The serial flush's commit and spill point: the lane
                # is complete, delivery has not read it yet.
                fabric.flush_worker_sends(fabric.lanes[rank], record)
            if tracker is not None:
                for row in zip(
                    map(id_of.__getitem__, executed),
                    columns["tr_sent"],
                    columns["tr_recv"],
                    columns["tr_ops"],
                    columns["tr_size"],
                ):
                    tracker.record_vertex(*row)
            for index, value in zip(
                columns["agg_name"], columns["agg_val"]
            ):
                aggregate(agg_list[index], value)
            mut = columns.get("mutations")
            if mut is not None:
                mutation_log.remove_edges.extend(mut.remove_edges)
                mutation_log.remove_vertices.extend(
                    mut.remove_vertices
                )
                mutation_log.add_vertices.extend(mut.add_vertices)
                mutation_log.add_edges.extend(mut.add_edges)
        fabric.drain_inbox()
        self.parallel_supersteps += 1
        self._kernel_tier = (
            "mixed" if len(tiers) > 1 else next(iter(tiers), "dense")
        )
        return active_count


#: The name the issue/docs use for the backend class.
ParallelBackend = ParallelPregelEngine
