"""Process-parallel execution backend for the Pregel engine.

:class:`ParallelPregelEngine` runs the dense plane's per-worker
compute loops in **real OS processes** (one per simulated worker) while
keeping every observable byte of a run — ``PregelResult.values``,
``RunStats``, BPPA observations, the aggregate history, and the fault
draw sequence — identical to the serial
:class:`~repro.bsp.engine.PregelEngine`, which remains the default
backend (``docs/parallel_backend.md``).

The coordinator (this process) stays authoritative: it owns the
vertex states, aggregators, RNG, checkpoint store and fault injector,
and every message of the run is in its inbox or in the records it
holds.  A rank is started (and respawned, and resynced after a
recovery) by one ``init``: its slice of the coordinator's live dense
partition, a BPPA tracker over the slice and the run RNG state.  Each
superstep a rank merges its mail — the sub-records every rank
addressed to it, forwarded in source-rank order, or its share of the
coordinator's inbox — into its inbox columns, runs **the serial fast
path's own compute code** (:mod:`repro.bsp.kernels` over one
:class:`~repro.bsp.fabric.DenseLane`), and replies with its outbound
:class:`~repro.bsp.fabric.LaneRecord` grouped by owning rank, two
counts per destination rank, values and halted flags, aggregator
contributions, its tracker's maxima and its mutation log.  The
coordinator applies the replies in rank order (= serial execution
order), charges delivery from the counts and holds the records for
the next step to forward.

Each destination's messages reach its rank in source-rank order, the
order :meth:`~repro.bsp.fabric.MessageFabric.deliver_fast` appends
them in, and contributions fold through the coordinator's sink in
rank order, so combining, float sums and non-associative reducers see
the serial order.  Whenever the coordinator must read or change the
inbox itself, it hands the held records to its fabric's barrier, each
with its rank's first-touch order, as its own lanes would, and the
one merge delivers them.  Where real
processes cannot keep the contract (a program that is not
``parallel_safe``, a shared-RNG draw, an in-place edge edit, a
topology mutation, a rank lost past the restart budget) the backend
degrades to the serial path it inherits and says why.
``RunStats.wall`` records per-rank compute seconds, barrier wait and
pipe payload bytes: measurements, outside the byte-identity contract.
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
from collections import Counter
from contextlib import suppress
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Tuple

from repro.bsp.columns import typed_column
from repro.bsp.context import ComputeContext
from repro.bsp.engine import PregelEngine, PregelResult
from repro.bsp.fabric import DenseLane, LaneRecord, MailMerge
from repro.bsp.kernels import (
    compile_plan,
    lane_compute_pass,
    vector_phase,
)
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker
from repro.graph.graph import Graph
from repro.bsp.program import VertexProgram
from repro.metrics.bppa import BppaTracker
from repro.trace.events import Handoff

#: Pickle protocol for all pool traffic and for the program-state
#: change detection blobs (highest = fastest, and both sides of every
#: comparison use the same protocol).
_PROTO = pickle.HIGHEST_PROTOCOL

#: Recognised values of the engine's ``transport`` kwarg; both mean
#: the rank pipe, the one transport.  Held only for ``bench/surface.py``
#: until ROADMAP Fix-first (f) drops the keyword.
TRANSPORTS = ("auto", "columnar")

#: Rank supervision, read where it is used.  A rank that makes no
#: *progress* (per-vertex counter shipped by its heartbeat thread) for
#: ``RANK_STALL_TIMEOUT`` seconds is declared hung; a slow rank that
#: advances is never killed.
RANK_STALL_TIMEOUT = 60.0
#: Seconds between a rank's progress heartbeats (a process argument of
#: the rank, so a spawned rank sees the coordinator's value).
RANK_HEARTBEAT_INTERVAL = 0.25
#: Pool restarts per run after rank deaths or stalls before the run
#: degrades to the serial path for good.
MAX_RANK_RESTARTS = 2
#: Base of the backoff slept before each pool restart; doubles per
#: restart, capped at 2s.
RANK_RESTART_BACKOFF = 0.05
#: Setup replies have no heartbeat to extend their deadline with.
POOL_SETUP_TIMEOUT = 120.0


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
    """The pool's start method: ``"fork"`` where available (cheap: the
    child inherits loaded modules), else ``"spawn"``.  Both are
    supported and tested."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ---------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------


class _AggregateLog:
    """Rank-side aggregate sink: contributions are *logged* under
    their name's position in the coordinator's sorted name list (an
    unknown name raises the same KeyError) for it to fold in rank
    order."""

    def __init__(self, names):
        self.index = {name: i for i, name in enumerate(names)}
        self.names = array("q")
        self.values: List[Any] = []

    def aggregate(self, name: str, value: Any) -> None:
        self.names.append(self.index[name])
        self.values.append(value)

    def aggregate_many(self, name: str, values) -> None:
        index = self.index[name]
        before = len(self.values)
        self.values.extend(values)
        self.names.extend(repeat(index, len(self.values) - before))


class _PartitionRuntime:
    """One rank's resident partition: the second host of the dense
    compute plane (:mod:`repro.bsp.kernels`), next to the serial
    engine — one :class:`~repro.bsp.fabric.DenseLane` over the rank's
    slice, run by the serial engine's own loops and kernels.

    It supplies what a host owes the lane code (``_program``/``_ctx``/
    ``_tracker``/``num_vertices``/``_agg_sink``) and what differs
    across the process boundary: aggregate contributions are logged,
    and the lane's record is detached grouped by owning rank and
    shipped instead of handed to a fabric's barrier.  Mail comes in
    through the fabric's one merge, in ascending position order.
    :meth:`step` returns the effect set as columns,
    typed where they conform, for the reply message to carry.
    """

    def __init__(self, rank: int, init: Dict[str, Any]):
        self.num_vertices: int = init["num_vertices"]
        self.num_ranks: int = init["ranks"]
        span = init["range"]
        self._program: VertexProgram = init["program"]
        self._tracker: Optional[BppaTracker] = init["tracker"]
        self._agg_sink = _AggregateLog(init["agg_names"])
        self.rng = random.Random()
        self.rng.setstate(init["rng_state"])
        self._rng_baseline = init["rng_state"]
        states = []
        for vid, value, halted, *rows in init["states"]:
            state = VertexState.of_rows(vid, value, None, *rows)
            state.halted = halted
            states.append(state)
        self.states: List[VertexState] = states
        # The slice's arrays are indexed by local offset (dense idx -
        # range start), hence the base; each step merges its mail into
        # the inbox columns and clears them after the pass.  A frozen
        # row becomes a dict only if a per-vertex pass runs the lane.
        self.lane = lane = DenseLane(
            Worker(rank), span, span[0], states, None, init["adjacency"],
            init["idx_of"], init["owner_of"], init["combiner"],
            lambda positions, rows=init["rows"]: rows,
        )
        #: Compute passes started over the partition's lifetime (see
        #: :attr:`progress`).
        self._passes = 0
        self._mail = MailMerge(base=lane.base)
        self._shape = self._grouping = None  # the last regrouping
        self._ctx = ComputeContext(self.rng, self._agg_sink.aggregate)
        self._ctx._enqueue, self._ctx._fanout = lane.enqueue, lane.fanout

    @cached_property
    def _plan(self):
        """The lane's vectorized plan (``None`` when compilation
        bails), compiled on the first superstep the coordinator grants
        a phase for.  The plan depends only on topology, which is
        frozen while the partition lives; program parameters are read
        live each pass."""
        return compile_plan(self._program, self.lane)

    @property
    def progress(self) -> int:
        """Monotonic while the rank advances — passes started, then
        the position of the vertex executing within the pass — so the
        heartbeat can tell a slow rank from a stuck one."""
        return self._passes * (len(self.states) + 1) + self.lane.cur + 1

    def _by_rank(self, record: LaneRecord) -> Tuple[LaneRecord, List[int]]:
        """``record`` regrouped by owning rank, each group in record
        order, and the groups' sizes.  The regrouping depends on the
        record's shape only and is cached by it: a plan's records
        regroup once."""
        shape = record.touched, record.counts, len(record.payloads)
        if shape != self._shape:
            owners = list(map(self.lane.owner_of.__getitem__, record.touched))
            by_payload = owners if len(record.payloads) == len(owners) else (
                list(chain.from_iterable(map(repeat, owners, record.counts)))
            )
            perm = sorted(range(len(owners)), key=owners.__getitem__)
            tally = Counter(owners)
            self._shape, self._grouping = shape, (
                array("q", map(record.touched.__getitem__, perm)),
                array("q", map(record.counts.__getitem__, perm)),
                [tally[rank] for rank in range(self.num_ranks)],
                sorted(range(len(by_payload)), key=by_payload.__getitem__),
            )
        touched, counts, sizes, places = self._grouping
        return LaneRecord(touched, typed_column(
            list(map(record.payloads.__getitem__, places))
        ), counts), sizes

    # -- superstep execution ----------------------------------------

    def step(
        self,
        superstep: int,
        wake_all: bool,
        agg_prev: Dict[str, Any],
        inbound: List[LaneRecord],
        program_state: Optional[Dict[str, Any]],
        phase,
    ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Run my lane's share of one compute pass over my mail;
        return the effect set as ``(scalars, columns)``.

        With a ``phase`` (the coordinator's ``vector_phase`` verdict)
        the lane runs the vectorized kernel if its plan compiles.  The
        outbound record is grouped by destination rank: ``entries``,
        ``network`` and ``logical`` count each group's entries,
        payloads and messages; ``order`` is the first-touch order the
        serial flush would hand the barrier.
        """
        if program_state is not None:
            # master_compute mutated the program since the last ship.
            self._program.__dict__.clear()
            self._program.__dict__.update(program_state)
        lane = self.lane
        start = lane.start
        positions = self._mail.fill(
            [(None, record) for record in inbound], lane
        ).positions
        plan = self._plan if phase is not None else None
        # Arrivals only for a frontier walk, as in fast_compute_pass.
        lane.arrivals = positions if not wake_all and (
            phase == "gather" if plan is not None
            else lane.awake is not None
        ) else ()
        lane.worker.reset_counters()
        lane.cur = -1
        self._passes += 1
        self._ctx._begin_superstep(superstep, agg_prev, self.num_vertices)
        kernel_tier, executed, order, record = lane_compute_pass(
            self, lane, wake_all, phase, plan
        )
        lane.drain(positions)
        record, sizes = self._by_rank(record)
        cuts = list(accumulate(sizes, initial=0))
        logical = [
            sum(record.counts[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
        ]
        rng_state = self.rng.getstate()
        states = self.states
        # What the pass did that a partition may not, if anything (an
        # edge edit here would never reach the coordinator's copy).
        broke = None
        if rng_state != self._rng_baseline:
            broke = "program drew from the shared RNG stream"
        elif kernel_tier == "dense" and not all(
            lane.held_row(idx - start, states[idx - start].out_edges)
            is not None
            for idx in executed
        ):
            broke = "program edited out_edges in place"
        self._rng_baseline = rng_state
        worker = lane.worker
        log = self._agg_sink
        tracker = self._tracker
        scalars = {
            "active": len(executed),
            "work": worker.work,
            "sent_logical": worker.sent_logical,
            "sent_remote": worker.sent_remote,
            "broke": broke,
            "kernel_tier": kernel_tier,
            "entries": sizes,
            "network": logical if lane.combine is None else sizes,
            "logical": logical,
            "bppa": None if tracker is None else tracker.maxima(),
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
            "agg_name": log.names,
            "agg_val": typed_column(log.values),
            "order": array("q", order),
            **record._asdict(),
        }
        log.names, log.values = array("q"), []
        mutations = self._ctx._take_mutations()
        if mutations is not None:
            columns["mutations"] = mutations
        return scalars, columns


def _worker_main(rank: int, conn, hb_interval: float) -> None:
    """Command loop of one pool process (top-level: spawn-safe).

    A forked rank first closes the coordinator's pipe ends it
    inherited (:data:`_COORDINATOR_ENDS`), so once the coordinator
    dies nothing holds them open and the rank's next read is EOF.  A
    daemon thread sends the partition's progress every
    ``hb_interval`` seconds while a step runs (a hung rank's progress
    freezes, a slow one's advances); pipe writes share one lock.  The
    same thread is the orphan watchdog for a rank busy in compute when
    the coordinator dies: once the parent pid changes it calls
    ``os._exit``.
    """
    for end in _COORDINATOR_ENDS:  # empty in a spawned rank
        end.close()
    _COORDINATOR_ENDS.clear()
    part: Optional[_PartitionRuntime] = None
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
                os._exit(0)  # orphaned: the coordinator is gone
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
    while True:
        try:
            msg = _recv_msg(conn)
        except (EOFError, OSError):
            return
        cmd = msg[0]
        try:
            if cmd == "init":
                part = _PartitionRuntime(rank, msg[1])
                _send(("ready", rank))
            elif cmd == "step":
                t0 = time.perf_counter()
                stepping.set()
                try:
                    scalars, columns = part.step(*msg[1:])
                finally:
                    stepping.clear()
                scalars["seconds"] = time.perf_counter() - t0
                _send(("ok", scalars, columns))
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


# ---------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------


#: The coordinator's end of every live rank pipe.  A forked rank
#: inherits all of them, its own pipe's included, and closes them
#: before anything else (:func:`_worker_main`).
_COORDINATOR_ENDS: set = set()


class _WorkerLink:
    """A pool process and the coordinator's end of its pipe."""

    def __init__(self, mp_ctx, rank: int):
        self.rank = rank
        self.conn, child_conn = mp_ctx.Pipe()
        _COORDINATOR_ENDS.add(self.conn)
        with child_conn:
            try:
                self.process = mp_ctx.Process(
                    target=_worker_main,
                    args=(rank, child_conn, RANK_HEARTBEAT_INTERVAL),
                    daemon=True,
                    name=f"repro-bsp-worker-{rank}",
                )
                # A fork start leaks its first pipe if the second fails
                # (EMFILE): claim two first, so such a start fails here.
                pipes = mp_connection.Pipe(False) + mp_connection.Pipe(False)
                for end in pipes:
                    end.close()
                self.process.start()
            except BaseException:
                self._close()
                raise

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """Hard-stop the process.  SIGTERM first; if the rank has not
        exited shortly after — hung in compute, or ignoring signals —
        escalate to SIGKILL, so nothing survives ``kill()``."""
        process = self.process
        with suppress(Exception):
            process.terminate()
            process.join(timeout=2)
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        self._close()

    def stop(self) -> None:
        with suppress(Exception):
            _send_msg(self.conn, ("stop",))
        with suppress(Exception):
            self.process.join(timeout=1)
        if self.process.is_alive():
            self.kill()
        else:
            self._close()

    def _close(self) -> None:
        _COORDINATOR_ENDS.discard(self.conn)
        with suppress(Exception):
            self.conn.close()


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
    """:class:`PregelEngine` whose compute pass and delivery run on a
    persistent pool of worker processes, one per simulated worker.

    Accepts every ``PregelEngine`` parameter plus ``transport``
    (``"auto"`` / ``"columnar"``, both the rank pipe; see
    :data:`TRANSPORTS`).  Ranks start by :func:`default_start_method`;
    rank supervision is the module constants ``RANK_*`` /
    ``MAX_RANK_RESTARTS``.  :attr:`parallel_disabled_reason`,
    :attr:`parallel_supersteps`, :attr:`rank_restarts` and
    :attr:`rank_failures` say what a run actually did.
    """

    backend_name = "parallel"

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        *args,
        transport: str = "auto",
        **kwargs,
    ):
        if transport not in TRANSPORTS:
            raise ValueError(
                f"transport must be one of {TRANSPORTS}, got {transport!r}"
            )
        super().__init__(graph, program, *args, **kwargs)
        #: Sorted aggregator names; ranks log contributions by position.
        self._agg_list: List[str] = sorted(self._agg_sink.aggregators)
        self._links: Optional[List[_WorkerLink]] = None
        self._pool_disabled = False
        self._program_blob: Optional[bytes] = None
        #: Pool restarts performed after rank deaths/stalls.
        self.rank_restarts = 0
        #: One ``(superstep, rank, reason)`` per detected failure.
        self.rank_failures: List[Tuple[int, int, str]] = []
        #: Supersteps whose compute pass actually ran on the pool.
        self.parallel_supersteps = 0
        #: Pool supersteps whose every column of every rank, both
        #: ways, crossed as a typed ``array`` (:func:`typed_column`).
        #: Held only for ``bench/surface.py`` until ROADMAP Fix-first
        #: (f) drops it with the ``transport`` keyword.
        self.columnar_supersteps = 0
        #: Why the pool is (or became) unused; None while eligible.
        self.parallel_disabled_reason: Optional[str] = None
        if not getattr(program, "parallel_safe", True):
            self._disable_pool("program declares parallel_safe=False")

    # -- pool management --------------------------------------------

    def _disable_pool(self, reason: str) -> None:
        self._pool_disabled = True
        if self.parallel_disabled_reason is None:
            self.parallel_disabled_reason = reason
            if self._trace is not None:
                # Backend-specific by nature, so Handoff events are
                # excluded from cross-backend modeled-trace equality
                # (-1: decided before the first superstep ran).
                self._trace.emit(Handoff(
                    superstep=getattr(self._ctx, "superstep", -1),
                    from_path="parallel", to_path="serial", reason=reason,
                ))

    def _init_payload(self, rank: int) -> Dict[str, Any]:
        """The one way a rank is started, respawned or resynced: its
        slice of the coordinator's live dense partition, pickled."""
        fabric = self._fabric
        dense = fabric.dense
        start, stop = dense.ranges[rank]
        states = fabric.dense_states[start:stop]
        tracker = self._tracker
        return {
            "range": (start, stop),
            "ranks": len(dense.ranges),
            "program": self._program,
            "combiner": self._combiner,
            "tracker": None if tracker is None else tracker.restricted(
                dense.id_of[start:stop]
            ),
            "agg_names": self._agg_list,
            "rng_state": self.rng.getstate(),
            "num_vertices": len(dense.id_of),
            "idx_of": dense.idx_of,
            "owner_of": dense.owner_of,
            "states": [
                (s.id, s.value, s.halted, s.out_edges, s.in_edges)
                for s in states
            ],
            # Frozen rows as columns; a materialized one as its dict.
            "rows": self._store.topology.edge_rows(
                [s.row for s in states if s.out_edges is None]
            ),
            "adjacency": fabric.adjacency.rows(start, stop),
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
        links: List[_WorkerLink] = []
        try:
            mp_ctx = multiprocessing.get_context(default_start_method())
            for rank in range(self._num_workers):
                links.append(_WorkerLink(mp_ctx, rank))
            self._sync_links(links)
        except Exception as exc:
            for link in links:
                link.kill()
            self._disable_pool(f"pool startup failed: {exc!r}")
            return False
        self._links = links
        _track_pool(self)
        return True

    def _sync_links(self, links: List[_WorkerLink]) -> None:
        """Ship every link its ``init`` and wait for every rank's
        ``ready``; a rank's error reply is raised."""
        for link in links:
            _send_msg(link.conn, ("init", self._init_payload(link.rank)))
        replies, _ = self._collect_replies(
            links, POOL_SETUP_TIMEOUT, "setup"
        )
        for reply in replies:
            if reply[0] != "ready":
                raise reply[1]

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
        # pool, forwarding the same held records, until the restart
        # budget runs out.
        while not self._pool_disabled and (
            self._links is not None or self._start_pool()
        ):
            try:
                active = self._compute_pass_parallel(wake_all)
            except _RankFailure as failure:
                self._handle_rank_failure(failure)
                continue
            if active is not None:
                return active
        if self._release_held():
            # The serial pass reads the held mail from the inbox; the
            # barrier that held it charged the ledger already.
            self._fabric.deliver_fast(False)
            for worker in self._workers:
                worker.reset_counters()
        return super()._compute_pass_fast(wake_all)

    def _teardown_links(self) -> None:
        """Hard-kill every pool process without touching the
        degradation state (unlike ``_shutdown_pool``; also what the
        atexit sweep calls)."""
        links, self._links = self._links, None
        if links:
            for link in links:
                link.kill()

    def _handle_rank_failure(self, failure: _RankFailure) -> None:
        """Account one rank failure, kill the whole pool, and either
        back off for a restart or degrade to serial for good.  Nothing
        from the failed pass was applied (results apply only once
        every rank has replied), so the retry starts from the exact
        superstep boundary, held records included."""
        superstep = getattr(self._ctx, "superstep", -1)
        self.rank_failures.append(
            (superstep, failure.rank, failure.reason)
        )
        self._teardown_links()
        self.rank_restarts += 1
        if self.rank_restarts > MAX_RANK_RESTARTS:
            self._disable_pool(
                f"rank {failure.rank} {failure.reason}; restart "
                f"budget ({MAX_RANK_RESTARTS}) exhausted"
            )
            return
        delay = min(
            RANK_RESTART_BACKOFF * (2 ** (self.rank_restarts - 1)), 2.0
        )
        if delay > 0:
            time.sleep(delay)

    def _reindex(self) -> None:
        # The ranks hold partitions of the old index.
        self._shutdown_pool("topology mutation re-indexed the dense plane")
        super()._reindex()

    def _rollback(self, crash, superstep, stats, ckpt):
        # Make the injected crash a real process death before the
        # stock recovery (whose re-laid plane drops the held mail);
        # _post_restore_sync respawns the rank.
        if self._links is not None:
            self._links[crash.worker % self._num_workers].kill()
        return super()._rollback(crash, superstep, stats, ckpt)

    def _post_restore_sync(self) -> None:
        """Called after a rollback: respawn dead ranks, then
        re-``init`` every rank from the restored partition."""
        links = self._links
        if links is None:
            return
        try:
            blob = pickle.dumps(
                getattr(self._program, "__dict__", {}), _PROTO
            )
            mp_ctx = multiprocessing.get_context(default_start_method())
            for i, link in enumerate(links):
                if not link.alive:
                    link.kill()  # reap the pipe of the dead process
                    links[i] = _WorkerLink(mp_ctx, link.rank)
            self._sync_links(links)
            self._program_blob = blob
        except Exception as exc:
            self._shutdown_pool(f"post-restore resync failed: {exc!r}")

    # -- the parallel compute pass ----------------------------------

    def _compute_pass_parallel(self, wake_all: bool) -> Optional[int]:
        """The pass on the pool; ``None`` when the superstep must run
        serially instead (the pool has been shut down, nothing was
        applied)."""
        links = self._links
        fabric = self._fabric
        # Program state may have been mutated by master_compute since
        # the last superstep; ship it only when its bytes changed.
        try:
            program_state = getattr(self._program, "__dict__", {})
            blob = pickle.dumps(program_state, _PROTO)
        except Exception as exc:
            self._shutdown_pool(
                f"program state not picklable: {exc!r}"
            )
            return None
        ship_state = None
        if blob != self._program_blob:
            self._program_blob = blob
            ship_state = program_state
        held = fabric.held
        inbound = (
            [[record] for record in fabric.rank_inbound(len(links))]
            if held is None else self._forwarded(held)
        )
        superstep = self._ctx.superstep
        agg_prev = self._agg_finalized
        # Kernel-tier verdict, decided here against the authoritative
        # fabric state so every rank is offered the same phase.
        phase = vector_phase(self, wake_all)
        down_bytes: List[int] = [0] * len(links)
        for link in links:
            try:
                down_bytes[link.rank] = _send_msg(link.conn, (
                    "step", superstep, wake_all, agg_prev,
                    inbound[link.rank], ship_state, phase,
                ))
            except (EOFError, OSError, BrokenPipeError) as exc:
                # Restartable, not a degradation: nothing was applied
                # and the supervisor in _compute_pass_fast retries.
                raise _RankFailure(
                    link.rank, f"pipe closed on dispatch ({exc!r})"
                )
        replies, reply_bytes = self._collect_replies(
            links, RANK_STALL_TIMEOUT, "step"
        )
        for reply in replies:  # rank order = serial raise order
            if reply[0] == "err":
                raise reply[1]
        effects: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []
        for link, (_ok, scalars, columns) in zip(links, replies):
            scalars["payload_bytes"] = (
                down_bytes[link.rank] + reply_bytes[link.rank]
            )
            effects.append((scalars, columns))
        for scalars, _columns in effects:
            if scalars["broke"]:
                # A shared-RNG draw or an in-place edge edit: discard
                # the superstep (nothing was applied), rerun serially.
                self._shutdown_pool(scalars["broke"])
                return None
        if all(
            type(column) is array
            for records, (_scalars, columns) in zip(inbound, effects)
            for column in chain(*records, columns.values())
        ):
            self.columnar_supersteps += 1
        return self._apply_parallel_results(effects)

    def _collect_replies(
        self, links: List[_WorkerLink], timeout: float, during: str
    ) -> Tuple[List[Tuple], List[int]]:
        """Collect one non-heartbeat reply per rank by deadline
        polling; return the replies and their pipe blob lengths in
        rank order.  A rank's ``timeout`` deadline is extended only
        when its heartbeat progress *advances* (a stuck rank exhausts
        it while heartbeats arrive; setup sends none); a dead process
        or closed pipe raises :class:`_RankFailure` at the next tick.
        """
        now = time.monotonic()
        pending: Dict[int, _WorkerLink] = {link.rank: link for link in links}
        link_of = {link.conn: link for link in links}
        replies: Dict[int, Tuple] = {}
        reply_bytes: Dict[int, int] = {}
        progress: Dict[int, int] = {link.rank: -1 for link in links}
        deadline = {link.rank: now + timeout for link in links}
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
                        # The columns ride the blob: drop it as soon
                        # as they are unpickled.
                        size, msg = len(raw), pickle.loads(raw)
                        del raw
                        if msg[0] == "hb":
                            if msg[1] > progress[rank]:
                                progress[rank] = msg[1]
                                deadline[rank] = now + timeout
                        else:
                            replies[rank] = msg
                            reply_bytes[rank] = size
                            del pending[rank]
                except (EOFError, OSError) as exc:
                    raise _RankFailure(
                        rank, f"pipe closed during {during} ({exc!r})"
                    )
            for rank, link in pending.items():
                try:
                    has_data = link.conn.poll(0)
                except (EOFError, OSError):
                    has_data = False
                if not link.process.is_alive() and not has_data:
                    raise _RankFailure(
                        rank, f"process died during {during}"
                    )
                if now > deadline[rank]:
                    raise _RankFailure(
                        rank,
                        f"stalled during {during}: no progress within "
                        f"{timeout:g}s",
                    )
        return (
            [replies[link.rank] for link in links],
            [reply_bytes[link.rank] for link in links],
        )

    def _apply_parallel_results(
        self, effects: List[Tuple[Dict[str, Any], Dict[str, Any]]]
    ) -> int:
        """Apply the per-rank effect sets — ``(scalars, columns)``,
        as the ranks built them — to the coordinator's engine state,
        in fixed rank order (= serial execution order), and hold their
        outbound records for :meth:`_deliver`."""
        fabric = self._fabric
        dense_states = fabric.dense_states
        agg_list = self._agg_list
        aggregate_many = self._agg_sink.aggregate_many
        tracker = self._tracker
        workers = self._workers
        mutation_log = self._ctx._mutations
        max_seconds = max(scalars["seconds"] for scalars, _ in effects)
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
            # Plain loops: on CPython 3.11 they beat map(setattr, ...).
            for idx, value in zip(columns["executed"], columns["values"]):
                state = dense_states[idx]
                state.value = value
                state.halted = False
            for idx in columns["halted"]:
                dense_states[idx].halted = True
            fabric.lanes[rank].awake = None  # for a later serial pass
            if tracker is not None:
                tracker.fold(scalars["bppa"])
            # One left fold per run of one aggregator's contributions.
            values, end = columns["agg_val"], 0
            for index, run in groupby(columns["agg_name"]):
                begin, end = end, end + len(list(run))
                aggregate_many(agg_list[index], values[begin:end])
            mut = columns.get("mutations")
            if mut is not None:
                mutation_log.remove_edges.extend(mut.remove_edges)
                mutation_log.remove_vertices.extend(mut.remove_vertices)
                mutation_log.add_vertices.extend(mut.add_vertices)
                mutation_log.add_edges.extend(mut.add_edges)
        fabric.drain_inbox()
        fabric.held = effects
        self.parallel_supersteps += 1
        self._kernel_tier = (
            "mixed" if len(tiers) > 1 else next(iter(tiers), "dense")
        )
        return active_count

    def _forwarded(self, held) -> List[List[LaneRecord]]:
        """Every rank's inbound: the held sub-records addressed to it,
        in source-rank order — column slices, merged by the rank."""
        inbound: List[List[LaneRecord]] = [[] for _ in held]
        for scalars, columns in held:
            entries = list(accumulate(scalars["entries"], initial=0))
            data = list(accumulate(scalars["network"], initial=0))
            for dst, records in enumerate(inbound):
                lo, hi = entries[dst], entries[dst + 1]
                records.append(LaneRecord(
                    columns["touched"][lo:hi],
                    columns["payloads"][data[dst]:data[dst + 1]],
                    columns["counts"][lo:hi],
                ))
        return inbound

    def _release_held(self) -> bool:
        """Hand the held records to the fabric's barrier, each with
        its rank's first-touch order, for ``deliver_fast`` to merge;
        False when nothing is held."""
        fabric = self._fabric
        held, fabric.held = fabric.held, None
        if held is None:
            return False
        for rank, (_scalars, columns) in enumerate(held):
            fabric.flush_worker_sends(rank, columns["order"], LaneRecord(
                columns["touched"], columns["payloads"], columns["counts"]
            ))
        return True

    def _deliver(self, superstep: int, mutated: bool) -> int:
        """Charge the held records' delivery from the ranks' counts and
        keep holding them for the next step to forward.  The serial
        flush and delivery run instead when the coordinator must read
        or change the inbox: a mutation, a checkpoint due next or
        spill accounting."""
        fabric = self._fabric
        held = fabric.held
        if held is None or (
            mutated
            or fabric.memory_budget is not None
            or self._loop.policy.due(superstep + 1)
        ):
            self._release_held()
            return super()._deliver(superstep, mutated)
        # As deliver_fast counts: one network message per payload.
        workers = fabric.workers
        delivered = 0
        for source, (scalars, _columns) in zip(workers, held):
            network = scalars["network"]
            source.sent_network += sum(network)
            delivered += sum(network)
            for worker, count, logical in zip(
                workers, network, scalars["logical"]
            ):
                worker.received_network += count
                worker.received_logical += logical
        return delivered

