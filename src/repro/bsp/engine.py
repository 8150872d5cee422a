"""The simulated Pregel engine: a thin composition of the shared
runtime layers.

This is the substrate the paper's analysis assumes.  It executes real
``vertex.compute()`` programs with Pregel semantics:

* messages sent in superstep ``S`` are visible in superstep ``S + 1``;
* a vertex that votes to halt is skipped until a message wakes it;
* the run ends when every vertex is halted and no messages are in
  flight (or the master halts it);
* combiners reduce network traffic per (sending worker, destination);
* aggregator values reduced in ``S`` are readable in ``S + 1``;
* topology mutations requested in ``S`` apply before ``S + 1``.

Instead of real parallelism the engine *accounts* parallelism: every
superstep records per-worker local work ``w_i`` and message counts
``s_i``/``r_i``, from which the BSP cost model charges
``max(w, g·h, L)`` and the run reports the time-processor product
(§2.1).  An optional BPPA tracker observes per-vertex balance for the
§2.2 properties.

Layering (``docs/architecture.md``)
-----------------------------------

The engine itself owns only the Pregel-specific policy — aggregator
semantics, master compute, vote-to-halt termination, the superstep
protocol order — and how its state is snapshotted and restored.
Everything else is composed from the shared layers that also host the
GAS/block/async engines:

* :class:`~repro.bsp.loop.SuperstepLoop` — scheduling, the
  max-superstep guard, the superstep lifecycle (open, commit,
  checkpoint accounting, rollback discard), the checkpoint schedule
  (:class:`~repro.bsp.loop.CheckpointPolicy`), fault-injector arming,
  and the crash-supervision protocol;
* :class:`~repro.bsp.fabric.MessageFabric` — the dense mailboxes,
  the send/fanout entry points, combining, ledger accounting, and
  fault-injected delivery;
* :class:`~repro.bsp.state.StateStore` — the partitioned vertex
  states, the owner map, and the confined-recovery logs;
* the compute kernels (:mod:`repro.bsp.kernels`) — the per-superstep
  vertex-execution loop and the vectorized tier over it, which
  ``vector_phase`` engages for each superstep whose exactness proof
  holds for the program's registered kernel.

One plane (``docs/performance.md``): an engine executes on the dense
plane from its first superstep to its last — topology mutations
re-index it in place at the barrier, rollbacks and confined recovery
restore into it.  Real process parallelism over the same plane lives
in :mod:`repro.bsp.parallel` and is selected with
``backend="parallel"`` via :func:`create_engine`/:func:`run_program`;
both produce **byte-identical** :class:`PregelResult` values,
``RunStats`` and BPPA observations, including under checkpointing,
mutations and fault plans.  The differential suites hold them to a
Pregel interpreter that lives with the tests and shares no code with
this package (``docs/architecture.md``, "Oracle").

The fault-tolerance story (``docs/fault_tolerance.md``): with
``checkpoint_interval`` set the engine snapshots state at superstep
boundaries (:mod:`repro.bsp.checkpoint`), and with a ``fault_plan``
(:mod:`repro.bsp.faults`) it survives injected worker crashes by
rolling back and replaying — or, with ``confined_recovery``, by
recomputing only the crashed partition from logged messages.  Message
drop/duplicate/delay faults are masked by the simulated
reliable-delivery layer, so *any* faulted run that completes produces
byte-identical values to the fault-free run; only the cost accounting
(``RunStats.recovery_overhead``) differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.bsp.aggregator import AggregateSink
from repro.bsp.checkpoint import restore_checkpoint, take_checkpoint
from repro.bsp.combiner import Combiner
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.durability import (
    build_run_context,
    config_fingerprint,
    open_durable_store,
    resume_engine,
)
from repro.bsp.fabric import MessageFabric
from repro.bsp.faults import FaultPlan
from repro.bsp.kernels import fast_compute_pass
from repro.bsp.loop import SuperstepLoop
from repro.bsp.program import VertexProgram
from repro.bsp.state import StateStore, apply_mutations, confined_replay
from repro.errors import WorkerCrashError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.metrics.bppa import BppaObservation, BppaTracker
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats, SuperstepWall, peak_rss_bytes
from repro.trace.recorder import TraceRecorder, get_default_trace


@dataclass
class PregelResult:
    """Everything a run produces: answers plus measurements."""

    values: Dict[Hashable, Any]
    stats: RunStats
    bppa: Optional[BppaObservation]
    aggregate_history: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def num_supersteps(self) -> int:
        return self.stats.num_supersteps

    @property
    def time_processor_product(self) -> float:
        return self.stats.time_processor_product


class PregelEngine:
    """Runs one :class:`VertexProgram` over one graph.

    Parameters
    ----------
    graph:
        The input graph.  Undirected edges are materialized as two
        directed runtime edges, as Pregel does.
    program:
        The vertex program to execute.
    num_workers:
        The simulated processor count ``p``.
    partitioner:
        ``vertex_id -> worker_index`` (default: hash partitioning).
    combiner:
        Optional sender-side message combiner.
    cost_model:
        BSP parameters ``g``, ``L`` and the checkpoint-write
        bandwidth ``c_ckpt`` (default ``g = L = 1``).
    max_supersteps:
        Hard bound; exceeding it raises
        :class:`~repro.errors.SuperstepLimitExceeded`.
    track_bppa:
        Record per-vertex balance factors (costs one ``state_size``
        call per active vertex per superstep).
    seed:
        Seed for ``ctx.random`` so randomized programs are
        reproducible.
    checkpoint_interval:
        Snapshot engine state every this many supersteps (plus a
        baseline at superstep 0).  ``None`` disables periodic
        checkpoints; a fault plan with crashes still gets the
        baseline so recovery is possible.
    fault_plan:
        A :class:`~repro.bsp.faults.FaultPlan` to inject during the
        run.  Crashes trigger rollback-and-replay, at most
        :data:`~repro.bsp.loop.MAX_RECOVERY_ATTEMPTS` times per
        superstep; message faults are masked by reliable delivery and
        only add cost.
    confined_recovery:
        Recompute only the crashed worker's partition from logged
        messages instead of rolling every worker back (cheaper; falls
        back to full rollback when topology mutated since the last
        checkpoint; assumes ``compute`` does not draw from
        ``ctx.random``).
    checkpoint_dir:
        Directory for durable on-disk checkpoints
        (:mod:`repro.bsp.durability`): each scheduled checkpoint is
        also persisted atomically (CRC-32 checksum, fingerprinted
        manifest), so the run survives process death.
    resume:
        With ``checkpoint_dir``: ``True`` resumes from the newest
        intact durable checkpoint, byte-identically to the
        uninterrupted run (typed ``CheckpointError`` when there is
        none, ``FingerprintMismatchError`` for a directory written by
        a different configuration); ``"auto"`` resumes when possible
        and starts fresh otherwise.
    memory_budget:
        Soft cap, in encoded bytes, on one superstep's buffered
        message volume.  When set, finished lane records are
        byte-accounted in the typed-column encoding and records
        past the budget spill to disk, reloaded at delivery —
        results stay byte-identical to an unbudgeted run.
        ``None`` (default) disables the spill tier entirely.
    spill_dir:
        Directory for spill files (created if missing).  ``None``
        (default) uses a private temp directory, removed when the
        run finishes.
    trace:
        A :class:`~repro.trace.recorder.TraceRecorder` to receive the
        run's structured events (superstep lifecycle, per-worker
        profiles, checkpoint writes, rollbacks, injected faults, pool
        handoffs — see :mod:`repro.trace`).  ``None`` (default) falls
        back to the process-wide recorder set via
        :func:`~repro.trace.recorder.set_default_trace`, and tracing
        is off when neither is set — every emission site guards on a
        single ``None``-check, so an untraced run pays nothing else.
    """

    #: Which execution backend this engine class implements; the
    #: process-parallel subclass overrides it with ``"parallel"``.
    backend_name = "serial"

    def __init__(
        self,
        graph: Graph,
        program: VertexProgram,
        num_workers: int = 4,
        partitioner=None,
        combiner: Optional[Combiner] = None,
        cost_model: Optional[BSPCostModel] = None,
        max_supersteps: int = 100_000,
        track_bppa: bool = True,
        seed: int = 0,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        confined_recovery: bool = False,
        checkpoint_dir: Optional[str] = None,
        resume=False,
        memory_budget: Optional[int] = None,
        spill_dir: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got "
                f"{memory_budget!r}"
            )
        self._graph = graph
        self._program = program
        self._num_workers = num_workers
        self._combiner = combiner
        self._cost_model = cost_model or BSPCostModel()
        self._trace = trace if trace is not None else get_default_trace()
        # The loop owns the superstep lifecycle and the supervision
        # stack; building it validates the fault-tolerance keywords.
        self._loop = SuperstepLoop(
            max_supersteps=max_supersteps,
            program_name=program.name,
            num_workers=num_workers,
            cost_model=self._cost_model,
            checkpoint_interval=checkpoint_interval,
            fault_plan=fault_plan,
            trace=self._trace,
        )
        self._injector = self._loop.injector
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume requires checkpoint_dir (the durable "
                "checkpoint directory to resume from)"
            )
        self._seed = seed
        self.rng = random.Random(seed)

        partitioner = partitioner or HashPartitioner(num_workers)
        self._partitioner = partitioner
        self._store = StateStore(graph, program, partitioner, num_workers)
        # A checkpoint is columns over one frozen topology: freeze it
        # before any program code runs, iff one can ever be written.
        if self._loop.policy.enabled or checkpoint_dir is not None:
            self._store.freeze_baseline()

        self._tracker: Optional[BppaTracker] = None
        if track_bppa:
            degrees = {
                v: graph.total_degree(v) for v in graph.vertices()
            }
            self._tracker = BppaTracker(degrees)

        # Superstep-scoped structures: the aggregator sink and master
        # state here, every mailbox in the fabric (built last).  Each
        # layer is handed what it reads, never the engine: dropping
        # the engine frees a finished run by reference counting.
        self._agg_sink = AggregateSink(
            dict(getattr(program, "aggregators", dict)())
        )
        self._ctx = ComputeContext(self.rng, self._agg_sink.aggregate)
        self._agg_finalized: Dict[str, Any] = {}
        self._wake_all = False
        self._aggregate_history: List[Dict[str, Any]] = []

        self._confined_recovery = confined_recovery
        # Durable checkpoints: swap the loop's in-memory store for the
        # on-disk one (the fingerprint makes a resume against a
        # different configuration fail loudly — see
        # repro.bsp.durability).
        self._resume_state = None
        if checkpoint_dir is not None:
            fingerprint = config_fingerprint(
                graph,
                program,
                num_workers=num_workers,
                seed=seed,
                checkpoint_interval=checkpoint_interval,
                confined_recovery=confined_recovery,
                track_bppa=track_bppa,
                combiner=combiner,
                partitioner=partitioner,
                cost_model=self._cost_model,
                fault_plan=fault_plan,
                baseline=self._store.baseline,
            )
            store = open_durable_store(checkpoint_dir, fingerprint, resume)
            self._loop.policy.store = store
            self._resume_state = store.resume_state()

        self._kernel_tier = "dense"
        self._vector_kernel_cache = None

        # The fabric owns every mailbox and binds the context's sends
        # to the executing lane.  Built last: the dense arrays then
        # reuse what the fingerprint freed.
        self._fabric = MessageFabric(
            self._store,
            combiner,
            self._ctx,
            injector=self._injector,
            trace=self._trace,
            confined_recovery=confined_recovery,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
        )

    # ------------------------------------------------------------------
    # Layer views (compat surface shared with checkpoint/parallel code)
    # ------------------------------------------------------------------

    @property
    def _states(self) -> Dict[Hashable, Any]:
        return self._store.states

    @property
    def _workers(self):
        return self._store.workers

    @property
    def num_vertices(self) -> int:
        return len(self._store.states)

    # ------------------------------------------------------------------
    # Hooks the parallel backend overrides
    # ------------------------------------------------------------------

    def _post_restore_sync(self) -> None:
        """Hook invoked after a recovery (a full rollback or a
        confined replay) has rewritten the engine state.  The parallel
        backend re-initialises its ranks from it here."""

    def _deliver(self, superstep: int, mutated: bool) -> int:
        """Move the superstep's mail across the barrier."""
        return self._fabric.deliver_fast(superstep, mutated)

    def _reindex(self) -> None:
        """End of a barrier that applied topology mutations: the
        dense plane recompiles in place.  The parallel backend
        overrides this to retire the pool compiled for the old
        index."""
        self._fabric.reindex()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> PregelResult:
        """Execute the program to termination and return the result.

        The shared :class:`~repro.bsp.loop.SuperstepLoop` supervises
        the run: a checkpoint may be written before a superstep
        executes, an injected :class:`WorkerCrashError` rolls the run
        back to the last checkpoint (or triggers confined recovery)
        and execution resumes, with all recovery costs accounted in
        ``RunStats``.
        """
        stats = RunStats(
            num_workers=self._num_workers, cost_model=self._cost_model
        )
        # Every run starts from the initial state, not the last run's.
        self._aggregate_history, self._agg_finalized = [], {}
        self._wake_all = False
        self.rng.seed(self._seed)
        self._fabric.restart(self._program, self._graph)
        tracker = self._tracker
        if tracker is not None:
            tracker.observation = BppaObservation(n=tracker.observation.n)
        self._loop.reset()
        start_superstep = 0
        if self._resume_state is not None:
            ckpt, context = self._resume_state
            self._resume_state = None
            start_superstep, stats = resume_engine(self, ckpt, context)
        self._fabric.run_stats = stats

        try:
            self._loop.run(self, stats, start_superstep=start_superstep)
        finally:
            self._fabric.cleanup_spill()

        stats.peak_rss_bytes = peak_rss_bytes()
        if tracker is not None:
            tracker.observation.num_supersteps = stats.num_supersteps
        return PregelResult(
            values={
                v: s.value for v, s in self._store.states.items()
            },
            stats=stats,
            bppa=tracker.observation if tracker else None,
            aggregate_history=self._aggregate_history,
        )

    def _execute_superstep(
        self, superstep: int, stats: RunStats
    ) -> bool:
        """Run one superstep end to end; return True when the run is
        finished (master halt, or quiescence)."""
        program = self._program
        ctx = self._ctx
        tracker = self._tracker
        fabric = self._fabric
        self._loop.open_superstep(
            superstep, fabric.workers, "fast", self.backend_name
        )
        self._agg_sink.reset()
        ctx._begin_superstep(
            superstep, self._agg_finalized, len(self._store.states)
        )

        wake_all = self._wake_all or superstep == 0
        self._wake_all = False
        if self._confined_recovery:
            self._store.wake_log[superstep] = wake_all
        active_count = self._compute_pass_fast(wake_all)
        # Every send charged its worker.
        pending = sum(w.sent_logical for w in fabric.workers)
        if tracker is not None:
            tracker.record_superstep()

        # Aggregators reduced this superstep become visible next.
        self._agg_finalized = dict(self._agg_sink.current)
        self._aggregate_history.append(self._agg_finalized)

        master = MasterContext(
            superstep=superstep,
            aggregates=self._agg_finalized,
            num_active=active_count,
            num_vertices=len(self._store.states),
            pending_messages=pending,
        )
        program.master_compute(master)

        removed = apply_mutations(self)
        mutated = removed is not None
        delivered = self._deliver(superstep, mutated)
        if removed:
            # The senders' charges for messages to removed vertices
            # were reversed during delivery; the ownership entries can
            # now be reclaimed (re-added ids were already discarded
            # from ``removed`` by apply_mutations).
            owner = self._store.owner
            for vid in removed:
                owner.pop(vid, None)
        if mutated:
            # The dense index no longer matches the topology:
            # recompile it in place, inbox carried across by id.
            self._reindex()
        ws = fabric.workers
        stats.record_wall(
            SuperstepWall(
                superstep=superstep,
                compute_seconds=[w.wall_seconds for w in ws],
                barrier_seconds=[w.barrier_seconds for w in ws],
                payload_bytes=[w.payload_bytes for w in ws],
                kernel_tier=self._kernel_tier,
                peak_rss_bytes=peak_rss_bytes(),
            )
        )
        # A parallel coordinator filled the Workers from the rank
        # payloads in rank order: the committed profile is fixed.
        self._loop.commit_superstep(
            stats, ws, superstep, active_count, delivered
        )

        if master._halt:
            return True
        if master._activate_all:
            self._wake_all = True
        if delivered == 0 and not self._wake_all:
            if all(
                s.halted for s in self._store.states.values()
            ):
                return True
        return False

    def _compute_pass_fast(self, wake_all: bool) -> int:
        return fast_compute_pass(self, wake_all)

    # ------------------------------------------------------------------
    # Checkpointing and recovery (the loop does the accounting)
    # ------------------------------------------------------------------

    def _checkpoint(self, superstep: int):
        ckpt = take_checkpoint(self, superstep)
        store = self._store
        store.mutated_since_checkpoint = False
        if self._confined_recovery:
            # Logged messages before the checkpoint can never be
            # replayed again; reclaim them.
            store.prune_logs(superstep)
        return ckpt

    def _run_context(self, stats: RunStats) -> dict:
        return build_run_context(self, stats)

    def _rollback(
        self,
        crash: WorkerCrashError,
        superstep: int,
        stats: RunStats,
        ckpt,
    ) -> int:
        if (
            self._confined_recovery
            and not self._store.mutated_since_checkpoint
        ):
            confined_replay(self, crash, superstep, stats, ckpt)
            return superstep
        return self._loop.rollback(
            stats, ckpt, restore_checkpoint(self, ckpt)
        )


# ---------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------

#: Names accepted by :func:`create_engine` / ``run_program(backend=)``.
BACKENDS = ("serial", "parallel")

_default_backend = "serial"


def set_default_backend(backend: str) -> None:
    """Set the engine backend used when none is passed explicitly.

    ``"serial"`` (the default) executes the logical workers one after
    another in-process; ``"parallel"``
    executes them as real OS processes (:mod:`repro.bsp.parallel`)
    with byte-identical results.  Threaded through the CLI as
    ``repro-table1 --backend``.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {list(BACKENDS)}"
        )
    global _default_backend
    _default_backend = backend


def get_default_backend() -> str:
    """The backend :func:`create_engine` uses when none is given."""
    return _default_backend


def create_engine(
    graph: Graph,
    program: VertexProgram,
    backend: Optional[str] = None,
    **engine_kwargs,
) -> "PregelEngine":
    """Build an engine on the requested execution backend.

    ``backend=None`` uses :func:`get_default_backend`.  The parallel
    backend transparently degrades to serial execution whenever real
    process parallelism cannot be byte-identical (programs flagged
    ``parallel_safe=False`` — see ``docs/parallel_backend.md``), so
    selecting it is always safe.
    """
    backend = backend or _default_backend
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {list(BACKENDS)}"
        )
    if backend == "parallel":
        from repro.bsp.parallel import ParallelPregelEngine

        return ParallelPregelEngine(graph, program, **engine_kwargs)
    return PregelEngine(graph, program, **engine_kwargs)


def run_program(
    graph: Graph,
    program: VertexProgram,
    backend: Optional[str] = None,
    **engine_kwargs,
) -> PregelResult:
    """Convenience wrapper: build an engine and run ``program``.

    All :class:`PregelEngine` keyword arguments pass through —
    including the fault-tolerance surface — plus ``backend`` to pick
    the execution backend (:func:`create_engine`)::

        run_program(g, PageRank(), checkpoint_interval=5,
                    fault_plan=crash_plan(superstep=7))
        run_program(g, PageRank(), backend="parallel", num_workers=4)
    """
    return create_engine(
        graph, program, backend=backend, **engine_kwargs
    ).run()
