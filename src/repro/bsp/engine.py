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
protocol order.  Everything else is composed from the shared layers
that also host the GAS/block/async engines:

* :class:`~repro.bsp.loop.SuperstepLoop` — scheduling, the
  max-superstep guard, the checkpoint schedule
  (:class:`~repro.bsp.loop.CheckpointPolicy`), fault-injector arming,
  and the crash-supervision protocol;
* :class:`~repro.bsp.fabric.MessageFabric` — the run's mailbox
  layout (dense slots, or the dict-path oracle), the send/fanout
  entry points, combining, ledger accounting, and fault-injected
  delivery;
* :class:`~repro.bsp.state.StateStore` — the partitioned vertex
  states, the owner map, and the recovery bookkeeping (checkpoint
  store, confined-recovery logs);
* the compute kernels (:mod:`repro.bsp.kernels`) — the per-superstep
  vertex-execution loops for each mailbox layout.

One plane per run (``docs/performance.md``): an engine executes on
the dense plane from its first superstep to its last — topology
mutations re-index it in place at the barrier, rollbacks and confined
recovery restore into it — unless it was built with
``use_fast_path=False``, which makes it the dict-path oracle for its
whole run.  The two execute vertices, fold combiners, deliver
messages and draw injected faults in exactly the same order, so a run
produces **byte-identical** :class:`PregelResult` values, ``RunStats``,
and BPPA observations on either — including under checkpointing,
mutations and fault plans.  Real process parallelism over the dense
plane lives in :mod:`repro.bsp.parallel` and is selected with
``backend="parallel"`` via :func:`create_engine`/:func:`run_program`.

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
from functools import reduce
from typing import Any, Dict, Hashable, List, Optional

from repro.bsp.aggregator import SumAggregator
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
from repro.bsp.faults import FaultInjector, FaultPlan
from repro.bsp.kernels import (
    fast_compute_pass,
    has_vectorized_kernel,
    reference_compute_pass,
)
from repro.bsp.loop import (
    CheckpointPolicy,
    SuperstepLoop,
    emit_superstep_commit,
    emit_superstep_start,
)
from repro.bsp.program import VertexProgram
from repro.bsp.state import StateStore, apply_mutations, confined_replay
from repro.bsp.worker import superstep_profile
from repro.errors import WorkerCrashError
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner
from repro.metrics.bppa import BppaObservation, BppaTracker
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import (
    RunStats,
    SuperstepStats,
    SuperstepWall,
    peak_rss_bytes,
)
from repro.trace.events import CheckpointWrite
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
        run.  Crashes trigger rollback-and-replay; message faults are
        masked by reliable delivery and only add cost.
    max_recovery_attempts:
        How many times one superstep may crash-and-recover before the
        run raises :class:`~repro.errors.RecoveryExhaustedError`.
    confined_recovery:
        Recompute only the crashed worker's partition from logged
        messages instead of rolling every worker back (cheaper; falls
        back to full rollback when topology mutated since the last
        checkpoint; assumes ``compute`` does not draw from
        ``ctx.random``).  Runs on whichever plane the engine is on.
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
    use_fast_path:
        The run's execution plane, fixed here for the whole run.
        ``None``/``True`` (default): the dense plane.  ``False``: the
        reference dict path — the equivalence oracle the dense plane
        is tested against.  Nothing a program does (mutations, edge
        edits) or the run suffers (crashes, resume) changes it.
    use_vectorized:
        ``None`` (default): on the fast path, run supersteps through
        the program's registered vectorized kernel whenever its
        exact-reproduction proof holds, silently falling back to the
        per-vertex dense pass otherwise (fault-injected runs stay
        per-vertex throughout).  ``False``: never vectorize.
        ``True``: require the capability — raises
        :class:`ValueError` unless the engine is on the dense plane and
        the program class has a registered kernel (per-superstep fallback
        still applies; the tier actually used each superstep is
        recorded in ``SuperstepWall.kernel_tier`` and the workers'
        trace profiles).  Not part of the checkpoint fingerprint:
        the tiers are byte-identical, so resume across them is legal.
    memory_budget:
        Soft cap, in encoded bytes, on one superstep's buffered
        message volume on the dense fast path.  When set, finished
        accumulator lanes are byte-accounted in the shm-transport
        column encoding and lanes past the budget spill to disk,
        replayed in worker order at delivery — results stay
        byte-identical to an unbudgeted run.  ``None`` (default)
        disables the spill tier entirely.
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
        max_recovery_attempts: int = 3,
        confined_recovery: bool = False,
        checkpoint_dir: Optional[str] = None,
        resume=False,
        use_fast_path: Optional[bool] = None,
        use_vectorized: Optional[bool] = None,
        memory_budget: Optional[int] = None,
        spill_dir: Optional[str] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if memory_budget is not None and memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1 byte, got "
                f"{memory_budget!r}"
            )
        if checkpoint_interval is not None and checkpoint_interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got "
                f"{checkpoint_interval!r}"
            )
        if max_recovery_attempts < 0:
            raise ValueError(
                f"max_recovery_attempts must be >= 0, got "
                f"{max_recovery_attempts!r}"
            )
        if resume and checkpoint_dir is None:
            raise ValueError(
                "resume requires checkpoint_dir (the durable "
                "checkpoint directory to resume from)"
            )
        self._graph = graph
        self._program = program
        self._num_workers = num_workers
        self._combiner = combiner
        self._cost_model = cost_model or BSPCostModel()
        self._max_supersteps = max_supersteps
        self._trace = trace if trace is not None else get_default_trace()
        self.rng = random.Random(seed)

        partitioner = partitioner or HashPartitioner(num_workers)
        self._partitioner = partitioner
        self._store = StateStore(graph, program, partitioner, num_workers)
        # A checkpoint is columns over one frozen topology: freeze it
        # before any program code runs, iff one can ever be written.
        self._policy = CheckpointPolicy(
            checkpoint_interval, fault_plan, self._store.ckpt_store
        )
        if self._policy.enabled or checkpoint_dir is not None:
            self._store.freeze_baseline()

        self._tracker: Optional[BppaTracker] = None
        if track_bppa:
            degrees = {
                v: graph.total_degree(v) for v in graph.vertices()
            }
            self._tracker = BppaTracker(degrees)

        # Superstep-scoped structures: the aggregator registry and
        # master state here, every mailbox in the fabric (built last).
        self._ctx = ComputeContext(self)
        self._aggregators = dict(getattr(program, "aggregators", dict)())
        self._agg_current: Dict[str, Any] = {}
        self._agg_finalized: Dict[str, Any] = {}
        self._wake_all = False
        self._aggregate_history: List[Dict[str, Any]] = []

        # Fault tolerance: the loop owns the schedule and the crash
        # protocol; the store owns the snapshots and replay logs.
        self._checkpoint_interval = checkpoint_interval
        self._fault_plan = fault_plan
        self._injector = (
            FaultInjector(fault_plan, num_workers)
            if fault_plan is not None
            else None
        )
        self._max_recovery_attempts = max_recovery_attempts
        self._confined_recovery = confined_recovery
        # Durable checkpoints: swap the in-memory store for the
        # on-disk one (the fingerprint makes a resume against a
        # different configuration fail loudly — see
        # repro.bsp.durability).
        self._checkpoint_dir = checkpoint_dir
        self._resume_state = None
        if checkpoint_dir is not None:
            fingerprint = config_fingerprint(
                graph,
                program,
                num_workers=num_workers,
                seed=seed,
                checkpoint_interval=checkpoint_interval,
                max_recovery_attempts=max_recovery_attempts,
                confined_recovery=confined_recovery,
                track_bppa=track_bppa,
                combiner=combiner,
                partitioner=partitioner,
                cost_model=self._cost_model,
                fault_plan=fault_plan,
                baseline=self._store.baseline,
            )
            self._policy.store = self._store.ckpt_store = (
                open_durable_store(checkpoint_dir, fingerprint, resume)
            )
            self._resume_state = self._store.ckpt_store.resume_state()
        self._loop = SuperstepLoop(
            max_supersteps=max_supersteps,
            program_name=program.name,
            num_workers=num_workers,
            cost_model=self._cost_model,
            injector=self._injector,
            policy=self._policy,
            trace=self._trace,
            max_recovery_attempts=max_recovery_attempts,
            on_limit="raise",
        )
        self._exec_counts: Dict[int, int] = {}
        self._run_stats: Optional[RunStats] = None

        # The execution plane is a construction-time fact: dense
        # unless the caller asked for the dict-path oracle.
        self._fast_enabled = use_fast_path is None or bool(use_fast_path)
        if use_vectorized:
            if not self._fast_enabled:
                raise ValueError(
                    "use_vectorized=True requires the dense fast path "
                    "(it cannot combine with use_fast_path=False)"
                )
            if not has_vectorized_kernel(type(program)):
                raise ValueError(
                    "use_vectorized=True but no vectorized kernel is "
                    f"registered for {type(program).__name__}"
                )
        self._use_vectorized = use_vectorized
        self._kernel_tier = "reference"
        self._vector_kernel_cache = None

        # The fabric owns every mailbox and, on the dense plane, binds
        # ``_enqueue``/``_fanout`` to the executing lane.  Built last:
        # the dense arrays then reuse what the fingerprint freed.
        self._fabric = MessageFabric(
            self,
            self._store,
            combiner,
            memory_budget=memory_budget,
            spill_dir=spill_dir,
            dense=self._fast_enabled,
        )
        self._enqueue = self._fabric.enqueue
        self._fanout = self._fabric.fanout

    # ------------------------------------------------------------------
    # Layer views (compat surface shared with checkpoint/parallel code)
    # ------------------------------------------------------------------

    @property
    def _states(self) -> Dict[Hashable, Any]:
        return self._store.states

    @_states.setter
    def _states(self, states: Dict[Hashable, Any]) -> None:
        # A checkpoint restore swaps the whole dict; refresh the
        # fabric's hot-path mirror alongside the store.
        self._store.states = states
        self._fabric.states = states

    @property
    def _owner(self) -> Dict[Hashable, int]:
        return self._store.owner

    @_owner.setter
    def _owner(self, owner: Dict[Hashable, int]) -> None:
        self._store.owner = owner
        self._fabric.owner = owner

    @property
    def _workers(self):
        return self._store.workers

    @property
    def _ckpt_store(self):
        return self._store.ckpt_store

    @property
    def _ckpt_costs(self) -> Dict[int, float]:
        return self._store.ckpt_costs

    # ------------------------------------------------------------------
    # Engine services used by ComputeContext
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._store.states)

    @property
    def fast_path(self) -> bool:
        """True on the dense plane, False on the dict-path oracle —
        the same answer from construction to the end of the run."""
        return self._fabric.fast_active

    def has_vertex(self, vertex_id: Hashable) -> bool:
        return vertex_id in self._store.states

    def _aggregate(self, name: str, value: Any) -> None:
        # _agg_current is pre-seeded with every registered
        # aggregator's initial() at superstep start, so an unknown
        # name raises KeyError exactly as the registry lookup would.
        current = self._agg_current
        current[name] = self._aggregators[name].reduce(
            current[name], value
        )

    def _aggregate_many(self, name: str, values) -> None:
        """Fold ``values`` into aggregator ``name`` in order — the
        reduce sequence of one :meth:`_aggregate` call per value, in
        one bulk call (the vectorized kernels' contribution path)."""
        current = self._agg_current
        aggregator = self._aggregators[name]
        if type(aggregator) is SumAggregator:
            current[name] = sum(values, current[name])
        else:
            current[name] = reduce(
                aggregator.reduce, values, current[name]
            )

    # ------------------------------------------------------------------
    # Hooks the parallel backend overrides
    # ------------------------------------------------------------------

    def _post_restore_sync(self) -> None:
        """Hook invoked after a recovery — a full rollback
        (:func:`~repro.bsp.checkpoint.restore_checkpoint`) or a
        confined replay — has rewritten the engine state.  The serial
        engine needs nothing; the process-parallel backend overrides
        this to push the restored partitions back out to its worker
        processes (respawning any that were killed by an injected
        crash)."""

    def _reindex(self) -> None:
        """End of a barrier that applied topology mutations: the
        dense plane recompiles in place.  The parallel backend
        overrides this to retire the pool compiled for the old
        index."""
        self._fabric.reindex()

    def _inbox_snapshot_items(self):
        return self._fabric.inbox_snapshot_items()

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
        self._aggregate_history = []
        start_superstep = 0
        if self._resume_state is not None:
            ckpt, context = self._resume_state
            self._resume_state = None
            start_superstep, stats = resume_engine(self, ckpt, context)
        self._run_stats = stats
        tracker = self._tracker

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
        self._exec_counts[superstep] = (
            self._exec_counts.get(superstep, 0) + 1
        )
        trace = self._trace
        if trace is not None:
            emit_superstep_start(
                trace,
                superstep,
                self._exec_counts[superstep],
                "fast" if fabric.fast_active else "reference",
                self.backend_name,
            )

        for w in fabric.workers:
            w.reset_counters()
        fast = fabric.fast_active
        if not fast:
            fabric.reset_outbox()
        self._agg_current = {
            name: agg.initial()
            for name, agg in self._aggregators.items()
        }
        ctx._begin_superstep(superstep, self._agg_finalized)

        wake_all = self._wake_all or superstep == 0
        self._wake_all = False
        if self._confined_recovery:
            self._store.wake_log[superstep] = wake_all
        if fast:
            active_count = self._compute_pass_fast(wake_all)
        else:
            active_count = reference_compute_pass(self, wake_all)
        # Every send charged its worker, on either path.
        pending = sum(w.sent_logical for w in fabric.workers)
        if tracker is not None:
            tracker.record_superstep()

        # Aggregators reduced this superstep become visible next.
        self._agg_finalized = dict(self._agg_current)
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
        if fast:
            delivered = fabric.deliver_fast(superstep, mutated)
        else:
            delivered = fabric.deliver(superstep)
        if removed:
            # The senders' charges for messages to removed vertices
            # were reversed during delivery; the ownership entries can
            # now be reclaimed (re-added ids were already discarded
            # from ``removed`` by apply_mutations).
            owner = self._store.owner
            for vid in removed:
                owner.pop(vid, None)
        if mutated and fast:
            # The dense index no longer matches the topology:
            # recompile it in place, inbox carried across by id.
            self._reindex()
        entry = self._superstep_stats(superstep, active_count)
        stats.supersteps.append(entry)
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
        if trace is not None:
            # The barrier block: per-worker profiles in rank order
            # (on the parallel backend the coordinator filled the
            # Worker objects from the rank payloads in rank order, so
            # the merged stream is deterministic), the h-relation, and
            # the committed superstep's cost attribution.
            emit_superstep_commit(
                trace, fabric.workers, entry, self._cost_model, delivered
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
    # Checkpointing and recovery
    # ------------------------------------------------------------------

    def _write_checkpoint(
        self, superstep: int, stats: RunStats
    ) -> None:
        store = self._store
        ckpt = store.ckpt_store.save(take_checkpoint(self, superstep))
        cost = self._cost_model.checkpoint_cost(ckpt.size)
        stats.checkpoints_written += 1
        stats.checkpoint_cost += cost
        store.ckpt_costs[superstep] = cost
        store.mutated_since_checkpoint = False
        if self._trace is not None:
            self._trace.emit(
                CheckpointWrite(
                    superstep=superstep, size=ckpt.size, cost=cost
                )
            )
        if self._confined_recovery:
            # Logged messages before the checkpoint can never be
            # replayed again; reclaim them.
            store.prune_logs(superstep)
        if store.ckpt_store.durable:
            # Persist last, once all checkpoint accounting is done, so
            # the on-disk context matches the uninterrupted run's
            # state at this boundary exactly.
            store.ckpt_store.persist(
                ckpt, build_run_context(self, stats)
            )

    def _latest_checkpoint(self):
        return self._store.ckpt_store.latest

    def _recover(
        self, crash: WorkerCrashError, superstep: int, stats: RunStats
    ) -> int:
        """Handle an injected crash; return the superstep to resume
        at.  Delegates to the shared supervision protocol
        (:meth:`~repro.bsp.loop.SuperstepLoop.recover`), which calls
        back into :meth:`_rollback`."""
        return self._loop.recover(self, crash, superstep, stats)

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

        # Full rollback: discard the supersteps after the checkpoint
        # (their charge becomes replay cost — they will be re-executed
        # identically) and restore the snapshot.
        discarded = stats.supersteps[ckpt.superstep:]
        for entry in discarded:
            stats.replay_cost += entry.cost(self._cost_model)
        stats.supersteps_replayed += len(discarded)
        del stats.supersteps[ckpt.superstep:]
        restore_checkpoint(
            self, ckpt, discarded_supersteps=len(discarded)
        )
        return ckpt.superstep

    # ------------------------------------------------------------------
    # Superstep boundary
    # ------------------------------------------------------------------

    def _superstep_stats(
        self, superstep: int, active: int
    ) -> SuperstepStats:
        return superstep_profile(
            self._store.workers,
            superstep,
            active,
            checkpoint_cost=self._store.ckpt_costs.get(superstep, 0.0),
            executions=self._exec_counts.get(superstep, 1),
        )


# ---------------------------------------------------------------------
# Backend selection
# ---------------------------------------------------------------------

#: Names accepted by :func:`create_engine` / ``run_program(backend=)``.
BACKENDS = ("serial", "parallel")

_default_backend = "serial"


def set_default_backend(backend: str) -> None:
    """Set the engine backend used when none is passed explicitly.

    ``"serial"`` (the default and the correctness oracle) executes the
    logical workers one after another in-process; ``"parallel"``
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
    process parallelism cannot be byte-identical (the
    ``use_fast_path=False`` oracle, programs flagged
    ``parallel_safe=False`` — see ``docs/parallel_backend.md``), so
    selecting it is always safe.  Backend-specific kwargs pass
    through — notably the parallel backend's ``transport=`` tier
    selector.
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
