"""The shared superstep loop: the one superstep lifecycle every engine
runs on.

This is the top layer of the decomposed runtime
(``docs/architecture.md``): one :class:`SuperstepLoop` drives the
Pregel engine, the GAS engine, the block engine, and (round-wise) the
async engine, and it is the only code that knows what it means to
open a superstep, commit one, write a checkpoint, or discard
supersteps on rollback.  The loop owns —

* the max-superstep guard (raise :class:`SuperstepLimitExceeded`, or
  stop gracefully for engines whose cap is a soft budget);
* the supervision stack: the fault injector (crashes armed at every
  superstep boundary, network faults drawn at every commit), the
  checkpoint store and its :class:`CheckpointPolicy` schedule, and
  the per-superstep ledgers — execution counts, crash counts,
  checkpoint charges — that a durable resume carries across processes
  (:mod:`repro.bsp.durability`);
* the superstep lifecycle: :meth:`SuperstepLoop.open_superstep` and
  :meth:`SuperstepLoop.commit_superstep`, whose trace events are
  identical for every engine, so
  :func:`repro.trace.recorder.stats_from_events` reconciles any hosted
  run's trace with its ``RunStats``;
* checkpoint-write accounting and the crash-supervision protocol:
  attempt bookkeeping, the ``FaultInjected`` crash event, exponential
  backoff, and the full-rollback discard (:meth:`SuperstepLoop.rollback`).

A host engine keeps only what really differs between engines,
reached through a small duck-typed protocol:

``_execute_superstep(superstep, stats) -> bool``
    Run one superstep between ``open_superstep`` and
    ``commit_superstep``; return True when the run is finished.
``_checkpoint(superstep) -> snapshot``
    Snapshot the host's state: anything with ``superstep`` and
    ``size`` (Pregel's columnar :class:`~repro.bsp.checkpoint.Checkpoint`,
    a payload :class:`~repro.bsp.checkpoint.EngineSnapshot` elsewhere).
``_rollback(crash, superstep, stats, ckpt) -> int``
    Recover from an injected crash; return the superstep to resume
    at.  Every host restores ``ckpt`` and returns
    :meth:`SuperstepLoop.rollback`; the Pregel engine's parallel
    backend first kills the crashed rank's real process.
``_run_context(stats) -> dict``
    Pregel only, called only when the store is durable
    (``checkpoint_dir``): the run-scoped state a fresh interpreter
    needs to resume from the checkpoint just written.

The GAS, block and async engines share one :class:`HostedEngine`
that implements the last three for them over a payload dict; each
keeps only its state layout, its superstep body and its
``_payload``/``_restore`` pair.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Tuple

from repro.bsp.checkpoint import CheckpointStore, EngineSnapshot, cow_copy
from repro.bsp.faults import FaultInjector, FaultPlan, inject_network_faults
from repro.bsp.worker import Worker, superstep_profile
from repro.errors import (
    RecoveryExhaustedError,
    SuperstepLimitExceeded,
    WorkerCrashError,
)
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats, SuperstepStats, peak_rss_bytes
from repro.trace.events import (
    Barrier,
    CheckpointWrite,
    FaultInjected,
    Rollback,
    SuperstepEnd,
    SuperstepStart,
    WorkerProfile,
)
from repro.trace.recorder import TraceRecorder, get_default_trace

#: How many times one superstep may crash and recover before the run
#: raises :class:`RecoveryExhaustedError`, on every engine.  Read
#: where it is used, like the pool's ``RANK_*`` constants.
MAX_RECOVERY_ATTEMPTS = 3


class CheckpointPolicy:
    """When to snapshot: the schedule every engine shares.

    Periodic checkpoints when ``interval`` is set; a crash-bearing
    fault plan forces at least the superstep-0 baseline so the run can
    always recover.  Message-only fault plans need no checkpoints
    (reliable delivery masks them).
    """

    def __init__(
        self,
        interval: Optional[int],
        fault_plan: Optional[FaultPlan],
        store,
    ):
        if interval is not None and interval < 1:
            raise ValueError(
                f"checkpoint_interval must be >= 1, got {interval!r}"
            )
        self.interval = interval
        self.fault_plan = fault_plan
        self.store = store

    @property
    def enabled(self) -> bool:
        return self.interval is not None or (
            self.fault_plan is not None
            and self.fault_plan.has_crashes
        )

    def due(self, superstep: int) -> bool:
        if not self.enabled:
            return False
        latest = self.store.latest
        if latest is None:
            return True  # the superstep-0 baseline
        if self.interval is None:
            return False
        return superstep - latest.superstep >= self.interval


class SuperstepLoop:
    """Drives a host engine superstep by superstep.

    Parameters
    ----------
    max_supersteps:
        The superstep bound.
    program_name:
        Used in the :class:`SuperstepLimitExceeded` message.
    num_workers:
        The host's worker count; injected crashes fold into range.
    cost_model:
        Charges checkpoint writes, replayed supersteps and the
        exponential recovery backoff.
    checkpoint_interval, fault_plan:
        The engine's fault-tolerance keywords, validated here for
        every engine (:class:`ValueError` naming the argument).  The
        loop builds the :class:`~repro.bsp.faults.FaultInjector`, the
        in-memory :class:`~repro.bsp.checkpoint.CheckpointStore` and
        the :class:`CheckpointPolicy` from them.
    trace:
        Optional recorder for the lifecycle, checkpoint, rollback and
        crash events.
    on_limit:
        ``"raise"`` (Pregel: exceeding the bound is an error) or
        ``"stop"`` (GAS/block/async: the bound is a soft budget —
        ``run`` returns False and the host reports
        ``converged=False``).
    """

    def __init__(
        self,
        *,
        max_supersteps: int,
        program_name: str,
        num_workers: int,
        cost_model: BSPCostModel,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace=None,
        on_limit: str = "raise",
    ):
        self.policy = CheckpointPolicy(
            checkpoint_interval, fault_plan, CheckpointStore()
        )
        self.max_supersteps = max_supersteps
        self.program_name = program_name
        self.num_workers = num_workers
        self.cost_model = cost_model
        self.injector = (
            FaultInjector(fault_plan, num_workers)
            if fault_plan is not None
            else None
        )
        self.trace = trace
        self.on_limit = on_limit
        # Per-superstep ledgers, keyed by superstep: executions (a
        # rolled-back superstep runs again), crashes (the recovery
        # budget) and the checkpoint charge written before it ran.
        self.exec_counts: Dict[int, int] = {}
        self.crash_counts: Dict[int, int] = {}
        self.ckpt_costs: Dict[int, float] = {}

    def reset(self) -> None:
        """Begin a run afresh, in place: empty ledgers and in-memory store,
        the fault plan from the top (a durable resume restores its own)."""
        self.exec_counts, self.crash_counts, self.ckpt_costs = {}, {}, {}
        if not self.policy.store.durable:
            self.policy.store.__init__()
        if self.injector is not None:
            self.injector.__init__(self.injector.plan, self.num_workers)

    def run(self, host, stats: RunStats, start_superstep: int = 0) -> bool:
        """Supervise ``host`` to termination.

        Returns True when the host reported completion, False when the
        superstep bound was hit under ``on_limit="stop"``.  Under
        ``on_limit="raise"`` hitting the bound raises
        :class:`SuperstepLimitExceeded` instead.  ``start_superstep``
        is nonzero only when resuming from a durable checkpoint
        (:mod:`repro.bsp.durability`): the loop continues exactly
        where the interrupted run's schedule left off.
        """
        injector = self.injector
        policy = self.policy
        superstep = start_superstep
        while True:
            if superstep >= self.max_supersteps:
                if self.on_limit == "raise":
                    raise SuperstepLimitExceeded(
                        self.max_supersteps, self.program_name
                    )
                return False
            if policy.due(superstep):
                self.write_checkpoint(host, superstep, stats)
            try:
                if injector is not None:
                    injector.begin_superstep(superstep)
                done = host._execute_superstep(superstep, stats)
            except WorkerCrashError as crash:
                superstep = self.recover(host, crash, superstep, stats)
                continue
            superstep += 1
            if done:
                return True

    # -----------------------------------------------------------------
    # The superstep lifecycle
    # -----------------------------------------------------------------

    def open_superstep(
        self, superstep: int, workers, path: str, backend: str
    ) -> None:
        """Begin one execution of ``superstep``: count it, emit
        ``SuperstepStart`` and zero the workers' per-superstep
        profile."""
        execution = self.exec_counts.get(superstep, 0) + 1
        self.exec_counts[superstep] = execution
        if self.trace is not None:
            emit_superstep_start(
                self.trace, superstep, execution, path, backend
            )
        for w in workers:
            w.reset_counters()

    def commit_superstep(
        self,
        stats: RunStats,
        workers,
        superstep: int,
        active: int,
        delivered: Optional[int] = None,
    ) -> None:
        """Draw the superstep's message faults over its network
        traffic (the one draw every engine makes), freeze the
        workers' profile into the superstep's ``RunStats`` entry —
        with the checkpoint charge written before it and its
        execution count — and emit the barrier block.  ``delivered``
        defaults to the logical messages received.
        """
        entry = superstep_profile(
            workers,
            superstep,
            active,
            checkpoint_cost=self.ckpt_costs.get(superstep, 0.0),
            executions=self.exec_counts.get(superstep, 1),
        )
        inject_network_faults(
            self.injector,
            sum(entry.received_network),
            stats,
            self.trace,
            superstep,
        )
        stats.supersteps.append(entry)
        if self.trace is not None:
            emit_superstep_commit(
                self.trace,
                workers,
                entry,
                self.cost_model,
                sum(entry.received_logical)
                if delivered is None
                else delivered,
            )

    # -----------------------------------------------------------------
    # Checkpoints and crash supervision
    # -----------------------------------------------------------------

    def write_checkpoint(
        self, host, superstep: int, stats: RunStats
    ) -> None:
        """Save the host's snapshot and charge it: ``c_ckpt`` per
        state atom, on the run and on the superstep about to run."""
        store = self.policy.store
        snap = store.save(host._checkpoint(superstep))
        cost = self.cost_model.checkpoint_cost(snap.size)
        stats.checkpoints_written += 1
        stats.checkpoint_cost += cost
        self.ckpt_costs[superstep] = cost
        if self.trace is not None:
            self.trace.emit(
                CheckpointWrite(
                    superstep=superstep, size=snap.size, cost=cost
                )
            )
        if store.durable:
            # Persist last, once all checkpoint accounting is done, so
            # the on-disk context matches the uninterrupted run's
            # state at this boundary exactly.
            store.persist(snap, host._run_context(stats))

    def recover(
        self,
        host,
        crash: WorkerCrashError,
        superstep: int,
        stats: RunStats,
    ) -> int:
        """The shared crash-supervision protocol.

        Bookkeeps the per-superstep attempt budget, emits the crash
        event, charges exponential backoff (the k-th retry of a
        superstep waits ``2^(k-1)`` sync periods) and hands off to the
        host's ``_rollback``; raises
        :class:`RecoveryExhaustedError` when the budget is exhausted
        or no checkpoint exists to restore from.
        """
        attempts = self.crash_counts.get(superstep, 0) + 1
        self.crash_counts[superstep] = attempts
        if self.trace is not None:
            self.trace.emit(
                FaultInjected(
                    superstep=superstep,
                    fault="crash",
                    worker=crash.worker % self.num_workers,
                    attempt=attempts,
                )
            )
        if attempts > MAX_RECOVERY_ATTEMPTS:
            raise RecoveryExhaustedError(superstep, attempts) from crash
        ckpt = self.policy.store.latest
        if ckpt is None:
            raise RecoveryExhaustedError(superstep, attempts) from crash

        stats.recovery_attempts += 1
        stats.backoff_cost += self.cost_model.L * (
            2 ** (attempts - 1)
        )
        return host._rollback(crash, superstep, stats, ckpt)

    def rollback(self, stats: RunStats, ckpt, restored: int) -> int:
        """Finish a full rollback to ``ckpt`` once the host has
        restored its ``restored`` vertices: the committed supersteps
        from ``ckpt.superstep`` on are discarded (their charge becomes
        replay cost — they will re-execute identically), and the
        superstep to resume at is returned."""
        discarded = stats.supersteps[ckpt.superstep:]
        for entry in discarded:
            stats.replay_cost += entry.cost(self.cost_model)
        stats.supersteps_replayed += len(discarded)
        del stats.supersteps[ckpt.superstep:]
        if self.trace is not None:
            self.trace.emit(
                Rollback(
                    superstep=ckpt.superstep,
                    restored_vertices=restored,
                    discarded_supersteps=len(discarded),
                )
            )
        return ckpt.superstep


# ---------------------------------------------------------------------
# The host of the paradigm engines
# ---------------------------------------------------------------------


@dataclass
class HostedResult:
    """What a hosted run returns: the values, the ``RunStats`` ledger
    and whether the run finished inside its superstep budget."""

    values: Dict[Hashable, Any]
    stats: RunStats
    #: False when the run stopped at its budget (a soft cap, not an
    #: error).
    converged: bool

    @property
    def num_supersteps(self) -> int:
        return self.stats.num_supersteps


class HostedEngine:
    """The paradigm engines' share of the runtime.

    Builds the cost model, the :class:`SuperstepLoop` (its superstep
    cap a soft budget: ``on_limit="stop"``) and one :class:`Worker`
    per worker; runs the loop into a ``RunStats``; snapshots the
    engine's state payload with copy-on-write copies
    (:class:`~repro.bsp.checkpoint.EngineSnapshot`) and finishes a
    rollback to one.  A subclass names itself in ``backend_name`` and
    supplies the rest of the loop's protocol:

    ``_execute_superstep(superstep, stats) -> bool``
        Its superstep body, between :meth:`_open` and :meth:`_commit`.
    ``_payload() -> dict`` / ``_restore(payload)``
        Its complete mutable run state as a dict of containers (read
        for a checkpoint, which copies it), and adopting such a dict
        (a private copy of the checkpoint's) on rollback.
    ``id_slots``
        The payload entries that hold only vertex ids.  They are
        copied one level deep, so the copy holds the very ids (an id
        may hash by identity); every other entry goes through
        :func:`~repro.bsp.checkpoint.cow_copy`, which shares dict keys.
    """

    id_slots: Tuple[str, ...] = ()

    def __init__(
        self,
        graph,
        program,
        num_workers: int,
        max_supersteps: int,
        cost_model: Optional[BSPCostModel],
        checkpoint_interval: Optional[int],
        fault_plan: Optional[FaultPlan],
        trace: Optional[TraceRecorder],
    ):
        self._graph = graph.freeze()
        self._program = program
        self._cost_model = cost_model or BSPCostModel()
        self._workers = [Worker(i) for i in range(num_workers)]
        self._loop = SuperstepLoop(
            max_supersteps=max_supersteps,
            program_name=getattr(
                program, "name", f"{self.backend_name}-program"
            ),
            num_workers=num_workers,
            cost_model=self._cost_model,
            checkpoint_interval=checkpoint_interval,
            fault_plan=fault_plan,
            trace=trace if trace is not None else get_default_trace(),
            on_limit="stop",
        )

    def _run_loop(self):
        """``(stats, finished)``: ``finished`` is False when the
        superstep budget stopped the run."""
        stats = RunStats(
            num_workers=len(self._workers), cost_model=self._cost_model
        )
        self._loop.reset()
        return stats, self._loop.run(self, stats)

    def _open(self, superstep: int) -> None:
        self._loop.open_superstep(
            superstep, self._workers, self.backend_name, self.backend_name
        )

    def _commit(self, stats, superstep, active, delivered=None) -> None:
        self._loop.commit_superstep(
            stats, self._workers, superstep, active, delivered
        )

    def _copy(self, payload: dict) -> dict:
        return {
            key: copy.copy(slot) if key in self.id_slots else cow_copy(slot)
            for key, slot in payload.items()
        }

    def _checkpoint(self, superstep: int) -> EngineSnapshot:
        return EngineSnapshot(
            superstep=superstep, payload=self._copy(self._payload())
        )

    def _rollback(self, crash, superstep: int, stats, ckpt) -> int:
        self._restore(self._copy(ckpt.payload))
        return self._loop.rollback(stats, ckpt, self._graph.num_vertices)


# ---------------------------------------------------------------------
# Shared trace emission
# ---------------------------------------------------------------------


def emit_superstep_start(
    trace, superstep: int, execution: int, path: str, backend: str
) -> None:
    """The superstep-opening lifecycle event, identical across
    engines (``path``/``backend`` are informational fields)."""
    trace.emit(
        SuperstepStart(
            superstep=superstep,
            execution=execution,
            path=path,
            backend=backend,
        )
    )


def emit_superstep_commit(
    trace,
    workers,
    entry: SuperstepStats,
    cost_model: BSPCostModel,
    delivered: int,
) -> None:
    """The barrier block: per-worker profiles in rank order, the
    h-relation, and the committed superstep's cost attribution.

    Byte-identical event construction for every engine, which is what
    lets :func:`repro.trace.recorder.stats_from_events` rebuild any
    hosted run's ``RunStats.supersteps`` from its trace.
    """
    superstep = entry.superstep
    for w in workers:
        trace.emit(
            WorkerProfile(
                superstep=superstep,
                worker=w.index,
                work=w.work,
                sent_logical=w.sent_logical,
                received_logical=w.received_logical,
                sent_network=w.sent_network,
                received_network=w.received_network,
                sent_remote=w.sent_remote,
                wall_seconds=w.wall_seconds,
                barrier_seconds=w.barrier_seconds,
                payload_bytes=w.payload_bytes,
                kernel_tier=w.kernel_tier,
            )
        )
    trace.emit(
        Barrier(
            superstep=superstep,
            h=entry.h,
            delivered=delivered,
            peak_rss_bytes=peak_rss_bytes() or 0,
        )
    )
    trace.emit(
        SuperstepEnd(
            superstep=superstep,
            active_vertices=entry.active_vertices,
            w=entry.w,
            h=entry.h,
            cost=entry.cost(cost_model),
            binding=entry.binding_term(cost_model),
            checkpoint_cost=entry.checkpoint_cost,
            execution=entry.executions,
        )
    )
