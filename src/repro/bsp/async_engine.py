"""An asynchronous executor (GraphLab-style) for GAS programs — the
third paradigm the paper's §1 surveys.

Asynchronous engines drop the superstep barrier: a scheduler hands out
one vertex at a time, its gather reads the *current* neighbor values,
and its scatter enqueues affected neighbors immediately.  For
monotone/contracting updates (shortest paths, components, PageRank)
this converges with far fewer total updates than the synchronous
wavefront — GraphLab's pitch, measurable here against the sync engines
on the same programs.

The accounting differs from BSP: there are no supersteps, so the
engine reports total *updates* (apply calls), *edge reads* (gather
work) and *signals* (scatter activations).  The benches compare these
against the synchronous engines' total work — barrier-free execution
trades the clean ``max(w, g·h, L)`` charge for update efficiency.

Hosted on the shared runtime (``docs/architecture.md``): the FIFO
schedule is chopped into *rounds* — each round drains the prefix of
the queue that existed when the round began, which is exactly
GraphLab's "iteration" notion for a FIFO set-scheduler.  Rounds play
the role supersteps play elsewhere: the
:class:`~repro.bsp.loop.SuperstepLoop` opens, commits, checkpoints and
rolls back rounds exactly as it does supersteps, and they are the
``RunStats`` entries, so ``trace=`` / ``fault_plan=`` /
``checkpoint_interval=`` behave identically across engines.  The
update order — and therefore every counter — is byte-identical to the
un-hosted engine: round boundaries only group the schedule, they never
reorder it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.bsp.checkpoint import EngineSnapshot, cow_copy
from repro.bsp.faults import FaultPlan
from repro.bsp.gas import GASProgram, NeighborView
from repro.bsp.loop import SuperstepLoop
from repro.bsp.worker import Worker
from repro.graph.graph import Graph
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats
from repro.trace.recorder import TraceRecorder, get_default_trace


@dataclass
class AsyncResult:
    """Answers plus the async engine's cost counters.

    ``converged`` is True when the scheduler queue drained (a genuine
    fixpoint) and False when the run stopped at ``max_updates`` — in
    that case ``values`` and the counters reflect the partial
    computation at the moment the budget ran out, so callers can
    inspect how far a capped run got instead of losing everything to
    an exception.
    """

    values: Dict[Hashable, Any]
    updates: int
    edge_reads: int
    signals: int
    converged: bool
    #: Per-round BSP-style accounting (one entry per scheduler round),
    #: giving the async engine cost-model parity with the sync engines.
    stats: Optional[RunStats] = None

    @property
    def num_supersteps(self) -> int:
        """Scheduler rounds executed (the async analogue of
        supersteps)."""
        return self.stats.num_supersteps if self.stats is not None else 0


class AsyncEngine:
    """FIFO-scheduled asynchronous execution of a
    :class:`~repro.bsp.gas.GASProgram`.

    The schedule is deterministic: vertices start enqueued in sorted
    order and re-enqueue on signal (at most one pending entry per
    vertex, like GraphLab's set-scheduler).

    Accepts the shared fault-tolerance surface
    (``checkpoint_interval`` / ``fault_plan`` /
    ``max_recovery_attempts`` / ``trace``), applied at round
    granularity.
    """

    backend_name = "async"

    def __init__(
        self,
        graph: Graph,
        program: GASProgram,
        max_updates: int = 10_000_000,
        cost_model: Optional[BSPCostModel] = None,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_recovery_attempts: int = 3,
        trace: Optional[TraceRecorder] = None,
    ):
        if max_updates < 0:
            raise ValueError(
                f"max_updates must be >= 0, got {max_updates}"
            )
        self._graph = graph
        self._program = program
        self._max_updates = max_updates
        self._cost_model = cost_model or BSPCostModel()

        # Scheduler state, (re)initialized per run and snapshotted by
        # the recovery layer.
        self._values: Dict[Hashable, Any] = {}
        self._out_degree: Dict[Hashable, int] = {}
        self._queue: deque = deque()
        self._queued: Set[Hashable] = set()
        self._updates = 0
        self._edge_reads = 0
        self._signals = 0
        self._converged = True

        # A single logical worker runs the whole schedule; every round
        # can process at least one update, so ``max_updates + 1``
        # rounds always suffice to reach the budget or the fixpoint.
        self._workers = [Worker(0)]
        self._loop = SuperstepLoop(
            max_supersteps=max_updates + 1,
            program_name=getattr(program, "name", "async-program"),
            num_workers=1,
            cost_model=self._cost_model,
            checkpoint_interval=checkpoint_interval,
            fault_plan=fault_plan,
            max_recovery_attempts=max_recovery_attempts,
            trace=trace if trace is not None else get_default_trace(),
            on_limit="stop",
        )

    # -- the snapshot a checkpoint holds and a rollback restores ----

    def _checkpoint(self, superstep: int) -> EngineSnapshot:
        return EngineSnapshot(
            superstep=superstep,
            payload={
                "values": {
                    v: cow_copy(val) for v, val in self._values.items()
                },
                "queue": list(self._queue),
                "queued": set(self._queued),
                "updates": self._updates,
                "edge_reads": self._edge_reads,
                "signals": self._signals,
                "converged": self._converged,
            },
        )

    def _rollback(self, crash, superstep: int, stats, ckpt) -> int:
        payload = ckpt.payload
        self._values = {
            v: cow_copy(val) for v, val in payload["values"].items()
        }
        self._queue = deque(payload["queue"])
        self._queued = set(payload["queued"])
        self._updates = payload["updates"]
        self._edge_reads = payload["edge_reads"]
        self._signals = payload["signals"]
        self._converged = payload["converged"]
        return self._loop.rollback(stats, ckpt, len(self._values))

    # -- the hosted schedule ----------------------------------------

    def run(self) -> AsyncResult:
        """Execute to the fixpoint, or to the ``max_updates`` budget.

        A run that exhausts its budget returns the partial result with
        ``converged=False`` (it does not raise), so the update/read/
        signal counters of the truncated schedule are preserved.
        """
        graph = self._graph
        program = self._program
        self._values = {
            v: program.initial_value(v, graph)
            for v in graph.vertices()
        }
        self._out_degree = {
            v: graph.out_degree(v) for v in graph.vertices()
        }
        self._queue = deque(sorted(graph.vertices(), key=repr))
        self._queued = set(self._queue)
        self._updates = 0
        self._edge_reads = 0
        self._signals = 0
        self._converged = True

        stats = RunStats(
            num_workers=1, cost_model=self._cost_model
        )
        ran_out = not self._loop.run(self, stats)
        return AsyncResult(
            values=self._values,
            updates=self._updates,
            edge_reads=self._edge_reads,
            signals=self._signals,
            converged=self._converged and not ran_out,
            stats=stats,
        )

    def _execute_superstep(
        self, superstep: int, stats: RunStats
    ) -> bool:
        if not self._queue:
            return True
        if self._updates >= self._max_updates:
            self._converged = False
            return True
        self._loop.open_superstep(
            superstep, self._workers, "async", self.backend_name
        )
        graph = self._graph
        program = self._program
        values = self._values
        queue = self._queue
        queued = self._queued
        worker = self._workers[0]
        seg_start = time.perf_counter()

        # Drain the prefix that existed at round start; signals raised
        # during the round land in the next round's prefix.
        round_size = len(queue)
        processed = 0
        for _ in range(round_size):
            if self._updates >= self._max_updates:
                break
            v = queue.popleft()
            queued.discard(v)
            total = program.identity()
            gathered = 0
            for u in graph.in_neighbors(v):
                view = NeighborView(
                    id=u,
                    value=values[u],
                    out_degree=self._out_degree[u],
                )
                contribution = program.gather(
                    view, graph.weight(u, v)
                )
                total = (
                    contribution
                    if total is None
                    else program.fold(total, contribution)
                )
                gathered += 1
            self._edge_reads += gathered
            old = values[v]
            new = program.apply(v, old, total)
            values[v] = new
            self._updates += 1
            processed += 1
            worker.work += 1 + gathered
            if program.should_scatter(old, new):
                for u in graph.neighbors(v):
                    self._signals += 1
                    # Signals stay on the single logical worker, so
                    # they are logical-only traffic: network counters
                    # stay at zero, as barrier-free shared-memory
                    # execution should.
                    worker.sent_logical += 1
                    worker.received_logical += 1
                    if u not in queued:
                        queued.add(u)
                        queue.append(u)

        worker.wall_seconds = time.perf_counter() - seg_start
        self._loop.commit_superstep(
            stats, self._workers, superstep, processed, network=True
        )
        # Decide termination here rather than in an extra (empty)
        # round, so the checkpoint policy never snapshots a round that
        # commits no entry.
        if not queue:
            return True
        if self._updates >= self._max_updates:
            self._converged = False
            return True
        return False


def run_async(
    graph: Graph, program: GASProgram, **engine_kwargs
) -> AsyncResult:
    """Convenience wrapper mirroring :func:`repro.bsp.run_gas`."""
    return AsyncEngine(graph, program, **engine_kwargs).run()
