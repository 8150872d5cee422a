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
:class:`~repro.bsp.loop.HostedEngine` opens, commits, checkpoints and
rolls back rounds exactly as it does the GAS and block engines'
supersteps, and they are the ``RunStats`` entries, so ``trace=`` /
``fault_plan=`` / ``checkpoint_interval=`` behave identically across
engines.  The update order — and therefore every counter — is
byte-identical to an un-hosted schedule: round boundaries only group
the schedule, they never reorder it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.bsp.faults import FaultPlan
from repro.bsp.gas import GASProgram, gather
from repro.bsp.loop import HostedEngine, HostedResult
from repro.graph.graph import Graph
from repro.metrics.cost_model import BSPCostModel
from repro.trace.recorder import TraceRecorder


@dataclass
class AsyncResult(HostedResult):
    """Answers plus the async engine's cost counters.

    ``converged`` is True when the scheduler queue drained (a genuine
    fixpoint) and False when the run stopped at ``max_updates`` — in
    that case ``values`` and the counters reflect the partial
    computation at the moment the budget ran out, so callers can
    inspect how far a capped run got instead of losing everything to
    an exception.  ``stats`` holds one BSP-style entry per scheduler
    round, giving the async engine cost-model parity with the sync
    engines; ``num_supersteps`` counts the rounds.
    """

    updates: int
    edge_reads: int
    signals: int


class AsyncEngine(HostedEngine):
    """FIFO-scheduled asynchronous execution of a
    :class:`~repro.bsp.gas.GASProgram`.

    The schedule is deterministic: vertices start enqueued in sorted
    order and re-enqueue on signal (at most one pending entry per
    vertex, like GraphLab's set-scheduler).

    Takes the shared fault-tolerance surface (``checkpoint_interval``
    / ``fault_plan`` / ``trace``), applied at round granularity.
    """

    backend_name = "async"
    id_slots = ("queue", "queued")

    def __init__(
        self,
        graph: Graph,
        program: GASProgram,
        max_updates: int = 10_000_000,
        cost_model: Optional[BSPCostModel] = None,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        if max_updates < 0:
            raise ValueError(
                f"max_updates must be >= 0, got {max_updates}"
            )
        # A single logical worker runs the whole schedule; every round
        # can process at least one update, so ``max_updates + 1``
        # rounds always suffice to reach the budget or the fixpoint.
        super().__init__(
            graph, program, 1, max_updates + 1, cost_model,
            checkpoint_interval, fault_plan, trace,
        )
        self._max_updates = max_updates

    def _payload(self) -> dict:
        return {
            "values": self._values,
            "queue": list(self._queue),
            "queued": self._queued,
            "updates": self._updates,
            "edge_reads": self._edge_reads,
            "signals": self._signals,
            "converged": self._converged,
        }

    def _restore(self, payload: dict) -> None:
        self._values = payload["values"]
        self._queue = deque(payload["queue"])
        self._queued = payload["queued"]
        self._updates = payload["updates"]
        self._edge_reads = payload["edge_reads"]
        self._signals = payload["signals"]
        self._converged = payload["converged"]

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
        stats, finished = self._run_loop()
        return AsyncResult(
            values=self._values,
            updates=self._updates,
            edge_reads=self._edge_reads,
            signals=self._signals,
            converged=self._converged and finished,
            stats=stats,
        )

    def _execute_superstep(self, superstep: int, stats) -> bool:
        if not self._queue:
            return True
        if self._updates >= self._max_updates:
            self._converged = False
            return True
        self._open(superstep)
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
            sources = list(graph.in_edge_items(v))
            total = gather(
                program, values, self._out_degree, sources,
                program.identity(),
            )
            self._edge_reads += len(sources)
            old = values[v]
            new = program.apply(v, old, total)
            values[v] = new
            self._updates += 1
            processed += 1
            worker.work += 1 + len(sources)
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
        self._commit(stats, superstep, processed)
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
