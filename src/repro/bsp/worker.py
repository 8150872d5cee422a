"""Simulated Pregel workers.

A worker accumulates the per-superstep profile — local work, messages
sent and received — that feeds the BSP cost model.  Which vertices it
owns is not recorded here: on the Pregel engine that is its dense
range in the fabric's :class:`~repro.graph.partition.DenseIndex`.  The
simulation executes workers sequentially but the semantics are those of
parallel execution: all compute() calls in a superstep observe only
messages from the previous superstep, and mutations apply only at the
superstep boundary.
"""

from __future__ import annotations

from typing import Sequence

from repro.metrics.stats import SuperstepStats


class Worker:
    """One simulated processor and its per-superstep counters."""

    __slots__ = (
        "index",
        "work",
        "sent_logical",
        "received_logical",
        "sent_network",
        "received_network",
        "sent_remote",
        "wall_seconds",
        "barrier_seconds",
        "payload_bytes",
        "kernel_tier",
    )

    def __init__(self, index: int):
        self.index = index
        self.work = 0.0
        self.sent_logical = 0
        self.received_logical = 0
        self.sent_network = 0
        self.received_network = 0
        self.sent_remote = 0
        # Measured seconds for the current superstep: time spent in
        # this worker's compute pass, and time idled at the barrier
        # waiting for the slowest worker.  Real measurements, not
        # modeled quantities — they feed RunStats.wall, which is
        # excluded from the byte-identity contract.
        self.wall_seconds = 0.0
        self.barrier_seconds = 0.0
        # Serialized bytes this worker's share of the superstep moved
        # across the process boundary (parallel backend pipes); 0 on
        # in-process backends.  A measurement like the wall columns,
        # outside the byte-identity contract.
        self.payload_bytes = 0
        # Which compute kernel executed this worker's share of the
        # superstep ("dense" / "vectorized").  Trace observability
        # only — like the wall columns, never part of the
        # byte-identity contract.
        self.kernel_tier = "dense"

    def reset_counters(self) -> None:
        """Zero the per-superstep profile."""
        self.work = 0.0
        self.sent_logical = 0
        self.received_logical = 0
        self.sent_network = 0
        self.received_network = 0
        self.sent_remote = 0
        self.wall_seconds = 0.0
        self.barrier_seconds = 0.0
        self.payload_bytes = 0
        self.kernel_tier = "dense"

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<Worker {self.index} work={self.work}>"


def superstep_profile(
    workers: Sequence[Worker],
    superstep: int,
    active: int,
    checkpoint_cost: float = 0.0,
    executions: int = 1,
) -> SuperstepStats:
    """Freeze the workers' per-superstep counters into one
    :class:`~repro.metrics.stats.SuperstepStats` entry.

    Called only by :meth:`~repro.bsp.loop.SuperstepLoop.commit_superstep`,
    for every engine (Pregel, GAS, block, async), so the per-worker
    column order and field mapping cannot drift between them.
    """
    return SuperstepStats(
        superstep=superstep,
        work=[w.work for w in workers],
        sent_logical=[w.sent_logical for w in workers],
        received_logical=[w.received_logical for w in workers],
        sent_network=[w.sent_network for w in workers],
        received_network=[w.received_network for w in workers],
        active_vertices=active,
        sent_remote=[w.sent_remote for w in workers],
        checkpoint_cost=checkpoint_cost,
        executions=executions,
    )
