"""Execution statistics recorded by the simulated Pregel runtime.

The engine fills one :class:`SuperstepStats` per superstep with the
per-worker profiles the BSP cost model needs, and a :class:`RunStats`
aggregates them into the run-level quantities the paper compares:
superstep count, total messages, total work, BSP time ``T`` and the
time-processor product ``p * T``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.metrics.cost_model import BSPCostModel

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX hosts
    resource = None


def peak_rss_bytes() -> Optional[int]:
    """The process's peak resident set size in bytes, or ``None``
    where the ``resource`` module is unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalized to bytes here.  It is a process-*lifetime* high-water
    mark that is carried across ``fork`` + ``exec``: a child reports
    at least its parent's resident size at spawn, whatever the child
    itself does.  It covers the calling (coordinator) process only,
    never the pool's ranks.  So it bounds a run's memory from above
    and cannot compare two runs; the measuring method is
    ``bench/rss.py`` (``VmHWM`` after a ``clear_refs`` reset).
    """
    if resource is None:  # pragma: no cover - non-POSIX hosts
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - host dependent
        return int(peak)
    return int(peak) * 1024


@dataclass
class SuperstepWall:
    """Measured per-worker wall-clock profile of one superstep.

    Unlike :class:`SuperstepStats` — which records the *modeled* BSP
    quantities and is byte-identical across execution backends — this
    is a measurement of real seconds, so it differs run to run and
    backend to backend.  It lives outside the determinism contract
    (see :meth:`RunStats.__getstate__`).

    ``compute_seconds[i]`` is the time worker ``i`` spent in its
    compute pass.  ``barrier_seconds[i]`` is how long worker ``i``
    idled at the superstep barrier waiting for the slowest worker:
    ``max_j compute_seconds[j] - compute_seconds[i]``.  On the serial
    backends workers run one after another, so the barrier column is
    all zeros and ``compute_seconds`` are the sequential segment
    times; on the process-parallel backend both columns are real
    concurrency measurements, which makes the cost model's ``w``
    imbalance *observable* instead of merely modeled.

    ``payload_bytes[i]`` is the serialized bytes worker ``i``'s share
    of the superstep moved across the process boundary (dispatch +
    reply pipe blobs on the parallel backend, typed columns
    included).  ``None`` on in-process backends, where nothing
    crosses a boundary.

    ``kernel_tier`` names the compute kernel that executed the
    superstep (``"dense"``, ``"vectorized"``, or ``"mixed"`` when
    parallel ranks disagreed).  Observability like
    the wall columns — the tiers are byte-identical by construction,
    so the tier used is never part of the determinism contract
    (``None`` on engines predating the tier report).

    ``peak_rss_bytes`` is the coordinator process's lifetime
    high-water mark (:func:`peak_rss_bytes`: what the process
    inherited at spawn included, the ranks excluded) sampled as the
    superstep committed — a host reading like the wall columns,
    outside the determinism contract (``None`` on engines predating
    the memory report or on hosts without ``resource``).
    """

    superstep: int
    compute_seconds: List[float]
    barrier_seconds: List[float]
    payload_bytes: Optional[List[int]] = None
    kernel_tier: Optional[str] = None
    peak_rss_bytes: Optional[int] = None

    @property
    def elapsed(self) -> float:
        """Wall time the superstep's compute phase occupied: the
        slowest worker under parallel execution, the sum under serial
        execution — both equal ``max + barrier`` bookkeeping-wise, so
        we report the straggler bound."""
        return max(self.compute_seconds, default=0.0)

    @property
    def total_payload_bytes(self) -> int:
        """Serialized boundary bytes summed over workers (0 when the
        superstep ran in-process)."""
        if not self.payload_bytes:
            return 0
        return sum(self.payload_bytes)


@dataclass
class SuperstepStats:
    """Per-worker profile of one superstep.

    ``sent_logical``/``received_logical`` count every message a vertex
    program emitted/consumed; ``sent_network``/``received_network``
    count messages after sender-side combining — the traffic that would
    actually cross the interconnect.  The cost model's ``h`` uses
    network counts; local work ``w`` includes processing every logical
    message.
    """

    superstep: int
    work: List[float]
    sent_logical: List[int]
    received_logical: List[int]
    sent_network: List[int]
    received_network: List[int]
    active_vertices: int = 0
    #: Messages whose destination lives on a different worker —
    #: the traffic a locality-aware partitioner can reduce.
    sent_remote: List[int] = field(default_factory=list)
    #: Charge for the checkpoint written at this superstep's start
    #: (0.0 when none was written).
    checkpoint_cost: float = 0.0
    #: How many times this superstep ran, counting re-executions
    #: after a rollback (1 = never replayed).
    executions: int = 1

    @property
    def num_workers(self) -> int:
        return len(self.work)

    @property
    def w(self) -> float:
        """``max_i w_i`` — the slowest worker's local work."""
        return max(self.work, default=0.0)

    @property
    def h(self) -> float:
        """``max_i max(s_i, r_i)`` over network messages."""
        return max(
            (
                max(s, r)
                for s, r in zip(self.sent_network, self.received_network)
            ),
            default=0.0,
        )

    @property
    def total_work(self) -> float:
        return sum(self.work)

    @property
    def total_messages(self) -> int:
        """Logical messages sent in this superstep."""
        return sum(self.sent_logical)

    @property
    def total_network_messages(self) -> int:
        return sum(self.sent_network)

    @property
    def total_remote_messages(self) -> int:
        return sum(self.sent_remote)

    @property
    def total_received_logical(self) -> int:
        return sum(self.received_logical)

    @property
    def total_received_network(self) -> int:
        return sum(self.received_network)

    def ledger(self) -> Dict[str, int]:
        """The superstep's message books, as one dict.

        Delivery charges receives when sends are consumed, so on every
        execution path the books must balance; see
        :meth:`ledger_balanced` for the invariants.
        """
        return {
            "sent_logical": self.total_messages,
            "received_logical": self.total_received_logical,
            "sent_network": self.total_network_messages,
            "received_network": self.total_received_network,
            "sent_remote": self.total_remote_messages,
        }

    def ledger_balanced(self) -> bool:
        """Do the message books balance for this superstep?

        Invariants (independent of execution path, combiner, faults
        and mutations — dropped messages have their charges reversed):

        * every logical send was received: ``sent == received``
          (logical), likewise for network messages;
        * combining only ever reduces traffic:
          ``network <= logical``;
        * remote messages are a subset of logical sends:
          ``remote <= logical``.
        """
        sent = self.total_messages
        return (
            sent == self.total_received_logical
            and self.total_network_messages
            == self.total_received_network
            and self.total_network_messages <= sent
            and self.total_remote_messages <= sent
        )

    def cost(self, model: BSPCostModel) -> float:
        """The BSP charge ``max(w, g*h, L)`` for this superstep."""
        return model.superstep_cost(self.w, self.h)

    def binding_term(self, model: BSPCostModel) -> str:
        """Which term of ``max(w, g*h, L)`` set this superstep's
        charge: ``"w"`` (compute-bound), ``"gh"`` (communication-
        bound) or ``"L"`` (latency-bound).  Ties resolve in that
        priority order, so an idle superstep (all terms equal to
        zero-work defaults) still gets a single deterministic label.
        """
        w = self.w
        gh = model.g * self.h
        if w >= gh and w >= model.L:
            return "w"
        if gh >= model.L:
            return "gh"
        return "L"

    def imbalance(self) -> float:
        """``max_i w_i / mean_i w_i`` — 1.0 means perfectly balanced.

        Returns 1.0 for an idle superstep.
        """
        total = self.total_work
        if total == 0:
            return 1.0
        mean = total / self.num_workers
        return self.w / mean


@dataclass
class RunStats:
    """Aggregated statistics of one vertex-program run.

    The fault-tolerance counters are zero for a fault-free,
    checkpoint-free run, in which case ``recovery_overhead`` is 0.0
    and ``total_time`` equals ``bsp_time`` — existing cost analyses
    are unchanged.  Under checkpointing and fault injection,
    ``bsp_time`` remains the charge of the *committed* supersteps
    (the fault-free equivalent work) and ``recovery_cost`` collects
    everything paid on top: checkpoint writes, replayed supersteps,
    restart backoff, retransmissions, dedup traffic and barrier
    stalls.
    """

    num_workers: int
    cost_model: BSPCostModel = field(default_factory=BSPCostModel)
    supersteps: List[SuperstepStats] = field(default_factory=list)

    #: Measured per-superstep wall-clock profiles (real seconds), or
    #: ``None`` when the run recorded none.  Excluded from equality
    #: and from pickling: wall time is a property of the host and the
    #: execution backend, not of the computation, and the determinism
    #: contract ("byte-identical RunStats across backends") is over
    #: the modeled quantities only.
    wall: Optional[List[SuperstepWall]] = field(
        default=None, compare=False, repr=False
    )

    #: The coordinator process's lifetime high-water mark at run end
    #: (:func:`peak_rss_bytes` — an upper bound, not a measurement of
    #: this run), or ``None`` when not recorded.  A host reading like
    #: ``wall`` — excluded from equality and pickling likewise.
    peak_rss_bytes: Optional[int] = field(
        default=None, compare=False, repr=False
    )

    # -- fault-tolerance accounting (engine-maintained) ----------------
    #: Checkpoints written over the run.
    checkpoints_written: int = 0
    #: Total charge of those writes (``c_ckpt`` x snapshot atoms).
    checkpoint_cost: float = 0.0
    #: Supersteps re-executed after rollbacks.
    supersteps_replayed: int = 0
    #: BSP charge of the work that was rolled back and redone.
    replay_cost: float = 0.0
    #: Number of rollback/recovery events.
    recovery_attempts: int = 0
    #: Exponential-backoff charge accumulated across restarts.
    backoff_cost: float = 0.0
    #: Network messages retransmitted after simulated packet loss.
    retransmitted_messages: int = 0
    #: Duplicate network messages delivered and discarded.
    duplicate_messages: int = 0
    #: Supersteps whose barrier stalled waiting for a late packet.
    delay_stalls: int = 0

    def __getstate__(self):
        # Pickled RunStats drop the wall-clock measurements: two runs
        # that computed the same answer on different backends (or
        # hosts) must serialize to the same bytes.  The differential
        # harness and the benchmark's digests rely on this.
        state = dict(self.__dict__)
        state["wall"] = None
        state["peak_rss_bytes"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("wall", None)
        self.__dict__.setdefault("peak_rss_bytes", None)

    def record_wall(self, wall: SuperstepWall) -> None:
        """Append one superstep's measured wall profile."""
        if self.wall is None:
            self.wall = []
        self.wall.append(wall)

    @property
    def wall_seconds(self) -> float:
        """Total measured compute wall time (straggler-bounded sum
        over supersteps); 0.0 when nothing was recorded."""
        if not self.wall:
            return 0.0
        return sum(w.elapsed for w in self.wall)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def total_messages(self) -> int:
        """Logical messages over the whole run."""
        return sum(s.total_messages for s in self.supersteps)

    @property
    def total_network_messages(self) -> int:
        return sum(s.total_network_messages for s in self.supersteps)

    @property
    def total_remote_messages(self) -> int:
        """Cross-worker logical messages over the whole run."""
        return sum(s.total_remote_messages for s in self.supersteps)

    @property
    def total_work(self) -> float:
        """Total local work across all workers and supersteps."""
        return sum(s.total_work for s in self.supersteps)

    @property
    def bsp_time(self) -> float:
        """``T(n)``: the sum of superstep charges."""
        return sum(s.cost(self.cost_model) for s in self.supersteps)

    @property
    def time_processor_product(self) -> float:
        """``P(n) * T(n)`` — the paper's efficiency measure."""
        return self.num_workers * self.bsp_time

    @property
    def max_imbalance(self) -> float:
        """Worst per-superstep work imbalance over the run."""
        return max((s.imbalance() for s in self.supersteps), default=1.0)

    def ledger_balanced(self) -> bool:
        """Do the message books balance in every committed superstep?

        See :meth:`SuperstepStats.ledger_balanced`.
        """
        return all(s.ledger_balanced() for s in self.supersteps)

    # -- fault-tolerance derived quantities ----------------------------

    @property
    def recovery_cost(self) -> float:
        """Everything paid beyond the fault-free BSP time.

        Checkpoint writes + replayed-superstep charges + restart
        backoff + ``g`` per retransmitted/duplicate network message +
        ``L`` per stalled barrier.
        """
        model = self.cost_model
        return (
            self.checkpoint_cost
            + self.replay_cost
            + self.backoff_cost
            + model.g
            * (self.retransmitted_messages + self.duplicate_messages)
            + model.L * self.delay_stalls
        )

    @property
    def total_time(self) -> float:
        """Wall-clock-equivalent time including fault handling."""
        return self.bsp_time + self.recovery_cost

    @property
    def recovery_overhead(self) -> float:
        """``recovery_cost / bsp_time`` — 0.0 for a clean run.

        The factor by which fault tolerance inflated the run: a value
        of 0.25 means checkpoints + recovery cost a quarter of the
        fault-free time on top.
        """
        if self.bsp_time == 0:
            return 0.0
        return self.recovery_cost / self.bsp_time

    def summary(self) -> Dict[str, float]:
        """A plain-dict summary convenient for reports and tests."""
        return {
            "workers": self.num_workers,
            "supersteps": self.num_supersteps,
            "total_messages": self.total_messages,
            "total_network_messages": self.total_network_messages,
            "total_remote_messages": self.total_remote_messages,
            "total_work": self.total_work,
            "bsp_time": self.bsp_time,
            "time_processor_product": self.time_processor_product,
            "max_imbalance": self.max_imbalance,
            "checkpoints_written": self.checkpoints_written,
            "supersteps_replayed": self.supersteps_replayed,
            "recovery_attempts": self.recovery_attempts,
            "recovery_overhead": self.recovery_overhead,
            "total_time": self.total_time,
        }
