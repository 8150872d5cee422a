"""Deterministic, seed-driven fault injection for the BSP runtime.

The paper's subject systems are built for unreliable clusters: Pregel
checkpoints every few supersteps and rolls back on worker failure;
its delivery layer retransmits lost packets and deduplicates repeats.
This module simulates that failure environment *reproducibly*: a
:class:`FaultPlan` is a declarative description of what goes wrong,
and a :class:`FaultInjector` replays it from a seed, so every faulted
run is exactly repeatable.

Two fault families are modelled:

**Worker crashes** (:class:`CrashFault`) kill a worker at the start
of a given superstep.  The engine recovers by rolling back to the
last checkpoint and replaying (``docs/fault_tolerance.md``).  A crash
spec fires ``times`` times: with ``times=1`` the replayed superstep
succeeds on the second attempt; with ``times`` larger than the
engine's retry budget the run raises
:class:`~repro.errors.RecoveryExhaustedError`.

**Message-level faults** (drop / duplicate / delay rates) strike the
simulated network: every engine draws a superstep's faults once, at
its commit, over the messages it delivered.  Crucially they are
*masked* by the runtime's reliable-delivery protocol — dropped packets
are retransmitted, duplicates are discarded by sequence number, and a
late packet stalls the superstep barrier until it arrives — so they
distort only the *cost* of the run (extra network traffic, extra
synchronization latency), never its semantics.  This mirrors the real
systems, whose BSP barrier guarantees exactly-once logical delivery,
and is what makes the determinism oracle possible: any faulted run
that completes returns byte-identical values to the fault-free run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import WorkerCrashError


@dataclass(frozen=True)
class CrashFault:
    """Kill ``worker`` at the start of ``superstep``, ``times`` times.

    ``times`` counts *executions* of the superstep: after each crash
    the engine rolls back and re-executes, and the fault fires again
    until its budget is spent.
    """

    superstep: int
    worker: int = 0
    times: int = 1

    def __post_init__(self):
        if self.superstep < 0:
            raise ValueError("crash superstep must be >= 0")
        if self.worker < 0:
            raise ValueError("crash worker must be >= 0")
        if self.times < 1:
            raise ValueError("crash times must be >= 1")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seed-driven failure scenario.

    Attributes
    ----------
    seed:
        Seeds the injector's private RNG (independent of the engine's
        program RNG, so fault decisions never perturb program
        randomness).
    crashes:
        Worker-crash specs, any number, any supersteps.
    drop_rate:
        Probability a network message is lost in transit and must be
        retransmitted.
    duplicate_rate:
        Probability a network message arrives twice (the extra copy
        is detected and discarded).
    delay_rate:
        Probability a network message arrives one barrier-wait late;
        any late packet in a superstep stalls that barrier once.
    name:
        Label for reports.
    """

    seed: int = 0
    crashes: Tuple[CrashFault, ...] = ()
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    name: str = "fault-plan"

    def __post_init__(self):
        for rate_name in ("drop_rate", "duplicate_rate", "delay_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(
                    f"{rate_name} must be in [0, 1), got {rate}"
                )
        # Tolerate a list of crashes; store a tuple (frozen dataclass).
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))

    @property
    def has_crashes(self) -> bool:
        return bool(self.crashes)

    @property
    def has_message_faults(self) -> bool:
        return (
            self.drop_rate > 0.0
            or self.duplicate_rate > 0.0
            or self.delay_rate > 0.0
        )

    def describe(self) -> str:
        parts = []
        for c in self.crashes:
            times = f"x{c.times}" if c.times != 1 else ""
            parts.append(
                f"crash(w{c.worker}@s{c.superstep}{times})"
            )
        if self.drop_rate:
            parts.append(f"drop={self.drop_rate:g}")
        if self.duplicate_rate:
            parts.append(f"dup={self.duplicate_rate:g}")
        if self.delay_rate:
            parts.append(f"delay={self.delay_rate:g}")
        spec = ", ".join(parts) if parts else "no faults"
        return f"{self.name}[{spec}; seed={self.seed}]"


@dataclass
class DeliveryFaults:
    """What the network did to one superstep's delivery."""

    retransmitted: int = 0
    duplicated: int = 0
    delayed: int = 0

    @property
    def stalled(self) -> bool:
        """Did any late packet stall the superstep barrier?"""
        return self.delayed > 0

    @property
    def any(self) -> bool:
        """Did the network misbehave at all this superstep?  Guards
        the engine's ``FaultInjected`` trace emission."""
        return bool(
            self.retransmitted or self.duplicated or self.delayed
        )


class FaultInjector:
    """Replays a :class:`FaultPlan` against one engine run.

    One injector serves one run: crash budgets count down as the
    engine (re-)executes supersteps, and the private RNG advances one
    draw per potential message fault, so the whole failure trace is a
    pure function of the plan and each executed superstep's network
    message count.
    """

    def __init__(self, plan: FaultPlan, num_workers: int = None):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._num_workers = num_workers
        # (superstep, worker) -> remaining firings, deterministic order.
        self._crash_budget: Dict[Tuple[int, int], int] = {}
        for crash in plan.crashes:
            worker = crash.worker
            if num_workers:
                worker %= num_workers
            key = (crash.superstep, worker)
            self._crash_budget[key] = (
                self._crash_budget.get(key, 0) + crash.times
            )

    # -- worker crashes -------------------------------------------------

    def begin_superstep(self, superstep: int) -> None:
        """Raise :class:`WorkerCrashError` if a crash fires here."""
        for key in sorted(self._crash_budget):
            s, worker = key
            if s != superstep or self._crash_budget[key] <= 0:
                continue
            self._crash_budget[key] -= 1
            raise WorkerCrashError(worker, superstep)

    # -- durable-checkpoint support -------------------------------------

    def snapshot_state(self) -> dict:
        """The injector's replay position, for a durable checkpoint.

        A resumed run must continue the fault trace exactly where the
        interrupted run left it: same RNG stream position, same
        remaining crash budgets.  Both halves are plain picklable
        values.
        """
        return {
            "rng_state": self._rng.getstate(),
            "crash_budget": dict(self._crash_budget),
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a position captured by :meth:`snapshot_state`."""
        self._rng.setstate(state["rng_state"])
        self._crash_budget = dict(state["crash_budget"])

    # -- message-level faults -------------------------------------------

    def network_faults(self, num_messages: int) -> DeliveryFaults:
        """Decide the fate of ``num_messages`` network messages.

        One independent draw per configured fault family per message,
        in a fixed order, and no other state: calls over widths
        ``w1 … wk`` consume exactly the stream of one call over their
        sum, so how a superstep's messages are batched (or which
        process delivered them) cannot change the draws.  The runtime
        masks every outcome (retransmit / dedup / barrier stall), so
        the return value is pure cost accounting.
        """
        plan = self.plan
        faults = DeliveryFaults()
        if not plan.has_message_faults or num_messages == 0:
            return faults
        rng = self._rng
        for _ in range(num_messages):
            if plan.drop_rate and rng.random() < plan.drop_rate:
                faults.retransmitted += 1
            if (
                plan.duplicate_rate
                and rng.random() < plan.duplicate_rate
            ):
                faults.duplicated += 1
            if plan.delay_rate and rng.random() < plan.delay_rate:
                faults.delayed += 1
        return faults


def inject_network_faults(
    injector, num_messages: int, stats, trace, superstep: int
) -> None:
    """Draw one superstep's message-level faults over its
    ``num_messages`` network messages and fold them into ``stats``.

    The single injection point, called by every engine at the
    superstep's commit (``SuperstepLoop.commit_superstep``), so a
    faulted run's cost accounting and ``FaultInjected`` stream have
    the same shape on every engine and backend.  No-op when
    ``injector`` is None.
    """
    if injector is None:
        return
    faults = injector.network_faults(num_messages)
    stats.retransmitted_messages += faults.retransmitted
    stats.duplicate_messages += faults.duplicated
    if faults.stalled:
        stats.delay_stalls += 1
    if trace is not None and faults.any:
        from repro.trace.events import FaultInjected

        trace.emit(
            FaultInjected(
                superstep=superstep,
                fault="network",
                retransmitted=faults.retransmitted,
                duplicated=faults.duplicated,
                delayed=faults.delayed,
            )
        )


# ---------------------------------------------------------------------
# Canonical plans (used by tests, the CLI smoke mode and the bench).
# ---------------------------------------------------------------------


def crash_plan(
    superstep: int, worker: int = 0, times: int = 1, seed: int = 0
) -> FaultPlan:
    """A single worker crash at ``superstep``."""
    return FaultPlan(
        seed=seed,
        crashes=(CrashFault(superstep, worker, times),),
        name="crash",
    )


def drop_plan(rate: float = 0.1, seed: int = 0) -> FaultPlan:
    """Lossy network: messages dropped (and retransmitted) at ``rate``."""
    return FaultPlan(seed=seed, drop_rate=rate, name="drop")


def duplicate_plan(rate: float = 0.1, seed: int = 0) -> FaultPlan:
    """Chatty network: messages duplicated (and deduplicated) at ``rate``."""
    return FaultPlan(seed=seed, duplicate_rate=rate, name="duplicate")


def chaos_plan(
    crash_superstep: int = 2,
    worker: int = 0,
    drop: float = 0.05,
    duplicate: float = 0.05,
    delay: float = 0.05,
    seed: int = 0,
) -> FaultPlan:
    """Everything at once: a crash plus a lossy, chatty, laggy network."""
    return FaultPlan(
        seed=seed,
        crashes=(CrashFault(crash_superstep, worker),),
        drop_rate=drop,
        duplicate_rate=duplicate,
        delay_rate=delay,
        name="chaos",
    )
