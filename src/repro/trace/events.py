"""Typed trace events emitted by the BSP runtime.

Every event is a frozen dataclass with three pieces of class-level
metadata:

* ``kind`` — the wire tag used in JSONL serialization;
* ``comparable`` — whether the event participates in cross-backend
  modeled-trace equality.  :class:`Handoff` is the only
  non-comparable kind: whether the pool steps aside (and why) is
  backend-specific by construction;
* ``informational`` — field names carried for humans but excluded
  from :meth:`TraceEvent.modeled_key`: measured wall-clock seconds
  (host- and backend-dependent, mirroring
  :class:`~repro.metrics.stats.SuperstepWall`) and the execution-path
  labels on :class:`SuperstepStart` (the dense fast path and the
  reference path are byte-identical over modeled quantities, so the
  label must not break equality).

The determinism contract is therefore: two runs of the same workload
on any of the three execution paths produce identical sequences of
``modeled_key()`` tuples (see :func:`repro.trace.recorder.
modeled_equal`), while wall fields and path labels ride along for
reports.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, ClassVar, Dict, FrozenSet, Tuple, Type


@dataclass(frozen=True)
class TraceEvent:
    """Base class for all trace events."""

    kind: ClassVar[str] = "event"
    #: Whether this event takes part in modeled-trace equality.
    comparable: ClassVar[bool] = True
    #: Field names excluded from :meth:`modeled_key` (measurements,
    #: path labels).
    informational: ClassVar[FrozenSet[str]] = frozenset()

    def modeled_key(self) -> Tuple:
        """The event reduced to its modeled quantities.

        A ``(kind, field, value, field, value, ...)`` tuple with
        informational fields stripped; the unit of comparison for
        :func:`repro.trace.recorder.modeled_equal`.
        """
        key: list = [self.kind]
        for f in dataclasses.fields(self):
            if f.name in self.informational:
                continue
            key.append(f.name)
            key.append(getattr(self, f.name))
        return tuple(key)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (``kind`` plus every field)."""
        d: Dict[str, Any] = {"kind": self.kind}
        for f in dataclasses.fields(self):
            d[f.name] = getattr(self, f.name)
        return d


@dataclass(frozen=True)
class SuperstepStart(TraceEvent):
    """A superstep's compute pass is about to run.

    ``execution`` counts attempts (1 = first execution; higher values
    mean the superstep is re-executing after a rollback).  ``path``
    and ``backend`` say *where* it ran — informational, because the
    paths are byte-identical over modeled quantities.
    """

    superstep: int
    execution: int = 1
    path: str = "reference"
    backend: str = "serial"

    kind: ClassVar[str] = "superstep_start"
    informational: ClassVar[FrozenSet[str]] = frozenset(
        {"path", "backend"}
    )


@dataclass(frozen=True)
class WorkerProfile(TraceEvent):
    """One worker's per-superstep profile — the ``w_i``/``s_i``/``r_i``
    row the BSP cost model charges from, plus its measured wall
    seconds (informational).

    On the process-parallel backend these are the per-rank profiles
    merged by the coordinator in rank order at the barrier, so the
    event sequence is deterministic even though the ranks ran
    concurrently.
    """

    superstep: int
    worker: int
    work: float
    sent_logical: int
    received_logical: int
    sent_network: int
    received_network: int
    sent_remote: int
    wall_seconds: float = 0.0
    barrier_seconds: float = 0.0
    #: Serialized bytes this worker's superstep share moved across
    #: the process boundary (parallel backend); informational like
    #: the wall columns — a transport measurement, not a modeled
    #: quantity.
    payload_bytes: int = 0
    #: Which compute kernel executed this worker's share of the
    #: superstep ("reference" / "dense" / "vectorized"); informational
    #: — the tiers are byte-identical, so which one ran is never part
    #: of the reconciliation surface.
    kernel_tier: str = "reference"

    kind: ClassVar[str] = "worker_profile"
    informational: ClassVar[FrozenSet[str]] = frozenset(
        {"wall_seconds", "barrier_seconds", "payload_bytes", "kernel_tier"}
    )


@dataclass(frozen=True)
class Barrier(TraceEvent):
    """The superstep's synchronization barrier: every worker finished
    its compute pass and delivery moved ``delivered`` logical messages
    (an ``h``-relation of size ``h``) into the next superstep's
    mailboxes.

    ``peak_rss_bytes`` is the coordinating process's peak resident
    set size sampled at the barrier — a host measurement like the
    worker wall columns, informational by the same rule (0 on events
    predating the memory report or on hosts without ``resource``).
    """

    superstep: int
    h: float
    delivered: int
    peak_rss_bytes: int = 0

    kind: ClassVar[str] = "barrier"
    informational: ClassVar[FrozenSet[str]] = frozenset(
        {"peak_rss_bytes"}
    )


@dataclass(frozen=True)
class SuperstepEnd(TraceEvent):
    """A superstep committed.  Carries the run-level summary the cost
    model charges: ``cost = max(w, g*h, L)``, which of the three terms
    was binding, and the checkpoint charge paid at this superstep's
    start (0.0 when none was written)."""

    superstep: int
    active_vertices: int
    w: float
    h: float
    cost: float
    binding: str
    checkpoint_cost: float = 0.0
    execution: int = 1

    kind: ClassVar[str] = "superstep_end"


@dataclass(frozen=True)
class CheckpointWrite(TraceEvent):
    """A checkpoint of ``size`` state atoms was persisted before
    ``superstep`` executed, at charge ``cost = c_ckpt * size``."""

    superstep: int
    size: int
    cost: float

    kind: ClassVar[str] = "checkpoint_write"


@dataclass(frozen=True)
class Rollback(TraceEvent):
    """Recovery rewound state.

    A full rollback (``confined=False``) restored every partition from
    the checkpoint taken at the start of ``superstep`` and discarded
    ``discarded_supersteps`` committed supersteps (they re-execute
    byte-identically).  Confined recovery (``confined=True``) restored
    only the crashed partition's ``restored_vertices`` and replayed it
    from logged messages; ``superstep`` is then the superstep being
    resumed.
    """

    superstep: int
    restored_vertices: int
    confined: bool = False
    discarded_supersteps: int = 0

    kind: ClassVar[str] = "rollback"


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The fault plan struck.

    ``fault="crash"``: worker ``worker`` died at the start of
    ``superstep`` on its ``attempt``-th execution.  ``fault="network"``:
    the reliable-delivery layer masked ``retransmitted`` dropped,
    ``duplicated`` repeated and ``delayed`` late packets during this
    superstep's delivery.
    """

    superstep: int
    fault: str
    worker: int = -1
    attempt: int = 0
    retransmitted: int = 0
    duplicated: int = 0
    delayed: int = 0

    kind: ClassVar[str] = "fault_injected"


@dataclass(frozen=True)
class Handoff(TraceEvent):
    """An execution path degraded to another mid-run.

    Non-comparable: whether the process pool shuts down and the run
    carries on serially is a property of the backend, not of the
    computation, so these events are excluded from cross-backend
    modeled-trace equality.  The execution plane is fixed per run, so
    ``parallel -> serial`` is the only hand-off there is.
    """

    superstep: int
    from_path: str
    to_path: str
    reason: str

    kind: ClassVar[str] = "handoff"
    comparable: ClassVar[bool] = False


#: Wire-tag registry for JSONL round-trips.
EVENT_TYPES: Dict[str, Type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        SuperstepStart,
        WorkerProfile,
        Barrier,
        SuperstepEnd,
        CheckpointWrite,
        Rollback,
        FaultInjected,
        Handoff,
    )
}


def event_from_dict(data: Dict[str, Any]) -> TraceEvent:
    """Rebuild an event from its :meth:`TraceEvent.to_dict` form.

    Unknown keys are ignored (forward compatibility with traces
    written by newer schemas); an unknown ``kind`` raises
    :class:`ValueError`.
    """
    kind = data.get("kind")
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind: {kind!r}")
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{k: v for k, v in data.items() if k in names})
