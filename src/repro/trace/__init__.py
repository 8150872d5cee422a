"""Structured observability for the BSP runtime (``repro.trace``).

The paper's argument rests on *measured* per-superstep quantities —
``w_i``, ``s_i``/``r_i``, h-relations, per-vertex balance — yet until
this layer existed the runtime could only report them as end-of-run
aggregates.  ``repro.trace`` turns a run into a stream of typed
events recorded by a ring-buffered :class:`TraceRecorder` attached via
``run_program(trace=...)`` (or process-wide via
:func:`set_default_trace`), and derives two reports from the stream:

* **cost attribution** (:mod:`repro.trace.attribution`): which term of
  ``max(w, g·h, L)`` — plus the checkpoint-write charge — was binding,
  per superstep and summarized over the run;
* **straggler profiling** (:mod:`repro.trace.straggler`): per-worker
  work/h-relation skew, critical-path share, and a partitioner
  comparison table.

Traces are deterministic over the modeled quantities: the same
workload produces the same modeled event stream on the serial engine
and the process-parallel backend
(ranks profile locally; the coordinator merges in rank order at each
barrier).  Wall-clock measurements ride along but are excluded from
equality, mirroring ``RunStats.wall``/``SuperstepWall``.
"""

from repro.trace.attribution import (
    CostBreakdown,
    attribute_costs,
    attribution_summary,
    breakdowns_from_events,
    format_attribution,
)
from repro.trace.events import (
    Barrier,
    CheckpointWrite,
    FaultInjected,
    Handoff,
    Rollback,
    SuperstepEnd,
    SuperstepStart,
    TraceEvent,
    WorkerProfile,
    event_from_dict,
)
from repro.trace.recorder import (
    TraceRecorder,
    get_default_trace,
    modeled_equal,
    modeled_events,
    read_jsonl,
    set_default_trace,
    stats_from_events,
)
from repro.trace.straggler import (
    PartitionerComparison,
    WorkerSkew,
    compare_partitioners,
    format_partitioner_table,
    format_straggler,
    straggler_profile,
)

__all__ = [
    "TraceEvent",
    "SuperstepStart",
    "SuperstepEnd",
    "WorkerProfile",
    "Barrier",
    "CheckpointWrite",
    "Rollback",
    "FaultInjected",
    "Handoff",
    "event_from_dict",
    "TraceRecorder",
    "set_default_trace",
    "get_default_trace",
    "modeled_events",
    "modeled_equal",
    "read_jsonl",
    "stats_from_events",
    "CostBreakdown",
    "attribute_costs",
    "attribution_summary",
    "breakdowns_from_events",
    "format_attribution",
    "WorkerSkew",
    "straggler_profile",
    "format_straggler",
    "PartitionerComparison",
    "compare_partitioners",
    "format_partitioner_table",
]
