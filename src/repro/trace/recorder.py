"""The ring-buffered trace recorder and trace-stream utilities.

A :class:`TraceRecorder` is attached to a run via
``run_program(trace=...)`` (or process-wide via
:func:`set_default_trace`, which is how ``repro-table1 --trace``
captures every algorithm's run without threading a kwarg through each
wrapper).  The engine's emission sites all guard on ``trace is None``,
so a run without a recorder pays only that None-check — the path
every timed repetition of the repo benchmark (``bench/``) runs, so
its cost sits inside every ``wall_s`` that benchmark reports.

Events live in a bounded ``deque``: a runaway run overwrites its
oldest events instead of exhausting memory, and ``dropped`` says how
many were lost.  ``emitted`` always counts every event ever emitted.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.metrics.stats import SuperstepStats
from repro.trace.events import (
    SuperstepEnd,
    SuperstepStart,
    TraceEvent,
    WorkerProfile,
    event_from_dict,
)


class TraceRecorder:
    """Collects :class:`~repro.trace.events.TraceEvent` instances.

    Parameters
    ----------
    capacity:
        Ring-buffer bound.  When more events are emitted than fit, the
        oldest are discarded and counted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(
                f"capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        #: Events emitted over the recorder's lifetime.
        self.emitted: int = 0
        #: Events evicted by the ring buffer.
        self.dropped: int = 0

    def emit(self, event: TraceEvent) -> None:
        """Record one event (evicting the oldest when full)."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        self.emitted += 1

    def events(self) -> List[TraceEvent]:
        """The buffered events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop the buffer and reset the counters."""
        self._events.clear()
        self.emitted = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(list(self._events))

    def modeled_events(self) -> List[Tuple]:
        """See :func:`modeled_events`."""
        return modeled_events(self._events)

    def to_jsonl(self, path: str) -> int:
        """Write the buffered events to ``path``, one JSON object per
        line; returns the number of lines written."""
        events = self.events()
        with open(path, "w", encoding="utf-8") as fh:
            for event in events:
                fh.write(json.dumps(event.to_dict()))
                fh.write("\n")
        return len(events)


# ---------------------------------------------------------------------
# Default recorder (mirrors repro.bsp.engine.set_default_backend)
# ---------------------------------------------------------------------

_default_trace: Optional[TraceRecorder] = None


def set_default_trace(trace: Optional[TraceRecorder]) -> None:
    """Set the recorder engines use when none is passed explicitly.

    ``None`` (the initial state) disables default tracing.  Threaded
    through the CLI as ``repro-table1 --trace PATH``.
    """
    global _default_trace
    _default_trace = trace


def get_default_trace() -> Optional[TraceRecorder]:
    """The recorder a trace-less engine construction adopts."""
    return _default_trace


# ---------------------------------------------------------------------
# Trace-stream utilities
# ---------------------------------------------------------------------

TraceLike = Union[TraceRecorder, Sequence[TraceEvent]]


def _as_events(trace: TraceLike) -> Iterable[TraceEvent]:
    if isinstance(trace, TraceRecorder):
        return trace.events()
    return trace


def modeled_events(trace: TraceLike) -> List[Tuple]:
    """The trace reduced to its deterministic core: the
    ``modeled_key()`` of every comparable event, in emission order.
    This is the quantity the determinism contract promises is
    byte-identical across the three execution paths."""
    return [
        e.modeled_key() for e in _as_events(trace) if e.comparable
    ]


def modeled_equal(a: TraceLike, b: TraceLike) -> bool:
    """Are two traces equal over modeled quantities?

    Wall-clock fields, execution-path labels and
    :class:`~repro.trace.events.Handoff` events are excluded — see
    :mod:`repro.trace.events`.
    """
    return modeled_events(a) == modeled_events(b)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Load a trace written by :meth:`TraceRecorder.to_jsonl`."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            events.append(event_from_dict(json.loads(line)))
    return events


def stats_from_events(trace: TraceLike) -> List[SuperstepStats]:
    """Reconstruct per-superstep stats from a trace.

    Groups each ``SuperstepStart .. SuperstepEnd`` block and keeps the
    *last* execution of every superstep — a rolled-back superstep
    re-executes byte-identically, and only the final execution is the
    committed one — so the result reconciles exactly with the
    ``RunStats.supersteps`` the engine returned (per-superstep ``w``,
    ``h``, message ledgers, active counts, checkpoint charges and
    execution counts all match).

    Rollbacks also discard *later* committed supersteps: a block for
    superstep ``s`` drops any previously collected superstep ``> s``
    (they were rolled back too and will re-appear), mirroring the
    engine's ``del stats.supersteps[ckpt.superstep:]``.
    """
    committed: Dict[int, SuperstepStats] = {}
    current: Optional[dict] = None
    for event in _as_events(trace):
        if isinstance(event, SuperstepStart):
            current = {
                "superstep": event.superstep,
                "profiles": [],
                "end": None,
            }
        elif isinstance(event, WorkerProfile) and current is not None:
            current["profiles"].append(event)
        elif isinstance(event, SuperstepEnd) and current is not None:
            s = event.superstep
            profiles = sorted(
                current["profiles"], key=lambda p: p.worker
            )
            committed = {
                t: stats for t, stats in committed.items() if t < s
            }
            committed[s] = SuperstepStats(
                superstep=s,
                work=[p.work for p in profiles],
                sent_logical=[p.sent_logical for p in profiles],
                received_logical=[
                    p.received_logical for p in profiles
                ],
                sent_network=[p.sent_network for p in profiles],
                received_network=[
                    p.received_network for p in profiles
                ],
                active_vertices=event.active_vertices,
                sent_remote=[p.sent_remote for p in profiles],
                checkpoint_cost=event.checkpoint_cost,
                executions=event.execution,
            )
            current = None
    return [committed[s] for s in sorted(committed)]
