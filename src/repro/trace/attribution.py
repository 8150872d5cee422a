"""Per-superstep cost attribution: which term of ``max(w, g·h, L)``
was binding?

The BSP charge hides *why* a superstep was expensive: a
compute-bound superstep (``w`` binding) wants better work balance, a
communication-bound one (``g·h`` binding) wants a locality-aware
partitioner or a combiner, and a latency-bound one (``L`` binding) is
paying pure synchronization — the paper's "many lightweight
supersteps" pathology.  This module labels every committed superstep
with its binding term (plus the checkpoint-write charge paid on top)
and summarizes where the run's time went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats
from repro.trace.events import SuperstepEnd, TraceEvent

#: Binding-term labels, in tie-break priority order.
BINDING_TERMS = ("w", "gh", "L")


@dataclass(frozen=True)
class CostBreakdown:
    """One committed superstep's charge, decomposed."""

    superstep: int
    w: float
    gh: float
    L: float
    cost: float
    binding: str
    checkpoint_cost: float = 0.0
    active_vertices: int = 0
    executions: int = 1


def attribute_costs(
    stats: RunStats, model: Optional[BSPCostModel] = None
) -> List[CostBreakdown]:
    """Decompose every committed superstep of ``stats``.

    ``model`` defaults to the run's own cost model, so the per-
    superstep ``cost`` column sums exactly to ``stats.bsp_time``.
    """
    model = model or stats.cost_model
    return [
        CostBreakdown(
            superstep=s.superstep,
            w=s.w,
            gh=model.g * s.h,
            L=model.L,
            cost=s.cost(model),
            binding=s.binding_term(model),
            checkpoint_cost=s.checkpoint_cost,
            active_vertices=s.active_vertices,
            executions=s.executions,
        )
        for s in stats.supersteps
    ]


def breakdowns_from_events(
    events: Sequence[TraceEvent],
) -> List[CostBreakdown]:
    """Rebuild breakdowns from a trace's :class:`SuperstepEnd` events.

    The events carry ``cost`` and ``binding`` as computed by the
    emitting engine's cost model, so no model parameters are needed to
    read a trace back — which is what lets ``repro-trace`` report on a
    bare JSONL file.  ``gh``/``L`` are recovered from the identity
    ``cost = max(w, gh, L)``: the binding term equals ``cost`` and the
    others are bounded by it, so the binding column is exact and the
    non-binding ones are reported as upper bounds via the event's
    ``h`` (``gh`` is not recoverable without ``g``; it is set to
    ``cost`` when binding and left 0.0 otherwise, with ``h`` retained
    on the event itself).  As in :func:`repro.trace.recorder.
    stats_from_events`, the last execution of a superstep wins and a
    re-executed superstep discards later stale entries.
    """
    committed: Dict[int, CostBreakdown] = {}
    for event in events:
        if not isinstance(event, SuperstepEnd):
            continue
        s = event.superstep
        committed = {
            t: bd for t, bd in committed.items() if t < s
        }
        committed[s] = CostBreakdown(
            superstep=s,
            w=event.w,
            gh=event.cost if event.binding == "gh" else 0.0,
            L=event.cost if event.binding == "L" else 0.0,
            cost=event.cost,
            binding=event.binding,
            checkpoint_cost=event.checkpoint_cost,
            active_vertices=event.active_vertices,
            executions=event.execution,
        )
    return [committed[s] for s in sorted(committed)]


def attribution_summary(
    breakdowns: Sequence[CostBreakdown],
) -> Dict[str, Union[int, float, str]]:
    """Aggregate a run's breakdowns: charge and superstep count per
    binding term, checkpoint total, and the dominant term."""
    count: Dict[str, int] = {t: 0 for t in BINDING_TERMS}
    charge: Dict[str, float] = {t: 0.0 for t in BINDING_TERMS}
    checkpoint_total = 0.0
    for bd in breakdowns:
        count[bd.binding] += 1
        charge[bd.binding] += bd.cost
        checkpoint_total += bd.checkpoint_cost
    total = sum(charge.values())
    dominant = max(
        BINDING_TERMS, key=lambda t: (charge[t], -BINDING_TERMS.index(t))
    )
    summary: Dict[str, Union[int, float, str]] = {
        "supersteps": len(breakdowns),
        "bsp_time": total,
        "checkpoint_cost": checkpoint_total,
        "dominant": dominant if breakdowns else "none",
    }
    for t in BINDING_TERMS:
        summary[f"count_{t}"] = count[t]
        summary[f"charge_{t}"] = charge[t]
    return summary


def format_attribution(
    breakdowns: Sequence[CostBreakdown],
) -> str:
    """Render the per-superstep attribution as an aligned text table
    with a summary footer."""
    lines = []
    header = (
        f"{'step':>5}  {'active':>7}  {'w':>10}  {'g*h':>10}  "
        f"{'L':>6}  {'cost':>10}  {'ckpt':>8}  {'bind':>4}  {'exec':>4}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for bd in breakdowns:
        lines.append(
            f"{bd.superstep:>5}  {bd.active_vertices:>7}  "
            f"{bd.w:>10.1f}  {bd.gh:>10.1f}  {bd.L:>6.1f}  "
            f"{bd.cost:>10.1f}  {bd.checkpoint_cost:>8.1f}  "
            f"{bd.binding:>4}  {bd.executions:>4}"
        )
    summary = attribution_summary(breakdowns)
    lines.append("-" * len(header))
    lines.append(
        "binding terms: "
        + ", ".join(
            f"{t}: {summary[f'count_{t}']} steps "
            f"({summary[f'charge_{t}']:.1f} charge)"
            for t in BINDING_TERMS
        )
    )
    lines.append(
        f"bsp_time: {summary['bsp_time']:.1f}  "
        f"checkpoint_cost: {summary['checkpoint_cost']:.1f}  "
        f"dominant: {summary['dominant']}"
    )
    return "\n".join(lines)
