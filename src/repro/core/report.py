"""Plain-text rendering of the regenerated Table 1 and of captured
trace streams (``repro-trace``)."""

from __future__ import annotations

from collections import Counter
from typing import List, Sequence

from repro.core.table1 import Table1Row
from repro.trace.attribution import (
    breakdowns_from_events,
    format_attribution,
)
from repro.trace.events import (
    Barrier,
    FaultInjected,
    Handoff,
    Rollback,
    SuperstepStart,
    TraceEvent,
    WorkerProfile,
)
from repro.trace.recorder import stats_from_events
from repro.trace.straggler import format_straggler


def _yn(flag: bool) -> str:
    return "Yes" if flag else "No"


def format_row_lines(row: Table1Row) -> List[str]:
    """Multi-line summary of one regenerated row."""
    spec = row.spec
    res = row.result
    last = res.measurements[-1]
    lines = [
        f"Row {spec.row:>2}: {spec.workload}",
        f"  family: {spec.family}",
        (
            f"  vertex-centric {spec.vc_complexity}  vs  "
            f"{spec.seq_algorithm} {spec.seq_complexity}"
        ),
        (
            "  sweep: "
            + "  ".join(
                f"n={m.n} ratio={m.work_ratio:.2f} ss={m.supersteps}"
                for m in res.measurements
            )
        ),
        (
            f"  more work?  paper={_yn(spec.paper_more_work)}  "
            f"measured={_yn(res.more_work)}"
        ),
        (
            f"  BPPA?       paper={_yn(spec.paper_bppa)}  "
            f"measured={_yn(res.bppa.is_bppa)}"
            + (
                f"  (violated: {', '.join(res.bppa.failures())})"
                if res.bppa.failures()
                else ""
            )
        ),
        (
            f"  balance factors at n={last.n}: "
            f"P1={last.bppa.storage_factor:.2f} "
            f"P2={last.bppa.compute_factor:.2f} "
            f"P3={last.bppa.message_factor:.2f}"
        ),
        f"  verdicts match paper: {_yn(row.matches_paper)}",
    ]
    return lines


def format_table(rows: Sequence[Table1Row]) -> str:
    """The compact table the paper prints, plus agreement flags."""
    header = (
        f"{'#':>2}  {'Workload':<34} {'VC complexity':<16} "
        f"{'Sequential':<16} {'MoreWork':<14} {'BPPA':<14} {'OK':<3}"
    )
    sep = "-" * len(header)
    out = [header, sep]
    for row in rows:
        spec = row.spec
        res = row.result
        more = f"{_yn(spec.paper_more_work)}/{_yn(res.more_work)}"
        bppa = f"{_yn(spec.paper_bppa)}/{_yn(res.bppa.is_bppa)}"
        out.append(
            f"{spec.row:>2}  {spec.workload[:34]:<34} "
            f"{spec.vc_complexity:<16} {spec.seq_complexity:<16} "
            f"{more:<14} {bppa:<14} "
            f"{'ok' if row.matches_paper else 'XX':<3}"
        )
    out.append(sep)
    agree = sum(1 for r in rows if r.matches_paper)
    out.append(
        f"verdicts matching the paper: {agree}/{len(rows)} "
        "(columns show paper/measured)"
    )
    return "\n".join(out)


def format_report(rows: Sequence[Table1Row]) -> str:
    """The full report: compact table plus per-row details."""
    parts = [format_table(rows), ""]
    for row in rows:
        parts.extend(format_row_lines(row))
        parts.append("")
    return "\n".join(parts)


def _payload_bytes_per_superstep(
    events: Sequence[TraceEvent],
) -> dict:
    """Per-superstep serialized boundary bytes of the stream's last
    run, summed over workers with last-execution-wins semantics
    (mirroring :func:`stats_from_events`): a new run resets the whole
    table, a re-executed superstep resets its own row."""
    payload: dict = {}
    for e in events:
        if (
            isinstance(e, SuperstepStart)
            and e.superstep == 0
            and e.execution == 1
        ):
            payload = {}
        elif isinstance(e, WorkerProfile):
            if e.worker == 0:
                payload[e.superstep] = 0
            payload[e.superstep] = (
                payload.get(e.superstep, 0) + e.payload_bytes
            )
    return payload


def _peak_rss_per_superstep(events: Sequence[TraceEvent]) -> dict:
    """Per-superstep coordinator peak RSS (bytes) of the stream's
    last run, read off the barrier events with the same
    last-execution-wins semantics as the payload table."""
    rss: dict = {}
    for e in events:
        if (
            isinstance(e, SuperstepStart)
            and e.superstep == 0
            and e.execution == 1
        ):
            rss = {}
        elif isinstance(e, Barrier):
            rss[e.superstep] = e.peak_rss_bytes
    return rss


def _kernel_tiers_per_superstep(events: Sequence[TraceEvent]) -> dict:
    """Per-superstep compute-kernel tiers of the stream's last run,
    with the same last-execution-wins semantics as the payload table:
    a new run resets the whole table, a re-executed superstep resets
    its own row.  Each entry is the set of tiers the workers of that
    superstep reported ("dense", "vectorized")."""
    tiers: dict = {}
    for e in events:
        if (
            isinstance(e, SuperstepStart)
            and e.superstep == 0
            and e.execution == 1
        ):
            tiers = {}
        elif isinstance(e, WorkerProfile):
            if e.worker == 0:
                tiers[e.superstep] = set()
            tiers.setdefault(e.superstep, set()).add(e.kernel_tier)
    return tiers


def format_trace_report(events: Sequence[TraceEvent]) -> str:
    """Render a captured trace stream as a human-readable report.

    Seven sections: the event census, the per-superstep cost
    attribution (which term of ``max(w, g*h, L)`` was binding), the
    per-worker straggler profile reconstructed from the committed
    worker profiles, the per-superstep boundary bytes (only when some
    superstep actually crossed a process boundary — i.e. the parallel
    backend ran), the per-superstep coordinator peak RSS read off the
    barrier events (only when the stream carries the memory report),
    the per-superstep compute-kernel tiers (only when some superstep
    left the per-vertex dense pass — i.e. the vectorized tier ran),
    and — when the run was faulted — the
    injected faults, rollbacks and path handoffs.

    A trace may span several runs (``repro-table1 --trace`` captures
    every row's sweeps into one recorder); the attribution and
    straggler sections then describe the *last* run in the stream,
    because superstep numbering restarts at each run and only the
    final run's blocks survive the last-execution-wins grouping.
    """
    if not events:
        return "(empty trace)"
    parts: List[str] = []

    census = Counter(e.kind for e in events)
    parts.append("== event census ==")
    for kind, count in sorted(census.items()):
        parts.append(f"  {kind:<18} {count}")
    parts.append("")

    breakdowns = breakdowns_from_events(events)
    if breakdowns:
        parts.append("== cost attribution (last run) ==")
        parts.append(format_attribution(breakdowns))
        parts.append("")

    supersteps = stats_from_events(events)
    if supersteps:
        parts.append("== straggler profile (last run) ==")
        parts.append(format_straggler(supersteps))
        parts.append("")

    payload = _payload_bytes_per_superstep(events)
    if any(total for total in payload.values()):
        parts.append("== boundary bytes (last run) ==")
        parts.append(
            f"  {'superstep':>9}  {'payload_bytes':>13}"
        )
        for superstep in sorted(payload):
            parts.append(
                f"  {superstep:>9}  {payload[superstep]:>13}"
            )
        parts.append(
            f"  {'total':>9}  {sum(payload.values()):>13}"
        )
        parts.append("")

    rss = _peak_rss_per_superstep(events)
    if any(peak for peak in rss.values()):
        parts.append("== memory (last run) ==")
        parts.append(f"  {'superstep':>9}  {'peak_rss_mib':>12}")
        for superstep in sorted(rss):
            parts.append(
                f"  {superstep:>9}  "
                f"{rss[superstep] / (1 << 20):>12.1f}"
            )
        parts.append(
            f"  {'max':>9}  "
            f"{max(rss.values()) / (1 << 20):>12.1f}"
        )
        parts.append("")

    tiers = _kernel_tiers_per_superstep(events)
    if any(t - {"dense"} for t in tiers.values()):
        parts.append("== kernel tiers (last run) ==")
        parts.append(f"  {'superstep':>9}  tier")
        for superstep in sorted(tiers):
            label = "/".join(sorted(tiers[superstep])) or "dense"
            parts.append(f"  {superstep:>9}  {label}")
        census_t = Counter(
            "/".join(sorted(t)) or "dense" for t in tiers.values()
        )
        parts.append(
            "  "
            + "  ".join(
                f"{label}={count}"
                for label, count in sorted(census_t.items())
            )
        )
        parts.append("")

    faults = [e for e in events if isinstance(e, FaultInjected)]
    rollbacks = [e for e in events if isinstance(e, Rollback)]
    handoffs = [e for e in events if isinstance(e, Handoff)]
    if faults or rollbacks or handoffs:
        parts.append("== faults and recovery ==")
        for e in faults:
            if e.fault == "crash":
                parts.append(
                    f"  crash: worker {e.worker} at superstep "
                    f"{e.superstep} (attempt {e.attempt})"
                )
            else:
                parts.append(
                    f"  network at superstep {e.superstep}: "
                    f"{e.retransmitted} retransmitted, "
                    f"{e.duplicated} duplicated, {e.delayed} delayed"
                )
        for e in rollbacks:
            parts.append(
                f"  rollback to superstep {e.superstep}: "
                f"{e.restored_vertices} vertices restored, "
                f"{e.discarded_supersteps} supersteps discarded"
            )
        for e in handoffs:
            at = (
                f"superstep {e.superstep}"
                if e.superstep >= 0
                else "startup"
            )
            parts.append(
                f"  handoff {e.from_path} -> {e.to_path} at {at}: "
                f"{e.reason}"
            )
        parts.append("")
    return "\n".join(parts).rstrip()
