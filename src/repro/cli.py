"""Command-line entry points.

``repro-table1`` regenerates Table 1::

    repro-table1                  # the full table
    repro-table1 --rows 3 4 10   # selected rows
    repro-table1 --scale 0.5     # smaller sweeps (quick look)
    repro-table1 --details       # per-row sweeps and factors
    repro-table1 --trace out.jsonl   # also capture the trace stream
    repro-table1 --faults --checkpoint-dir ck --resume
                                  # durable, resumable fault smoke
                                  # (exit 3: recovery exhausted;
                                  #  exit 4: checkpoint error)

``repro-trace`` reports on a captured trace::

    repro-trace out.jsonl         # census, cost attribution,
                                  # straggler profile, faults
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.report import format_report, format_table
from repro.core.table1 import build_table


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-table1",
        description=(
            "Regenerate Table 1 of 'Vertex-Centric Graph Processing: "
            "The Good, the Bad, and the Ugly' (EDBT 2017) on the "
            "simulated Pregel runtime."
        ),
    )
    parser.add_argument(
        "--rows",
        type=int,
        nargs="+",
        metavar="N",
        help="row numbers to run (default: all twenty)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment seed"
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink (<1) or grow (>1) every size sweep",
    )
    parser.add_argument(
        "--details",
        action="store_true",
        help="print per-row sweeps and balance factors",
    )
    parser.add_argument(
        "--figures",
        action="store_true",
        help="also print the figure-analog series (Figs. 2-5 claims)",
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "parallel"],
        default="serial",
        help=(
            "engine execution backend: 'serial' (default; "
            "in-process) or 'parallel' (real worker "
            "processes, byte-identical results — see "
            "docs/parallel_backend.md)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "record the structured trace stream of every run "
            "(superstep lifecycle, per-worker profiles, checkpoint "
            "writes, rollbacks, injected faults) to PATH as JSON "
            "lines; inspect it with repro-trace"
        ),
    )
    parser.add_argument(
        "--faults",
        action="store_true",
        help=(
            "run the fault-tolerance smoke instead of the table: a "
            "matrix of workloads x fault plans (worker crash, message "
            "drop/duplicate, chaos) verifying that every recovered "
            "run returns the fault-free values, with recovery "
            "overhead accounting"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help=(
            "(with --faults) write durable checkpoints for every "
            "faulted cell under DIR/<workload>-<plan>, so a killed "
            "smoke can be resumed; see docs/fault_tolerance.md"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "(with --faults --checkpoint-dir) resume cells from their "
            "newest intact durable checkpoint instead of starting "
            "fresh"
        ),
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if (args.checkpoint_dir or args.resume) and not args.faults:
        parser.error(
            "--checkpoint-dir/--resume only apply to the --faults "
            "smoke"
        )
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    started = time.time()
    if args.backend != "serial":
        # Every run_program call below (table rows, fault smoke,
        # figures) now builds its engines on the chosen backend.
        from repro.bsp.engine import set_default_backend

        set_default_backend(args.backend)
    recorder = None
    if args.trace:
        # Every engine constructed below adopts the process-wide
        # recorder, so each run's events land in one stream without
        # threading a kwarg through the algorithm wrappers.
        from repro.trace import TraceRecorder, set_default_trace

        recorder = TraceRecorder(capacity=1_000_000)
        set_default_trace(recorder)
    try:
        if args.faults:
            from repro.core.fault_smoke import (
                format_fault_smoke,
                run_fault_smoke,
            )
            from repro.errors import (
                CheckpointError,
                RecoveryExhaustedError,
            )

            try:
                results = run_fault_smoke(
                    seed=args.seed,
                    scale=args.scale,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                )
            except RecoveryExhaustedError as exc:
                print(
                    f"repro-table1: recovery exhausted: {exc}",
                    file=sys.stderr,
                )
                return 3
            except CheckpointError as exc:
                print(
                    f"repro-table1: checkpoint error: {exc}",
                    file=sys.stderr,
                )
                return 4
            print(format_fault_smoke(results))
            elapsed = time.time() - started
            print(
                f"(smoke finished in {elapsed:.1f}s)",
                file=sys.stderr,
            )
            return 0
        table = build_table(
            seed=args.seed, rows=args.rows, scale=args.scale
        )
        if args.details:
            print(format_report(table))
        else:
            print(format_table(table))
        if args.figures:
            from repro.core.figures import all_figures, format_series

            print()
            for series in all_figures():
                print(format_series(series))
    finally:
        if recorder is not None:
            from repro.trace import set_default_trace

            set_default_trace(None)
            written = recorder.to_jsonl(args.trace)
            note = f"(trace: {written} events -> {args.trace}"
            if recorder.dropped:
                note += (
                    f"; {recorder.dropped} oldest events dropped by "
                    "the ring buffer"
                )
            print(note + ")", file=sys.stderr)
    elapsed = time.time() - started
    print(f"(regenerated in {elapsed:.1f}s)", file=sys.stderr)
    # Row 14's divergence is a documented finding (see
    # EXPERIMENTS.md), not a failure — always exit cleanly.
    return 0


def make_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description=(
            "Report on a trace captured with 'repro-table1 --trace' "
            "or run_program(trace=...): event census, per-superstep "
            "cost attribution (which of w / g*h / L was binding), "
            "per-worker straggler profile, and fault/recovery "
            "timeline."
        ),
    )
    parser.add_argument(
        "path", help="trace file (JSON lines) to report on"
    )
    return parser


def trace_main(argv: Optional[List[str]] = None) -> int:
    args = make_trace_parser().parse_args(argv)
    from repro.core.report import format_trace_report
    from repro.trace import read_jsonl

    try:
        events = read_jsonl(args.path)
    except OSError as exc:
        print(f"repro-trace: {exc}", file=sys.stderr)
        return 1
    print(format_trace_report(events))
    return 0


if __name__ == "__main__":
    sys.exit(main())
