#!/usr/bin/env python3
"""The repo benchmark's one command.

    python3 bench/run.py --seed 1            # the whole suite
    python3 bench/run.py --smoke             # sizes x0.1, 1+1+1 repetitions
    python3 bench/run.py --workload sssp-grid --seed 7 --seconds 8 --trace 0

A thin driver: it never builds a graph.  Each workload runs in its own
fresh child interpreter (``child.py``), one child at a time, and
reports back as JSON.  Without ``--workload`` every workload in
``BENCHMARK.json`` runs with one traced repetition, every metric is
printed by name with its unit, and ``results.json`` (``smoke.json``
with ``--smoke``) and one span file per workload are written under
``--out-dir`` (default ``bench/out/``).  With ``--workload`` the
invocation follows the driver contract: the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).

Exit status: 0 when every operation succeeded, 1 when any failed,
2 when the program under test or a name the benchmark depends on is
missing (nothing is measured and no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD_TIMEOUT_S = 170

if os.path.isdir(SRC):
    sys.path.insert(0, SRC)

import surface  # noqa: E402  (needs sys.path set up above)
from workloads import BY_NAME  # noqa: E402


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------


def _child_env(scratch: str) -> Dict[str, str]:
    env = dict(os.environ)
    paths = [SRC] + [
        p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p
    ]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # The engine's default spill directory is a private temp dir;
    # keep it (and anything else tempfile makes) inside the checkout.
    env["TMPDIR"] = scratch
    return env


def _run_child(spec: dict, scratch: str) -> dict:
    """Launch ``child.py`` on ``spec`` and return its report.  The
    child leads its own process group so that a timeout takes its rank
    processes down with it."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"),
         json.dumps(spec)],
        stdout=subprocess.PIPE,
        env=_child_env(scratch),
        cwd=ROOT,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(
            f"bench: child for {spec.get('workload')} exceeded "
            f"{CHILD_TIMEOUT_S}s and was killed"
        )
    if proc.returncode != 0:
        raise SystemExit(
            f"bench: child for {spec.get('workload')} exited with "
            f"status {proc.returncode}"
        )
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    out_dir: str,
) -> dict:
    """Run one workload in a fresh child (after its prep child, when
    its input lives on disk) and return the child's report."""
    scratch = os.path.join(out_dir, "scratch", name)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    spec = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "min_timed": 1 if smoke else 5,
        "scratch": scratch,
        "span_file": os.path.join(out_dir, f"{name}.spans.jsonl"),
    }
    try:
        if BY_NAME[name].source == "ba-snapshot":
            spec["snapshot"] = _run_child(
                dict(
                    spec,
                    prep=True,
                    snapshot_dir=os.path.join(scratch, "snapshot"),
                ),
                scratch,
            )
        return _run_child(spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_facts() -> dict:
    from repro.bsp import default_start_method

    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mp_start_method": default_start_method(),
        "loadavg_at_start": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _fmt(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(report: dict, contract: dict, out=sys.stdout) -> None:
    name = report["workload"]
    print(
        f"== {name}  seed={report['seed']}  "
        f"timed repetitions={report['timed_repetitions']}  "
        f"operations={report['attempted']}  failed={report['failed']}",
        file=out,
    )
    for failure in report["failures"]:
        for reason in failure["reasons"]:
            print(
                f"   FAILED operation {failure['operation']} "
                f"({failure['kind']}): {reason}",
                file=out,
            )
    for metric in contract["end_to_end"] + [
        {"name": "failed_frac", "unit": "fraction"}
    ]:
        key = metric["name"]
        line = (
            f"   {key:<16} {_fmt(report['end_to_end'][key]):>12} "
            f"{metric['unit']}"
        )
        samples = report["samples"].get(key)
        if samples:
            q1, q3 = _quartiles(samples)
            line += (
                f"   q1={_fmt(q1)} q3={_fmt(q3)} min={_fmt(min(samples))} "
                f"max={_fmt(max(samples))} n={len(samples)}"
            )
        print(line, file=out)
    traced = "trace.traced_wall_s" in report["per_layer"]
    for metric in contract["per_layer"]:
        key = metric["name"]
        if key in report["per_layer"]:
            value = report["per_layer"][key]
            note = (
                f"   ({report['null_reasons'].get(key, 'unresolved')})"
                if value is None
                else ""
            )
        elif traced:
            value, note = 0, "   (layer not on this workload's path)"
        else:
            continue  # a traced-only metric of an untraced run
        print(
            f"   {key:<40} {_fmt(value):>12} {metric['unit']}{note}",
            file=out,
        )


def contract_line(report: dict, contract: dict, trace: bool) -> str:
    """The driver contract's last line.  A per-layer metric that does
    not apply to the workload, or that the benchmark could not observe
    (printed as null with a warning above), reads 0 here: the contract
    wants a number for every name."""
    if trace:
        metrics = {
            m["name"]: {
                "value": report["per_layer"].get(m["name"]) or 0,
                "unit": m["unit"],
            }
            for m in contract["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {
                "value": report["end_to_end"][m["name"]],
                "unit": m["unit"],
            }
            for m in contract["end_to_end"]
        }
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--out-dir",
        default=OUT_DIR,
        help="where results, span files and scratch data go "
        "(default bench/out)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = surface.check()
    if missing:
        print(
            "bench: the program under test is not what this benchmark "
            "was written against; missing: " + "; ".join(missing),
            file=sys.stderr,
        )
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if set(names) != set(BY_NAME):
        print(
            "bench: BENCHMARK.json and bench/workloads.py name "
            f"different workloads: {sorted(set(names) ^ set(BY_NAME))}",
            file=sys.stderr,
        )
        return 2
    seconds = (
        args.seconds
        if args.seconds is not None
        else (0 if args.smoke else contract["run_seconds"])
    )
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)

    if args.workload is not None:
        if args.workload not in BY_NAME:
            print(
                f"bench: unknown workload {args.workload!r}; known: "
                + ", ".join(names),
                file=sys.stderr,
            )
            return 2
        trace = bool(args.trace)
        report = run_workload(
            args.workload, args.seed, seconds, trace, args.smoke, out_dir
        )
        print_report(report, contract)
        print(contract_line(report, contract, trace))
        return 0 if report["failed"] == 0 else 1

    trace = args.trace is None or bool(args.trace)
    host = host_facts()
    print("host: " + json.dumps(host))
    reports = {}
    for name in names:
        reports[name] = run_workload(
            name, args.seed, seconds, trace, args.smoke, out_dir
        )
        print_report(reports[name], contract)
        sys.stdout.flush()
    host["rss_method"] = sorted(
        {r["rss_method"] for r in reports.values()}
    )
    mismatches = cross_workload_checks(reports)
    for line in mismatches:
        print("   FAILED cross-workload: " + line)
    out_path = os.path.join(
        out_dir, "smoke.json" if args.smoke else "results.json"
    )
    with open(out_path, "w") as fh:
        json.dump(
            {
                "seed": args.seed,
                "smoke": args.smoke,
                "seconds": seconds,
                "host": host,
                "cross_workload_failures": mismatches,
                "workloads": reports,
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    print(f"results: {out_path}")
    failed = sum(r["failed"] for r in reports.values())
    return 0 if failed == 0 and not mismatches else 1


def cross_workload_checks(reports: Dict[str, dict]) -> List[str]:
    """Byte identity across the PageRank family: one ``result_digest``
    for the in-memory, two-rank and spilling runs, one values digest
    for all four (the checkpointing run's stats carry its checkpoint
    cost).  Each child already compared itself with a serial
    reference run of its own; this compares the children."""
    out = []
    base = reports.get("pagerank-ba")
    if base is None:
        return out
    for name, key in (
        ("pagerank-ba-par2", "digest"),
        ("pagerank-ba-spill", "digest"),
        ("pagerank-ba-ckpt", "values_digest"),
    ):
        other = reports.get(name)
        if other is not None and other.get(key) != base.get(key):
            out.append(f"{key} of {name} differs from pagerank-ba")
    return out


if __name__ == "__main__":
    sys.exit(main())
