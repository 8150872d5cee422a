#!/usr/bin/env python3
"""Apply the bounds in ``BENCHMARK.json`` to two sets of results.

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

``A`` is the base (the parent commit, or the first of two sets of runs
of one commit), ``B`` the candidate; every file is a suite result as
written by ``bench/run.py``.  With one file a side, the values of a
(metric, workload) pair are that run's timed repetitions; with several
files a side they are the runs' medians — the form for the ten or more
alternating pairs a performance claim needs.  One row is printed per
(end-to-end metric, workload):

``regressed`` / ``improved``
    B's median is worse / better than A's by more than the bound.
``unchanged``
    the medians are within the bound of each other.
``unresolved``
    the spread of A's or B's values (distance between the quartiles
    over the median) is wider than the bound, so neither of the above
    can be said — unless every value of one side lies beyond every
    value of the other, which settles it.

Every ratio is B/A and is printed with its base.  Exit status is 1
when any row is ``regressed`` or a workload's ``failed_frac`` went up,
else 0; ``unresolved`` rows are reported, not failed — they say the
measurement, not the change, needs more runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median; 0 for
    a single value (one run's peak RSS)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def classify(
    base: List[float], new: List[float], better: str, bound: float
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(spread(base), spread(new)) > bound:
        if sign * (min(new) - max(base)) > 0:
            return "regressed"
        if sign * (min(base) - max(new)) > 0:
            return "improved"
        return "unresolved"
    a, b = statistics.median(base), statistics.median(new)
    worse_by = sign * (b - a) / a
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def values_of(runs: List[dict], workload: str, metric: str) -> List[float]:
    """One side's values for a (workload, metric) pair; empty when a
    run lacks the workload."""
    reports = [run["workloads"].get(workload) for run in runs]
    if any(report is None for report in reports):
        return []
    if len(reports) == 1:
        report = reports[0]
        return report["samples"].get(metric) or [
            report["end_to_end"][metric]
        ]
    return [report["end_to_end"][metric] for report in reports]


def compare(
    a: List[dict], b: List[dict], contract: dict, out=sys.stdout
) -> int:
    status = 0
    print(
        f"{'metric':<14} {'workload':<20} {'A':>12} {'B':>12} "
        f"{'B/A':>8} {'bound':>6} {'spread A':>9} {'spread B':>9} "
        f"{'n':>5}  verdict",
        file=out,
    )
    workloads = [w["name"] for w in contract["workloads"]]
    for metric in contract["end_to_end"]:
        name = metric["name"]
        for workload in workloads:
            base = values_of(a, workload, name)
            new = values_of(b, workload, name)
            if not base or not new:
                print(f"{name:<14} {workload:<20} missing", file=out)
                status = 1
                continue
            verdict = classify(
                base, new, metric["better"], metric["bound"]
            )
            if verdict == "regressed":
                status = 1
            ma, mb = statistics.median(base), statistics.median(new)
            print(
                f"{name:<14} {workload:<20} {ma:>12.6g} {mb:>12.6g} "
                f"{mb / ma:>8.3f} {metric['bound']:>6.2f} "
                f"{spread(base):>9.3f} {spread(new):>9.3f} "
                f"{f'{len(base)}/{len(new)}':>5}  {verdict}",
                file=out,
            )
    for workload in workloads:
        fa = values_of(a, workload, "failed_frac")
        fb = values_of(b, workload, "failed_frac")
        if not fa or not fb:
            continue
        worst_a, worst_b = max(fa), max(fb)
        verdict = "regressed" if worst_b > worst_a else "unchanged"
        if worst_b > worst_a:
            status = 1
        print(
            f"{'failed_frac':<14} {workload:<20} {worst_a:>12.6g} "
            f"{worst_b:>12.6g} {'':>8} {'any':>6} {'':>9} {'':>9} "
            f"{'':>5}  {verdict}",
            file=out,
        )
    return status


def _load(paths: str) -> List[dict]:
    runs = []
    for path in paths.split(","):
        with open(path) as fh:
            runs.append(json.load(fh))
    return runs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[0], file=sys.stderr)
        print(
            "usage: compare.py A.json[,A2.json...] B.json[,B2.json...]",
            file=sys.stderr,
        )
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    return compare(_load(argv[0]), _load(argv[1]), contract)


if __name__ == "__main__":
    sys.exit(main())
