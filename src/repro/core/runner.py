"""Paired measurement machinery for the Table 1 reproduction.

For every Table 1 row the harness runs the vertex-centric algorithm on
the simulated Pregel runtime and the best-known sequential baseline on
the *same* graphs, over a geometric size sweep of the row's witness
family (the family on which the paper's worst-case analysis bites:
paths for Hash-Min, complete graphs for MIS coloring, …), and derives
the two verdicts:

* **More work?** — does the ratio ``TPP / sequential-ops`` grow with
  the driving size?  Decided by the growth exponent of the ratio
  series plus a boundedness check (a log-factor gap shows up as a
  slowly-but-steadily growing ratio over a wide sweep).
* **BPPA?** — are the per-vertex balance factors (P1–P3) bounded
  across the sweep, and does the superstep count grow at most
  logarithmically (P4)?  For rows whose iteration count is a
  convergence parameter rather than a function of ``n`` (PageRank),
  P4 instead compares the measured superstep count against
  ``log2 n`` directly, following the paper's "usually in the order of
  30 supersteps" argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.metrics.bppa import BppaObservation, BppaVerdict
from repro.metrics.complexity import (
    growth_exponent,
    grows_at_most_logarithmically,
)


@dataclass
class PairedMeasurement:
    """One size point of a row's sweep."""

    size: int            # the driving size parameter of the sweep
    n: int               # vertices of the generated graph
    m: int               # edges of the generated graph
    supersteps: int
    vc_messages: int
    vc_work: float
    tpp: float           # time-processor product of the VC side
    seq_ops: int         # instrumented ops of the sequential side
    bppa: Optional[BppaObservation] = None

    @property
    def work_ratio(self) -> float:
        """``TPP / sequential ops`` — >1 means the vertex-centric
        side did more work on this input."""
        return self.tpp / max(self.seq_ops, 1)


#: A row runner: ``(size, seed) -> PairedMeasurement``.
RowRunner = Callable[[int, int], PairedMeasurement]


@dataclass
class RowResult:
    """A row's sweep plus derived verdicts."""

    measurements: List[PairedMeasurement]
    more_work: bool
    bppa: BppaVerdict

    @property
    def ratios(self) -> List[float]:
        return [m.work_ratio for m in self.measurements]

    @property
    def final_ratio(self) -> float:
        return self.measurements[-1].work_ratio


# Decision thresholds, shared by every row so no row gets a bespoke
# epsilon.  Measured work-ratio growth exponents fall into three
# clearly separated bands on our sweeps: rows whose TPP matches the
# sequential bound measure |exponent| <= 0.01 (pure noise); rows with
# a log-factor gap measure 0.04-0.10 (a log n factor over a 16-64x
# sweep); rows with polynomial gaps measure >= 0.3.  RATIO_EXPONENT
# sits between the first two bands.  RATIO_SPREAD is a secondary
# absolute check (total growth across the sweep).  BALANCE_*: P1-P3
# factors must stay bounded by an absolute constant or not grow.
# P4_LOG_MULTIPLE: for absolute-mode rows, supersteps within this
# multiple of log2(n) pass P4.
RATIO_EXPONENT = 0.03
RATIO_SPREAD = 1.35
BALANCE_EXPONENT = 0.12
BALANCE_CONSTANT = 4.0
P4_LOG_MULTIPLE = 3.0


def _series_grows(sizes, values, exponent, spread) -> bool:
    if len(values) < 2:
        return False
    if growth_exponent(sizes, values) >= exponent:
        return True
    return max(values) >= spread * max(values[0], 1e-12)


def decide_more_work(
    measurements: Sequence[PairedMeasurement],
) -> bool:
    """True when the work ratio grows across the sweep."""
    sizes = [m.size for m in measurements]
    ratios = [m.work_ratio for m in measurements]
    return _series_grows(sizes, ratios, RATIO_EXPONENT, RATIO_SPREAD)


def _factor_balanced(sizes, factors) -> bool:
    """P1–P3: bounded by a constant, or at least not growing."""
    if max(factors) <= BALANCE_CONSTANT:
        return True
    return growth_exponent(sizes, factors) < BALANCE_EXPONENT


def decide_bppa(
    measurements: Sequence[PairedMeasurement],
    p4_mode: str = "growth",
) -> BppaVerdict:
    """Derive the four BPPA property verdicts from a sweep.

    ``p4_mode``:

    * ``"growth"`` — P4 holds when the superstep series grows at most
      logarithmically in ``n`` (the default; matches the paper's
      asymptotic arguments);
    * ``"absolute"`` — P4 holds when the superstep count stays within
      ``P4_LOG_MULTIPLE · log2(n)``; used for convergence-driven rows
      (PageRank), where a constant-but-large iteration count is the
      paper's reason to reject P4.
    """
    sizes = [m.size for m in measurements]
    observations = [m.bppa for m in measurements]
    if any(o is None for o in observations):
        raise ValueError("BPPA observations missing from sweep")
    p1 = _factor_balanced(
        sizes, [o.storage_factor for o in observations]
    )
    p2 = _factor_balanced(
        sizes, [o.compute_factor for o in observations]
    )
    p3 = _factor_balanced(
        sizes, [o.message_factor for o in observations]
    )
    supersteps = [m.supersteps for m in measurements]
    ns = [m.n for m in measurements]
    if p4_mode == "growth":
        p4 = grows_at_most_logarithmically(ns, supersteps)
    elif p4_mode == "absolute":
        p4 = all(
            s <= P4_LOG_MULTIPLE * math.log2(max(n, 2))
            for s, n in zip(supersteps, ns)
        )
    else:
        raise ValueError(f"unknown p4_mode {p4_mode!r}")
    return BppaVerdict(p1, p2, p3, p4)


def run_sweep(
    runner: RowRunner,
    sizes: Sequence[int],
    seed: int = 0,
    p4_mode: str = "growth",
    p4_runner: Optional[RowRunner] = None,
    p4_sizes: Optional[Sequence[int]] = None,
) -> RowResult:
    """Run a row's sweep and derive its verdicts.

    Some rows need *different witness families* for the two verdict
    columns — the paper's worst cases differ per property (e.g. SSSP:
    dense graphs witness the extra work, weighted paths witness the
    Θ(n) supersteps).  When ``p4_runner`` is given, P4 is decided on
    its sweep while P1–P3 and the work ratio come from the main one.
    """
    measurements = [runner(size, seed) for size in sizes]
    verdict = decide_bppa(measurements, p4_mode=p4_mode)
    if p4_runner is not None:
        p4_measurements = [
            p4_runner(size, seed)
            for size in (p4_sizes if p4_sizes is not None else sizes)
        ]
        p4_verdict = decide_bppa(p4_measurements, p4_mode=p4_mode)
        verdict = BppaVerdict(
            verdict.p1_storage_balanced,
            verdict.p2_compute_balanced,
            verdict.p3_messages_balanced,
            p4_verdict.p4_logarithmic_supersteps,
        )
    return RowResult(
        measurements=measurements,
        more_work=decide_more_work(measurements),
        bppa=verdict,
    )
