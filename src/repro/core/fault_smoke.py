"""The ``repro-table1 --faults`` smoke mode.

Runs a small matrix of workloads x fault plans on the simulated
Pregel runtime, verifies the determinism oracle (a faulted run that
completes must return exactly the fault-free values) and reports the
recovery-overhead accounting — a quick, self-contained health check
of the fault-tolerance subsystem, cheap enough for CI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.pagerank import PageRank
from repro.algorithms.sssp import SingleSourceShortestPaths
from repro.algorithms.wcc import WeaklyConnectedComponents
from repro.bsp.engine import run_program
from repro.bsp.faults import (
    FaultPlan,
    chaos_plan,
    crash_plan,
    drop_plan,
    duplicate_plan,
)
from repro.graph.generators import erdos_renyi_graph


@dataclass
class FaultSmokeResult:
    """One (workload, plan) cell of the smoke matrix."""

    workload: str
    plan: str
    deterministic: bool
    supersteps: int
    checkpoints_written: int
    supersteps_replayed: int
    recovery_overhead: float
    total_time: float


def _workloads(scale: float, seed: int):
    n = max(20, int(60 * scale))
    graph = erdos_renyi_graph(n, min(1.0, 5.0 / n), seed=seed)
    dense = erdos_renyi_graph(
        n, min(1.0, 8.0 / n), seed=seed + 1, directed=True
    )
    source = next(iter(graph.vertices()))
    return [
        ("pagerank", graph, lambda: PageRank(num_supersteps=15)),
        ("sssp", graph, lambda: SingleSourceShortestPaths(source)),
        ("wcc", dense, lambda: WeaklyConnectedComponents()),
        ("hashmin-cc", graph, lambda: HashMinComponents()),
    ]


def _plans(seed: int) -> List[Optional[FaultPlan]]:
    return [
        None,
        # Mid-interval crash: with interval 3 the rollback loses work.
        crash_plan(superstep=4, worker=1, seed=seed),
        drop_plan(rate=0.15, seed=seed),
        duplicate_plan(rate=0.15, seed=seed),
        chaos_plan(
            crash_superstep=2,
            drop=0.05,
            duplicate=0.05,
            delay=0.05,
            seed=seed,
        ),
    ]


def run_fault_smoke(
    seed: int = 0,
    scale: float = 1.0,
    checkpoint_interval: int = 3,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
) -> List[FaultSmokeResult]:
    """Run the matrix; raise ``AssertionError`` on an oracle breach.

    With ``checkpoint_dir`` every faulted cell writes durable
    checkpoints under ``<dir>/<workload>-<plan>``; with ``resume`` a
    cell whose directory already holds checkpoints continues from the
    newest intact one (so a SIGKILLed smoke can be rerun to
    completion and still face the oracle).
    """
    results: List[FaultSmokeResult] = []
    for name, graph, make_program in _workloads(scale, seed):
        baseline = run_program(
            graph, make_program(), num_workers=4, seed=seed
        )
        for plan in _plans(seed):
            plan_name = "clean+ckpt" if plan is None else plan.name
            kwargs = dict(
                num_workers=4,
                seed=seed,
                checkpoint_interval=checkpoint_interval,
            )
            if plan is not None:
                kwargs["fault_plan"] = plan
            if checkpoint_dir is not None:
                kwargs["checkpoint_dir"] = os.path.join(
                    checkpoint_dir, f"{name}-{plan_name}"
                )
                # "auto": resume when the cell already has intact
                # checkpoints, start fresh when it does not — reruns
                # of a killed smoke pick up every cell mid-flight.
                kwargs["resume"] = "auto" if resume else False
            faulted = run_program(graph, make_program(), **kwargs)
            deterministic = faulted.values == baseline.values
            assert deterministic, (
                f"determinism oracle violated: {name} under "
                f"{plan_name} diverged from the fault-free run"
            )
            stats = faulted.stats
            results.append(
                FaultSmokeResult(
                    workload=name,
                    plan=plan_name,
                    deterministic=deterministic,
                    supersteps=stats.num_supersteps,
                    checkpoints_written=stats.checkpoints_written,
                    supersteps_replayed=stats.supersteps_replayed,
                    recovery_overhead=stats.recovery_overhead,
                    total_time=stats.total_time,
                )
            )
    return results


def format_fault_smoke(results: List[FaultSmokeResult]) -> str:
    """Render the smoke matrix as an aligned text table."""
    header = (
        f"{'workload':<12} {'plan':<12} {'ok':<3} {'steps':>5} "
        f"{'ckpts':>5} {'replayed':>8} {'overhead':>9} "
        f"{'total_time':>11}"
    )
    lines = [
        "fault-tolerance smoke (faulted values vs fault-free run)",
        header,
        "-" * len(header),
    ]
    for r in results:
        lines.append(
            f"{r.workload:<12} {r.plan:<12} "
            f"{'ok' if r.deterministic else 'XX':<3} "
            f"{r.supersteps:>5} {r.checkpoints_written:>5} "
            f"{r.supersteps_replayed:>8} {r.recovery_overhead:>9.3f} "
            f"{r.total_time:>11.1f}"
        )
    lines.append(
        f"({len(results)} runs, all values byte-identical to the "
        "fault-free baseline)"
    )
    return "\n".join(lines)
