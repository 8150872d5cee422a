"""The public names of the program under test this benchmark uses.

``check`` resolves every one of them before anything is measured, so
that a later change which renames or removes one is told so by name
(exit status 2, no result) instead of producing a run that measures
something else.  Instance attributes the benchmark reads after a run
(``MessageFabric.spilled_lanes`` / ``spilled_bytes`` and the parallel
engine's ``parallel_supersteps`` / ``columnar_supersteps`` /
``rank_restarts`` / ``parallel_disabled_reason``) only exist on
instances; the path-executed check reports those per operation.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from typing import List

#: (module, dotted attribute path)
NAMES = [
    ("repro.bsp", "create_engine"),
    ("repro.bsp", "SumCombiner"),
    ("repro.bsp", "MinCombiner"),
    ("repro.bsp", "default_start_method"),
    ("repro.bsp.engine", "MessageFabric"),
    ("repro.bsp.engine", "PregelEngine.run"),
    ("repro.algorithms", "PageRank"),
    ("repro.algorithms", "SingleSourceShortestPaths"),
    ("repro.algorithms", "DegreeCentrality"),
    ("repro.graph", "barabasi_albert_graph"),
    ("repro.graph", "grid_graph"),
    ("repro.graph", "CsrSnapshot.open"),
    ("repro.graph", "CsrSnapshot.from_graph"),
    ("repro.graph", "CsrSnapshot.save"),
    ("repro.core.chaos", "result_digest"),
    ("repro.core.chaos", "canonical_result"),
    ("repro.core.table1", "build_table"),
    ("repro.core.table1", "Table1Row.matches_paper"),
    ("repro.sequential", "pagerank"),
    ("repro.metrics.stats", "RunStats.num_supersteps"),
    ("repro.metrics.stats", "RunStats.total_messages"),
    ("repro.metrics.stats", "SuperstepWall.total_payload_bytes"),
    ("repro.cli", "main"),
]

#: (module, dataclass, field names)
FIELDS = [
    (
        "repro.metrics.stats",
        "RunStats",
        ("wall", "checkpoints_written", "peak_rss_bytes"),
    ),
    (
        "repro.metrics.stats",
        "SuperstepWall",
        ("compute_seconds", "barrier_seconds", "kernel_tier"),
    ),
    ("repro.core.runner", "PairedMeasurement", ("vc_messages",)),
]

#: Keyword arguments the workloads pass through ``create_engine``
#: (``backend`` is ``create_engine``'s own).
ENGINE_KWARGS = [
    (
        "repro.bsp.engine",
        "PregelEngine",
        (
            "num_workers",
            "combiner",
            "track_bppa",
            "memory_budget",
            "checkpoint_interval",
            "checkpoint_dir",
        ),
    ),
    ("repro.bsp.parallel", "ParallelPregelEngine", ("transport",)),
    ("repro.bsp.engine", "create_engine", ("backend",)),
]


def _walk(module_name: str, path: str):
    obj = importlib.import_module(module_name)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def check() -> List[str]:
    """Every name of the surface that cannot be resolved."""
    try:
        importlib.import_module("repro")
    except ImportError as exc:
        return [f"package repro ({exc}); expected under src/"]
    missing = []
    for module_name, path in NAMES:
        try:
            _walk(module_name, path)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{path}")
    for module_name, cls_name, fields in FIELDS:
        try:
            cls = _walk(module_name, cls_name)
            have = {f.name for f in dataclasses.fields(cls)}
        except (ImportError, AttributeError, TypeError):
            missing.append(f"{module_name}.{cls_name}")
            continue
        missing.extend(
            f"{module_name}.{cls_name}.{name}"
            for name in fields
            if name not in have
        )
    for module_name, callable_name, kwargs in ENGINE_KWARGS:
        try:
            params = inspect.signature(
                _walk(module_name, callable_name)
            ).parameters
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{callable_name}")
            continue
        missing.extend(
            f"{module_name}.{callable_name}({name}=)"
            for name in kwargs
            if name not in params
        )
    return missing
