"""The benchmark's workload table: what runs, on which input, and which
execution path each workload exists to exercise.

Declarative on purpose: ``child.py`` turns an entry into engine calls
and the path-executed check reads ``expect``, so the configuration a
workload runs and the evidence that the configuration really executed
live in one place.  *Why* each workload is in the suite — which layer
dominates it and which is absent — is recorded once, in
``BENCHMARK.json`` (one line) and ``bench/README.md`` (in full).

Imports nothing from ``repro``: the thin driver loads this module
before it has verified that the program under test is importable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

# ---------------------------------------------------------------------
# Input sizes.  The issue's sizing (BA 50k, 300x300 grid, Table 1 at
# scale 1.0) gives 2-10 s repetitions; the driver contract allows
# ~20 s per invocation including set-up (158 invocations in 3420 s),
# so the inputs are shrunk until five or more repetitions fit one
# invocation.  bench/README.md records the numbers behind the choice.
# ---------------------------------------------------------------------

BA_VERTICES = 20_000
BA_ATTACH = 8
GRID_SIDE = 150
PAGERANK_SUPERSTEPS = 10
TABLE1_SCALE = 0.4
SPILL_BUDGET_BYTES = 131_072
CHECKPOINT_INTERVAL = 3
SMOKE_FACTOR = 0.1


@dataclass(frozen=True)
class Sizes:
    """Concrete input sizes for one invocation (full or smoke)."""

    ba_vertices: int
    ba_attach: int
    grid_side: int
    table1_scale: float
    spill_budget: int

    @classmethod
    def full(cls) -> "Sizes":
        return cls(
            BA_VERTICES,
            BA_ATTACH,
            GRID_SIDE,
            TABLE1_SCALE,
            SPILL_BUDGET_BYTES,
        )

    @classmethod
    def smoke(cls) -> "Sizes":
        """Every size x0.1 (the grid by area), for CI."""
        return cls(
            int(BA_VERTICES * SMOKE_FACTOR),
            BA_ATTACH,
            max(8, round(GRID_SIDE * math.sqrt(SMOKE_FACTOR))),
            TABLE1_SCALE * SMOKE_FACTOR,
            int(SPILL_BUDGET_BYTES * SMOKE_FACTOR),
        )


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``source`` names the input: ``"ba"`` (dict graph), ``"grid"``,
    ``"ba-snapshot"`` (the on-disk ``CsrSnapshot`` of the same BA
    graph, written by a separate prep child) or ``"table1"`` (the
    program generates its own inputs from the seed).

    ``engine_kwargs`` go to ``create_engine`` verbatim on top of
    ``track_bppa=False``; the values ``"$spill_budget"`` and
    ``"$checkpoint_dir"`` are filled in per invocation / repetition.

    ``expect`` is the path-executed contract: ``tier`` is the
    ``SuperstepWall.kernel_tier`` every superstep must report,
    ``supersteps`` the exact superstep count (``"2*grid_side"`` is
    resolved against the sizes), ``parallel`` / ``spill`` say whether
    the process pool and the spill tier must have run, ``checkpoints``
    the exact ``RunStats.checkpoints_written``.

    ``same_as_reference`` names what this workload's result must share
    with the plain serial in-memory run of the same program on the
    same input: ``"digest"`` (``result_digest`` equal),
    ``"values_digest"`` (vertex values byte-equal; the stats
    legitimately differ) or ``None`` (this *is* the reference
    configuration).
    """

    name: str
    source: str
    program: str
    combiner: Optional[str] = None
    engine_kwargs: Dict[str, Any] = field(default_factory=dict)
    expect: Dict[str, Any] = field(default_factory=dict)
    same_as_reference: Optional[str] = None


_PAGERANK_EXPECT = {
    "tier": "vectorized",
    "supersteps": PAGERANK_SUPERSTEPS + 1,
    "parallel": False,
    "spill": False,
    "checkpoints": 0,
}


def _pagerank(name, kwargs, expect, digest, source="ba"):
    return Workload(
        name=name,
        source=source,
        program="pagerank",
        combiner="sum",
        engine_kwargs={"num_workers": 2, **kwargs},
        expect={**_PAGERANK_EXPECT, **expect},
        same_as_reference=digest,
    )


WORKLOADS = [
    _pagerank("pagerank-ba", {}, {}, None),
    Workload(
        name="sssp-grid",
        source="grid",
        program="sssp",
        combiner="min",
        engine_kwargs={"num_workers": 4},
        expect={
            "tier": "dense",
            "supersteps": "2*grid_side",
            "parallel": False,
            "spill": False,
            "checkpoints": 0,
        },
    ),
    Workload(
        name="degree-ba",
        source="ba",
        program="degree",
        combiner="sum",
        engine_kwargs={"num_workers": 4},
        expect={
            "tier": "vectorized",
            "supersteps": 2,
            "parallel": False,
            "spill": False,
            "checkpoints": 0,
        },
    ),
    _pagerank(
        "pagerank-ba-par2",
        {"backend": "parallel", "transport": "columnar"},
        {"parallel": True},
        "digest",
    ),
    _pagerank(
        "pagerank-ba-spill",
        {"memory_budget": "$spill_budget"},
        {"spill": True},
        "digest",
        source="ba-snapshot",
    ),
    _pagerank(
        "pagerank-ba-ckpt",
        {
            "checkpoint_interval": CHECKPOINT_INTERVAL,
            "checkpoint_dir": "$checkpoint_dir",
        },
        {
            "checkpoints": math.ceil(
                (PAGERANK_SUPERSTEPS + 1) / CHECKPOINT_INTERVAL
            )
        },
        "values_digest",
    ),
    Workload(
        name="table1",
        source="table1",
        program="table1",
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}
