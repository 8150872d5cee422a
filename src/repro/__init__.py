"""repro — reproduction of "Vertex-Centric Graph Processing: The Good,
the Bad, and the Ugly" (Arijit Khan, EDBT 2017).

The package provides:

* :mod:`repro.graph` — the graph substrate (structure, generators, I/O,
  partitioners);
* :mod:`repro.bsp` — a simulated Pregel/BSP runtime with full cost
  instrumentation;
* :mod:`repro.metrics` — Valiant's BSP cost model (time-processor
  product), the BPPA checker, sequential op counting and growth-rate
  fits;
* :mod:`repro.algorithms` — the paper's twenty vertex-centric
  algorithms (Table 1);
* :mod:`repro.sequential` — the corresponding best-known sequential
  baselines;
* :mod:`repro.core` — the paired benchmark harness that regenerates
  Table 1.

Quickstart::

    from repro.graph import erdos_renyi_graph
    from repro.algorithms import HashMinComponents
    from repro.bsp import run_program

    g = erdos_renyi_graph(100, 0.05, seed=1)
    result = run_program(g, HashMinComponents())
    print(result.values)                      # vertex -> component id
    print(result.stats.time_processor_product)
"""

from repro.errors import (
    BSPError,
    BenchmarkError,
    CheckpointCorruptionError,
    CheckpointError,
    FingerprintMismatchError,
    GraphError,
    MessageToUnknownVertexError,
    RecoveryExhaustedError,
    ReproError,
    SpillError,
    SuperstepLimitExceeded,
    WorkerCrashError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "GraphError",
    "BSPError",
    "BenchmarkError",
    "SuperstepLimitExceeded",
    "MessageToUnknownVertexError",
    "WorkerCrashError",
    "CheckpointError",
    "CheckpointCorruptionError",
    "FingerprintMismatchError",
    "RecoveryExhaustedError",
    "SpillError",
    "__version__",
]
