"""Simulated Pregel/BSP runtime: vertex programs, workers, combiners,
aggregators, master computation, topology mutation and full cost
instrumentation."""

from repro.bsp.aggregator import (
    Aggregator,
    AndAggregator,
    CountAggregator,
    MaxAggregator,
    MinAggregator,
    OrAggregator,
    SumAggregator,
)
from repro.bsp.combiner import (
    Combiner,
    MaxCombiner,
    MinCombiner,
    SumCombiner,
)
from repro.bsp.checkpoint import (
    Checkpoint,
    CheckpointStore,
    EngineSnapshot,
    cow_copy,
    take_checkpoint,
    restore_checkpoint,
)
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.durability import (
    DurableCheckpointStore,
    config_fingerprint,
    open_durable_store,
)
from repro.bsp.fabric import MessageFabric
from repro.bsp.loop import CheckpointPolicy, SuperstepLoop
from repro.bsp.result import RunResult
from repro.bsp.state import StateStore
from repro.bsp.faults import (
    CrashFault,
    DeliveryFaults,
    FaultInjector,
    FaultPlan,
    chaos_plan,
    crash_plan,
    drop_plan,
    duplicate_plan,
)
from repro.bsp.async_engine import AsyncEngine, AsyncResult, run_async
from repro.bsp.block import (
    BlockContext,
    BlockEngine,
    BlockProgram,
    BlockResult,
    BlockView,
    run_blocks,
)
from repro.bsp.engine import (
    BACKENDS,
    PregelEngine,
    PregelResult,
    create_engine,
    get_default_backend,
    run_program,
    set_default_backend,
)
from repro.bsp.parallel import (
    ParallelPregelEngine,
    default_start_method,
)
from repro.bsp.gas import (
    GASEngine,
    GASProgram,
    GASResult,
    NeighborView,
    run_gas,
)
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.bsp.worker import Worker, superstep_profile

__all__ = [
    "Checkpoint",
    "CheckpointPolicy",
    "CheckpointStore",
    "EngineSnapshot",
    "MessageFabric",
    "RunResult",
    "StateStore",
    "SuperstepLoop",
    "cow_copy",
    "take_checkpoint",
    "restore_checkpoint",
    "DurableCheckpointStore",
    "config_fingerprint",
    "open_durable_store",
    "CrashFault",
    "DeliveryFaults",
    "FaultInjector",
    "FaultPlan",
    "chaos_plan",
    "crash_plan",
    "drop_plan",
    "duplicate_plan",
    "Aggregator",
    "AndAggregator",
    "CountAggregator",
    "MaxAggregator",
    "MinAggregator",
    "OrAggregator",
    "SumAggregator",
    "Combiner",
    "MaxCombiner",
    "MinCombiner",
    "SumCombiner",
    "ComputeContext",
    "MasterContext",
    "BACKENDS",
    "PregelEngine",
    "PregelResult",
    "ParallelPregelEngine",
    "create_engine",
    "default_start_method",
    "get_default_backend",
    "run_program",
    "set_default_backend",
    "AsyncEngine",
    "AsyncResult",
    "run_async",
    "BlockContext",
    "BlockEngine",
    "BlockProgram",
    "BlockResult",
    "BlockView",
    "run_blocks",
    "GASEngine",
    "GASProgram",
    "GASResult",
    "NeighborView",
    "run_gas",
    "VertexProgram",
    "VertexState",
    "Worker",
    "superstep_profile",
]
