"""A subgraph-centric ("think like a graph") engine — the
Giraph++/NScale paradigm the paper's §1 lists and §3.8 prescribes for
neighborhood analytics.

Vertices are grouped into *blocks* (one per worker partition); a
superstep runs one ``compute`` per block, which may do arbitrary
sequential work over its whole local subgraph and message any vertex
in the graph (delivery routes to the owning block).  Internal
traffic — vertex-to-vertex within a block — costs nothing on the
network; only cross-block messages are charged, which is exactly the
advantage §3.8's triangle/LCC discussion appeals to.

The cost accounting reuses :class:`~repro.metrics.stats.RunStats`:
per-block local work, logical/remote messages, and the BSP superstep
charge ``max(w, g·h, L)``.

Hosted on the shared runtime (``docs/architecture.md``): the
superstep loop and lifecycle, checkpoint schedule and accounting,
crash supervision, rollback discard, trace events, and injected
network faults all come from :class:`~repro.bsp.loop.SuperstepLoop`,
exactly as for the GAS engine; the engine supplies its superstep body
and payload snapshot (``_checkpoint``/``_rollback``), so ``trace=`` /
``fault_plan=`` / ``checkpoint_interval=`` behave identically across
engines.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.bsp.checkpoint import EngineSnapshot, cow_copy
from repro.bsp.faults import FaultPlan
from repro.bsp.loop import SuperstepLoop
from repro.bsp.worker import Worker
from repro.errors import MessageToUnknownVertexError
from repro.graph.graph import Graph
from repro.graph.partition import (
    BfsGrowPartitioner,
    build_owner_map,
    canonical_sort_key,
)
from repro.metrics.cost_model import BSPCostModel
from repro.metrics.stats import RunStats
from repro.trace.recorder import TraceRecorder, get_default_trace


@dataclass
class BlockView:
    """What a block program sees: its slice of the graph.

    Attributes
    ----------
    index:
        The block (worker) index.
    vertices:
        The vertex ids owned by this block.
    subgraph:
        The induced subgraph on the owned vertices.
    boundary:
        ``{internal vertex: [external neighbors]}`` for every owned
        vertex with at least one cross-block edge.
    values:
        Shared per-vertex value store for the owned vertices
        (mutating it is the block's way of producing output).
    """

    index: int
    vertices: Set[Hashable]
    subgraph: Graph
    boundary: Dict[Hashable, List[Hashable]]
    values: Dict[Hashable, Any] = field(default_factory=dict)


class BlockContext:
    """Messaging and accounting surface for block programs."""

    def __init__(self, engine, block_index: int):
        self._engine = engine
        self._block_index = block_index
        self.superstep = 0

    def send(self, target: Hashable, message: Any) -> None:
        """Send ``message`` to the block owning ``target``; delivered
        next superstep, tagged with the destination vertex."""
        self._engine._enqueue(self._block_index, target, message)

    def charge(self, ops: float) -> None:
        """Charge extra local work to this block."""
        self._engine._charge(self._block_index, ops)

    def vote_to_halt(self) -> None:
        """This block is done unless a message wakes it."""
        self._engine._halt(self._block_index)


class BlockProgram(ABC):
    """A per-block computation, run once per superstep per awake
    block.  ``messages`` is a list of ``(target_vertex, payload)``
    pairs addressed to this block's vertices."""

    name: str = "block-program"

    @abstractmethod
    def compute(
        self,
        block: BlockView,
        messages: List,
        ctx: BlockContext,
    ) -> None:
        """One superstep of work for one block."""


@dataclass
class BlockResult:
    """Per-vertex values plus the usual run statistics."""

    values: Dict[Hashable, Any]
    stats: RunStats
    #: False when the run stopped at ``max_supersteps`` without
    #: quiescing (soft budget, not an error).
    converged: bool = True

    @property
    def num_supersteps(self) -> int:
        return self.stats.num_supersteps


class BlockEngine:
    """Runs a :class:`BlockProgram` over a partitioned graph.

    Accepts the shared fault-tolerance surface
    (``checkpoint_interval`` / ``fault_plan`` /
    ``max_recovery_attempts`` / ``trace``) with the same semantics as
    :class:`~repro.bsp.engine.PregelEngine`.
    """

    backend_name = "block"

    def __init__(
        self,
        graph: Graph,
        program: BlockProgram,
        num_blocks: int = 4,
        partitioner=None,
        cost_model: Optional[BSPCostModel] = None,
        max_supersteps: int = 10_000,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_recovery_attempts: int = 3,
        trace: Optional[TraceRecorder] = None,
    ):
        self._graph = graph
        self._program = program
        self._num_blocks = num_blocks
        self._cost_model = cost_model or BSPCostModel()
        self._loop = SuperstepLoop(
            max_supersteps=max_supersteps,
            program_name=getattr(program, "name", "block-program"),
            num_workers=num_blocks,
            cost_model=self._cost_model,
            checkpoint_interval=checkpoint_interval,
            fault_plan=fault_plan,
            max_recovery_attempts=max_recovery_attempts,
            trace=trace if trace is not None else get_default_trace(),
            on_limit="stop",
        )
        partitioner = partitioner or BfsGrowPartitioner(
            graph, num_blocks
        )
        self._owner: Dict[Hashable, int] = build_owner_map(
            graph.vertices(), partitioner, num_blocks
        )
        self._workers = [Worker(i) for i in range(num_blocks)]
        self._blocks: List[BlockView] = []
        for index in range(num_blocks):
            owned = {
                v for v, o in self._owner.items() if o == index
            }
            boundary: Dict[Hashable, List[Hashable]] = {}
            for v in owned:
                external = [
                    u
                    for u in set(graph.neighbors(v))
                    | set(graph.in_neighbors(v))
                    if u not in owned
                ]
                if external:
                    # Canonical type-tagged ordering (the same total
                    # order stable_hash canonicalizes by), so mixed-
                    # type boundaries sort by value rather than by
                    # the accident of repr strings.
                    boundary[v] = sorted(
                        external, key=canonical_sort_key
                    )
            self._blocks.append(
                BlockView(
                    index=index,
                    vertices=owned,
                    subgraph=graph.subgraph(owned),
                    boundary=boundary,
                    values={v: None for v in owned},
                )
            )
        self._inbox: List[List] = [[] for _ in range(num_blocks)]
        self._outbox: List[List] = [[] for _ in range(num_blocks)]
        self._halted = [False] * num_blocks
        self._contexts = [
            BlockContext(self, i) for i in range(num_blocks)
        ]

    # -- services used by BlockContext ---------------------------------

    def _enqueue(self, src_block: int, target: Hashable, message: Any):
        dst_block = self._owner.get(target)
        if dst_block is None:
            raise MessageToUnknownVertexError(target)
        self._outbox[dst_block].append((target, message))
        self._workers[src_block].sent_logical += 1
        self._workers[dst_block].received_logical += 1
        if src_block != dst_block:
            self._workers[src_block].sent_network += 1
            self._workers[dst_block].received_network += 1
            self._workers[src_block].sent_remote += 1

    def _charge(self, block: int, ops: float) -> None:
        self._workers[block].work += ops

    def _halt(self, block: int) -> None:
        self._halted[block] = True

    # -- the snapshot a checkpoint holds and a rollback restores ----

    def _checkpoint(self, superstep: int) -> EngineSnapshot:
        return EngineSnapshot(
            superstep=superstep,
            payload={
                "values": [
                    {v: cow_copy(val) for v, val in b.values.items()}
                    for b in self._blocks
                ],
                "halted": list(self._halted),
                "inbox": [
                    [cow_copy(m) for m in box] for box in self._inbox
                ],
            },
        )

    def _rollback(self, crash, superstep: int, stats, ckpt) -> int:
        payload = ckpt.payload
        for block, vals in zip(self._blocks, payload["values"]):
            block.values = {
                v: cow_copy(val) for v, val in vals.items()
            }
        self._halted = list(payload["halted"])
        self._inbox = [
            [cow_copy(m) for m in box] for box in payload["inbox"]
        ]
        return self._loop.rollback(stats, ckpt, len(self._owner))

    # -- the hosted superstep ---------------------------------------

    def run(self) -> BlockResult:
        stats = RunStats(
            num_workers=self._num_blocks,
            cost_model=self._cost_model,
        )
        converged = self._loop.run(self, stats)
        values: Dict[Hashable, Any] = {}
        for block in self._blocks:
            values.update(block.values)
        return BlockResult(
            values=values, stats=stats, converged=converged
        )

    def _execute_superstep(
        self, superstep: int, stats: RunStats
    ) -> bool:
        self._loop.open_superstep(
            superstep, self._workers, "block", self.backend_name
        )
        self._outbox = [[] for _ in range(self._num_blocks)]
        active = 0
        for index, block in enumerate(self._blocks):
            messages = self._inbox[index]
            if messages:
                self._halted[index] = False
            if self._halted[index]:
                continue
            seg_start = time.perf_counter()
            active += 1
            ctx = self._contexts[index]
            ctx.superstep = superstep
            self._workers[index].work += 1 + len(messages)
            self._program.compute(block, messages, ctx)
            self._workers[index].wall_seconds = (
                time.perf_counter() - seg_start
            )
        delivered = sum(len(box) for box in self._outbox)
        # Injected message faults strike the superstep's cross-block
        # traffic as one batch; reliable delivery masks them.
        self._loop.commit_superstep(
            stats, self._workers, superstep, active, delivered,
            network=True,
        )
        self._inbox = self._outbox
        return all(self._halted) and delivered == 0


def run_blocks(
    graph: Graph, program: BlockProgram, **engine_kwargs
) -> BlockResult:
    """Convenience wrapper mirroring the other engines."""
    return BlockEngine(graph, program, **engine_kwargs).run()
