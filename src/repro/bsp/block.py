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

Hosted on the shared runtime (``docs/architecture.md``): a
:class:`~repro.bsp.loop.HostedEngine` drives the supersteps on the
:class:`~repro.bsp.loop.SuperstepLoop`, as for the GAS and async
engines; the engine supplies its superstep body and its state payload,
so ``trace=`` / ``fault_plan=`` / ``checkpoint_interval=`` behave
identically across engines.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Set

from repro.bsp.faults import FaultPlan
from repro.bsp.loop import HostedEngine, HostedResult
from repro.errors import MessageToUnknownVertexError
from repro.graph import CsrSnapshot, Graph
from repro.graph.partition import (
    BfsGrowPartitioner,
    build_owner_map,
    canonical_sort_key,
)
from repro.metrics.cost_model import BSPCostModel
from repro.trace.recorder import TraceRecorder


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
        The induced subgraph on the owned vertices, in the graph's
        vertex and row order.
    boundary:
        ``{internal vertex: [external neighbors]}`` for every owned
        vertex with at least one cross-block edge.
    values:
        Shared per-vertex value store for the owned vertices
        (mutating it is the block's way of producing output).
    """

    index: int
    vertices: Set[Hashable]
    subgraph: CsrSnapshot
    boundary: Dict[Hashable, List[Hashable]]
    values: Dict[Hashable, Any] = field(default_factory=dict)


class BlockContext:
    """Messaging and accounting surface for block programs.

    Holds what it touches — the owner map, the workers' counters, the
    halted flags — and the superstep's outbox, which the engine hands
    it each superstep."""

    def __init__(self, block_index: int, owner, workers, halted):
        self._block_index = block_index
        self._owner = owner
        self._workers = workers
        self._halted = halted
        self._outbox: List[List] = []
        self.superstep = 0

    def _begin_superstep(self, superstep: int, outbox) -> None:
        self.superstep = superstep
        self._outbox = outbox

    def send(self, target: Hashable, message: Any) -> None:
        """Send ``message`` to the block owning ``target``; delivered
        next superstep, tagged with the destination vertex."""
        dst_block = self._owner.get(target)
        if dst_block is None:
            raise MessageToUnknownVertexError(target)
        self._outbox[dst_block].append((target, message))
        src = self._workers[self._block_index]
        dst = self._workers[dst_block]
        src.sent_logical += 1
        dst.received_logical += 1
        if dst_block != self._block_index:
            src.sent_network += 1
            dst.received_network += 1
            src.sent_remote += 1

    def charge(self, ops: float) -> None:
        """Charge extra local work to this block."""
        self._workers[self._block_index].work += ops

    def vote_to_halt(self) -> None:
        """This block is done unless a message wakes it."""
        self._halted[self._block_index] = True


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
class BlockResult(HostedResult):
    """Per-vertex values plus the usual run statistics;
    ``converged`` is False when the run stopped at ``max_supersteps``
    without quiescing (soft budget, not an error)."""


class BlockEngine(HostedEngine):
    """Runs a :class:`BlockProgram` over a partitioned graph.

    Takes the shared fault-tolerance surface (``checkpoint_interval``
    / ``fault_plan`` / ``trace``) with the same semantics as
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
        trace: Optional[TraceRecorder] = None,
    ):
        super().__init__(
            graph, program, num_blocks, max_supersteps, cost_model,
            checkpoint_interval, fault_plan, trace,
        )
        graph = self._graph  # frozen
        partitioner = partitioner or BfsGrowPartitioner(
            graph, num_blocks
        )
        self._owner: Dict[Hashable, int] = build_owner_map(
            graph.vertices(), partitioner, num_blocks
        )
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
                )
            )
        # Restored in place: the contexts hold the list.
        self._halted = [False] * num_blocks
        self._contexts = [
            BlockContext(i, self._owner, self._workers, self._halted)
            for i in range(num_blocks)
        ]

    def _payload(self) -> dict:
        return {
            "values": [block.values for block in self._blocks],
            "halted": self._halted,
            "inbox": self._inbox,
        }

    def _restore(self, payload: dict) -> None:
        for block, values in zip(self._blocks, payload["values"]):
            block.values = values
        self._halted[:] = payload["halted"]
        self._inbox = payload["inbox"]

    def run(self) -> BlockResult:
        for block in self._blocks:
            block.values = dict.fromkeys(block.vertices)
        self._halted[:] = [False] * len(self._blocks)
        self._inbox: List[List] = [[] for _ in self._blocks]
        stats, converged = self._run_loop()
        values: Dict[Hashable, Any] = {}
        for block in self._blocks:
            values.update(block.values)
        return BlockResult(
            values=values, stats=stats, converged=converged
        )

    def _execute_superstep(self, superstep: int, stats) -> bool:
        self._open(superstep)
        outbox: List[List] = [[] for _ in self._blocks]
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
            ctx._begin_superstep(superstep, outbox)
            self._workers[index].work += 1 + len(messages)
            self._program.compute(block, messages, ctx)
            self._workers[index].wall_seconds = (
                time.perf_counter() - seg_start
            )
        delivered = sum(len(box) for box in outbox)
        self._commit(stats, superstep, active, delivered)
        self._inbox = outbox
        return all(self._halted) and delivered == 0


def run_blocks(
    graph: Graph, program: BlockProgram, **engine_kwargs
) -> BlockResult:
    """Convenience wrapper mirroring the other engines."""
    return BlockEngine(graph, program, **engine_kwargs).run()
