"""A synchronous gather-apply-scatter (GAS) engine — the PowerGraph
paradigm the paper's §1 surveys as an alternative to Pregel.

Where a Pregel hub *receives* ``d(v)`` messages in one superstep (the
``h``-relation blow-up behind many of Table 1's P3 violations), GAS
reads neighbor state edge-parallel and pre-aggregates per worker:
each gather ships at most one partial aggregate per (destination,
source-worker) pair.  The engine simulates exactly that accounting,
reusing the BSP cost model, so the paradigm comparison in
``benchmarks/bench_gas.py`` is apples-to-apples with the Pregel runs.

Semantics per iteration (sync GAS):

1. **gather** — for every active vertex, fold
   ``gather(edge_source_view, weight)`` over its in-edges;
2. **apply** — compute the new vertex value from the old value and
   the folded aggregate;
3. **scatter** — if the program says the change is significant,
   activate the out-neighbors for the next iteration (one signal per
   out-edge).

The run ends when the active set empties (or ``max_iterations``).

Hosted on the shared runtime (``docs/architecture.md``): a
:class:`~repro.bsp.loop.HostedEngine` drives the iterations on the
:class:`~repro.bsp.loop.SuperstepLoop`, as for the block and async
engines, so ``trace=``, ``fault_plan=`` (crash rollback to a payload
snapshot) and ``checkpoint_interval=`` behave as they do for Pregel.
Because message faults are masked by reliable delivery and crash
recovery replays deterministically, any faulted GAS run that completes
produces values identical to the fault-free run.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Optional, Set

from repro.bsp.faults import FaultPlan
from repro.bsp.loop import HostedEngine, HostedResult
from repro.graph.graph import Graph
from repro.graph.partition import HashPartitioner, build_owner_map
from repro.metrics.cost_model import BSPCostModel
from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class NeighborView:
    """What gather may read about an edge's source vertex."""

    id: Hashable
    value: Any
    out_degree: int


class GASProgram(ABC):
    """A vertex program in the gather-apply-scatter decomposition."""

    name: str = "gas-program"

    @abstractmethod
    def initial_value(self, vertex_id: Hashable, graph: Graph) -> Any:
        """The value every vertex starts with."""

    @abstractmethod
    def gather(self, source: NeighborView, weight: float) -> Any:
        """The contribution of one in-edge."""

    @abstractmethod
    def fold(self, a: Any, b: Any) -> Any:
        """Combine two gather contributions (associative,
        commutative)."""

    def identity(self) -> Any:
        """The aggregate for a vertex with no in-edges (default
        ``None``)."""
        return None

    @abstractmethod
    def apply(self, vertex_id: Hashable, old: Any, total: Any) -> Any:
        """The new vertex value."""

    @abstractmethod
    def should_scatter(self, old: Any, new: Any) -> bool:
        """Whether the change must wake the out-neighbors."""


@dataclass
class GASResult(HostedResult):
    """Answers plus the same measurements Pregel runs report;
    ``converged`` is False when the run stopped at ``max_iterations``
    with vertices still active (PowerGraph-style graceful cap, not an
    error)."""

    @property
    def num_iterations(self) -> int:
        return self.stats.num_supersteps


def gather(program, values, out_degree, sources, total):
    """Fold a vertex's in-edges ``sources``, ``(in-neighbor, weight)``
    pairs, in order, into ``total`` (``None`` takes the first
    contribution): the gather of the GAS and async engines alike."""
    for u, weight in sources:
        view = NeighborView(id=u, value=values[u], out_degree=out_degree[u])
        contribution = program.gather(view, weight)
        total = (
            contribution
            if total is None
            else program.fold(total, contribution)
        )
    return total


class GASEngine(HostedEngine):
    """Run a :class:`GASProgram` with per-worker cost accounting.

    Takes the shared fault-tolerance surface (``checkpoint_interval``
    / ``fault_plan`` / ``trace``) with the same semantics as
    :class:`~repro.bsp.engine.PregelEngine`: crash faults roll the run
    back to the latest payload snapshot and replay deterministically;
    message faults only add retransmission cost.
    """

    backend_name = "gas"
    id_slots = ("active",)

    def __init__(
        self,
        graph: Graph,
        program: GASProgram,
        num_workers: int = 4,
        partitioner=None,
        cost_model: Optional[BSPCostModel] = None,
        max_iterations: int = 100_000,
        checkpoint_interval: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        trace: Optional[TraceRecorder] = None,
    ):
        super().__init__(
            graph, program, num_workers, max_iterations, cost_model,
            checkpoint_interval, fault_plan, trace,
        )
        graph = self._graph  # frozen
        partitioner = partitioner or HashPartitioner(num_workers)
        self._owner = build_owner_map(
            graph.vertices(), partitioner, num_workers
        )
        self._values: Dict[Hashable, Any] = {}
        self._active: Set[Hashable] = set()
        self._out_degree = {v: graph.out_degree(v) for v in graph.vertices()}
        # Vertex-cut edge placement: host each edge at the worker of
        # its lower-degree endpoint, so high-degree vertices are the
        # ones mirrored — the PowerGraph heuristic that flattens hub
        # traffic.  ``_in_hosts[v]`` groups v's in-edges, as
        # ``(in-neighbor, weight)`` pairs, by hosting worker.
        self._in_hosts: Dict[Hashable, Dict[int, list]] = {}
        for v in graph.vertices():
            groups: Dict[int, list] = {}
            dv = graph.total_degree(v)
            for u, weight in graph.in_edge_items(v):
                du = graph.total_degree(u)
                host = self._owner[u] if du <= dv else self._owner[v]
                groups.setdefault(host, []).append((u, weight))
            self._in_hosts[v] = groups

    def _payload(self) -> dict:
        return {"values": self._values, "active": self._active}

    def _restore(self, payload: dict) -> None:
        self._values = payload["values"]
        self._active = payload["active"]

    def run(self) -> GASResult:
        vertices = list(self._graph.vertices())
        self._values = {
            v: self._program.initial_value(v, self._graph) for v in vertices
        }
        self._active = set(vertices)
        stats, _ = self._run_loop()
        return GASResult(
            values=dict(self._values),
            stats=stats,
            converged=not self._active,
        )

    def _execute_superstep(self, superstep: int, stats) -> bool:
        active = self._active
        if not active:
            return True
        graph = self._graph
        program = self._program
        values = self._values
        workers = self._workers
        self._open(superstep)
        seg_start = time.perf_counter()
        next_active: Set[Hashable] = set()
        # Synchronous semantics: gathers read the previous
        # iteration's values; applies write a fresh buffer that
        # becomes visible only at the iteration boundary.
        new_values = dict(values)
        # PowerGraph mirror semantics.  Per iteration, network
        # traffic consists of (a) syncing a vertex value to each
        # worker hosting one of its edges (once per worker, not
        # per edge), (b) shipping one folded gather partial per
        # hosting worker to the gathering vertex's master, and
        # (c) one activation signal per (vertex, worker) pair.
        # This is what flattens the hub h-relation that Pregel
        # suffers.
        synced_values: Set = set()
        shipped_signals: Set = set()
        # Deterministic order regardless of set hashing.
        for v in sorted(active, key=repr):
            v_worker = self._owner[v]
            dst = workers[v_worker]
            total = program.identity()
            for host, sources in self._in_hosts[v].items():
                total = gather(
                    program, values, self._out_degree, sources, total
                )
                host_worker = workers[host]
                for u, _ in sources:
                    src_worker = self._owner[u]
                    # Edge-parallel local work at the hosting
                    # worker; logical/remote counts stay
                    # per-edge so they compare with Pregel.
                    host_worker.work += 1
                    workers[src_worker].sent_logical += 1
                    dst.received_logical += 1
                    if src_worker != v_worker:
                        workers[src_worker].sent_remote += 1
                    # (a) value sync: u's value must exist at the
                    # hosting worker.
                    if src_worker != host:
                        key = (u, host)
                        if key not in synced_values:
                            synced_values.add(key)
                            workers[src_worker].sent_network += 1
                            host_worker.received_network += 1
                # (b) one partial aggregate per hosting worker.
                if host != v_worker:
                    host_worker.sent_network += 1
                    dst.received_network += 1
            # Apply.
            old = values[v]
            new = program.apply(v, old, total)
            new_values[v] = new
            dst.work += 1
            # Scatter: signal out-neighbors on significant change.
            if program.should_scatter(old, new):
                for u in graph.neighbors(v):
                    next_active.add(u)
                    dst.sent_logical += 1
                    u_worker = self._owner[u]
                    workers[u_worker].received_logical += 1
                    if u_worker != v_worker:
                        dst.sent_remote += 1
                    # (c) activations of the same target from
                    # one worker collapse into one signal
                    # (mirror-side OR).
                    key = (u, v_worker)
                    if key not in shipped_signals:
                        shipped_signals.add(key)
                        dst.sent_network += 1
                        workers[u_worker].received_network += 1
        # The engine interleaves workers vertex-by-vertex, so the
        # measured wall is attributed to worker 0 (modeled quantities
        # are per-worker; wall is excluded from byte-identity).
        workers[0].wall_seconds = time.perf_counter() - seg_start
        self._commit(stats, superstep, len(active))
        self._values = new_values
        self._active = next_active
        return not next_active


def run_gas(
    graph: Graph, program: GASProgram, **engine_kwargs
) -> GASResult:
    """Convenience wrapper mirroring :func:`repro.bsp.run_program`."""
    return GASEngine(graph, program, **engine_kwargs).run()
