"""Pregel PageRank (Table 1 row 2; §3.2), as in Malewicz et al.

Superstep 0 sets every rank to ``1/n``; every superstep each vertex
sends ``rank / out_degree`` along its out-edges and updates to
``(1 - α)/n + α · Σ incoming``.  The run stops after a fixed number of
supersteps (the paper: "usually in the order of 30"), or earlier under
``tolerance`` via a sum aggregator over per-vertex L1 change.

Measured profile: ``O(m)`` messages and work per superstep, perfectly
balanced per degree (P1–P3 hold) — but ``K ≫ log n`` supersteps, so
PageRank is *balanced but not BPPA*; TPP ``O(Km)`` equals the
sequential power iteration, so row 2 is "no more work".
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.bsp import kernels as _kernels
from repro.bsp.aggregator import SumAggregator
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph


class PageRank(VertexProgram):
    """The Pregel PageRank program.

    Parameters
    ----------
    damping:
        α, the damping factor (the paper's "teleportation" constant).
    num_supersteps:
        Fixed iteration budget, counted in *rank updates*.
    tolerance:
        Optional early stop: halt once the aggregated L1 change of a
        superstep drops below this value.
    """

    name = "pagerank"

    def __init__(
        self,
        damping: float = 0.85,
        num_supersteps: int = 30,
        tolerance: Optional[float] = None,
    ):
        if not 0.0 < damping < 1.0:
            raise ValueError("damping must be in (0, 1)")
        if num_supersteps < 1:
            raise ValueError("num_supersteps must be >= 1")
        self.damping = damping
        self.num_supersteps = num_supersteps
        self.tolerance = tolerance

    def aggregators(self):
        return {"l1_change": SumAggregator()}

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        n = ctx.num_vertices
        if ctx.superstep == 0:
            vertex.value = 1.0 / n
        else:
            total = 0.0
            for m in messages:
                total += m
            new_rank = (1.0 - self.damping) / n + self.damping * total
            ctx.aggregate("l1_change", abs(new_rank - vertex.value))
            vertex.value = new_rank
        if ctx.superstep < self.num_supersteps:
            out_degree = len(vertex.out_edges)
            if out_degree:
                share = vertex.value / out_degree
                ctx.send_to_neighbors(vertex, share)
        else:
            vertex.vote_to_halt()

    def master_compute(self, master: MasterContext) -> None:
        if self.tolerance is None or master.superstep == 0:
            return
        change = master.get_aggregate("l1_change")
        if change is not None and change < self.tolerance:
            master.halt()


# The vectorized kernel reproduces compute()'s float sequence exactly
# (seed/steady/final phases keyed on the superstep number).
_kernels.register_vectorized(PageRank, _kernels.PageRankKernel)


def pagerank(
    graph: Graph,
    damping: float = 0.85,
    num_supersteps: int = 30,
    tolerance: Optional[float] = None,
    **engine_kwargs,
) -> PregelResult:
    """Run Pregel PageRank; ``result.values`` maps vertex -> rank."""
    program = PageRank(
        damping=damping,
        num_supersteps=num_supersteps,
        tolerance=tolerance,
    )
    return run_program(graph, program, **engine_kwargs)
