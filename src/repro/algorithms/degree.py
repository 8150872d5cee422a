"""Degree centrality as a genuine two-phase Pregel program.

Superstep 0: every vertex scores itself ``0.0`` and sends a constant
``1.0`` along each out-edge.  Superstep 1+: a vertex adds up whatever
arrived — its (in-)degree under a sum combiner, delivered in one
superstep on any graph — then goes back to sleep.  On the runtime's
undirected graphs (where in- and out-edge lists coincide) the score is
the vertex degree, the simplest of the "balanced and BPPA" profiles:
``O(d(v))`` work and messages per vertex, ``O(1)`` supersteps.

The point of carrying it as a first-class workload is the vectorized
kernel tier: a degree-style program is the minimal scatter/gather pair
(constant-message scatter, pure-sum gather), so it pins the kernel
machinery's two halves independently of PageRank's rank arithmetic.
"""

from __future__ import annotations

from typing import Any, List

from repro.bsp import kernels as _kernels
from repro.bsp.context import ComputeContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph


class DegreeCentrality(VertexProgram):
    """Count arrivals of a constant unit message from each neighbor."""

    name = "degree-centrality"

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        if ctx.superstep == 0:
            vertex.value = 0.0
            ctx.send_to_neighbors(vertex, 1.0)
        else:
            total = 0.0
            for m in messages:
                total += m
            vertex.value = vertex.value + total
        vertex.vote_to_halt()


_kernels.register_vectorized(DegreeCentrality, _kernels.DegreeKernel)


def degree_centrality(graph: Graph, **engine_kwargs) -> PregelResult:
    """Run degree centrality; ``result.values`` maps vertex -> score."""
    return run_program(graph, DegreeCentrality(), **engine_kwargs)
