"""Weakly connected components of a directed graph (Table 1 row 6).

Hash-Min run over the *underlying undirected* structure: every vertex
treats both in- and out-neighbors as peers (the runtime gives each
vertex its in-edge sources, so no extra discovery superstep is
needed).  The profile is exactly Hash-Min's: ``O(δ)`` supersteps,
balanced per superstep, not BPPA, TPP ``O(mδ)`` vs sequential
``O(m + n)``.
"""

from __future__ import annotations

from typing import Any, List

from repro.bsp.context import ComputeContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.algorithms.cc_hashmin import repr_key
from repro.graph.graph import Graph


class WeaklyConnectedComponents(VertexProgram):
    """Hash-Min over in ∪ out neighborhoods."""

    name = "wcc-hash-min"

    @staticmethod
    def _peers(vertex: VertexState) -> List:
        return list(set(vertex.out_edges) | set(vertex.in_edges))

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        peers = self._peers(vertex)
        ctx.charge(len(peers))
        if ctx.superstep == 0:
            vertex.value = min([vertex.id] + peers, key=repr_key)
            ctx.send_to(peers, vertex.value)
        else:
            incoming = min(messages, key=repr_key)
            ctx.charge(len(messages))
            if repr_key(incoming) < repr_key(vertex.value):
                vertex.value = incoming
                ctx.send_to(peers, incoming)
        vertex.vote_to_halt()


# Steady-state supersteps vectorize with the per-vertex peer sets
# (the program's own _peers expression) precompiled to dense indices;
# superstep 0 (initial broadcast) stays per-vertex.
from repro.bsp import kernels as _kernels  # noqa: E402

_kernels.register_vectorized(
    WeaklyConnectedComponents,
    _kernels.MinPropagationKernel(
        repr_key,
        peers_of=WeaklyConnectedComponents._peers,
        charge_peers=True,
    ),
)


def weakly_connected_components(
    graph: Graph, **engine_kwargs
) -> PregelResult:
    """Run WCC; ``result.values`` maps vertex -> component color."""
    return run_program(
        graph, WeaklyConnectedComponents(), **engine_kwargs
    )
