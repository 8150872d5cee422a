"""Hash-Min connected components (Table 1 row 3; §3.3.1).

The color of a component is its smallest vertex id.  Superstep 1:
every vertex takes the minimum of itself and its neighbors and
broadcasts it; afterwards a vertex re-broadcasts only when an incoming
minimum improves its own.  Termination: all vertices voted to halt and
the network is silent.

Measured profile (what the paper derives):

* ``O(δ)`` supersteps — the smallest id needs δ hops to cross the
  component, so paths are the worst case;
* ``O(d(v))`` work/messages/storage per vertex per superstep — a
  *balanced* Pregel algorithm (P1–P3 hold);
* not BPPA: P4 fails because ``δ`` is not ``O(log n)`` in general;
* time-processor product ``O(mδ)`` versus sequential BFS ``O(m + n)``.
"""

from __future__ import annotations

from typing import Any, List

from repro.bsp.context import ComputeContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph


class HashMinComponents(VertexProgram):
    """The Hash-Min vertex program.  Vertex value = current minimum."""

    name = "hash-min-cc"

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        if ctx.superstep == 0:
            candidates = vertex.neighbors()
            ctx.charge(len(candidates))
            vertex.value = min([vertex.id] + candidates, key=repr_key)
            ctx.send_to_neighbors(vertex, vertex.value)
        else:
            incoming = min(messages, key=repr_key)
            ctx.charge(len(messages))
            if repr_key(incoming) < repr_key(vertex.value):
                vertex.value = incoming
                ctx.send_to_neighbors(vertex, incoming)
        vertex.vote_to_halt()


def repr_key(value):
    """Total order over heterogeneous vertex ids.

    Integer ids compare numerically (the common case); mixed-type ids
    fall back to ``(typename, repr)`` so ``min`` is always defined.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (1, type(value).__name__, repr(value))
    return (0, "", value)


# Steady-state supersteps (1+) vectorize: min-reduce each occupied
# slot under repr_key and scatter improved labels along the compiled
# out-adjacency.  Superstep 0 (candidate gathering) stays per-vertex.
from repro.bsp import kernels as _kernels  # noqa: E402

_kernels.register_vectorized(
    HashMinComponents, _kernels.MinPropagationKernel(repr_key)
)


def hash_min_components(
    graph: Graph, **engine_kwargs
) -> PregelResult:
    """Run Hash-Min; ``result.values`` maps vertex -> component color."""
    return run_program(graph, HashMinComponents(), **engine_kwargs)
