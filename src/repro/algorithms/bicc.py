"""Vertex-centric bi-connected components (Table 1 row 5), the
Tarjan–Vishkin reduction as pipelined on Pregel by Yan et al.

The pipeline (each stage a Pregel job on the same simulated runtime):

1. **S-V spanning tree** (row 10's machinery, as in Yan et al.) —
   the hook-witness edges of Shiloach–Vishkin form the spanning tree
   in ``O(log n)`` rounds; the tree is then rooted at the smallest
   vertex (linear dataflow glue).
2. **Pre-order numbering** of the tree via Euler tour + list ranking —
   the row 8/9 machinery reused verbatim (``O(log n)`` supersteps).
3. **Subtree size / low / high wave** — one superstep of neighbor
   pre-exchange, then a deepest-level-first wave up the BFS tree:
   ``low(v)``/``high(v)`` are the extreme pre-order numbers reachable
   from ``v``'s subtree via one non-tree edge, ``size(v)`` the subtree
   size.
4. **Auxiliary graph** (Tarjan–Vishkin): one vertex per tree edge
   (keyed by its child endpoint); join ``(p(u), u)``–``(p(v), v)`` for
   every non-tree edge ``{u, v}`` with unrelated endpoints, and join
   ``(p(v), v)``–``(v, w)`` for every tree child ``w`` of ``v`` with
   ``low(w) < pre(v)`` or ``high(w) ≥ pre(v) + size(v)``.
5. **Hash-Min connected components** of the auxiliary graph: tree
   edges share a label iff they share a bi-connected component;
   non-tree edges take the label of their deeper endpoint's tree edge.

Deviation from Yan et al., documented in DESIGN.md: stage 3 aggregates
low/high bottom-up in ``O(tree height)`` supersteps instead of via
Euler-tour range-minima (``O(log n)``); the measured verdicts (more
work than the sequential ``O(m + n)``; not BPPA — inherited from the
S-V stage's P3 violation) are unchanged while the machinery stays a
faithful Tarjan–Vishkin reduction.

The stage-4 construction itself is linear dataflow glue between
Pregel jobs (as in Yan et al.'s implementation) and is not charged as
vertex-centric work.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List

from repro.algorithms.cc_hashmin import HashMinComponents
from repro.algorithms.cc_sv import sv_spanning_forest
from repro.algorithms.common import PipelineResult
from repro.algorithms.tree_traversal import tree_traversal
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.errors import DisconnectedGraphError
from repro.graph.graph import Graph


class LowHighWave(VertexProgram):
    """Stage 3: subtree ``size``/``low``/``high`` by a bottom-up wave.

    Superstep 0 broadcasts ``(id, pre, parent)`` to all neighbors;
    superstep 1 classifies neighbors (parent / children / non-tree)
    and seeds local extremes; from superstep 2 on, the wave fires one
    BFS level per superstep, deepest first.
    """

    name = "bicc-low-high"

    def __init__(self, parent, depth, pre, max_depth):
        self._parent = parent
        self._depth = depth
        self._pre = pre
        self._max_depth = max_depth

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        return {
            "low": self._pre[vertex_id],
            "high": self._pre[vertex_id],
            "size": 1,
            "children": [],
        }

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        my_depth = self._depth[vertex.id]
        ctx.charge(len(messages))
        if ctx.superstep == 0:
            payload = (vertex.id, self._pre[vertex.id])
            ctx.send_to_neighbors(vertex, payload)
            return
        if ctx.superstep == 1:
            parent = self._parent[vertex.id]
            for sender, sender_pre in messages:
                if self._parent.get(sender) == vertex.id:
                    state["children"].append(sender)
                elif sender != parent:
                    # Non-tree neighbor: its pre-order number bounds
                    # low/high directly.
                    if sender_pre < state["low"]:
                        state["low"] = sender_pre
                    if sender_pre > state["high"]:
                        state["high"] = sender_pre
            # Leaves on the deepest level fire from superstep 2 on.
        # Wave: level maxdepth fires at superstep 2, and so on up.
        level = self._max_depth - (ctx.superstep - 2)
        if ctx.superstep >= 2:
            for m in messages:
                low, high, size = m
                if low < state["low"]:
                    state["low"] = low
                if high > state["high"]:
                    state["high"] = high
                state["size"] += size
        if my_depth == level:
            parent = self._parent[vertex.id]
            if parent is not None:
                ctx.send(
                    parent,
                    (state["low"], state["high"], state["size"]),
                )
            vertex.vote_to_halt()

    def master_compute(self, master: MasterContext) -> None:
        level = self._max_depth - (master.superstep - 1)
        if level < 0:
            master.halt()
            return
        master.activate_all()


def biconnected_components(
    graph: Graph, **engine_kwargs
) -> PipelineResult:
    """Run the full row 5 pipeline on a connected graph.

    The ``output`` maps each edge (as a ``frozenset``) to a
    bi-connected-component label; isolated single-edge labels are
    bridges.
    """
    if graph.num_vertices == 0:
        return PipelineResult(output={}, stages=[])
    root = min(graph.vertices(), key=repr)

    # Stage 1: S-V spanning tree; rooting it is dataflow glue.
    forest_edges, tree_result = sv_spanning_forest(
        graph, **engine_kwargs
    )
    if len(forest_edges) != graph.num_vertices - 1:
        raise DisconnectedGraphError(
            "bi-connected components require a connected graph"
        )
    tree = Graph()
    for v in graph.vertices():
        tree.add_vertex(v)
    for u, v in forest_edges:
        tree.add_edge(u, v)
    tree = tree.freeze()
    from repro.graph.trees import root_tree

    parent, depth = root_tree(tree, root)

    # Stage 2: pre-order numbers via Euler tour + list ranking.
    traversal = tree_traversal(tree, root, **engine_kwargs)
    pre, _post = traversal.output

    # Stage 3: subtree size / low / high.
    max_depth = max(depth.values())
    wave = LowHighWave(parent, depth, pre, max_depth)
    wave_result = run_program(graph, wave, **engine_kwargs)
    low = {v: val["low"] for v, val in wave_result.values.items()}
    high = {v: val["high"] for v, val in wave_result.values.items()}
    size = {v: val["size"] for v, val in wave_result.values.items()}

    # Stage 4 (dataflow glue): Tarjan–Vishkin auxiliary graph over
    # tree edges, keyed by child endpoint.
    def is_ancestor(u, v) -> bool:
        return pre[u] <= pre[v] < pre[u] + size[u]

    aux = Graph()
    for v in graph.vertices():
        if parent[v] is not None:
            aux.add_vertex(v)
    tree_pairs = {
        frozenset((v, p)) for v, p in parent.items() if p is not None
    }
    for u, v in graph.edges():
        if u == v or frozenset((u, v)) in tree_pairs:
            continue
        if not is_ancestor(u, v) and not is_ancestor(v, u):
            aux.add_edge(u, v)
    for w, v in parent.items():
        if v is None or parent[v] is None:
            continue
        if low[w] < pre[v] or high[w] >= pre[v] + size[v]:
            aux.add_edge(w, v)

    # Stage 5: Hash-Min over the auxiliary graph.
    cc_result = run_program(
        aux.freeze(), HashMinComponents(), **engine_kwargs
    )
    tree_edge_label = dict(cc_result.values)

    labels: Dict[FrozenSet, Hashable] = {}
    for u, v in graph.edges():
        if u == v:
            continue
        key = frozenset((u, v))
        if key in tree_pairs:
            child = u if parent[u] in (v,) else v
            labels[key] = tree_edge_label[child]
        else:
            deeper = u if depth[u] >= depth[v] else v
            labels[key] = tree_edge_label[deeper]

    return PipelineResult(
        output=labels,
        stages=[tree_result]
        + traversal.stages
        + [wave_result, cc_result],
    )
