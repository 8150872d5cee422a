"""Vertex-centric Boruvka minimum-cost spanning tree (Table 1 row 11;
§3.5), after Salihoglu & Widom.

Each round runs the paper's three phases on the current (contracted)
graph:

1. **Min-edge picking** — every vertex picks its lightest incident
   edge (ties by smaller destination id) and points at the chosen
   neighbor; picked edges enter the MST.  The picked edges arrange the
   vertices into *conjoined trees* — two trees whose roots are joined
   by a 2-cycle (Fig. 5).
2. **Super-vertex finding** — each vertex probes its pointer; a vertex
   that is probed by the vertex it probed is on the 2-cycle, and the
   smaller id of the pair becomes the super-vertex.  Everyone else
   finds its super-vertex by simple pointer jumping (request/reply
   rounds that halve the pointer depth).
3. **Edge cleaning and relabeling** — neighbors exchange super-vertex
   ids; every vertex relabels its adjacency to super-vertex keys,
   drops self-loops and keeps the lightest parallel edge; sub-vertices
   ship their cleaned edges to their super-vertex and retire.

The vertex count at least halves every round, so there are
``O(log n)`` rounds; each round costs ``O(m)`` messages/computation
per superstep plus the pointer-jumping supersteps — TPP
``O(mδ log n)`` class versus sequential ``O(m α(m,n))``
(Chazelle) / ``O(m + n log n)`` (Prim): *more work*.  Not BPPA: edge
relabeling concentrates whole adjacency lists onto super-vertices
(P1–P3 fail) and the superstep count exceeds ``O(log n)``.

Ties are broken exactly as the paper prescribes (minimum destination
id for edge picking) plus a canonical original-edge order during edge
cleaning, so both endpoints of a contracted pair retain the *same*
witness edge — without this, two components joined by equal-weight
parallel edges could each add a different one and create a cycle.
With distinct weights the MST is unique and equals Kruskal's; with
ties the result is still a minimum spanning tree (same total weight).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.algorithms.cc_hashmin import repr_key
from repro.bsp.aggregator import OrAggregator
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph

def _edge_key(orig: Tuple) -> Tuple:
    """Canonical total order over original (undirected) edges, used
    to break weight ties consistently at both endpoints."""
    u, v = orig
    a, b = sorted((repr_key(u), repr_key(v)))
    return (a, b)


# Phase constants.
_MINPICK = "minpick"
_PROBE = "probe"
_JUMP_ANSWER = "jump-answer"
_JUMP_PROCESS = "jump-process"
_RELABEL_BCAST = "relabel-bcast"
_RELABEL_SHIP = "relabel-ship"
_MERGE = "merge"


class BoruvkaMST(VertexProgram):
    """The MCST phase machine.

    Vertex value::

        {"adj": {current_neighbor: (weight, original_edge)},
         "pointer": picked neighbor, "sv": super-vertex id or None,
         "alive": bool, "picked": [original edges this vertex picked]}
    """

    name = "boruvka-mst"

    def __init__(self):
        self.phase = _MINPICK

    def aggregators(self):
        return {
            "any_edges": OrAggregator(),
            "unresolved": OrAggregator(),
        }

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        adj = {
            nbr: (weight, (vertex_id, nbr))
            for nbr, weight in graph.out_edge_items(vertex_id)
            if nbr != vertex_id
        }
        return {
            "adj": adj,
            "pointer": None,
            "sv": None,
            "alive": True,
            "picked": [],
        }

    # ------------------------------------------------------------------

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        if not state["alive"]:
            vertex.vote_to_halt()
            return
        ctx.charge(len(messages))
        handler = {
            _MINPICK: self._minpick,
            _PROBE: self._probe,
            _JUMP_ANSWER: self._jump_answer,
            _JUMP_PROCESS: self._jump_process,
            _RELABEL_BCAST: self._relabel_bcast,
            _RELABEL_SHIP: self._relabel_ship,
            _MERGE: self._merge,
        }[self.phase]
        handler(vertex, messages, ctx)

    # -- phase handlers -------------------------------------------------

    def _minpick(self, vertex, messages, ctx) -> None:
        state = vertex.value
        adj = state["adj"]
        if not adj:
            # This vertex is the final super-vertex of its component.
            state["alive"] = False
            vertex.vote_to_halt()
            return
        ctx.aggregate("any_edges", True)
        ctx.charge(len(adj))
        best_nbr = None
        best_key = None
        for nbr, (weight, _orig) in adj.items():
            key = (weight, repr_key(nbr))
            if best_key is None or key < best_key:
                best_key = key
                best_nbr = nbr
        state["pointer"] = best_nbr
        state["sv"] = None
        state["picked"].append(adj[best_nbr][1])
        ctx.send(best_nbr, ("probe", vertex.id))

    def _probe(self, vertex, messages, ctx) -> None:
        state = vertex.value
        senders = {m[1] for m in messages}
        if state["pointer"] in senders and repr_key(
            vertex.id
        ) < repr_key(state["pointer"]):
            state["sv"] = vertex.id
        if state["sv"] is None:
            ctx.send(state["pointer"], ("jq", vertex.id))
            ctx.aggregate("unresolved", True)

    def _jump_answer(self, vertex, messages, ctx) -> None:
        state = vertex.value
        for _, requester in messages:
            ctx.send(
                requester, ("ja", state["sv"], state["pointer"])
            )

    def _jump_process(self, vertex, messages, ctx) -> None:
        state = vertex.value
        for _, sv, pointer in messages:
            if sv is not None:
                state["sv"] = sv
            else:
                state["pointer"] = pointer
        if state["sv"] is None:
            ctx.send(state["pointer"], ("jq", vertex.id))
            ctx.aggregate("unresolved", True)

    def _relabel_bcast(self, vertex, messages, ctx) -> None:
        state = vertex.value
        for nbr in state["adj"]:
            ctx.send(nbr, ("sv", vertex.id, state["sv"]))

    def _relabel_ship(self, vertex, messages, ctx) -> None:
        state = vertex.value
        nbr_sv = {m[1]: m[2] for m in messages}
        cleaned: Dict[Hashable, Tuple[float, Tuple]] = {}
        ctx.charge(len(state["adj"]))
        for nbr, (weight, orig) in state["adj"].items():
            key = nbr_sv[nbr]
            if key == state["sv"]:
                continue  # self-loop after contraction
            if key not in cleaned or (weight, _edge_key(orig)) < (
                cleaned[key][0],
                _edge_key(cleaned[key][1]),
            ):
                cleaned[key] = (weight, orig)
        state["adj"] = cleaned
        if state["sv"] != vertex.id:
            # Sub-vertex: ship edges to the super-vertex and retire.
            for key, (weight, orig) in cleaned.items():
                ctx.send(state["sv"], ("edge", key, weight, orig))
            state["adj"] = {}
            state["alive"] = False
            vertex.vote_to_halt()

    def _merge(self, vertex, messages, ctx) -> None:
        state = vertex.value
        adj = state["adj"]
        for _, key, weight, orig in messages:
            if key == state["sv"]:
                continue
            if key not in adj or (weight, _edge_key(orig)) < (
                adj[key][0],
                _edge_key(adj[key][1]),
            ):
                adj[key] = (weight, orig)

    # ------------------------------------------------------------------

    def master_compute(self, master: MasterContext) -> None:
        if self.phase == _MINPICK:
            if not master.get_aggregate("any_edges"):
                master.halt()
                return
            self.phase = _PROBE
        elif self.phase == _PROBE:
            self.phase = (
                _JUMP_ANSWER
                if master.get_aggregate("unresolved")
                else _RELABEL_BCAST
            )
        elif self.phase == _JUMP_ANSWER:
            self.phase = _JUMP_PROCESS
        elif self.phase == _JUMP_PROCESS:
            self.phase = (
                _JUMP_ANSWER
                if master.get_aggregate("unresolved")
                else _RELABEL_BCAST
            )
        elif self.phase == _RELABEL_BCAST:
            self.phase = _RELABEL_SHIP
        elif self.phase == _RELABEL_SHIP:
            self.phase = _MERGE
        elif self.phase == _MERGE:
            self.phase = _MINPICK
        master.activate_all()


def minimum_spanning_tree(
    graph: Graph, **engine_kwargs
) -> Tuple[List[Tuple], float, PregelResult]:
    """Run Boruvka MCST.

    Returns ``(edges, total_weight, result)`` where ``edges`` are
    original graph edges (deduplicated across the two endpoints of
    each 2-cycle).  A ``Graph`` builder is frozen once, here.
    """
    graph = graph.freeze()
    result = run_program(graph, BoruvkaMST(), **engine_kwargs)
    seen: Set[FrozenSet] = set()
    edges: List[Tuple] = []
    total = 0.0
    for value in result.values.values():
        for u, v in value["picked"]:
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append((u, v))
            total += graph.weight(u, v)
    return edges, total, result
