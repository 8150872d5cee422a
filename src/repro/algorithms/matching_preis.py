"""Vertex-centric maximum-weight matching by locally dominant edges
(Table 1 row 13; the Pregel rendering of Preis's algorithm, after
Salihoglu & Widom).

A round takes three supersteps:

1. every unmatched vertex points at its heaviest available neighbor
   (ties by smaller id) and tells it so;
2. a vertex whose chosen neighbor chose it back is matched — the edge
   is *locally dominant* (heaviest at both endpoints); both endpoints
   announce their retirement;
3. neighbors delete retired vertices from their available lists.

With distinct weights the result is the unique locally-dominant
matching — identical to the sequential decreasing-weight greedy — and
a ½-approximation of the maximum-weight matching.  Rounds continue
until no available edges remain: ``O(K)`` rounds with ``K`` the number
of rounds the dominance process needs, each round ``O(m)`` messages —
TPP ``O(Km)`` versus Preis's sequential ``O(m)``: *more work*.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.algorithms.cc_hashmin import repr_key
from repro.bsp.aggregator import OrAggregator
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph

_POINT = "point"
_MATCH = "match"
_CLEAN = "clean"


class LocallyDominantMatching(VertexProgram):
    """The matching phase machine.

    Vertex value::

        {"partner": matched neighbor or None,
         "choice": currently pointed-at neighbor,
         "avail": {neighbor: weight} still-unmatched neighbors}
    """

    name = "preis-matching"

    def __init__(self):
        self.step = _POINT

    def aggregators(self):
        return {"open_edges": OrAggregator()}

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        return {
            "partner": None,
            "choice": None,
            "avail": {
                u: weight
                for u, weight in graph.out_edge_items(vertex_id)
                if u != vertex_id
            },
        }

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        if state["partner"] is not None:
            vertex.vote_to_halt()
            return
        ctx.charge(len(messages))
        if self.step == _POINT:
            self._point(vertex, ctx)
        elif self.step == _MATCH:
            self._match(vertex, messages, ctx)
        else:
            self._clean(vertex, messages, ctx)

    def _point(self, vertex, ctx) -> None:
        state = vertex.value
        avail = state["avail"]
        if not avail:
            vertex.vote_to_halt()
            return
        ctx.aggregate("open_edges", True)
        ctx.charge(len(avail))
        best = None
        best_key = None
        for nbr, weight in avail.items():
            key = (-weight, repr_key(nbr))
            if best_key is None or key < best_key:
                best_key = key
                best = nbr
        state["choice"] = best
        ctx.send(best, ("pt", vertex.id))

    def _match(self, vertex, messages, ctx) -> None:
        state = vertex.value
        pointers = {m[1] for m in messages}
        if state["choice"] in pointers:
            # Mutual choice: the edge is locally dominant.
            state["partner"] = state["choice"]
            ctx.send_to(state["avail"], ("gone", vertex.id))

    def _clean(self, vertex, messages, ctx) -> None:
        state = vertex.value
        for _, gone in messages:
            state["avail"].pop(gone, None)

    def master_compute(self, master: MasterContext) -> None:
        if self.step == _POINT:
            if not master.get_aggregate("open_edges"):
                master.halt()
                return
            self.step = _MATCH
        elif self.step == _MATCH:
            self.step = _CLEAN
        else:
            self.step = _POINT
        master.activate_all()


def locally_dominant_matching(
    graph: Graph, **engine_kwargs
) -> Tuple[List[Tuple[Hashable, Hashable]], PregelResult]:
    """Run the matching; returns ``(edges, result)``."""
    result = run_program(
        graph, LocallyDominantMatching(), **engine_kwargs
    )
    edges: List[Tuple[Hashable, Hashable]] = []
    seen: Set[frozenset] = set()
    for v, value in result.values.items():
        partner: Optional[Hashable] = value["partner"]
        if partner is None:
            continue
        key = frozenset((v, partner))
        if key not in seen:
            seen.add(key)
            edges.append((v, partner))
    return edges, result
