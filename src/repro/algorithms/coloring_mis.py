"""Vertex-centric graph coloring via Luby's maximal independent set
(Table 1 row 12; §3.6), after Salihoglu & Widom.

Each *phase* colors one MIS of the still-uncolored vertices with a
fresh color ``c``; Luby's randomized rounds inside a phase take three
supersteps each:

1. every remaining candidate selects itself *tentatively* with
   probability ``1 / (2 d(v))`` (isolated candidates join the MIS
   outright) and tentative vertices announce their id to neighbors;
2. a tentative vertex whose id is smaller than every tentative
   neighbor's enters the MIS, takes color ``c``, and announces it;
3. neighbors of new MIS members delete them from their adjacency and
   become ineligible for the current phase (they wait for ``c + 1``).

A phase ends when no candidates remain; the algorithm ends when every
vertex is colored.  Luby's analysis gives expected ``O(log n)``
supersteps per phase and there are ``K`` phases (``K = n`` on a
complete graph), so the run is balanced (P1–P3 hold per superstep)
but **not** BPPA, with TPP ``O(Km log n)`` versus the sequential
LF-MIS coloring's ``O(Km)``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bsp.aggregator import OrAggregator
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph

_SELECT = "select"
_DECIDE = "decide"
_PRUNE = "prune"


class LubyMISColoring(VertexProgram):
    """The Luby coloring phase machine.

    Vertex value::

        {"color": int or None, "covered_in": phase id or None,
         "tentative": bool, "active_nbrs": {still-uncolored neighbors}}

    ``covered_in`` marks the phase in which a neighbor entered the
    MIS; the vertex sits out the rest of that phase and is
    automatically re-admitted when the phase counter advances.
    """

    name = "luby-mis-coloring"
    # Draws coin flips from the run's shared RNG stream, whose
    # consumption order is inherently sequential across workers.
    parallel_safe = False

    def __init__(self):
        self.step = _SELECT
        self.color = 0

    def aggregators(self):
        return {
            "candidates_left": OrAggregator(),
            "uncolored_left": OrAggregator(),
        }

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        return {
            "color": None,
            "covered_in": None,
            "tentative": False,
            "active_nbrs": {
                u for u in graph.neighbors(vertex_id) if u != vertex_id
            },
        }

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        if state["color"] is not None:
            vertex.vote_to_halt()
            return
        ctx.charge(len(messages))
        if self.step == _SELECT:
            self._select(vertex, ctx)
        elif self.step == _DECIDE:
            self._decide(vertex, messages, ctx)
        else:
            self._prune(vertex, messages, ctx)

    def _select(self, vertex, ctx) -> None:
        state = vertex.value
        if state["covered_in"] == self.color:
            ctx.aggregate("uncolored_left", True)
            return
        degree = len(state["active_nbrs"])
        if degree == 0:
            # Isolated candidate: a trivial MIS member (§3.6 point 1).
            state["color"] = self.color
            vertex.vote_to_halt()
            return
        ctx.aggregate("candidates_left", True)
        ctx.aggregate("uncolored_left", True)
        if ctx.random.random() < 1.0 / (2.0 * degree):
            state["tentative"] = True
            ctx.send_to(state["active_nbrs"], ("tent", vertex.id))

    def _decide(self, vertex, messages, ctx) -> None:
        state = vertex.value
        if not state["tentative"]:
            return
        state["tentative"] = False
        tentative_nbrs = [m[1] for m in messages if m[0] == "tent"]
        if tentative_nbrs and min(tentative_nbrs) < vertex.id:
            return  # a smaller tentative neighbor wins this round
        state["color"] = self.color
        ctx.send_to(state["active_nbrs"], ("mis", vertex.id))

    def _prune(self, vertex, messages, ctx) -> None:
        state = vertex.value
        chosen = {m[1] for m in messages if m[0] == "mis"}
        if not chosen:
            return
        state["active_nbrs"] -= chosen
        ctx.charge(len(chosen))
        if state["color"] is None:
            # A neighbor joined the MIS: sit out this color phase.
            state["covered_in"] = self.color

    def master_compute(self, master: MasterContext) -> None:
        if self.step == _SELECT:
            if not master.get_aggregate("uncolored_left"):
                master.halt()
                return
            if not master.get_aggregate("candidates_left"):
                # Phase over: advance the color; covered vertices are
                # re-admitted because their covered_in no longer
                # matches.
                self.color += 1
            else:
                self.step = _DECIDE
        elif self.step == _DECIDE:
            self.step = _PRUNE
        else:
            self.step = _SELECT
        master.activate_all()


def luby_coloring(
    graph: Graph, **engine_kwargs
) -> PregelResult:
    """Run Luby MIS coloring; ``result.values[v]["color"]`` is the
    assigned color.  Deterministic given the engine ``seed``."""
    return run_program(graph, LubyMISColoring(), **engine_kwargs)


def coloring_from_result(result: PregelResult) -> Dict[Any, int]:
    """Extract ``vertex -> color``."""
    return {v: val["color"] for v, val in result.values.items()}
