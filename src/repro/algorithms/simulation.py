"""Vertex-centric graph pattern matching by simulation (Table 1 rows
18–20), after Fard et al.'s distributed implementation.

**Graph simulation** (row 18).  Every data vertex keeps a ``matchSet``
of query vertices it may still simulate (initialized by label).  Each
vertex ships its matchSet to its *parents* (in-neighbors), who cache
their children's sets and re-evaluate the child condition: ``q`` stays
in ``matchSet(u)`` only if, for every query edge ``(q, q')``, some
child of ``u`` still claims ``q'``.  Removals propagate; silence is
the fixpoint.

**Dual simulation** (row 19) additionally ships matchSets to
*children* and enforces the parent condition symmetrically.

**Strong simulation** (row 20) first runs dual simulation, then every
surviving candidate becomes a *ball center*: a TTL-limited flood
(radius ``d_Q``, the query diameter, over undirected edges through
all vertices) discovers ball members; candidate members report their
matchSet and candidate-restricted out-edges to the center, which
locally recomputes dual simulation inside the ball (work charged to
the vertex) and keeps the ball iff the center itself survives — Ma et
al.'s "perfect subgraph" test, exactly as the sequential baseline
computes it.

Measured profiles (the paper's rows): supersteps are bounded by
``O(m)`` (removal chains), matchSets cost ``O(n_q)`` per message —
the TPPs exceed the sequential HHK / Ma et al. bounds and none of the
three is BPPA.

Each entry point takes a ``Graph`` builder or a ``CsrSnapshot`` and
freezes its inputs once, on entry.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Set, Tuple

from repro.algorithms.common import PipelineResult
from repro.bsp.context import ComputeContext, MasterContext
from repro.bsp.engine import PregelResult, run_program
from repro.bsp.program import VertexProgram
from repro.bsp.vertex import VertexState
from repro.graph.graph import Graph
from repro.metrics.opcounter import OpCounter
from repro.sequential.simulation import (
    Relation,
    has_match,
    query_radius,
)


class SimulationProgram(VertexProgram):
    """Rows 18/19: the matchSet refinement program.

    Vertex value::

        {"matchSet": {q, ...},
         "children": {child: {q, ...}},
         "parents": {parent: {q, ...}}}   # dual mode only
    """

    name = "graph-simulation"

    def __init__(self, query: Graph, dual: bool = False):
        self.query = query
        self.dual = dual
        if dual:
            self.name = "dual-simulation"
        # Pre-extract the query structure every vertex evaluates.
        self._q_children = {
            q: list(query.neighbors(q)) for q in query.vertices()
        }
        self._q_parents = {
            q: list(query.in_neighbors(q)) for q in query.vertices()
        }
        self._q_labels = {
            q: query.label(q) for q in query.vertices()
        }

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        label = graph.label(vertex_id)
        return {
            "matchSet": {
                q for q, ql in self._q_labels.items() if ql == label
            },
            "children": {},
            "parents": {},
        }

    def _broadcast(self, vertex, ctx) -> None:
        payload = frozenset(vertex.value["matchSet"])
        ctx.charge(len(payload))
        for parent in vertex.in_edges:
            ctx.send(parent, ("child", vertex.id, payload))
        if self.dual:
            for child in vertex.out_edges:
                ctx.send(child, ("parent", vertex.id, payload))

    def _evaluate(self, vertex, ctx) -> bool:
        """Re-check the simulation conditions; True if changed."""
        state = vertex.value
        match_set: Set = state["matchSet"]
        children: Dict = state["children"]
        parents: Dict = state["parents"]
        keep = set()
        for q in match_set:
            ok = True
            for q_child in self._q_children[q]:
                ctx.charge(len(children))
                if not any(
                    q_child in cset for cset in children.values()
                ):
                    ok = False
                    break
            if ok and self.dual:
                for q_parent in self._q_parents[q]:
                    ctx.charge(len(parents))
                    if not any(
                        q_parent in pset for pset in parents.values()
                    ):
                        ok = False
                        break
            if ok:
                keep.add(q)
        changed = keep != match_set
        state["matchSet"] = keep
        return changed

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        if ctx.superstep == 0:
            # Broadcast and stay active: every vertex must run the
            # first evaluation in superstep 1 even if it receives no
            # messages (e.g. childless vertices must drop query nodes
            # that require children).
            self._broadcast(vertex, ctx)
            return
        for kind, sender, payload in messages:
            ctx.charge(len(payload) + 1)
            if kind == "child":
                state["children"][sender] = payload
            else:
                state["parents"][sender] = payload
        if self._evaluate(vertex, ctx):
            self._broadcast(vertex, ctx)
        vertex.vote_to_halt()


def _relation_from_values(
    query: Graph, values: Dict[Hashable, Dict]
) -> Relation:
    relation: Relation = {q: set() for q in query.vertices()}
    for v, state in values.items():
        for q in state["matchSet"]:
            relation[q].add(v)
    return relation


def graph_simulation(
    data: Graph, query: Graph, **engine_kwargs
) -> Tuple[Relation, PregelResult]:
    """Row 18: the maximal graph-simulation relation."""
    query = query.freeze()
    result = run_program(
        data, SimulationProgram(query, dual=False), **engine_kwargs
    )
    return _relation_from_values(query, result.values), result


def dual_simulation(
    data: Graph, query: Graph, **engine_kwargs
) -> Tuple[Relation, PregelResult]:
    """Row 19: the maximal dual-simulation relation."""
    query = query.freeze()
    result = run_program(
        data, SimulationProgram(query, dual=True), **engine_kwargs
    )
    return _relation_from_values(query, result.values), result


class BallGathering(VertexProgram):
    """Row 20, phase 2: TTL flood + local per-center dual simulation.

    Vertex value::

        {"candidate": bool, "matchSet": {q}, "seen": {centers},
         "members": {member: (matchSet, edges)},   # centers only
         "result": relation or None}                # centers only
    """

    name = "strong-simulation-balls"

    def __init__(self, query: Graph, match_sets: Dict[Hashable, Set]):
        self.query = query
        self.match_sets = match_sets
        self.radius = query_radius(query)
        self.finalize = False
        self._candidates = {
            v for v, ms in match_sets.items() if ms
        }

    def initial_value(self, vertex_id, graph) -> Dict[str, Any]:
        match_set = set(self.match_sets.get(vertex_id, ()))
        return {
            "candidate": bool(match_set),
            "matchSet": match_set,
            "seen": set(),
            "members": {},
            "result": None,
        }

    def _payload(self, vertex) -> Tuple:
        edges = tuple(
            t for t in vertex.out_edges if t in self._candidates
        )
        return (
            vertex.id,
            frozenset(vertex.value["matchSet"]),
            edges,
        )

    def compute(
        self,
        vertex: VertexState,
        messages: List[Any],
        ctx: ComputeContext,
    ) -> None:
        state = vertex.value
        und_neighbors = set(vertex.out_edges) | set(vertex.in_edges)
        if self.finalize:
            self._finalize(vertex, messages, ctx)
            return
        if ctx.superstep == 0:
            if state["candidate"]:
                center = vertex.id
                state["seen"].add(center)
                member_id, mset, edges = self._payload(vertex)
                state["members"][member_id] = (mset, edges)
                if self.radius > 0:
                    for nbr in und_neighbors:
                        ctx.send(nbr, ("b", center, self.radius - 1))
            vertex.vote_to_halt()
            return
        for m in messages:
            if m[0] == "b":
                _, center, ttl = m
                if center in state["seen"]:
                    continue
                state["seen"].add(center)
                if state["candidate"]:
                    ctx.send(center, ("m",) + self._payload(vertex))
                if ttl > 0:
                    for nbr in und_neighbors:
                        ctx.send(nbr, ("b", center, ttl - 1))
            else:
                _, member_id, mset, edges = m
                state["members"][member_id] = (mset, edges)
                ctx.charge(len(mset) + len(edges))
        vertex.vote_to_halt()

    def _finalize(self, vertex, messages, ctx) -> None:
        state = vertex.value
        for m in messages:
            if m[0] == "m":
                _, member_id, mset, edges = m
                state["members"][member_id] = (mset, edges)
        if state["candidate"]:
            ball = Graph(directed=True)
            for member, (mset, _edges) in state["members"].items():
                ball.add_vertex(member)
            for member, (_mset, edges) in state["members"].items():
                for target in edges:
                    if ball.has_vertex(target):
                        ball.add_edge(member, target)
            ops = OpCounter()
            relation = _ball_dual_simulation(
                self.query, ball.freeze(), state["members"], ops
            )
            ctx.charge(ops.ops)
            if has_match(relation) and any(
                vertex.id in matched for matched in relation.values()
            ):
                state["result"] = {
                    q: set(matched) for q, matched in relation.items()
                }
        vertex.vote_to_halt()

    def master_compute(self, master: MasterContext) -> None:
        if self.finalize:
            master.halt()
            return
        # The farthest "m" report lands in superstep radius + 1 (or
        # never, for radius 0); finalize right after.
        last_delivery = self.radius + 1 if self.radius > 0 else 0
        if master.superstep >= last_delivery:
            self.finalize = True
            master.activate_all()


def _ball_dual_simulation(
    query: Graph,
    ball: Graph,
    members: Dict[Hashable, Tuple],
    ops: OpCounter,
) -> Relation:
    """Dual-simulation fixpoint inside a ball, seeded by the shipped
    matchSets (which already encode the label test)."""
    sim: Relation = {q: set() for q in query.vertices()}
    for member, (mset, _edges) in members.items():
        for q in mset:
            sim[q].add(member)
            ops.add()
    changed = True
    while changed:
        changed = False
        for q in query.vertices():
            ops.add()
            for q_child in query.neighbors(q):
                keep = set()
                for u in sim[q]:
                    ops.add()
                    if any(
                        t in sim[q_child] for t in ball.neighbors(u)
                    ):
                        keep.add(u)
                if len(keep) != len(sim[q]):
                    sim[q] = keep
                    changed = True
            for q_parent in query.in_neighbors(q):
                keep = set()
                for u in sim[q]:
                    ops.add()
                    if any(
                        s in sim[q_parent]
                        for s in ball.in_neighbors(u)
                    ):
                        keep.add(u)
                if len(keep) != len(sim[q]):
                    sim[q] = keep
                    changed = True
    return sim


def strong_simulation(
    data: Graph, query: Graph, **engine_kwargs
) -> PipelineResult:
    """Row 20: dual-simulation filter, then per-center balls.

    The ``output`` maps each surviving center to its local relation,
    matching :func:`repro.sequential.simulation.strong_simulation`.
    """
    data, query = data.freeze(), query.freeze()
    dual_relation, dual_result = dual_simulation(
        data, query, **engine_kwargs
    )
    match_sets: Dict[Hashable, Set] = {v: set() for v in data.vertices()}
    for q, matched in dual_relation.items():
        for v in matched:
            match_sets[v].add(q)
    if not has_match(dual_relation):
        return PipelineResult(output={}, stages=[dual_result])
    ball_program = BallGathering(query, match_sets)
    ball_result = run_program(data, ball_program, **engine_kwargs)
    output = {
        v: state["result"]
        for v, state in ball_result.values.items()
        if state["result"] is not None
    }
    return PipelineResult(
        output=output, stages=[dual_result, ball_result]
    )
