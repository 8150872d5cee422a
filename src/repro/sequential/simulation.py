"""Sequential graph pattern matching by simulation (Table 1 rows
18–20).

* :func:`graph_simulation` — the maximal simulation relation between a
  labeled query ``Q`` and data graph ``G`` (child condition only),
  computed by fixpoint refinement in the spirit of Henzinger,
  Henzinger & Kopke.
* :func:`dual_simulation` — adds the parent condition (Ma et al.).
* :func:`strong_simulation` — dual simulation with locality: for each
  candidate center ``w``, dual simulation is recomputed inside the
  ball of radius ``d_Q`` (the query's diameter) around ``w``; ``w`` is
  a match when it survives in its own ball (Ma et al.).

Conventions: vertex-labeled directed graphs (edge labels are treated
as uniform, following the implementations of Fard et al.); the
relation is returned as ``{query_vertex: set(data_vertices)}``, empty
sets meaning "no match".
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Optional, Set

from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter, ensure_counter

Relation = Dict[Hashable, Set[Hashable]]


def _initial_relation(
    data: CsrSnapshot, query: CsrSnapshot, ops: OpCounter
) -> Relation:
    sim: Relation = {q: set() for q in query.vertices()}
    for q in query.vertices():
        ql = query.label(q)
        for u in data.vertices():
            ops.add()
            if data.label(u) == ql:
                sim[q].add(u)
    return sim


def _refine(
    data: CsrSnapshot,
    query: CsrSnapshot,
    sim: Relation,
    ops: OpCounter,
    dual: bool,
) -> Relation:
    """Fixpoint refinement of ``sim`` in place; returns it."""
    changed = True
    while changed:
        changed = False
        for q in query.vertices():
            ops.add()
            # Child condition: u must have a successor matching each
            # successor of q.
            for q_child in query.neighbors(q):
                keep = set()
                child_set = sim[q_child]
                for u in sim[q]:
                    ops.add()
                    for u_child in data.neighbors(u):
                        ops.add()
                        if u_child in child_set:
                            keep.add(u)
                            break
                if len(keep) != len(sim[q]):
                    sim[q] = keep
                    changed = True
            if not dual:
                continue
            # Parent condition: u must have a predecessor matching
            # each predecessor of q.
            for q_parent in query.in_neighbors(q):
                keep = set()
                parent_set = sim[q_parent]
                for u in sim[q]:
                    ops.add()
                    for u_parent in data.in_neighbors(u):
                        ops.add()
                        if u_parent in parent_set:
                            keep.add(u)
                            break
                if len(keep) != len(sim[q]):
                    sim[q] = keep
                    changed = True
    return sim


def graph_simulation(
    data: CsrSnapshot,
    query: CsrSnapshot,
    counter: Optional[OpCounter] = None,
) -> Relation:
    """The maximal graph-simulation relation (child condition)."""
    ops = ensure_counter(counter)
    sim = _initial_relation(data, query, ops)
    return _refine(data, query, sim, ops, dual=False)


def dual_simulation(
    data: CsrSnapshot,
    query: CsrSnapshot,
    counter: Optional[OpCounter] = None,
) -> Relation:
    """The maximal dual-simulation relation (child + parent)."""
    ops = ensure_counter(counter)
    sim = _initial_relation(data, query, ops)
    return _refine(data, query, sim, ops, dual=True)


def has_match(relation: Relation) -> bool:
    """Whether the relation witnesses a match (no empty match set)."""
    return bool(relation) and all(relation.values())


def _efficient_refine(
    data: CsrSnapshot,
    query: CsrSnapshot,
    sim: Relation,
    ops: OpCounter,
    dual: bool,
) -> Relation:
    """Worklist refinement with successor/predecessor counters — the
    Henzinger–Henzinger–Kopke style ``O((m+n)(m_q+n_q))`` fixpoint the
    paper's sequential column assumes.

    ``child_count[(u, q)]`` tracks how many successors of ``u`` are in
    ``sim[q]`` (``parent_count`` symmetrically for dual); a pair
    ``(q, u)`` is removed at most once and each removal pays its
    degree, so total work is ``O((m + n)(m_q + n_q))``.
    """
    from collections import deque

    child_count: Dict = {}
    parent_count: Dict = {}
    for q in query.vertices():
        for u in data.vertices():
            count = 0
            for v in data.neighbors(u):
                ops.add()
                if v in sim[q]:
                    count += 1
            child_count[(u, q)] = count
            if dual:
                count = 0
                for v in data.in_neighbors(u):
                    ops.add()
                    if v in sim[q]:
                        count += 1
                parent_count[(u, q)] = count

    queue = deque()

    def remove(q, u):
        sim[q].discard(u)
        queue.append((q, u))
        ops.add()

    for q in query.vertices():
        q_children = list(query.neighbors(q))
        q_parents = list(query.in_neighbors(q)) if dual else []
        for u in list(sim[q]):
            ops.add()
            if any(child_count[(u, qc)] == 0 for qc in q_children):
                remove(q, u)
            elif dual and any(
                parent_count[(u, qp)] == 0 for qp in q_parents
            ):
                remove(q, u)

    while queue:
        q, v = queue.popleft()
        ops.add()
        # v left sim[q]: predecessors lose a q-successor.
        for p in data.in_neighbors(v):
            ops.add()
            key = (p, q)
            child_count[key] -= 1
            if child_count[key] == 0:
                for q0 in query.in_neighbors(q):
                    ops.add()
                    if p in sim[q0]:
                        remove(q0, p)
        if dual:
            # Successors of v lose a q-predecessor.
            for s in data.neighbors(v):
                ops.add()
                key = (s, q)
                parent_count[key] -= 1
                if parent_count[key] == 0:
                    for q1 in query.neighbors(q):
                        ops.add()
                        if s in sim[q1]:
                            remove(q1, s)
    return sim


def graph_simulation_efficient(
    data: CsrSnapshot,
    query: CsrSnapshot,
    counter: Optional[OpCounter] = None,
) -> Relation:
    """The maximal simulation relation via the HHK-style worklist —
    same answer as :func:`graph_simulation`, at the paper's
    ``O((m+n)(m_q+n_q))`` cost."""
    ops = ensure_counter(counter)
    sim = _initial_relation(data, query, ops)
    return _efficient_refine(data, query, sim, ops, dual=False)


def dual_simulation_efficient(
    data: CsrSnapshot,
    query: CsrSnapshot,
    counter: Optional[OpCounter] = None,
) -> Relation:
    """The maximal dual-simulation relation via the worklist fixpoint
    (Ma et al.'s bound)."""
    ops = ensure_counter(counter)
    sim = _initial_relation(data, query, ops)
    return _efficient_refine(data, query, sim, ops, dual=True)


def query_radius(query: CsrSnapshot) -> int:
    """``d_Q``: the diameter of the query's underlying undirected
    graph — the ball radius strong simulation uses."""
    undirected = query.to_undirected()
    best = 0
    for v in undirected.vertices():
        dist = {v: 0}
        queue = deque([v])
        while queue:
            x = queue.popleft()
            for y in undirected.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        ecc = max(dist.values(), default=0)
        if ecc > best:
            best = ecc
    return best


def ball(
    data: CsrSnapshot,
    center: Hashable,
    radius: int,
    ops: Optional[OpCounter] = None,
) -> Set[Hashable]:
    """Vertices within undirected distance ``radius`` of ``center``."""
    ops = ensure_counter(ops)
    members = {center}
    frontier = deque([(center, 0)])
    while frontier:
        v, d = frontier.popleft()
        ops.add()
        if d == radius:
            continue
        neighbors = set(data.neighbors(v)) | set(data.in_neighbors(v))
        for u in neighbors:
            ops.add()
            if u not in members:
                members.add(u)
                frontier.append((u, d + 1))
    return members


def strong_simulation(
    data: CsrSnapshot,
    query: CsrSnapshot,
    counter: Optional[OpCounter] = None,
) -> Dict[Hashable, Relation]:
    """Ma et al.'s strong simulation.

    Returns ``{center: relation}`` for every center whose ball's
    maximal dual simulation still contains the center — each entry is
    a "perfect subgraph" witness.  Candidate centers are pruned to the
    global dual-simulation image first (the standard optimization,
    also used by the vertex-centric implementation).
    """
    ops = ensure_counter(counter)
    global_dual = dual_simulation_efficient(data, query, ops)
    if not has_match(global_dual):
        return {}
    candidates: Set[Hashable] = set()
    for matches in global_dual.values():
        candidates |= matches
    radius = query_radius(query)
    results: Dict[Hashable, Relation] = {}
    for w in sorted(candidates, key=repr):
        members = ball(data, w, radius, ops)
        sub = data.subgraph(members)
        ops.add(len(members))
        local = dual_simulation_efficient(sub, query, ops)
        if has_match(local) and any(
            w in matched for matched in local.values()
        ):
            results[w] = local
    return results
