"""Vertex partitioners: assign every vertex to one of ``p`` workers.

Pregel's default is hash partitioning; the engine accepts any callable
``vertex_id -> worker_index``.  The partitioners here matter for the
cost model: the per-worker local work ``w_i`` and message counts
``s_i / r_i`` that enter ``max(w, g·h, L)`` depend on the assignment.

Two tiers live here (see ``docs/partitioning.md``):

* **topology-blind** — :class:`HashPartitioner`,
  :class:`RangePartitioner`, :class:`GreedyEdgeBalancedPartitioner`:
  pure functions of the id (and at most the degree sequence);
* **cut-minimizing** — :class:`BfsGrowPartitioner`,
  :class:`LabelPropagationPartitioner`,
  :class:`MultilevelPartitioner`, :class:`HubSplitPartitioner`: read
  the topology to trade edge-cut against balance, which
  :func:`partition_metrics` scores and
  ``tests/test_partitioner_invariants.py`` holds at run level.

Determinism contract
--------------------

Every partitioner here is a pure function of ``(vertex_id,
num_workers)`` — in particular, none of them consults Python's builtin
``hash()``, whose value for ``str``/``bytes`` ids is randomized by
``PYTHONHASHSEED`` and therefore differs between runs and between
spawn-started worker processes.  :func:`stable_hash` provides the
seed-stable replacement (CRC-32 over a canonical byte encoding), with
int ids mapped to themselves so contiguous int ids keep the familiar
round-robin layout the committed bench baselines were produced with.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.graph import Graph

Partitioner = Callable[[Hashable], int]


def _canonical_bytes(value: Hashable) -> bytes:
    """A canonical, type-tagged byte encoding of a vertex id.

    Injective across the id types the repo uses (ints, strings,
    bytes, floats, None, and tuples thereof — e.g. the ``("L", i)``
    bipartite tags and the ``(u, v)`` tree-edge ids); anything else
    falls back to ``repr``, which is stable for the builtin types.
    """
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"o1" if value else b"o0"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, bytes):
        return b"b" + value
    if isinstance(value, tuple):
        parts = [_canonical_bytes(item) for item in value]
        return (
            b"t"
            + str(len(parts)).encode("ascii")
            + b"("
            + b"|".join(parts)
            + b")"
        )
    if isinstance(value, frozenset):
        parts = sorted(_canonical_bytes(item) for item in value)
        return b"z(" + b"|".join(parts) + b")"
    return b"r" + repr(value).encode("utf-8")


def stable_hash(vertex: Hashable) -> int:
    """A ``PYTHONHASHSEED``-independent hash for vertex ids.

    Unlike builtin ``hash()`` — whose ``str``/``bytes`` values are
    salted per interpreter, so the same workload could partition
    differently across runs and across spawn-started rank processes —
    this is a pure function of the id: CRC-32 over
    :func:`_canonical_bytes`.  Ints (the common case, and the one the
    committed bench baselines use) map to themselves, so
    ``stable_hash(i) % p`` keeps the round-robin layout builtin
    ``hash()`` gave for small non-negative ints.
    """
    if isinstance(vertex, bool):
        return int(vertex)
    if isinstance(vertex, int):
        return vertex
    return zlib.crc32(_canonical_bytes(vertex)) & 0xFFFFFFFF


def canonical_sort_key(value: Hashable) -> Tuple:
    """A total-order sort key over mixed-type vertex ids.

    Same type-tag discipline as :func:`_canonical_bytes` /
    :func:`stable_hash`, but producing a *comparable* key instead of a
    hash: ids group by type rank, and within a rank they order by
    value — numbers numerically (so ``2 < 10``, where ``key=repr``
    would give ``"10" < "2"``), strings and bytes lexicographically,
    tuples element-wise on recursively canonical keys, frozensets as
    sorted element keys.  Anything unrecognized falls back to ``repr``
    within its own rank, which is stable for the builtin types.
    """
    if value is None:
        return (0,)
    if isinstance(value, bool):
        # Rank with the numbers (bool is an int in Python), so
        # False/True order as 0/1 among numeric ids.
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    if isinstance(value, str):
        return (2, value)
    if isinstance(value, bytes):
        return (3, value)
    if isinstance(value, tuple):
        return (4, tuple(canonical_sort_key(item) for item in value))
    if isinstance(value, frozenset):
        return (
            5,
            tuple(sorted(canonical_sort_key(item) for item in value)),
        )
    return (9, type(value).__name__, repr(value))


def owner_for(
    vertex: Hashable, partitioner: Partitioner, num_partitions: int
) -> int:
    """The worker index owning ``vertex``: ``partitioner(v) % p``.

    The single definition of the ownership rule.  Every engine — the
    Pregel state store, its mutation path, the GAS vertex-cut mirror
    map, the block router — resolves ownership through here (or
    :func:`build_owner_map`), so a partitioner returning out-of-range
    indices is clamped identically everywhere.
    """
    return partitioner(vertex) % num_partitions


def build_owner_map(
    vertices,
    partitioner: Partitioner,
    num_partitions: int,
) -> Dict[Hashable, int]:
    """Materialize ``{vertex: owner_for(vertex)}`` over ``vertices``.

    Iteration order (and thus dict insertion order) follows
    ``vertices``, which the engines rely on for deterministic worker
    vertex lists.
    """
    return {
        v: partitioner(v) % num_partitions for v in vertices
    }


@dataclass(frozen=True)
class DenseIndex:
    """A frozen id ↔ dense-int table over a fixed vertex partition.

    The engine's fast execution path replaces hashable-keyed dict
    lookups with flat-list indexing: every vertex id is compiled to a
    contiguous int, grouped CSR-style so each worker owns one
    contiguous index range.  Within a worker the dense order equals
    the worker's ``vertex_ids`` order, which keeps the fast path's
    compute/send/deliver sequencing byte-identical to the reference
    dict path.

    The table is *frozen*: it is valid only while the vertex set and
    ownership it was built from stay unchanged.  Topology mutations
    invalidate it — the engine compiles a new one at the barrier of
    the superstep a mutation is applied.
    """

    #: Dense index -> vertex id.
    id_of: List[Hashable]
    #: Vertex id -> dense index.
    idx_of: Dict[Hashable, int]
    #: Dense index -> owning worker index.
    owner_of: List[int]
    #: Per-worker ``(start, stop)`` dense ranges, CSR-style.
    ranges: List[Tuple[int, int]]

    def __len__(self) -> int:
        return len(self.id_of)


def build_dense_index(workers: Sequence) -> DenseIndex:
    """Compile the workers' vertex lists into a :class:`DenseIndex`.

    ``workers`` is the engine's worker list; each worker contributes
    its ``vertex_ids`` in order, so worker ``i`` owns the contiguous
    range ``ranges[i]`` and iteration over ``range(start, stop)``
    visits vertices in exactly the order the reference path does.
    """
    id_of: List[Hashable] = []
    idx_of: Dict[Hashable, int] = {}
    owner_of: List[int] = []
    ranges: List[Tuple[int, int]] = []
    for worker in workers:
        start = len(id_of)
        for vid in worker.vertex_ids:
            idx_of[vid] = len(id_of)
            id_of.append(vid)
            owner_of.append(worker.index)
        ranges.append((start, len(id_of)))
    return DenseIndex(
        id_of=id_of, idx_of=idx_of, owner_of=owner_of, ranges=ranges
    )


def _undirected_neighbors(graph: Graph, vertex: Hashable) -> List[Hashable]:
    """``vertex``'s neighbors in the undirected view of ``graph``.

    Out- plus in-neighbors, deduplicated.  Returned in no particular
    order (the union is set-built); callers that care about order must
    sort by :func:`canonical_sort_key`.
    """
    if not graph.directed:
        return list(graph.neighbors(vertex))
    seen = set(graph.neighbors(vertex))
    seen.update(graph.in_neighbors(vertex))
    return list(seen)


def _weighted_adjacency(
    graph: Graph,
) -> Dict[Hashable, Dict[Hashable, int]]:
    """Undirected weighted adjacency: ``adj[u][v]`` counts the arcs
    between ``u`` and ``v`` (2 for a reciprocal digraph pair).

    Self-loops are dropped — they cannot be cut, so they carry no
    information for any partitioning objective.
    """
    adj: Dict[Hashable, Dict[Hashable, int]] = {
        v: {} for v in graph.vertices()
    }
    for u, v in graph.edges():
        if u == v:
            continue
        adj[u][v] = adj[u].get(v, 0) + 1
        adj[v][u] = adj[v].get(u, 0) + 1
    return adj


# ---------------------------------------------------------------------
# Partition quality metrics
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionMetrics:
    """Static quality metrics of one assignment over one graph.

    These are the quantities a partitioner can move *before* any
    program runs: ``edge_cut`` bounds the remote traffic every
    message-passing superstep pays, ``balance`` bounds the work skew
    ``max_i w_i / mean``, and ``replication_factor`` is the average
    number of workers that must hold a copy of a vertex when each
    edge is materialized on both endpoint owners (the vertex-cut
    mirror count GAS's placement cares about).
    """

    num_workers: int
    vertex_counts: List[int]
    #: Per-worker sum of owned vertices' total degree — the
    #: edge-balanced load the greedy partitioner optimizes.
    degree_loads: List[int]
    #: Edges (arcs, on digraphs) whose endpoints live on different
    #: workers.
    edge_cut: int
    total_edges: int
    #: Mean over vertices of the number of distinct workers among the
    #: vertex's own worker and its neighbors' workers.
    replication_factor: float

    @property
    def cut_fraction(self) -> float:
        if self.total_edges == 0:
            return 0.0
        return self.edge_cut / self.total_edges

    @property
    def balance(self) -> float:
        """``max_i count_i / mean_i count_i`` (1.0 = perfect)."""
        total = sum(self.vertex_counts)
        if total == 0:
            return 1.0
        mean = total / len(self.vertex_counts)
        return max(self.vertex_counts) / mean

    @property
    def edge_balance(self) -> float:
        """``max_i degree_load_i / mean`` (1.0 = perfect)."""
        total = sum(self.degree_loads)
        if total == 0:
            return 1.0
        mean = total / len(self.degree_loads)
        return max(self.degree_loads) / mean

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_workers": self.num_workers,
            "vertex_counts": list(self.vertex_counts),
            "degree_loads": list(self.degree_loads),
            "edge_cut": self.edge_cut,
            "total_edges": self.total_edges,
            "cut_fraction": self.cut_fraction,
            "balance": self.balance,
            "edge_balance": self.edge_balance,
            "replication_factor": self.replication_factor,
        }


def partition_metrics(
    graph: Graph, partitioner: Partitioner, num_workers: int
) -> PartitionMetrics:
    """Compute :class:`PartitionMetrics` for one assignment.

    Ownership resolves through :func:`owner_for`, matching every
    engine's clamp rule.
    """
    owner = {
        v: owner_for(v, partitioner, num_workers)
        for v in graph.vertices()
    }
    vertex_counts = [0] * num_workers
    degree_loads = [0] * num_workers
    for v, w in owner.items():
        vertex_counts[w] += 1
        degree_loads[w] += graph.total_degree(v)
    cut = 0
    total_edges = 0
    for u, v in graph.edges():
        total_edges += 1
        if owner[u] != owner[v]:
            cut += 1
    replicas = 0
    for v in owner:
        hosts = {owner[v]}
        for u in _undirected_neighbors(graph, v):
            hosts.add(owner[u])
        replicas += len(hosts)
    rf = replicas / len(owner) if owner else 1.0
    return PartitionMetrics(
        num_workers=num_workers,
        vertex_counts=vertex_counts,
        degree_loads=degree_loads,
        edge_cut=cut,
        total_edges=total_edges,
        replication_factor=rf,
    )


def edge_cut(
    graph: Graph, partitioner: Partitioner, num_workers: int
) -> int:
    """Edges whose endpoints land on different workers."""
    return partition_metrics(graph, partitioner, num_workers).edge_cut


def replication_factor(
    graph: Graph, partitioner: Partitioner, num_workers: int
) -> float:
    """Average per-vertex mirror count under the assignment."""
    return partition_metrics(
        graph, partitioner, num_workers
    ).replication_factor


class HashPartitioner:
    """Pregel's default: ``stable_hash(vertex) mod p``.

    :func:`stable_hash` of an int is the int itself, which on
    contiguous ids gives a round-robin assignment — a reasonable
    stand-in for the random hashing clusters use — and its string/
    tuple hashing is ``PYTHONHASHSEED``-independent, so the assignment
    is identical across runs and across worker processes.
    """

    def __init__(self, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers

    def __call__(self, vertex: Hashable) -> int:
        return stable_hash(vertex) % self.num_workers


class RangePartitioner:
    """Contiguous ranges in canonically-sorted-id order.

    Mirrors range-based splits; adversarial for algorithms whose hot
    vertices cluster by id, which makes imbalance visible in the stats.

    Vertices are ordered by :func:`canonical_sort_key`, so int ids
    split into *numerically* contiguous ranges (``key=repr`` used to
    order them lexicographically — ``"10" < "2"`` — silently breaking
    the contiguous-range contract for any graph with >= 10 int ids).
    """

    def __init__(self, graph: Graph, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        ordered = sorted(graph.vertices(), key=canonical_sort_key)
        chunk = max(1, -(-len(ordered) // num_workers))
        self._assignment: Dict[Hashable, int] = {
            v: min(i // chunk, num_workers - 1)
            for i, v in enumerate(ordered)
        }

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


class GreedyEdgeBalancedPartitioner:
    """Greedy balance on vertex *degree* rather than vertex count.

    Vertices are assigned in decreasing-degree order to the worker with
    the least accumulated degree (LPT scheduling).  Approximates the
    edge-balanced partitioning objective that systems like PowerGraph
    target, and gives the cost model a better-balanced ``w_i``.
    """

    def __init__(self, graph: Graph, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        loads: List[int] = [0] * num_workers
        self._assignment: Dict[Hashable, int] = {}
        by_degree = sorted(
            graph.vertices(),
            key=lambda v: (
                -graph.total_degree(v),
                canonical_sort_key(v),
            ),
        )
        for v in by_degree:
            target = loads.index(min(loads))
            self._assignment[v] = target
            loads[target] += graph.total_degree(v) + 1

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


class BfsGrowPartitioner:
    """Locality-aware partitioning: grow ``p`` contiguous BFS regions.

    A poor man's METIS: repeatedly grab an unassigned seed and BFS
    until the region holds ``~n/p`` vertices.  Neighbors tend to land
    on the same worker, so message traffic stays worker-local — the
    graph-partitioning optimization §1 of the paper surveys.  The
    ablation bench measures the cross-worker message reduction
    against hash partitioning.

    When a region fills, the live BFS frontier *carries over* as the
    next region's seed set, so consecutive regions grow from each
    other's boundary instead of restarting from a distant seed (an
    earlier version cleared the frontier, tearing holes in the very
    locality this partitioner exists to provide).  Seeds and neighbor
    expansion follow :func:`canonical_sort_key` order, and growth uses
    the undirected adjacency (out- plus in-neighbors), so regions stay
    contiguous on digraphs too.
    """

    def __init__(self, graph: Graph, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        target = max(1, -(-graph.num_vertices // num_workers))
        self._assignment: Dict[Hashable, int] = {}
        current = 0
        filled = 0
        pending: deque = deque()
        order = sorted(graph.vertices(), key=canonical_sort_key)
        for seed in order:
            if seed in self._assignment:
                continue
            pending.append(seed)
            while pending:
                v = pending.popleft()
                if v in self._assignment:
                    continue
                self._assignment[v] = current
                filled += 1
                if filled >= target and current < num_workers - 1:
                    # Region full: open the next one, keeping the
                    # frontier so it grows from this boundary.
                    current += 1
                    filled = 0
                for u in sorted(
                    _undirected_neighbors(graph, v),
                    key=canonical_sort_key,
                ):
                    if u not in self._assignment:
                        pending.append(u)

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


# ---------------------------------------------------------------------
# Cut-minimizing partitioners
# ---------------------------------------------------------------------


class LabelPropagationPartitioner:
    """Capacity-constrained label propagation (LPA) partitioning.

    Labels seed from ``stable_hash(v) % p`` (the hash assignment,
    probing forward past partitions already at capacity), then sweep:
    every vertex adopts the label most of its
    neighbors hold, provided the target partition is under its
    capacity ``ceil(n/p · balance_tolerance)``.  Sweeps visit vertices
    in :func:`canonical_sort_key` order and adoption requires a strict
    score improvement (ties keep the current label; equal-scoring
    alternatives resolve to the lowest label index), so the result is
    a pure function of the frozen graph and ``num_workers`` — no
    builtin ``hash()``, no RNG.
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int,
        balance_tolerance: float = 1.1,
        max_sweeps: int = 10,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if balance_tolerance < 1.0:
            raise ValueError("balance_tolerance must be >= 1.0")
        self.num_workers = num_workers
        self.balance_tolerance = balance_tolerance
        p = num_workers
        order = sorted(graph.vertices(), key=canonical_sort_key)
        n = len(order)
        cap = max(1, -(-int(n * balance_tolerance) // p))
        adj = _weighted_adjacency(graph)
        # Capacity-aware hash seeding: start from ``stable_hash % p``
        # and probe forward past full partitions, so the capacity is
        # an invariant from the first sweep on (sweeps below never
        # move a vertex *into* a full partition, but they also never
        # drain one nothing wants to leave).
        label: Dict[Hashable, int] = {}
        load = [0] * p
        for v in order:
            target = stable_hash(v) % p
            while load[target] >= cap:
                target = (target + 1) % p
            label[v] = target
            load[target] += 1
        for _ in range(max_sweeps):
            moved = 0
            for v in order:
                cur = label[v]
                score = [0] * p
                for u, w in adj[v].items():
                    score[label[u]] += w
                best, best_score = cur, score[cur]
                for cand in range(p):
                    if cand == cur or load[cand] >= cap:
                        continue
                    if score[cand] > best_score:
                        best, best_score = cand, score[cand]
                if best != cur:
                    load[cur] -= 1
                    load[best] += 1
                    label[v] = best
                    moved += 1
            if moved == 0:
                break
        self._assignment: Dict[Hashable, int] = dict(label)

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


class MultilevelPartitioner:
    """Multilevel coarsen → partition → refine (METIS-style).

    Three phases, all deterministic sweeps in canonical vertex order:

    1. **Coarsening** — heavy-edge matching: each unmatched vertex
       merges with the unmatched neighbor joined by the heaviest
       (multi-)edge, lighter merged weight first on ties; contract and
       repeat until the coarse graph is small or matching stalls.
    2. **Initial partition** — greedy affinity assignment of coarse
       nodes in decreasing-weight order: place each node on the
       partition it has the most edge weight to, subject to the
       weighted capacity ``total/p · balance_tolerance``.
    3. **Refinement** — on every uncoarsening level, boundary
       KL/FM-style passes move a vertex to a neighboring partition
       when that strictly lowers the edge-cut, never breaching the
       capacity and never emptying a partition.

    The construction is a pure function of the frozen graph and
    ``num_workers``: no RNG, no builtin ``hash()``, and every
    tie-break is by canonical order or lowest partition index.
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int,
        balance_tolerance: float = 1.1,
        refine_passes: int = 4,
        coarsest_size: Optional[int] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if balance_tolerance < 1.0:
            raise ValueError("balance_tolerance must be >= 1.0")
        self.num_workers = num_workers
        self.balance_tolerance = balance_tolerance
        p = num_workers
        verts = sorted(graph.vertices(), key=canonical_sort_key)
        n = len(verts)
        self._assignment: Dict[Hashable, int] = {}
        if n == 0:
            return
        if p == 1:
            self._assignment = {v: 0 for v in verts}
            return
        index = {v: i for i, v in enumerate(verts)}
        base = _weighted_adjacency(graph)
        adj: List[Dict[int, int]] = [{} for _ in range(n)]
        for v, nbrs in base.items():
            i = index[v]
            for u, w in nbrs.items():
                adj[i][index[u]] = w
        weights = [1] * n
        coarsest = coarsest_size or max(32, 8 * p)
        levels: List[Tuple[List[Dict[int, int]], List[int], List[int]]] = []
        while len(weights) > coarsest:
            mapping, n_coarse = self._heavy_edge_matching(adj, weights)
            if n_coarse >= len(weights) * 0.95:
                break  # matching stalled; further levels are noise
            levels.append((adj, weights, mapping))
            adj, weights = self._contract(adj, weights, mapping, n_coarse)
        part = self._initial_partition(adj, weights, p)
        part = self._refine(adj, weights, part, p, refine_passes)
        while levels:
            fine_adj, fine_weights, mapping = levels.pop()
            part = [part[mapping[i]] for i in range(len(fine_weights))]
            part = self._refine(
                fine_adj, fine_weights, part, p, refine_passes
            )
        self._assignment = {verts[i]: part[i] for i in range(n)}

    @staticmethod
    def _heavy_edge_matching(
        adj: List[Dict[int, int]], weights: List[int]
    ) -> Tuple[List[int], int]:
        """Match each node with its heaviest-edge unmatched neighbor.

        Returns ``(mapping, n_coarse)`` where ``mapping[i]`` is node
        ``i``'s coarse id.  Visits nodes in ascending index (canonical
        order); ties on edge weight prefer the lighter neighbor, then
        the lower index — all deterministic.
        """
        n = len(weights)
        mapping = [-1] * n
        n_coarse = 0
        for i in range(n):
            if mapping[i] != -1:
                continue
            best = -1
            best_key: Optional[Tuple[int, int, int]] = None
            for j, w in adj[i].items():
                if mapping[j] != -1:
                    continue
                key = (w, -weights[j], -j)
                if best_key is None or key > best_key:
                    best, best_key = j, key
            mapping[i] = n_coarse
            if best != -1:
                mapping[best] = n_coarse
            n_coarse += 1
        return mapping, n_coarse

    @staticmethod
    def _contract(
        adj: List[Dict[int, int]],
        weights: List[int],
        mapping: List[int],
        n_coarse: int,
    ) -> Tuple[List[Dict[int, int]], List[int]]:
        coarse_adj: List[Dict[int, int]] = [{} for _ in range(n_coarse)]
        coarse_weights = [0] * n_coarse
        for i, w in enumerate(weights):
            coarse_weights[mapping[i]] += w
        for i in range(len(weights)):
            ci = mapping[i]
            for j, w in adj[i].items():
                if i >= j:
                    continue  # each undirected pair once
                cj = mapping[j]
                if ci == cj:
                    continue
                coarse_adj[ci][cj] = coarse_adj[ci].get(cj, 0) + w
                coarse_adj[cj][ci] = coarse_adj[cj].get(ci, 0) + w
        return coarse_adj, coarse_weights

    def _capacity(self, weights: Sequence[int], p: int) -> float:
        return sum(weights) / p * self.balance_tolerance

    def _initial_partition(
        self, adj: List[Dict[int, int]], weights: List[int], p: int
    ) -> List[int]:
        """Greedy affinity split of the coarsest graph."""
        n = len(weights)
        cap = self._capacity(weights, p)
        order = sorted(range(n), key=lambda i: (-weights[i], i))
        part = [-1] * n
        loads = [0] * p
        for i in order:
            score = [0] * p
            for j, w in adj[i].items():
                if part[j] != -1:
                    score[part[j]] += w
            best = -1
            best_key: Optional[Tuple[int, int, int]] = None
            for q in range(p):
                if loads[q] + weights[i] > cap:
                    continue
                key = (score[q], -loads[q], -q)
                if best_key is None or key > best_key:
                    best, best_key = q, key
            if best == -1:
                # A single coarse node can outweigh the capacity;
                # fall back to the least-loaded partition.
                best = min(range(p), key=lambda q: (loads[q], q))
            part[i] = best
            loads[best] += weights[i]
        return part

    def _refine(
        self,
        adj: List[Dict[int, int]],
        weights: List[int],
        part: List[int],
        p: int,
        passes: int,
    ) -> List[int]:
        """Greedy boundary refinement: apply strictly cut-lowering
        moves that respect the capacity and keep every partition
        non-empty."""
        n = len(weights)
        cap = self._capacity(weights, p)
        loads = [0] * p
        members = [0] * p
        for i in range(n):
            loads[part[i]] += weights[i]
            members[part[i]] += 1
        for _ in range(passes):
            moved = 0
            for i in range(n):
                cur = part[i]
                if members[cur] <= 1:
                    continue
                gain_to: Dict[int, int] = {}
                internal = 0
                for j, w in adj[i].items():
                    q = part[j]
                    if q == cur:
                        internal += w
                    else:
                        gain_to[q] = gain_to.get(q, 0) + w
                best = -1
                best_key: Optional[Tuple[int, int, int]] = None
                for q in sorted(gain_to):
                    gain = gain_to[q] - internal
                    if gain <= 0:
                        continue
                    if loads[q] + weights[i] > cap:
                        continue
                    key = (gain, -loads[q], -q)
                    if best_key is None or key > best_key:
                        best, best_key = q, key
                if best != -1:
                    loads[cur] -= weights[i]
                    members[cur] -= 1
                    loads[best] += weights[i]
                    members[best] += 1
                    part[i] = best
                    moved += 1
            if moved == 0:
                break
        return part

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


class HubSplitPartitioner:
    """Degree-aware hub splitting for power-law graphs.

    Hash partitioning scatters a hub's fringe across every worker, so
    the hub's edges span ``p`` partitions: under Pregel that is a full
    ``h``-relation at the hub, and under GAS's vertex-cut placement
    (each edge hosted at its lower-degree endpoint's owner) it means
    one mirror of the hub per worker.  This partitioner does the
    opposite:

    1. **Hubs** — vertices with total degree ≥ ``hub_degree``
       (default: 4× the average degree, at least 8) — are spread
       across workers in decreasing-degree LPT order, balancing the
       *degree* load the way the greedy edge-balanced partitioner
       does.
    2. **Fringe** — the remaining vertices are visited in a
       deterministic multi-source BFS from the hubs (so every vertex
       is placed while its neighborhood is freshly assigned) and
       greedily join the worker holding most of their already-placed
       neighbors, under the count capacity
       ``ceil(n/p · balance_tolerance)``.

    Clustering each hub's fringe onto the hub's own worker collapses
    the hub's mirror set, which is precisely the replication factor
    the GAS engine's placement pays for — see
    :func:`replication_factor`.
    """

    def __init__(
        self,
        graph: Graph,
        num_workers: int,
        hub_degree: Optional[int] = None,
        balance_tolerance: float = 1.1,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if balance_tolerance < 1.0:
            raise ValueError("balance_tolerance must be >= 1.0")
        self.num_workers = num_workers
        self.balance_tolerance = balance_tolerance
        p = num_workers
        order = sorted(graph.vertices(), key=canonical_sort_key)
        n = len(order)
        if hub_degree is None:
            avg = (2.0 * graph.num_edges / n) if n else 0.0
            hub_degree = max(8, int(4 * avg))
        self.hub_degree = hub_degree
        cap = max(1, -(-int(n * balance_tolerance) // p))
        adj = _weighted_adjacency(graph)
        assignment: Dict[Hashable, int] = {}
        counts = [0] * p
        degree_loads = [0] * p
        hubs = sorted(
            (v for v in order if graph.total_degree(v) >= hub_degree),
            key=lambda v: (-graph.total_degree(v), canonical_sort_key(v)),
        )
        for v in hubs:
            target = min(range(p), key=lambda q: (degree_loads[q], q))
            assignment[v] = target
            counts[target] += 1
            degree_loads[target] += graph.total_degree(v)

        def place(v: Hashable) -> None:
            score = [0] * p
            for u, w in adj[v].items():
                q = assignment.get(u)
                if q is not None:
                    score[q] += w
            best = -1
            best_key: Optional[Tuple[int, int, int]] = None
            for q in range(p):
                if counts[q] >= cap:
                    continue
                key = (score[q], -counts[q], -q)
                if best_key is None or key > best_key:
                    best, best_key = q, key
            if best == -1:  # every partition at capacity: least count
                best = min(range(p), key=lambda q: (counts[q], q))
            assignment[v] = best
            counts[best] += 1
            degree_loads[best] += graph.total_degree(v)

        # Multi-source BFS from the hubs, expanding in canonical
        # order, then a canonical sweep over anything unreachable.
        pending: deque = deque(hubs)
        while pending:
            v = pending.popleft()
            for u in sorted(adj[v], key=canonical_sort_key):
                if u in assignment:
                    continue
                place(u)
                pending.append(u)
        for v in order:
            if v not in assignment:
                place(v)
        self._assignment = assignment

    def __call__(self, vertex: Hashable) -> int:
        return self._assignment.get(
            vertex, stable_hash(vertex) % self.num_workers
        )


#: The partitioner suite by report label — the constructors all share
#: the ``(graph, num_workers)`` signature, which is what the
#: invariant tests sweep.
PARTITIONER_FAMILIES: Dict[str, Callable[[Graph, int], Partitioner]] = {
    "hash": lambda graph, p: HashPartitioner(p),
    "range": lambda graph, p: RangePartitioner(graph, p),
    "greedy-edge": lambda graph, p: GreedyEdgeBalancedPartitioner(
        graph, p
    ),
    "bfs-grow": lambda graph, p: BfsGrowPartitioner(graph, p),
    "lpa": lambda graph, p: LabelPropagationPartitioner(graph, p),
    "multilevel": lambda graph, p: MultilevelPartitioner(graph, p),
    "hub-split": lambda graph, p: HubSplitPartitioner(graph, p),
}


def partition_counts(
    graph: Graph, partitioner: Partitioner, num_workers: int
) -> List[int]:
    """Vertices per worker under ``partitioner`` — a balance diagnostic.

    Ownership resolves through :func:`owner_for`, so a partitioner
    returning out-of-range indices is clamped exactly the way every
    engine clamps it (indexing raw partitioner output used to crash
    the diagnostic on inputs the engines accept).
    """
    counts = [0] * num_workers
    for v in graph.vertices():
        counts[owner_for(v, partitioner, num_workers)] += 1
    return counts
