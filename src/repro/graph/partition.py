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
  :class:`HubSplitPartitioner`: read the topology to trade edge-cut
  against balance, which :func:`partition_metrics` scores and
  ``tests/test_partitioner_invariants.py`` holds at run level.

Each partitioner here has a caller (:data:`PARTITIONER_FAMILIES`);
none has beaten hash on measured wall time with its build counted
(``docs/partitioning.md``, "Wall time").

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

import operator
import zlib
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from typing import (
    Callable,
    Dict,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.graph.snapshot import CsrSnapshot

Partitioner = Callable[[Hashable], int]


def _canonical_bytes(value: Hashable) -> bytes:
    """A canonical, type-tagged byte encoding of a vertex id.

    Injective across the id types the repo uses (ints, strings,
    bytes, floats, None, and tuples thereof — e.g. the ``("L", i)``
    bipartite tags and the ``(u, v)`` tree-edge ids); anything else
    falls back to ``repr``, which is stable for the builtin types.
    """
    kind = type(value)
    if kind is int:  # the common ids first, by exact type
        return b"i%d" % value
    if kind is str:
        return b"s" + value.encode("utf-8")
    if isinstance(value, tuple):  # no tuple is an int, str or bytes
        parts = [_canonical_bytes(item) for item in value]
        return b"t%d(%b)" % (len(parts), b"|".join(parts))
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
    Pregel partition's lay-out and its re-index after a mutating
    barrier, the GAS vertex-cut mirror map, the block router —
    resolves ownership through here (or
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
    """A frozen id ↔ dense-int table over a fixed vertex partition:
    the Pregel engine's one record of which worker owns which vertex,
    and in what order it runs them.

    Every vertex id is compiled to a contiguous int, grouped CSR-style
    so each worker owns one contiguous index range, so the engine
    indexes flat lists instead of hashing ids.  Within a worker the
    dense order is its execution order: graph order, then the
    vertices barriers added — Pregel's worker-then-insertion order.

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


def build_dense_index(lists: Sequence[Sequence[Hashable]]) -> DenseIndex:
    """Compile per-worker vertex id lists into a :class:`DenseIndex`:
    worker ``i`` owns the contiguous range ``ranges[i]``, whose
    positions visit ``lists[i]`` in order."""
    lens = list(map(len, lists))
    id_of = list(chain.from_iterable(lists))
    stops = list(accumulate(lens))
    return DenseIndex(
        id_of=id_of,
        idx_of=dict(zip(id_of, range(len(id_of)))),
        owner_of=list(chain.from_iterable(
            map(repeat, range(len(lens)), lens)
        )),
        ranges=list(zip([0, *stops], stops)),
    )


class Adjacency(NamedTuple):
    """The dense adjacency of a run of dense positions, as columns.

    Position ``i``'s row of target dense indices is
    ``out_dst[out_start[i]:out_start[i + 1]]`` and ``remote_out[i]``
    counts its targets owned by another worker.  A vertex with a
    dangling out-edge (a target with no state) is listed in
    ``dangling`` with an empty row: the generic per-target send loop
    must run for it, so the send raises on the unknown target.  Three
    ``array('q')`` columns and one set, whatever the number of
    vertices: nothing per row for the cyclic collector to track.
    """

    out_start: array
    out_dst: array
    remote_out: array
    dangling: frozenset

    def rows(self, start: int, stop: int) -> "Adjacency":
        """Positions ``[start, stop)`` as an adjacency of their own,
        indexed from 0 (target indices stay global)."""
        lo, hi = self.out_start[start], self.out_start[stop]
        return Adjacency(
            array("q", map(lo.__rsub__, self.out_start[start:stop + 1])),
            self.out_dst[lo:hi],
            self.remote_out[start:stop],
            frozenset(p - start for p in self.dangling if start <= p < stop),
        )


def dense_adjacency(states, dense: DenseIndex, topology) -> Adjacency:
    """Compile the dense adjacency of ``states`` (``dense`` order).

    One read of every row as the run sees it (``topology.rows_at``):
    a frozen CSR row's target positions translate to dense indices
    through one flat table, a materialized vertex's live
    ``out_edges`` ids through the index (its weights are never read).
    A target with no state makes its row dangling; only then does a
    per-row path run."""
    idx_of, owner_of = dense.idx_of, dense.owner_of
    to_dense = list(map(idx_of.get, topology.vertices()))
    positions = [s.row for s in states]
    live = [
        None if s.out_edges is None else list(map(idx_of.get, s.out_edges))
        for s in states
    ]
    lens, targets, _ = topology.rows_at(positions, False, live, to_dense)
    dangling = frozenset()
    try:
        out_dst = array("q", targets)
    except TypeError:  # a target with no state: its row compiles empty
        targets = topology.rows_at(positions, False, live, to_dense)[1]
        targets = list(targets)
        cuts = list(accumulate(lens, initial=0))
        rows = [targets[a:b] for a, b in zip(cuts, cuts[1:])]
        dangling = frozenset(i for i, r in enumerate(rows) if None in r)
        for i in dangling:
            rows[i] = []
        lens = list(map(len, rows))
        out_dst = array("q", chain.from_iterable(rows))
    out_start = array("q", accumulate(lens, initial=0))
    # One flag byte per target owned by another worker than its source
    # (a worker's rows are one contiguous run); a row's remote count is
    # the flags set in its span.
    crossed = b"".join(
        bytes(map(
            operator.ne,
            map(owner_of.__getitem__, out_dst[out_start[a]:out_start[b]]),
            repeat(worker),
        ))
        for worker, (a, b) in enumerate(dense.ranges)
    )
    remote_out = array("q", map(
        crossed.count, repeat(1), out_start[:-1], out_start[1:]
    ))
    return Adjacency(out_start, out_dst, remote_out, dangling)


def _undirected_neighbors(graph: CsrSnapshot, vertex: Hashable) -> list:
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
    graph: CsrSnapshot,
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
    graph: CsrSnapshot, partitioner: Partitioner, num_workers: int
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

    def __init__(self, graph: CsrSnapshot, num_workers: int):
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

    def __init__(self, graph: CsrSnapshot, num_workers: int):
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

    def __init__(self, graph: CsrSnapshot, num_workers: int):
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


class HubSplitPartitioner:
    """Degree-aware hub splitting for power-law graphs.

    Hash partitioning scatters a hub's fringe across every worker, so
    the hub's edges span ``p`` partitions: under Pregel that is a full
    ``h``-relation at the hub, and under GAS's vertex-cut placement
    (each edge hosted at its lower-degree endpoint's owner) it means
    one mirror of the hub per worker.  This partitioner does the
    opposite:

    1. **Hubs** — vertices with total degree ≥ 4× the average
       degree, at least 8 — are spread across workers in
       decreasing-degree LPT order, balancing the *degree* load the
       way the greedy edge-balanced partitioner does.
    2. **Fringe** — the remaining vertices are visited in a
       deterministic multi-source BFS from the hubs (so every vertex
       is placed while its neighborhood is freshly assigned) and
       greedily join the worker holding most of their already-placed
       neighbors, under the count capacity
       ``ceil(n/p · balance_tolerance)``.

    Clustering each hub's fringe onto the hub's own worker collapses
    the hub's mirror set, which is precisely the replication factor
    the GAS engine's placement pays for — see
    :attr:`PartitionMetrics.replication_factor`.
    """

    #: Worker vertex counts stay within ``ceil(n/p · 1.1)``.
    balance_tolerance = 1.1

    def __init__(self, graph: CsrSnapshot, num_workers: int):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.num_workers = num_workers
        p = num_workers
        order = sorted(graph.vertices(), key=canonical_sort_key)
        n = len(order)
        avg = (2.0 * graph.num_edges / n) if n else 0.0
        hub_degree = max(8, int(4 * avg))
        cap = max(1, -(-int(n * self.balance_tolerance) // p))
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
#: invariant tests sweep.  Each has a caller: ``range`` and
#: ``greedy-edge`` the ablation bench, ``bfs-grow`` the block engine's
#: default, ``hub-split`` the run-level payoff test.
PARTITIONER_FAMILIES: Dict[str, Callable[[CsrSnapshot, int], Partitioner]] = {
    "hash": lambda graph, p: HashPartitioner(p),
    "range": RangePartitioner,
    "greedy-edge": GreedyEdgeBalancedPartitioner,
    "bfs-grow": BfsGrowPartitioner,
    "hub-split": HubSplitPartitioner,
}


def partition_counts(
    graph: CsrSnapshot, partitioner: Partitioner, num_workers: int
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
