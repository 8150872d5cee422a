"""The Table 1 reproduction: twenty row specifications.

Every row names its witness family (the graph family on which the
paper's worst-case analysis bites), a geometric size sweep, and a
paired runner that executes the vertex-centric algorithm on the
simulated Pregel runtime and the sequential baseline on the same
graph.  ``build_table`` runs all rows and returns the regenerated
table, with the paper's published verdicts alongside the measured
ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro import algorithms as vc
from repro import sequential as seq
from repro.algorithms.common import PipelineResult
from repro.bsp.engine import PregelResult
from repro.core.runner import (
    PairedMeasurement,
    RowResult,
    run_sweep,
)
from repro.graph import generators as gen
from repro.graph.graph import Graph
from repro.graph.snapshot import CsrSnapshot
from repro.metrics.opcounter import OpCounter

#: Engine settings shared by every row.
ENGINE_KWARGS = dict(num_workers=4, max_supersteps=500_000)


def _metrics(result) -> Tuple[int, int, float, float, object]:
    """Uniform metric extraction for PregelResult / PipelineResult."""
    if isinstance(result, PipelineResult):
        return (
            result.num_supersteps,
            result.total_messages,
            result.total_work,
            result.time_processor_product,
            result.bppa,
        )
    assert isinstance(result, PregelResult)
    return (
        result.num_supersteps,
        result.stats.total_messages,
        result.stats.total_work,
        result.stats.time_processor_product,
        result.bppa,
    )


def _paired(
    size: int,
    graph: CsrSnapshot,
    run_vc: Callable[[CsrSnapshot], object],
    run_seq: Callable[[CsrSnapshot, OpCounter], object],
) -> PairedMeasurement:
    result = run_vc(graph)
    supersteps, messages, work, tpp, bppa = _metrics(result)
    ops = OpCounter()
    run_seq(graph, ops)
    return PairedMeasurement(
        size=size,
        n=graph.num_vertices,
        m=graph.num_edges,
        supersteps=supersteps,
        vc_messages=messages,
        vc_work=work,
        tpp=tpp,
        seq_ops=ops.ops,
        bppa=bppa,
    )


# ----------------------------------------------------------------------
# Row runners.  Each is ``(size, seed) -> PairedMeasurement``.
# ----------------------------------------------------------------------


def _row1_diameter(size: int, seed: int) -> PairedMeasurement:
    graph = gen.cycle_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.diameter(g, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.diameter(g, ops),
    )


def _row2_pagerank(size: int, seed: int) -> PairedMeasurement:
    graph = gen.connected_erdos_renyi_graph(size, 8.0 / size, seed=seed)
    iterations = 30  # the paper's "order of 30 supersteps"
    return _paired(
        size,
        graph,
        lambda g: vc.pagerank(
            g, num_supersteps=iterations, **ENGINE_KWARGS
        ),
        lambda g, ops: seq.pagerank(
            g, num_iterations=iterations, counter=ops
        ),
    )


def _row3_hashmin(size: int, seed: int) -> PairedMeasurement:
    graph = gen.path_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.hash_min_components(g, **ENGINE_KWARGS),
        lambda g, ops: seq.connected_components(g, ops),
    )


def _row4_sv(size: int, seed: int) -> PairedMeasurement:
    graph = gen.path_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.sv_components(g, **ENGINE_KWARGS),
        lambda g, ops: seq.connected_components(g, ops),
    )


def _row5_bicc(size: int, seed: int) -> PairedMeasurement:
    graph = gen.connected_erdos_renyi_graph(size, 4.0 / size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.biconnected_components(g, **ENGINE_KWARGS),
        lambda g, ops: seq.biconnected_components(g, ops),
    )


def _row6_wcc(size: int, seed: int) -> PairedMeasurement:
    graph = Graph(directed=True)
    for v in range(size):
        graph.add_vertex(v)
    for v in range(size - 1):
        # Alternate directions: the weak component still spans the
        # path, the diameter of the underlying graph stays n-1.
        if v % 2 == 0:
            graph.add_edge(v, v + 1)
        else:
            graph.add_edge(v + 1, v)
    return _paired(
        size,
        graph.freeze(),
        lambda g: vc.weakly_connected_components(g, **ENGINE_KWARGS),
        lambda g, ops: seq.weakly_connected_components(g, ops),
    )


def _row7_scc(size: int, seed: int) -> PairedMeasurement:
    # A directed path: every vertex is a singleton SCC and the trim
    # cascade peels one layer per round — the Θ(n)-superstep regime.
    graph = Graph(directed=True)
    for v in range(size):
        graph.add_vertex(v)
    for v in range(size - 1):
        graph.add_edge(v, v + 1)
    return _paired(
        size,
        graph.freeze(),
        lambda g: vc.scc(g, **ENGINE_KWARGS),
        lambda g, ops: seq.strongly_connected_components(g, ops),
    )


def _row8_euler(size: int, seed: int) -> PairedMeasurement:
    graph = gen.random_tree(size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.euler_tour(g, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.euler_tour(g, 0, ops),
    )


def _row9_traversal(size: int, seed: int) -> PairedMeasurement:
    graph = gen.random_tree(size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.tree_traversal(g, 0, **ENGINE_KWARGS),
        lambda g, ops: seq.euler_orders(g, 0, ops),
    )


def _row10_spanning_tree(size: int, seed: int) -> PairedMeasurement:
    graph = gen.path_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.sv_spanning_forest(g, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.spanning_forest(g, ops),
    )


def _row11_mst(size: int, seed: int) -> PairedMeasurement:
    graph = gen.random_weighted_graph(size, 4.0 / size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.minimum_spanning_tree(g, **ENGINE_KWARGS)[2],
        lambda g, ops: seq.kruskal_counting_sort(g, counter=ops),
    )


def _row12_coloring(size: int, seed: int) -> PairedMeasurement:
    graph = gen.connected_erdos_renyi_graph(size, 6.0 / size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.luby_coloring(g, seed=seed, **ENGINE_KWARGS),
        lambda g, ops: seq.greedy_mis_coloring(g, ops),
    )


def _row12_coloring_p4(size: int, seed: int) -> PairedMeasurement:
    graph = gen.complete_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.luby_coloring(g, seed=seed, **ENGINE_KWARGS),
        lambda g, ops: seq.greedy_mis_coloring(g, ops),
    )


def _weighted_path(size: int, weights: Sequence[float]) -> CsrSnapshot:
    """The path ``0 - 1 - ... - (size-1)`` with edge ``(i, i + 1)``
    weighing ``weights[i]``, built through ``Graph`` and frozen once."""
    graph = Graph()
    for v in range(size):
        graph.add_vertex(v)
    for i, weight in enumerate(weights):
        graph.add_edge(i, i + 1, weight=weight)
    return graph.freeze()


def _row13_matching(size: int, seed: int) -> PairedMeasurement:
    # Strictly increasing weights along a path: exactly one locally
    # dominant edge per round — the Θ(n)-round regime of row 13.
    return _paired(
        size,
        _weighted_path(size, [float(i + 1) for i in range(size - 1)]),
        lambda g: vc.locally_dominant_matching(g, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.path_growing_matching(g, ops),
    )


def _row14_bipartite(size: int, seed: int) -> PairedMeasurement:
    graph, left, _right = gen.random_bipartite_graph(
        size, size, 4.0 / size, seed=seed
    )
    return _paired(
        size,
        graph,
        lambda g: vc.bipartite_matching(
            g, seed=seed, **ENGINE_KWARGS
        )[1],
        lambda g, ops: seq.greedy_bipartite_matching(g, left, ops),
    )


def _row15_betweenness(size: int, seed: int) -> PairedMeasurement:
    graph = gen.connected_erdos_renyi_graph(size, 6.0 / size, seed=seed)
    return _paired(
        size,
        graph,
        lambda g: vc.betweenness_centrality(g, **ENGINE_KWARGS),
        lambda g, ops: seq.betweenness_centrality(g, ops),
    )


def _row16_sssp(size: int, seed: int) -> PairedMeasurement:
    # The deterministic worst case for Pregel's label-correcting
    # relaxation: convex weights w(i, j) = (j - i)^2 make every
    # vertex's estimate improve once per wavefront depth, so vertex j
    # re-relaxes Θ(j) times — Θ(n³) messages versus Dijkstra's single
    # settle per vertex.
    graph = Graph()
    for v in range(size):
        graph.add_vertex(v)
    for i in range(size):
        for j in range(i + 1, size):
            graph.add_edge(i, j, weight=float((j - i) ** 2))
    return _paired(
        size,
        graph.freeze(),
        lambda g: vc.sssp(g, 0, **ENGINE_KWARGS),
        lambda g, ops: seq.dijkstra(g, 0, ops),
    )


def _row16_sssp_p4(size: int, seed: int) -> PairedMeasurement:
    return _paired(
        size,
        _weighted_path(
            size, [float(1 + (i * 7919) % 97) for i in range(size - 1)]
        ),
        lambda g: vc.sssp(g, 0, **ENGINE_KWARGS),
        lambda g, ops: seq.dijkstra(g, 0, ops),
    )


def _row17_apsp(size: int, seed: int) -> PairedMeasurement:
    graph = gen.cycle_graph(size)
    return _paired(
        size,
        graph,
        lambda g: vc.apsp(g, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.all_pairs_shortest_paths(g, ops),
    )


def _tournament_data(size: int) -> Graph:
    """An all-``A`` transitive tournament: the removal cascade takes
    Θ(n) rounds and every round forces whole-neighborhood
    re-evaluations — the witness for the vertex-centric
    re-computation blow-up of rows 18-19; the caller freezes it."""
    graph = Graph(directed=True)
    for v in range(size):
        graph.add_vertex(v, label="A")
    for u in range(size):
        for v in range(u + 1, size):
            graph.add_edge(u, v)
    return graph


def _loop_query() -> CsrSnapshot:
    query = Graph(directed=True)
    query.add_vertex(0, label="A")
    query.add_edge(0, 0)
    return query.freeze()


def _row18_simulation(size: int, seed: int) -> PairedMeasurement:
    data = _tournament_data(size)
    query = _loop_query()
    return _paired(
        size,
        data.freeze(),
        lambda g: vc.graph_simulation(g, query, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.graph_simulation_efficient(g, query, ops),
    )


def _row19_dual(size: int, seed: int) -> PairedMeasurement:
    data = _tournament_data(size)
    query = _loop_query()
    return _paired(
        size,
        data.freeze(),
        lambda g: vc.dual_simulation(g, query, **ENGINE_KWARGS)[1],
        lambda g, ops: seq.dual_simulation_efficient(g, query, ops),
    )


def _two_cycle_query() -> CsrSnapshot:
    query = Graph(directed=True)
    query.add_vertex(0, label="A")
    query.add_vertex(1, label="A")
    query.add_edge(0, 1)
    query.add_edge(1, 0)
    return query.freeze()


def _row20_strong(size: int, seed: int) -> PairedMeasurement:
    # Tournament (dual-phase cascade) plus a small A-cycle so strong
    # simulation has genuine perfect subgraphs to certify.
    data = _tournament_data(size)
    base = size
    for i in range(8):
        data.add_vertex(base + i, label="A")
    for i in range(8):
        data.add_edge(base + i, base + (i + 1) % 8)
        data.add_edge(base + (i + 1) % 8, base + i)
    query = _two_cycle_query()
    return _paired(
        size,
        data.freeze(),
        lambda g: vc.strong_simulation(g, query, **ENGINE_KWARGS),
        lambda g, ops: seq.strong_simulation(g, query, ops),
    )


# ----------------------------------------------------------------------
# Row specifications.
# ----------------------------------------------------------------------


@dataclass
class RowSpec:
    """Everything needed to regenerate one Table 1 row."""

    row: int
    workload: str
    vc_complexity: str
    seq_algorithm: str
    seq_complexity: str
    paper_more_work: bool
    paper_bppa: bool
    runner: Callable[[int, int], PairedMeasurement]
    sizes: Tuple[int, ...]
    family: str
    p4_mode: str = "growth"
    #: Optional separate witness family for P4 (the paper's worst
    #: cases differ per property for some rows).
    p4_runner: Optional[Callable[[int, int], PairedMeasurement]] = None
    p4_sizes: Optional[Tuple[int, ...]] = None


ROWS: List[RowSpec] = [
    RowSpec(
        1, "Diameter (unweighted)", "O(mn)", "BFS", "O(mn)",
        False, False, _row1_diameter, (16, 32, 64, 128),
        "cycles (δ = n/2)",
    ),
    RowSpec(
        2, "PageRank", "O(mK)", "power iteration", "O(mK)",
        False, False, _row2_pagerank, (32, 64, 128, 256),
        "connected ER, avg degree 8, K = 30", p4_mode="absolute",
    ),
    RowSpec(
        3, "Connected Component (Hash-Min)", "O(mδ)", "BFS", "O(m+n)",
        True, False, _row3_hashmin, (32, 64, 128, 256, 512),
        "paths (δ = n-1)",
    ),
    RowSpec(
        4, "Connected Component (S-V)", "O((m+n)log n)", "BFS",
        "O(m+n)", True, False, _row4_sv, (32, 64, 128, 256, 512),
        "paths",
    ),
    RowSpec(
        5, "Bi-Connected Component", "O((m+n)log n)", "DFS", "O(m+n)",
        True, False, _row5_bicc, (24, 48, 96, 192, 384, 768),
        "connected ER, avg degree 4",
    ),
    RowSpec(
        6, "Weakly Connected Component", "O((m+n)log n)", "BFS",
        "O(m+n)", True, False, _row6_wcc, (32, 64, 128, 256, 512),
        "alternating directed paths",
    ),
    RowSpec(
        7, "Strongly Connected Component", "O((m+n)log n)", "DFS",
        "O(m+n)", True, False, _row7_scc, (16, 32, 64, 128),
        "directed paths (trim cascade)",
    ),
    RowSpec(
        8, "Euler Tour of Tree", "O(n)", "DFS", "O(n)",
        False, True, _row8_euler, (32, 64, 128, 256, 512),
        "random trees",
    ),
    RowSpec(
        9, "Pre- & Post-order Tree Traversal", "O(n log n)", "DFS",
        "O(n)", True, True, _row9_traversal, (32, 64, 128, 256, 512),
        "random trees",
    ),
    RowSpec(
        10, "Spanning Tree", "O((m+n)log n)", "BFS", "O(m+n)",
        True, False, _row10_spanning_tree, (32, 64, 128, 256, 512),
        "paths",
    ),
    RowSpec(
        11, "Minimum Cost Spanning Tree", "O(δm log n)",
        "linear Kruskal (for Chazelle)", "O(m α(m,n))",
        True, False, _row11_mst, (32, 64, 128, 256, 512),
        "sparse random weighted ER, avg degree 4",
    ),
    RowSpec(
        12, "Graph Coloring with MIS", "O(Km log n)",
        "Lexicographically-first MIS", "O(Km)",
        True, False, _row12_coloring, (32, 64, 128, 256),
        "connected ER, avg degree 6 (work); complete graphs (P4)",
        p4_runner=_row12_coloring_p4, p4_sizes=(8, 16, 32, 48),
    ),
    RowSpec(
        13, "Max Weight Matching (Preis)", "O(Km)", "Preis", "O(m)",
        True, False, _row13_matching, (16, 32, 64, 128),
        "paths with increasing weights (K = Θ(n))",
    ),
    RowSpec(
        14, "Bipartite Maximal Matching", "O(m log n)", "greedy",
        "O(m+n)", True, True, _row14_bipartite, (64, 256, 1024, 4096),
        "random bipartite, avg degree 4",
    ),
    RowSpec(
        15, "Betweenness Centrality", "O(mn)", "Brandes", "O(mn)",
        False, False, _row15_betweenness, (16, 24, 36, 54),
        "connected ER, avg degree 6, all sources",
    ),
    RowSpec(
        16, "Single-Source Shortest Path", "O(mn)",
        "Dijkstra (pairing heap for Fibonacci)", "O(m + n log n)",
        True, False, _row16_sssp, (12, 16, 24, 32, 48),
        "convex-weight complete graphs (work); weighted paths (P4)",
        p4_runner=_row16_sssp_p4, p4_sizes=(32, 64, 128, 256),
    ),
    RowSpec(
        17, "All-pair Shortest Paths", "O(mn)", "Chan (via n BFS)",
        "O(mn)", False, False, _row17_apsp, (16, 32, 64, 128),
        "cycles",
    ),
    RowSpec(
        18, "Graph Simulation", "O(m^2(n_q+m_q))", "Henzinger et al.",
        "O((m+n)(m_q+n_q))", True, False, _row18_simulation,
        (12, 24, 48, 96), "all-A tournament vs self-loop query",
    ),
    RowSpec(
        19, "Dual Simulation", "O(m^2(n_q+m_q))", "Ma et al.",
        "O((m+n)(m_q+n_q))", True, False, _row19_dual,
        (12, 24, 48, 96), "all-A tournament vs self-loop query",
    ),
    RowSpec(
        20, "Strong Simulation", "O(m^2 n(n_q+m_q))", "Ma et al.",
        "O(n(m+n)(m_q+n_q))", True, False, _row20_strong,
        (12, 24, 48, 96),
        "all-A tournament + A-cycle vs 2-cycle query",
    ),
]


@dataclass
class Table1Row:
    """One regenerated row: spec, sweep and verdict agreement."""

    spec: RowSpec
    result: RowResult

    @property
    def matches_paper(self) -> bool:
        return (
            self.result.more_work == self.spec.paper_more_work
            and self.result.bppa.is_bppa == self.spec.paper_bppa
        )


def run_row(
    spec: RowSpec,
    seed: int = 0,
    sizes: Optional[Sequence[int]] = None,
) -> Table1Row:
    """Regenerate one row (optionally overriding the sweep sizes)."""
    result = run_sweep(
        spec.runner,
        sizes if sizes is not None else spec.sizes,
        seed=seed,
        p4_mode=spec.p4_mode,
        p4_runner=spec.p4_runner,
        p4_sizes=spec.p4_sizes,
    )
    return Table1Row(spec=spec, result=result)


def build_table(
    seed: int = 0,
    rows: Optional[Sequence[int]] = None,
    scale: float = 1.0,
) -> List[Table1Row]:
    """Regenerate the table (all rows, or a subset by row number).

    ``scale`` < 1 shrinks every sweep geometrically (for quick runs);
    at least two sizes are always kept so growth fits remain defined.
    """
    wanted = set(rows) if rows is not None else None
    table = []
    for spec in ROWS:
        if wanted is not None and spec.row not in wanted:
            continue
        sizes = spec.sizes
        if scale != 1.0:
            scaled = tuple(
                max(8, int(s * scale)) for s in sizes
            )
            sizes = tuple(sorted(set(scaled)))
            if len(sizes) < 2:
                sizes = (sizes[0], sizes[0] * 2)
        table.append(run_row(spec, seed=seed, sizes=sizes))
    return table
