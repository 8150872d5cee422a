"""Partitioner-invariant suite over the whole partitioner family.

Every partitioner — topology-blind or cut-minimizing — must satisfy
the same contract (``docs/partitioning.md``):

* **coverage** — every vertex maps to a worker index in range, and
  unknown vertices fall back deterministically;
* **determinism** — the assignment is a pure function of the frozen
  graph and ``num_workers``: rebuilding yields the identical map (the
  ``PYTHONHASHSEED`` subprocess matrix lives in
  ``tests/test_determinism_hashseed.py``);
* **balance** — partitioners that declare a ``balance_tolerance``
  stay within it;
* **engine neutrality** — a PageRank run is byte-identical between
  the serial and process-parallel backends under every partitioner
  (partitioning moves cost, never values);
* **payoff** — on a serial PageRank run, the best balanced
  partitioner sends >= 30% fewer remote messages than hash on at
  least two of four graph families.
"""

import hashlib
import pickle

import pytest

from repro.graph import (
    PARTITIONER_FAMILIES,
    Graph,
    barabasi_albert_graph,
    connected_erdos_renyi_graph,
    grid_graph,
    partition_counts,
    partition_metrics,
    random_tree,
)

#: The cut-minimizers that declare a ``balance_tolerance``.
CAPPED_CUT_MINIMIZERS = ("hub-split",)


def _graphs():
    base = connected_erdos_renyi_graph(36, 0.12, seed=3)
    strings = Graph()
    for u, v in base.edges():
        strings.add_edge(f"v{u:02d}", f"v{v:02d}")
    return {
        "ba": barabasi_albert_graph(90, 3, seed=2),
        "grid": grid_graph(10, 12),
        "tree": random_tree(80, seed=5),
        "strings": strings.freeze(),
    }


GRAPHS = _graphs()


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("pname", sorted(PARTITIONER_FAMILIES))
def test_full_coverage_and_range(pname, gname):
    g = GRAPHS[gname]
    p = PARTITIONER_FAMILIES[pname](g, 4)
    seen = 0
    for v in g.vertices():
        assert 0 <= p(v) < 4
        seen += 1
    counts = partition_counts(g, p, 4)
    assert sum(counts) == seen == g.num_vertices


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("pname", sorted(PARTITIONER_FAMILIES))
def test_rebuild_is_deterministic(pname, gname):
    g = GRAPHS[gname]
    first = PARTITIONER_FAMILIES[pname](g, 5)
    second = PARTITIONER_FAMILIES[pname](g, 5)
    for v in g.vertices():
        assert first(v) == second(v)


@pytest.mark.parametrize("pname", sorted(PARTITIONER_FAMILIES))
def test_unknown_vertex_falls_back_in_range(pname):
    g = GRAPHS["grid"]
    p = PARTITIONER_FAMILIES[pname](g, 3)
    assert 0 <= p("never-seen") < 3


@pytest.mark.parametrize("gname", sorted(GRAPHS))
@pytest.mark.parametrize("pname", CAPPED_CUT_MINIMIZERS)
def test_declared_balance_tolerance_holds(pname, gname):
    g = GRAPHS[gname]
    p = PARTITIONER_FAMILIES[pname](g, 4)
    tol = p.balance_tolerance
    counts = partition_counts(g, p, 4)
    cap = -(-int(g.num_vertices * tol) // 4)
    assert max(counts) <= max(cap, 1), (
        f"{pname} breached its declared tolerance {tol} on {gname}: "
        f"{counts} (cap {cap})"
    )


@pytest.mark.parametrize("pname", CAPPED_CUT_MINIMIZERS)
def test_invalid_arguments(pname):
    g = GRAPHS["tree"]
    make = PARTITIONER_FAMILIES[pname]
    with pytest.raises(ValueError):
        make(g, 0)


@pytest.mark.parametrize("pname", sorted(PARTITIONER_FAMILIES))
def test_metrics_are_consistent(pname):
    g = GRAPHS["ba"]
    p = PARTITIONER_FAMILIES[pname](g, 4)
    m = partition_metrics(g, p, 4)
    assert sum(m.vertex_counts) == g.num_vertices
    assert 0 <= m.edge_cut <= m.total_edges == g.num_edges
    assert 0.0 <= m.cut_fraction <= 1.0
    assert 1.0 <= m.replication_factor <= 4.0
    assert m.balance >= 1.0 and m.edge_balance >= 1.0


def test_metrics_trivial_on_one_worker():
    g = GRAPHS["grid"]
    m = partition_metrics(g, lambda v: 0, 1)
    assert m.edge_cut == 0
    assert m.cut_fraction == 0.0
    assert m.replication_factor == 1.0
    assert m.balance == 1.0


@pytest.mark.parametrize("pname", CAPPED_CUT_MINIMIZERS)
def test_cut_partitioners_beat_hash_where_it_counts(pname):
    # The suite's reason to exist: over the locality-friendly
    # families (grid + tree) the cut-minimizing partitioners must cut
    # far fewer edges than hash.
    cut = hashed = 0
    for gname in ("grid", "tree"):
        g = GRAPHS[gname]
        cut += partition_metrics(
            g, PARTITIONER_FAMILIES[pname](g, 4), 4
        ).edge_cut
        hashed += partition_metrics(
            g, PARTITIONER_FAMILIES["hash"](g, 4), 4
        ).edge_cut
    assert cut < hashed * 0.7, (pname, cut, hashed)


def _pagerank(graph, partitioner, num_workers, supersteps, backend):
    from repro.algorithms.pagerank import PageRank
    from repro.bsp import SumCombiner, run_program

    return run_program(
        graph,
        PageRank(num_supersteps=supersteps),
        num_workers=num_workers,
        combiner=SumCombiner(),
        partitioner=partitioner,
        backend=backend,
    )


def test_best_partitioner_cuts_remote_messages_at_run_level():
    # The claim EXPERIMENTS.md makes, on a run instead of the static
    # cut: a message between co-located vertices never crosses the
    # interconnect, so on at least two of the four graph families the
    # best partitioner that keeps work imbalance <= 1.5 sends >= 30%
    # fewer remote messages than hash (35% / 90% / 38% / 97% today).
    # Counts are modeled, so the statement is the same on every host.
    n = 500
    families = {
        "ba": barabasi_albert_graph(n, 4, seed=7),
        "grid": grid_graph(22, 23),
        "er": connected_erdos_renyi_graph(n, 6.0 / n, seed=3),
        "tree": random_tree(n, seed=11),
    }
    reductions = {}
    for family, g in families.items():
        remote = {}
        for pname, make in PARTITIONER_FAMILIES.items():
            stats = _pagerank(g, make(g, 4), 4, 10, "serial").stats
            if pname == "hash" or stats.max_imbalance <= 1.5:
                remote[pname] = stats.total_remote_messages
        reductions[family] = 1.0 - min(remote.values()) / remote["hash"]
    passing = [f for f, r in reductions.items() if r >= 0.3]
    assert len(passing) >= 2, reductions


def _run_digest(graph, partitioner, backend):
    result = _pagerank(graph, partitioner, 3, 6, backend)
    payload = (
        sorted(result.values.items()),
        result.stats,
        result.aggregate_history,
    )
    return hashlib.sha256(pickle.dumps(payload)).hexdigest()


@pytest.mark.parametrize("pname", sorted(PARTITIONER_FAMILIES))
def test_pagerank_byte_identical_serial_vs_parallel(pname):
    g = GRAPHS["ba"]
    p = PARTITIONER_FAMILIES[pname](g, 3)
    assert _run_digest(g, p, "serial") == _run_digest(g, p, "parallel")
