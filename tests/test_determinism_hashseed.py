"""Hash-seed independence of partitioning and full runs.

The headline bugfix of this change: partitioners used to key on
builtin ``hash()``, whose ``str``/``bytes`` values are salted by
``PYTHONHASHSEED`` per interpreter.  Any workload with string vertex
ids could therefore partition differently run to run — and, worse, the
process-parallel backend's spawn-started ranks could disagree with the
coordinator about vertex ownership.  ``stable_hash`` (CRC-32 over a
canonical type-tagged encoding) replaces it.

These tests prove seed independence the only honest way: by actually
running the same workload in subprocesses under two different
``PYTHONHASHSEED`` values and asserting byte-identical partitioner
assignments and pickled run results, on both the serial and the
process-parallel backend.

The child protocol lives in this same file (``__main__`` block): the
parent launches ``python tests/test_determinism_hashseed.py <mode>``
with a pinned ``PYTHONHASHSEED`` and compares the SHA-256 digests the
child prints.
"""

import hashlib
import os
import pickle
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: Two interpreter salts that produced divergent builtin str hashes
#: long before this bug was fixed.
HASH_SEEDS = ("0", "12345")

MODES = ("partition", "serial", "parallel")


# ---------------------------------------------------------------------
# Child side (runs in a subprocess with PYTHONHASHSEED pinned)
# ---------------------------------------------------------------------


def _string_id_graph():
    """A connected random graph whose vertex ids are strings — the id
    type builtin ``hash()`` salts."""
    from repro.graph import Graph, connected_erdos_renyi_graph

    base = connected_erdos_renyi_graph(40, 0.12, seed=3)
    graph = Graph()
    for u, v in base.edges():
        graph.add_edge(f"vertex-{u:03d}", f"vertex-{v:03d}")
    return graph.freeze()


def _partition_digest() -> str:
    """Digest of every partitioner family's full assignment map —
    the topology-blind ones and the cut-minimizing ones (bfs-grow /
    hub-split) alike."""
    from repro.graph import PARTITIONER_FAMILIES

    graph = _string_id_graph()
    assignments = {
        name: sorted((v, make(graph, 4)(v)) for v in graph.vertices())
        for name, make in PARTITIONER_FAMILIES.items()
    }
    return hashlib.sha256(pickle.dumps(assignments)).hexdigest()


def _run_digest(backend: str) -> str:
    """Digest of a full PageRank run's values, stats and aggregate
    history on ``backend`` (wall times are excluded from pickling by
    the determinism contract)."""
    from repro.algorithms.pagerank import PageRank
    from repro.bsp import SumCombiner, run_program

    graph = _string_id_graph()
    result = run_program(
        graph,
        PageRank(num_supersteps=10),
        num_workers=4,
        combiner=SumCombiner(),
        backend=backend,
    )
    payload = (
        sorted(result.values.items()),
        result.stats,
        result.aggregate_history,
    )
    return hashlib.sha256(pickle.dumps(payload)).hexdigest()


def _child_main(mode: str) -> int:
    if mode == "partition":
        digest = _partition_digest()
    elif mode in ("serial", "parallel"):
        digest = _run_digest(mode)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(digest)
    return 0


# ---------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------


def _digest_under_seed(mode: str, hash_seed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = SRC
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, (
        f"child {mode!r} under PYTHONHASHSEED={hash_seed} failed:\n"
        f"{proc.stderr}"
    )
    return proc.stdout.strip()


@pytest.mark.parametrize("mode", MODES)
def test_identical_across_hash_seeds(mode):
    digests = {
        seed: _digest_under_seed(mode, seed) for seed in HASH_SEEDS
    }
    values = set(digests.values())
    assert len(values) == 1, (
        f"{mode}: results varied with the interpreter hash seed: "
        f"{digests}"
    )


def test_builtin_hash_actually_varies():
    """Sanity check that the harness would catch the original bug:
    builtin ``hash()`` of the same string really does differ between
    the two child interpreters (otherwise the tests above prove
    nothing)."""
    code = "print(hash('vertex-001'))"
    outs = set()
    for seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert len(outs) == 2


def test_stable_hash_matches_across_seeds():
    """``stable_hash`` itself, probed in the child interpreters."""
    code = (
        "from repro.graph import stable_hash;"
        "print(stable_hash('vertex-001'), stable_hash(('L', 3)),"
        " stable_hash(17), stable_hash(b'xy'))"
    )
    outs = set()
    for seed in HASH_SEEDS:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = SRC
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout.strip())
    assert len(outs) == 1


if __name__ == "__main__":
    sys.exit(_child_main(sys.argv[1] if len(sys.argv) > 1 else ""))
