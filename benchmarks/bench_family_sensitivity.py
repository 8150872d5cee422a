"""Family sensitivity: Table 1 verdicts are worst-case statements.

The paper's own Hash-Min discussion distinguishes the typical case
(small-diameter graphs, few supersteps) from the worst case
("e.g., for a straight-line graph").  These benches re-run a selection
of rows on *easy* families and verify that the measured behaviour
flips exactly where the analysis says it should — evidence that the
harness measures the algorithms, not the witness families:

* Hash-Min / WCC on expanders: the δ factor collapses, the measured
  work ratio stops growing (worst-case "more work" is a δ statement);
* S-V on expanders: the log n factor remains (its extra work is
  *not* a δ artifact) — ratio still grows;
* diameter flooding on stars: still quadratic storage (P1 fails on
  every family — it is structural, not adversarial);
* Preis matching on random weights: the Θ(n)-round serialization
  disappears, rounds drop to O(log n)-ish (the K in O(Km) is
  instance-dependent, exactly as the paper states).
"""

from __future__ import annotations

from repro.algorithms import (
    diameter,
    hash_min_components,
    locally_dominant_matching,
    sv_components,
)
from repro.graph import (
    connected_erdos_renyi_graph,
    random_weighted_graph,
    star_graph,
)
from repro.metrics import OpCounter, growth_exponent
from repro.sequential import (
    connected_components,
    path_growing_matching,
)


def test_hashmin_ratio_flat_on_expanders(benchmark):
    sizes = (64, 128, 256, 512)

    def sweep():
        out = []
        for n in sizes:
            g = connected_erdos_renyi_graph(n, 8.0 / n, seed=1)
            result = hash_min_components(g)
            ops = OpCounter()
            connected_components(g, ops)
            out.append(
                result.stats.time_processor_product / ops.ops
            )
        return out

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nhash-min on expanders, ratios: {ratios}")
    # δ = Θ(log n) on expanders, so the ratio tracks a slow log
    # instead of the path family's linear blow-up: single digits here
    # versus 360 at n=512 on paths (Table 1 row 3).
    assert max(ratios) < 15
    assert growth_exponent(sizes, ratios) < 0.3


def test_sv_log_factor_survives_easy_families(benchmark):
    sizes = (64, 128, 256, 512, 1024)

    def sweep():
        out = []
        for n in sizes:
            g = connected_erdos_renyi_graph(n, 8.0 / n, seed=2)
            result = sv_components(g)
            ops = OpCounter()
            connected_components(g, ops)
            out.append(
                result.stats.time_processor_product / ops.ops
            )
        return out

    ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nS-V on expanders, ratios: {ratios}")
    # Unlike Hash-Min, whose overhead collapses with δ, S-V's
    # hooking/shortcutting machinery keeps a large constant-plus-log
    # gap on every family: the easy-family ratio stays an order of
    # magnitude above Hash-Min's.
    assert min(ratios) > 20


def test_diameter_storage_blowup_is_structural(benchmark):
    degrees = (32, 64, 128, 256)

    def sweep():
        out = []
        for d in degrees:
            _, result = diameter(star_graph(d + 1))
            out.append(result.bppa.storage_factor)
        return out

    factors = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\ndiameter P1 factors on stars: {factors}")
    # Leaves store n origin ids against degree 1: grows with n on
    # every family — the history set is the algorithm's nature.
    assert factors[-1] > 4 * factors[0]


def test_preis_rounds_collapse_on_random_weights(benchmark):
    n = 128

    def run():
        easy = random_weighted_graph(n, 6.0 / n, seed=3)
        easy_edges, easy_result = locally_dominant_matching(easy)
        hard = __import__(
            "repro.graph", fromlist=["path_graph"]
        ).path_graph(n).to_graph()
        for i in range(n - 1):
            hard.set_weight(i, i + 1, float(i + 1))
        hard_edges, hard_result = locally_dominant_matching(hard)
        return easy_result, hard_result

    easy_result, hard_result = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print(
        f"\nPreis rounds: random weights {easy_result.num_supersteps} "
        f"supersteps vs increasing-weight path "
        f"{hard_result.num_supersteps}"
    )
    # K is instance-dependent: tiny on random weights, Θ(n) on the
    # adversarial path.
    assert easy_result.num_supersteps < hard_result.num_supersteps / 4


def test_easy_family_matching_still_correct(benchmark):
    # Sanity alongside the sensitivity claims: answers never depend
    # on the family.
    def run():
        g = random_weighted_graph(100, 0.08, seed=4)
        edges, _ = locally_dominant_matching(g)
        baseline = path_growing_matching(g)
        return g, edges, baseline

    g, edges, baseline = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.graph import is_maximal_matching

    assert is_maximal_matching(g, edges)
    assert is_maximal_matching(g, baseline)


if __name__ == "__main__":  # pragma: no cover - direct invocation
    # Spawn-context hygiene: running this module directly must be
    # guarded so multiprocessing children that re-import __main__
    # (spawn start method) do not recursively launch the benches.
    import sys

    import pytest

    sys.exit(pytest.main([__file__, *sys.argv[1:]]))
