"""The public algorithm entry points take a ``Graph`` builder as well
as a frozen ``CsrSnapshot``: each freezes its inputs once, on entry,
so a builder gives exactly the result of its frozen snapshot."""

import pickle

import pytest

from repro.algorithms import (
    dual_simulation,
    graph_simulation,
    minimum_spanning_tree,
    strong_simulation,
)
from repro.graph import (
    random_labeled_digraph,
    random_query_graph,
    random_weighted_graph,
)


def _matching(entry):
    def run(seed, thaw):
        data = random_labeled_digraph(30, 0.1, labels="AB", seed=seed)
        query = random_query_graph(3, labels="AB", seed=seed + 50)
        if thaw:
            data, query = data.to_graph(), query.to_graph()
        return entry(data, query, num_workers=3)

    return run


def _mst(seed, thaw):
    graph = random_weighted_graph(25, 0.2, seed=seed)
    return minimum_spanning_tree(
        graph.to_graph() if thaw else graph, num_workers=3
    )


def _comparable(output):
    """What a run decided, without its measured seconds."""
    if isinstance(output, tuple):  # the run's result comes last
        *answer, result = output
        return answer, result.values, result.stats.supersteps
    return output.output, [
        (stage.values, stage.stats.supersteps) for stage in output.stages
    ]


@pytest.mark.parametrize(
    "run",
    [
        _matching(graph_simulation),
        _matching(dual_simulation),
        _matching(strong_simulation),
        _mst,
    ],
    ids=["graph-simulation", "dual-simulation", "strong-simulation", "mst"],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_builder_gives_its_snapshots_result(run, seed):
    frozen = _comparable(run(seed, thaw=False))
    built = _comparable(run(seed, thaw=True))
    assert pickle.dumps(built) == pickle.dumps(frozen)
