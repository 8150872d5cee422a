"""Picklability contract for everything the parallel backend ships.

The process-parallel backend (:mod:`repro.bsp.parallel`) sends the
vertex program and the combiner to its worker processes over a pipe —
under the ``spawn`` start method nothing else travels, so *every*
registered :class:`VertexProgram` subclass and every combiner in the
:data:`~repro.bsp.combiner.COMBINERS` registry must survive a pickle
round trip with its behavior-bearing state intact.

The discovery is recursive over ``VertexProgram.__subclasses__()``
after importing the whole ``repro.algorithms`` package, and the test
fails loudly when a *new* program class appears without a constructor
recipe here — adding a program means deciding how to construct it for
this contract.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil

import pytest

import repro.algorithms
from repro.bsp.combiner import COMBINERS, resolve_combiner
from repro.bsp.program import VertexProgram
from repro.graph.graph import Graph
from tests.conftest import WORKLOADS

# Import every algorithms module so all program subclasses register.
for _mod in pkgutil.walk_packages(
    repro.algorithms.__path__, "repro.algorithms."
):
    importlib.import_module(_mod.name)

# The chaos programs ride the same pipe to rank processes as any
# other program; make sure discovery sees them regardless of whether
# the chaos suite ran first.
importlib.import_module("repro.core.chaos")


def _all_program_classes():
    found = []

    def walk(cls):
        for sub in cls.__subclasses__():
            found.append(sub)
            walk(sub)

    walk(VertexProgram)
    # Only library classes: tests define throwaway programs too.
    return sorted(
        (c for c in found if c.__module__.startswith("repro.")),
        key=lambda c: (c.__module__, c.__name__),
    )


def _query_graph():
    g = Graph(directed=True)
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(1, 2)
    return g.freeze()


#: How to build one instance of each registered program class.  A
#: class missing here fails test_every_program_class_has_a_recipe.
CONSTRUCTORS = {
    "BFSTree": lambda cls: cls(0),
    "BallGathering": lambda cls: cls(_query_graph(), {0: {0}}),
    "BipartiteMatching": lambda cls: cls(),
    "BoruvkaMST": lambda cls: cls(),
    "BrandesBetweenness": lambda cls: cls([0]),
    "ColoringSCC": lambda cls: cls(),
    "CoordinatorKiller": lambda cls: cls(num_supersteps=5),
    "DegreeCentrality": lambda cls: cls(),
    "EccentricityFlood": lambda cls: cls(),
    "EulerTour": lambda cls: cls(),
    "HashMinComponents": lambda cls: cls(),
    "HashMinWithEarlyExit": lambda cls: cls(threshold=0.1),
    "ListRanking": lambda cls: cls(),
    "LocalClusteringCoefficient": lambda cls: cls(),
    "LocallyDominantMatching": lambda cls: cls(),
    "LowHighWave": lambda cls: cls({0: None}, {0: 0}, {0: 0}, 0),
    "LubyMISColoring": lambda cls: cls(),
    "PageRank": lambda cls: cls(num_supersteps=5),
    "PointToPointShortestPath": lambda cls: cls(0, 1),
    "RankHanger": lambda cls: cls(
        flag_path="/tmp/flag", num_supersteps=5
    ),
    "RankKiller": lambda cls: cls(
        flag_path="/tmp/flag", num_supersteps=5
    ),
    "ReachabilityQuery": lambda cls: cls(0, 1),
    "ShiloachVishkin": lambda cls: cls(),
    "SimulationProgram": lambda cls: cls(_query_graph()),
    "SingleSourceShortestPaths": lambda cls: cls(0),
    "SlowRank": lambda cls: cls(delay=0.01, num_supersteps=5),
    "TriangleCounting": lambda cls: cls(),
    "TwinExchangeMarking": lambda cls: cls({}),
    "WeaklyConnectedComponents": lambda cls: cls(),
    "WeightedBetweenness": lambda cls: cls([0]),
}

PROGRAM_CLASSES = _all_program_classes()


def test_every_program_class_has_a_recipe():
    missing = [
        c.__name__ for c in PROGRAM_CLASSES
        if c.__name__ not in CONSTRUCTORS
    ]
    assert not missing, (
        f"program classes without a pickle-contract recipe: {missing} "
        "— add CONSTRUCTORS entries so the parallel backend's "
        "shipping contract covers them"
    )


@pytest.mark.parametrize(
    "cls", PROGRAM_CLASSES, ids=[c.__name__ for c in PROGRAM_CLASSES]
)
def test_program_pickle_round_trip(cls):
    program = CONSTRUCTORS[cls.__name__](cls)
    blob = pickle.dumps(program, pickle.HIGHEST_PROTOCOL)
    clone = pickle.loads(blob)
    assert type(clone) is cls
    assert clone.name == program.name
    assert clone.parallel_safe == program.parallel_safe
    # The behavior-bearing state must survive: same attribute set,
    # and every plain attribute re-pickles to equal bytes.
    assert set(vars(clone)) == set(vars(program))
    for key, value in vars(program).items():
        assert pickle.dumps(vars(clone)[key], 2) == pickle.dumps(
            value, 2
        ), f"attribute {key!r} did not survive the round trip"


@pytest.mark.parametrize(
    "name,make_program",
    [(w[0], w[2]) for w in WORKLOADS],
    ids=[w[0] for w in WORKLOADS],
)
def test_workload_instances_pickle(name, make_program):
    program = make_program()
    clone = pickle.loads(pickle.dumps(program, pickle.HIGHEST_PROTOCOL))
    assert type(clone) is type(program)
    assert vars(clone) == vars(program)


@pytest.mark.parametrize("name", sorted(COMBINERS))
def test_registered_combiners_pickle(name):
    combiner = resolve_combiner(name)
    clone = pickle.loads(
        pickle.dumps(combiner, pickle.HIGHEST_PROTOCOL)
    )
    assert type(clone) is type(combiner)
    # Behavior, not just identity: the clone must combine the same.
    assert clone.combine(3, 5) == combiner.combine(3, 5)
    assert clone.combine(5, 3) == combiner.combine(5, 3)
