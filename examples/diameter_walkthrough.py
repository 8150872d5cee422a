"""Figure 1 walk-through: eccentricity flooding, superstep by
superstep.

The paper's Figure 1 illustrates the diameter algorithm from one
vertex's perspective.  This example replays the same computation on a
small graph and prints, per superstep, what each vertex has learned —
the growing history sets (the P1 storage violation) and the moment
each vertex's eccentricity settles.

Run with::

    python examples/diameter_walkthrough.py
"""

from repro.algorithms.diameter import EccentricityFlood
from repro.bsp import PregelEngine
from repro.graph import CsrSnapshot, Graph


def build_graph() -> CsrSnapshot:
    #   0 - 1 - 2
    #       |   |
    #       3 - 4 - 5
    g = Graph()
    for u, v in [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]:
        g.add_edge(u, v)
    return g.freeze()


class NarratedFlood(EccentricityFlood):
    """The row 1 program, printing each vertex's state as it runs."""

    def compute(self, vertex, messages, ctx):
        before = set(vertex.value["dist"])
        super().compute(vertex, messages, ctx)
        after = set(vertex.value["dist"])
        fresh = sorted(after - before)
        if ctx.superstep == 0:
            print(f"  s0: vertex {vertex.id} floods its id")
        elif fresh:
            print(
                f"  s{ctx.superstep}: vertex {vertex.id} learns "
                f"{fresh}, history now {sorted(after)}, "
                f"ecc={vertex.value['ecc']}"
            )


def main() -> None:
    graph = build_graph()
    print("graph edges:", sorted(tuple(sorted(e)) for e in graph.edges()))
    print("\nsupersteps:")
    engine = PregelEngine(graph, NarratedFlood(), num_workers=1)
    result = engine.run()

    print("\nfinal eccentricities:")
    for v in sorted(result.values):
        print(f"  vertex {v}: ecc={result.values[v]['ecc']}")
    diameter = max(val["ecc"] for val in result.values.values())
    print(
        f"\ndiameter = {diameter} = supersteps - 2 "
        f"({result.num_supersteps} total: one to originate, one to "
        "drain)"
    )
    print(
        f"messages sent: {result.stats.total_messages} "
        f"(Θ(mn) in general: every id crosses every edge once)"
    )


if __name__ == "__main__":
    main()
