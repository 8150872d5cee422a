"""A standalone Pregel interpreter: the differential suites' oracle.

This module runs a vertex program over a graph (a
:class:`~repro.graph.CsrSnapshot`, or a ``Graph`` builder it freezes
once, as the engine does) the plainest way Pregel can be written down, and shares no code with
the engine it judges.  It imports nothing from ``repro.bsp`` (the
package, so no fabric, kernel, state store, worker, loop or compute
context) and nothing from ``repro.metrics`` (so no ``BppaTracker``):
only the error types and the default partitioner.  Everything the
Table 1 verdicts rest on is computed here, again, by other code:

* **the ledger** — per superstep and per worker: local work ``w_i``
  (one unit per compute call, per message consumed, per message sent,
  plus ``ctx.charge``), logical sends and receives, network messages
  after combining, and sends to another worker; plus the count of
  vertices that ran;
* **the BPPA observation** — the worst ``quantity / (d(v) + 1)`` over
  every compute call, for storage (P1), compute (P2) and messages
  (P3), and the superstep count (P4).  Storage is counted by
  :func:`reference_atoms`, this module's own copy of the P1 rule,
  unless the program overrides ``state_size``;
* **the aggregate history** — each superstep's reduced aggregators.

Semantics, in the order the engine documents them: workers run in
ascending index, each over its vertex ids in insertion order (graph
order, then barrier-added vertices); ``ctx.random`` is one
``random.Random(seed)`` drawn in that order.  Mail is a dict per
destination, charged when it is delivered: a message to a vertex
removed at the same barrier is dropped uncharged, and a combiner folds
each sending worker's messages to one destination at delivery, left
to right in send order.  Mutations apply at the barrier in Pregel's
order — edge removals, vertex removals, vertex additions, edge
additions.  There are no checkpoints and no faults: a faulted engine
run is held to this run's values by the fault-masking contract.

:func:`run_oracle` returns plain data (:class:`OracleRun`); the test
suites shape it into the engine's result types to compare.
"""

from __future__ import annotations

import random
import sys
from typing import Any, Dict, Hashable, List, NamedTuple

from repro.errors import MessageToUnknownVertexError, SuperstepLimitExceeded
from repro.graph.partition import HashPartitioner


def reference_atoms(value: Any) -> int:
    """The P1 storage of a vertex value, by the recursive definition:
    ``None`` is 0 atoms, a scalar 1, a container the sum over its
    items (a dict's keys and values), an object with ``__dict__`` its
    attribute dict, anything else 1."""
    if value is None:
        return 0
    if isinstance(value, (bool, int, float, complex, str, bytes)):
        return 1
    if isinstance(value, dict):
        return sum(
            reference_atoms(k) + reference_atoms(v)
            for k, v in value.items()
        )
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(reference_atoms(item) for item in value)
    if hasattr(value, "__dict__"):
        return reference_atoms(vars(value))
    return 1


def _storage_of(program):
    """``vertex -> P1 storage`` for ``program``: its own
    ``state_size`` when it overrides the base class's, else
    :func:`reference_atoms` of the value.  The base class is looked up
    among the loaded modules, never imported: a program deriving from
    it has loaded it already."""
    module = sys.modules.get("repro.bsp.program")
    base = getattr(module, "VertexProgram", None)
    if base is not None and type(program).state_size is base.state_size:
        return lambda vertex: reference_atoms(vertex.value)
    return program.state_size


class OracleRun(NamedTuple):
    """What one oracle run computed.

    ``ledger`` has one dict per superstep with the per-worker lists
    ``work``, ``sent_logical``, ``received_logical``, ``sent_network``,
    ``received_network`` and ``sent_remote`` and the int
    ``active_vertices``.  ``bppa`` holds ``n``, ``num_supersteps``,
    ``storage_factor``, ``compute_factor`` and ``message_factor``.
    """

    values: Dict[Hashable, Any]
    ledger: List[Dict[str, Any]]
    bppa: Dict[str, Any]
    aggregate_history: List[Dict[str, Any]]


class Vertex:
    """The vertex a program sees: id, value, edge maps, halt flag."""

    __slots__ = ("id", "value", "out_edges", "in_edges", "halted")

    def __init__(self, vertex_id, value, out_edges, in_edges):
        self.id = vertex_id
        self.value = value
        self.out_edges = out_edges
        self.in_edges = in_edges
        self.halted = False

    def vote_to_halt(self) -> None:
        self.halted = True

    @property
    def active(self) -> bool:
        return not self.halted

    def out_degree(self) -> int:
        return len(self.out_edges)

    def in_degree(self) -> int:
        return len(self.in_edges)

    def neighbors(self) -> list:
        return list(self.out_edges)

    def sorted_neighbors(self) -> list:
        return sorted(self.out_edges)


class Context:
    """The ``ctx`` of every compute call; one per run."""

    def __init__(self, run: "_Interpreter"):
        self._run = run
        self.superstep = 0
        self.num_vertices = 0
        self._worker = 0
        self._sent = 0
        self._charged = 0.0

    @property
    def random(self) -> random.Random:
        return self._run.rng

    def get_aggregate(self, name):
        return self._run.previous.get(name)

    def send(self, target, message) -> None:
        run = self._run
        if target not in run.states:
            raise MessageToUnknownVertexError(target)
        run.outbox.setdefault(target, []).append((self._worker, message))
        self._sent += 1

    def send_to(self, targets, message) -> None:
        for target in targets:
            self.send(target, message)

    def send_to_neighbors(self, vertex, message) -> None:
        self.send_to(vertex.out_edges, message)

    def charge(self, ops) -> None:
        self._charged += ops

    def aggregate(self, name, value) -> None:
        run = self._run
        run.current[name] = run.aggregators[name].reduce(
            run.current[name], value
        )

    def add_vertex(self, vertex_id, value=None) -> None:
        self._run.requests["add_vertex"].append((vertex_id, value))

    def add_edge(self, u, v, weight=1.0) -> None:
        self._run.requests["add_edge"].append((u, v, weight))

    def remove_edge(self, u, v) -> None:
        self._run.requests["remove_edge"].append((u, v))

    def remove_vertex(self, vertex_id) -> None:
        self._run.requests["remove_vertex"].append(vertex_id)


class Master:
    """The ``master`` of ``master_compute``, once per superstep."""

    def __init__(self, superstep, aggregates, num_active, num_vertices,
                 pending_messages):
        self.superstep = superstep
        self._aggregates = aggregates
        self.num_active = num_active
        self.num_vertices = num_vertices
        self.pending_messages = pending_messages
        self.halted = False
        self.wake_all = False

    def get_aggregate(self, name):
        return self._aggregates.get(name)

    def halt(self) -> None:
        self.halted = True

    def activate_all(self) -> None:
        self.wake_all = True


def _new_requests() -> Dict[str, list]:
    return {
        "remove_edge": [], "remove_vertex": [],
        "add_vertex": [], "add_edge": [],
    }


#: The engine's default superstep bound.
MAX_SUPERSTEPS = 100_000


class _Interpreter:
    def __init__(self, graph, program, num_workers, combiner, seed):
        graph = graph.freeze()
        self.program = program
        self.storage = _storage_of(program)
        self.combiner = combiner
        self.workers = num_workers
        self.partitioner = HashPartitioner(num_workers)
        self.directed = graph.directed
        self.rng = random.Random(seed)
        self.aggregators = dict(program.aggregators())
        self.current: Dict[str, Any] = {}
        self.previous: Dict[str, Any] = {}
        self.requests = _new_requests()
        self.outbox: Dict[Hashable, list] = {}
        self.inbox: Dict[Hashable, list] = {}
        self.degree = {v: graph.total_degree(v) for v in graph.vertices()}
        self.states: Dict[Hashable, Vertex] = {}
        self.owner: Dict[Hashable, int] = {}
        self.ids: List[List[Hashable]] = [[] for _ in range(num_workers)]
        for v in graph.vertices():
            out_edges = {u: graph.weight(v, u) for u in graph.neighbors(v)}
            in_edges = (
                {u: graph.weight(u, v) for u in graph.in_neighbors(v)}
                if self.directed else out_edges
            )
            self._place(Vertex(
                v, program.initial_value(v, graph), out_edges, in_edges
            ))
        self.factors = [0.0, 0.0, 0.0]  # storage, compute, messages
        self.ctx = Context(self)

    def _place(self, vertex: Vertex) -> None:
        worker = self.partitioner(vertex.id) % self.workers
        self.states[vertex.id] = vertex
        self.owner[vertex.id] = worker
        self.ids[worker].append(vertex.id)

    def run(self) -> OracleRun:
        ledger: List[Dict[str, Any]] = []
        history: List[Dict[str, Any]] = []
        wake_all = True
        superstep = 0
        while True:
            if superstep >= MAX_SUPERSTEPS:
                raise SuperstepLimitExceeded(
                    MAX_SUPERSTEPS, self.program.name
                )
            work, active = self._compute(superstep, wake_all)
            self.previous = dict(self.current)
            history.append(self.previous)
            master = Master(
                superstep, self.previous, active, len(self.states),
                sum(map(len, self.outbox.values())),
            )
            self.program.master_compute(master)
            self._mutate()
            entry, delivered = self._deliver()
            entry["work"] = work
            entry["active_vertices"] = active
            ledger.append(entry)
            superstep += 1
            if master.halted:
                break
            wake_all = master.wake_all
            if not (delivered or wake_all) and all(
                v.halted for v in self.states.values()
            ):
                break
        storage, compute, messages = self.factors
        return OracleRun(
            values={v: s.value for v, s in self.states.items()},
            ledger=ledger,
            bppa=dict(
                n=len(self.degree), num_supersteps=len(ledger),
                storage_factor=storage, compute_factor=compute,
                message_factor=messages,
            ),
            aggregate_history=history,
        )

    def _compute(self, superstep, wake_all):
        """Every compute call of one superstep; the per-worker work
        and the number of vertices that ran."""
        program = self.program
        ctx = self.ctx
        ctx.superstep = superstep
        ctx.num_vertices = len(self.states)
        self.current = {
            name: agg.initial() for name, agg in self.aggregators.items()
        }
        self.outbox = {}
        work = [0.0] * self.workers
        active = 0
        for worker, ids in enumerate(self.ids):
            for vid in ids:
                vertex = self.states[vid]
                messages = self.inbox.pop(vid, [])
                if messages or wake_all:
                    vertex.halted = False
                elif vertex.halted:
                    continue
                ctx._worker, ctx._sent, ctx._charged = worker, 0, 0.0
                program.compute(vertex, messages, ctx)
                ops = 1 + len(messages) + ctx._sent + ctx._charged
                work[worker] += ops
                active += 1
                self._observe(
                    vid, ctx._sent, len(messages), ops,
                    self.storage(vertex),
                )
        return work, active

    def _observe(self, vid, sent, received, ops, storage) -> None:
        denom = self.degree.get(vid, 0) + 1
        for i, quantity in enumerate((storage, ops, max(sent, received))):
            self.factors[i] = max(self.factors[i], quantity / denom)

    def _mutate(self) -> None:
        """Apply the barrier's requests in Pregel's order."""
        requests, self.requests = self.requests, _new_requests()
        states = self.states
        directed = self.directed
        for u, v in requests["remove_edge"]:
            if u in states:
                states[u].out_edges.pop(v, None)
            if directed and v in states:
                states[v].in_edges.pop(u, None)
        for vid in requests["remove_vertex"]:
            vertex = states.pop(vid, None)
            if vertex is None:
                continue
            self.ids[self.owner[vid]].remove(vid)
            for other in list(vertex.in_edges):
                if other in states:
                    states[other].out_edges.pop(vid, None)
            if directed:
                for other in list(vertex.out_edges):
                    if other in states:
                        states[other].in_edges.pop(vid, None)
        for vid, value in requests["add_vertex"]:
            if vid not in states:
                out_edges: Dict[Hashable, Any] = {}
                self._place(Vertex(
                    vid, value, out_edges, {} if directed else out_edges
                ))
        for u, v, weight in requests["add_edge"]:
            if u not in states:
                continue
            states[u].out_edges[v] = weight
            if directed and v in states:
                states[v].in_edges[u] = weight

    def _deliver(self):
        """Move the outbox into the inbox, charging the ledger; return
        the superstep's message columns and the delivered count."""
        p = self.workers
        books = {
            name: [0] * p
            for name in (
                "sent_logical", "received_logical", "sent_network",
                "received_network", "sent_remote",
            )
        }
        delivered = 0
        for target, mail in self.outbox.items():
            if target not in self.states:
                continue  # removed at this barrier: dropped uncharged
            dst = self.owner[target]
            mail.sort(key=lambda entry: entry[0])  # worker order
            by_worker: Dict[int, list] = {}
            for src, message in mail:
                by_worker.setdefault(src, []).append(message)
                books["sent_logical"][src] += 1
                books["sent_remote"][src] += src != dst
            books["received_logical"][dst] += len(mail)
            if self.combiner is None:
                inbox = [message for _, message in mail]
                for src, _ in mail:
                    books["sent_network"][src] += 1
            else:
                inbox = []
                for src, messages in by_worker.items():
                    folded = messages[0]
                    for message in messages[1:]:
                        folded = self.combiner.combine(folded, message)
                    inbox.append(folded)
                    books["sent_network"][src] += 1
            books["received_network"][dst] += len(inbox)
            self.inbox[target] = inbox
            delivered += len(inbox)
        return books, delivered


def run_oracle(
    graph, program, num_workers: int = 4, combiner=None, seed: int = 0
) -> OracleRun:
    """Run ``program`` over ``graph`` on ``num_workers`` simulated
    workers, hash-partitioned as the engine's default, and return
    what the run computed (module docstring).  ``program`` is
    anything with the vertex-program surface — ``name``,
    ``initial_value``, ``compute``, ``master_compute``,
    ``aggregators`` and ``state_size``."""
    return _Interpreter(graph, program, num_workers, combiner, seed).run()
