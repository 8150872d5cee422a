"""Tests pinning the Pregel engine's execution semantics."""

import pytest

from repro.bsp import (
    MinCombiner,
    OrAggregator,
    PregelEngine,
    SumAggregator,
    SumCombiner,
    VertexProgram,
    run_program,
)
from repro.errors import MessageToUnknownVertexError, SuperstepLimitExceeded
from repro.graph import Graph, path_graph, star_graph


class Echo(VertexProgram):
    """Superstep 0: everyone messages neighbors; then halt forever."""

    name = "echo"

    def compute(self, v, msgs, ctx):
        if ctx.superstep == 0:
            v.value = []
            ctx.send_to_neighbors(v, v.id)
        else:
            v.value = sorted(v.value + msgs)
        v.vote_to_halt()


class TestBasicSemantics:
    def test_superstep0_runs_everywhere_with_no_messages(self):
        seen = []

        class Probe(VertexProgram):
            def compute(self, v, msgs, ctx):
                seen.append((v.id, list(msgs), ctx.superstep))
                v.vote_to_halt()

        g = path_graph(3)
        run_program(g, Probe())
        assert sorted(seen) == [(0, [], 0), (1, [], 0), (2, [], 0)]

    def test_messages_arrive_next_superstep(self):
        g = path_graph(3)
        r = run_program(g, Echo())
        assert r.values == {0: [1], 1: [0, 2], 2: [1]}
        assert r.num_supersteps == 2

    def test_halted_vertex_wakes_on_message(self):
        class Wake(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    v.value = 0
                    if v.id == 0:
                        ctx.send(1, "ping")
                else:
                    v.value += len(msgs)
                v.vote_to_halt()

        g = Graph()
        g.add_edge(0, 1)
        r = run_program(g, Wake())
        assert r.values[1] == 1
        assert r.values[0] == 0

    def test_halted_vertices_do_no_work(self):
        class OneShot(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.vote_to_halt()

        g = path_graph(5)
        r = run_program(g, OneShot())
        assert r.num_supersteps == 1
        assert r.stats.supersteps[0].active_vertices == 5

    def test_termination_requires_no_pending_messages(self):
        # A ring where each vertex forwards a token K times.
        class Relay(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0 and v.id == 0:
                    ctx.send(1, 1)
                for hop in msgs:
                    if hop < 5:
                        ctx.send((v.id + 1) % 3, hop + 1)
                v.vote_to_halt()

        g = Graph()
        for i in range(3):
            g.add_edge(i, (i + 1) % 3)
        r = run_program(g, Relay())
        assert r.num_supersteps == 6  # token hops 1..5 then drained

    def test_superstep_limit(self):
        class Forever(VertexProgram):
            name = "forever"

            def compute(self, v, msgs, ctx):
                ctx.send(v.id, "again")

        with pytest.raises(SuperstepLimitExceeded):
            run_program(path_graph(2), Forever(), max_supersteps=10)

    def test_superstep_limit_carries_bound_and_program_name(self):
        class Forever(VertexProgram):
            name = "spinner"

            def compute(self, v, msgs, ctx):
                ctx.send(v.id, "again")

        with pytest.raises(SuperstepLimitExceeded) as err:
            run_program(path_graph(2), Forever(), max_supersteps=7)
        assert err.value.limit == 7
        assert "spinner" in str(err.value)

    def test_halting_exactly_at_the_limit_is_fine(self):
        class CountDown(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep < 4:
                    ctx.send(v.id, "tick")
                else:
                    v.vote_to_halt()

        # The program needs exactly 5 supersteps; a budget of 5 must
        # succeed and a budget of 4 must raise.
        r = run_program(path_graph(3), CountDown(), max_supersteps=5)
        assert r.num_supersteps == 5
        with pytest.raises(SuperstepLimitExceeded):
            run_program(path_graph(3), CountDown(), max_supersteps=4)

    def test_superstep_limit_of_one(self):
        class Quiet(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.vote_to_halt()

        r = run_program(path_graph(2), Quiet(), max_supersteps=1)
        assert r.num_supersteps == 1

    def test_send_to_unknown_vertex_raises(self):
        class Bad(VertexProgram):
            def compute(self, v, msgs, ctx):
                ctx.send("nope", 1)

        with pytest.raises(MessageToUnknownVertexError):
            run_program(path_graph(2), Bad())

    def test_engine_enqueue_rejects_unknown_target(self):
        # The lane-level guard (not just the context-level one): a
        # raw send through the pair the engine bound its context to
        # must raise the dedicated error, never a bare KeyError.
        class Quiet(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.vote_to_halt()

        engine = PregelEngine(path_graph(3), Quiet())
        with pytest.raises(MessageToUnknownVertexError) as err:
            engine._ctx._enqueue(0, "ghost", "boo")
        assert err.value.target == "ghost"

    def test_initial_value_hook(self):
        class WithInit(VertexProgram):
            def initial_value(self, vid, graph):
                return vid * 10

            def compute(self, v, msgs, ctx):
                v.vote_to_halt()

        r = run_program(path_graph(3), WithInit())
        assert r.values == {0: 0, 1: 10, 2: 20}

    def test_deterministic_rng(self):
        class Coin(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.value = ctx.random.random()
                v.vote_to_halt()

        a = run_program(path_graph(4), Coin(), seed=42)
        b = run_program(path_graph(4), Coin(), seed=42)
        c = run_program(path_graph(4), Coin(), seed=43)
        assert a.values == b.values
        assert a.values != c.values


class TestAccounting:
    def test_message_counts(self):
        g = path_graph(3)
        r = run_program(g, Echo())
        # Superstep 0 sends 1+2+1 = 4 messages.
        assert r.stats.supersteps[0].total_messages == 4
        assert r.stats.total_messages == 4

    def test_work_includes_consumed_messages_and_charge(self):
        class Charger(VertexProgram):
            def compute(self, v, msgs, ctx):
                ctx.charge(10)
                v.vote_to_halt()

        g = path_graph(2)
        r = run_program(g, Charger(), num_workers=1)
        # Two vertices, each 1 (call) + 10 (charged).
        assert r.stats.supersteps[0].total_work == 22

    def test_tpp_scales_with_workers(self):
        g = star_graph(20)
        r1 = run_program(g, Echo(), num_workers=1)
        r4 = run_program(g, Echo(), num_workers=4)
        assert r1.values == r4.values
        assert r1.stats.time_processor_product > 0
        # Four workers can only add synchronization overhead in TPP.
        assert (
            r4.stats.time_processor_product
            >= r1.stats.time_processor_product * 0.99
        )

    def test_bppa_observation_present_by_default(self):
        r = run_program(path_graph(4), Echo())
        assert r.bppa is not None
        assert r.bppa.num_supersteps == r.num_supersteps
        # Echo sends exactly d(v) messages: factor < 1 under d(v)+1.
        assert r.bppa.message_factor <= 1.0

    def test_bppa_tracking_disabled(self):
        r = run_program(path_graph(4), Echo(), track_bppa=False)
        assert r.bppa is None

    def test_worker_work_only_for_active(self):
        class Once(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.vote_to_halt()

        g = path_graph(4)
        r = run_program(g, Once(), num_workers=2)
        assert r.stats.supersteps[0].total_work == 4


class TestCombiners:
    def test_min_combiner_reduces_network_not_logic(self):
        g = star_graph(10)  # everyone messages the hub

        class ToHub(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0 and v.id != 0:
                    ctx.send(0, v.id)
                elif msgs:
                    v.value = min(msgs)
                v.vote_to_halt()

        r = run_program(g, ToHub(), num_workers=3, combiner=MinCombiner())
        assert r.values[0] == 1
        s0 = r.stats.supersteps[0]
        assert s0.total_messages == 9
        # At most one network message per (worker, dest) pair.
        assert s0.total_network_messages <= 3

    def test_sum_combiner_preserves_totals(self):
        g = star_graph(8)

        class SumToHub(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0 and v.id != 0:
                    ctx.send(0, 2)
                elif msgs:
                    v.value = sum(msgs)
                v.vote_to_halt()

        r = run_program(g, SumToHub(), num_workers=4, combiner=SumCombiner())
        assert r.values[0] == 14  # 7 leaves * 2, partial sums re-summed


class TestAggregators:
    class CountActive(VertexProgram):
        def aggregators(self):
            return {"active": SumAggregator(), "any_big": OrAggregator()}

        def compute(self, v, msgs, ctx):
            if ctx.superstep == 0:
                ctx.aggregate("active", 1)
                ctx.aggregate("any_big", v.id > 100)
                ctx.send_to_neighbors(v, 0)
            else:
                v.value = ctx.get_aggregate("active")
                v.vote_to_halt()

    def test_aggregate_visible_next_superstep(self):
        g = path_graph(5)
        r = run_program(g, self.CountActive())
        assert all(val == 5 for val in r.values.values())
        assert r.aggregate_history[0]["active"] == 5
        assert r.aggregate_history[0]["any_big"] is False

    def test_master_sees_fresh_aggregates_and_can_halt(self):
        observed = []

        class MasterHalt(VertexProgram):
            def aggregators(self):
                return {"count": SumAggregator()}

            def compute(self, v, msgs, ctx):
                ctx.aggregate("count", 1)
                ctx.send_to_neighbors(v, 1)  # would run forever

            def master_compute(self, master):
                observed.append(master.get_aggregate("count"))
                if master.superstep == 2:
                    master.halt()

        g = path_graph(3)
        r = run_program(g, MasterHalt())
        assert r.num_supersteps == 3
        assert observed == [3, 3, 3]

    def test_master_activate_all(self):
        class Phased(VertexProgram):
            def compute(self, v, msgs, ctx):
                v.value = (v.value or 0) + 1
                v.vote_to_halt()

            def master_compute(self, master):
                if master.superstep == 0:
                    master.activate_all()

        r = run_program(path_graph(3), Phased())
        assert all(val == 2 for val in r.values.values())


class TestMutations:
    def test_remove_edge(self):
        class DropEdge(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    if v.id == 0:
                        ctx.remove_edge(0, 1)
                        ctx.send(0, "tick")
                else:
                    v.value = v.neighbors()
                    v.vote_to_halt()

        g = path_graph(3)
        r = run_program(g, DropEdge())
        assert r.values[0] == []
        # Runtime edges are directed: 1 -> 0 still exists.
        assert 0 in (r.values[1] or [0])

    def test_remove_vertex_drops_pending_messages(self):
        class Removal(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    if v.id == 0:
                        ctx.send(1, "doomed")
                        ctx.remove_vertex(1)
                        ctx.send(0, "tick")
                else:
                    v.value = "survived"
                    v.vote_to_halt()

        g = path_graph(3)
        r = run_program(g, Removal())
        assert 1 not in r.values
        assert r.values[0] == "survived"

    def test_add_vertex_and_edge(self):
        class Grow(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    if v.id == 0:
                        ctx.add_vertex("new", value="fresh")
                        ctx.add_edge(0, "new")
                    ctx.send(v.id, "tick")
                elif ctx.superstep == 1:
                    if v.id == 0:
                        ctx.send("new", "hello")
                else:
                    if msgs:
                        v.value = msgs[0]
                    v.vote_to_halt()

        g = path_graph(2)
        r = run_program(g, Grow())
        assert r.values["new"] == "hello"

    def test_counters_balance_when_mutation_drops_messages(self):
        # Regression: messages to a vertex removed in the same
        # superstep are dropped at delivery; the send/receive books
        # must still balance at every superstep boundary.
        class SendToDoomed(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    if v.id != 1:
                        ctx.send(1, "doomed")
                    if v.id == 0:
                        ctx.remove_vertex(1)
                        ctx.send(0, "tick")
                else:
                    v.vote_to_halt()

        g = path_graph(5)
        r = run_program(g, SendToDoomed(), num_workers=3)
        assert 1 not in r.values
        for s in r.stats.supersteps:
            assert sum(s.sent_logical) == sum(s.received_logical), (
                f"superstep {s.superstep} books do not balance"
            )
        # Superstep 0: four messages to the doomed vertex dropped,
        # only the self-message to 0 delivered and counted.
        assert r.stats.supersteps[0].total_messages == 1

    def test_vertex_local_edge_mutation(self):
        # Programs may mutate their own out_edges directly (Pregel
        # local mutation), e.g. Luby MIS removing chosen neighbors.
        class Prune(VertexProgram):
            def compute(self, v, msgs, ctx):
                if ctx.superstep == 0:
                    for nbr in v.neighbors():
                        if nbr > v.id:
                            del v.out_edges[nbr]
                    ctx.send(v.id, "tick")
                else:
                    v.value = sorted(v.out_edges)
                    v.vote_to_halt()

        g = path_graph(3)
        r = run_program(g, Prune())
        assert r.values[0] == []
        assert r.values[1] == [0]
        assert r.values[2] == [1]


class TestResultShape:
    def test_result_fields(self):
        r = run_program(path_graph(3), Echo())
        assert set(r.values) == {0, 1, 2}
        assert r.time_processor_product == r.stats.time_processor_product
        assert len(r.aggregate_history) == r.num_supersteps

    def test_engine_reuse_not_required(self):
        g = path_graph(3)
        e = PregelEngine(g, Echo())
        r = e.run()
        assert r.num_supersteps == 2
