"""Tests for the structured trace layer (:mod:`repro.trace`).

The contract under test: traced runs on both execution backends —
the serial dense plane and the process-parallel backend — produce
identical modeled event streams, whose per-superstep
quantities reconcile exactly with the ``RunStats`` the run returned,
including under checkpointing, fault injection and recovery.
"""

import pickle

import pytest

from repro.algorithms.pagerank import PageRank
from repro.bsp import run_program
from repro.bsp.combiner import resolve_combiner
from repro.bsp.faults import chaos_plan, crash_plan, drop_plan
from repro.core.chaos import canonical_result
from repro.graph import erdos_renyi_graph
from repro.metrics.cost_model import BSPCostModel
from repro.trace import (
    Barrier,
    CheckpointWrite,
    FaultInjected,
    Handoff,
    Rollback,
    SuperstepEnd,
    SuperstepStart,
    TraceRecorder,
    WorkerProfile,
    attribute_costs,
    attribution_summary,
    breakdowns_from_events,
    compare_partitioners,
    event_from_dict,
    format_attribution,
    format_partitioner_table,
    format_straggler,
    get_default_trace,
    modeled_equal,
    modeled_events,
    read_jsonl,
    set_default_trace,
    stats_from_events,
    straggler_profile,
)

from tests.conftest import WORKLOADS, assert_held_to_oracle, oracle_result


#: (backend, engine kwargs) for the execution paths.  The oracle
#: (tests/oracle.py) emits no trace; the values are held to it.
PATHS = [
    ("serial", {}),
    ("parallel", {}),
]
PATH_IDS = ["fast", "parallel"]


def traced_run(graph, make_program, combiner_name, backend, **kwargs):
    recorder = TraceRecorder()
    if combiner_name is not None:
        kwargs["combiner"] = resolve_combiner(combiner_name)
    result = run_program(
        graph,
        make_program(),
        backend=backend,
        num_workers=4,
        trace=recorder,
        **kwargs,
    )
    return recorder, result


class TestModeledEquality:
    @pytest.mark.parametrize(
        "name,graph,make_program,combiner", WORKLOADS
    )
    def test_three_paths_agree(
        self, name, graph, make_program, combiner
    ):
        streams = []
        for (backend, kwargs), pid in zip(PATHS, PATH_IDS):
            recorder, result = traced_run(
                graph, make_program, combiner, backend, **kwargs
            )
            assert len(recorder) > 0
            streams.append((pid, recorder, result))
        _, ref, ref_result = streams[0]
        for pid, rec, result in streams[1:]:
            assert modeled_equal(ref, rec), (
                f"{name}: {pid} modeled trace diverged from fast"
            )
            assert result.values == ref_result.values
        oracle = oracle_result(
            graph, make_program(), num_workers=4,
            combiner=resolve_combiner(combiner),
        )
        assert_held_to_oracle(ref_result, oracle, note=name)

    def test_wall_fields_do_not_break_equality(self, small_er):
        a, _ = traced_run(
            small_er, lambda: PageRank(num_supersteps=4), "sum",
            "serial",
        )
        b, _ = traced_run(
            small_er, lambda: PageRank(num_supersteps=4), "sum",
            "serial",
        )
        walls_a = [
            e.wall_seconds
            for e in a.events()
            if isinstance(e, WorkerProfile)
        ]
        walls_b = [
            e.wall_seconds
            for e in b.events()
            if isinstance(e, WorkerProfile)
        ]
        # Raw events almost surely differ (measured seconds), the
        # modeled streams never do.
        assert modeled_equal(a, b)
        assert len(walls_a) == len(walls_b) > 0

    def test_path_label_is_informational(self, small_er):
        serial, _ = traced_run(
            small_er, lambda: PageRank(num_supersteps=4), "sum",
            "serial",
        )
        parallel, _ = traced_run(
            small_er, lambda: PageRank(num_supersteps=4), "sum",
            "parallel",
        )

        def labels(recorder):
            return {
                (e.path, e.backend)
                for e in recorder.events()
                if isinstance(e, SuperstepStart)
            }

        assert labels(serial) == {("fast", "serial")}
        assert labels(parallel) == {("fast", "parallel")}
        assert modeled_equal(serial, parallel)


class TestReconciliation:
    @pytest.mark.parametrize(
        "name,graph,make_program,combiner", WORKLOADS
    )
    def test_stats_from_events_match_run_stats(
        self, name, graph, make_program, combiner
    ):
        recorder, result = traced_run(
            graph, make_program, combiner, "serial"
        )
        recon = stats_from_events(recorder)
        assert pickle.dumps(recon) == pickle.dumps(
            result.stats.supersteps
        )

    def test_reconciles_under_crash_and_rollback(self, small_er):
        recorder, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=6),
            "sum",
            "serial",
            checkpoint_interval=2,
            fault_plan=chaos_plan(crash_superstep=3, drop=0.1),
        )
        kinds = {e.kind for e in recorder.events()}
        assert "rollback" in kinds
        assert "checkpoint_write" in kinds
        assert "fault_injected" in kinds
        recon = stats_from_events(recorder)
        assert pickle.dumps(recon) == pickle.dumps(
            result.stats.supersteps
        )
        # The replayed superstep appears twice in the raw stream but
        # once in the committed reconstruction, marked executions=2.
        replayed = [s for s in recon if s.executions > 1]
        assert replayed

    def test_crash_run_modeled_equal_across_backends(self, small_er):
        streams = []
        for (backend, kwargs), pid in zip(PATHS, PATH_IDS):
            rec, result = traced_run(
                small_er,
                lambda: PageRank(num_supersteps=6),
                "sum",
                backend,
                checkpoint_interval=2,
                fault_plan=crash_plan(superstep=3, worker=1),
                **kwargs,
            )
            streams.append((pid, rec, result))
        (p0, a, ra), (p1, b, rb) = streams
        assert modeled_equal(a, b), f"{p0} vs {p1}"
        assert ra.values == rb.values

    def test_checkpoint_write_events_reconcile(self, small_er):
        recorder, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=6),
            "sum",
            "serial",
            checkpoint_interval=2,
        )
        writes = [
            e
            for e in recorder.events()
            if isinstance(e, CheckpointWrite)
        ]
        assert len(writes) == result.stats.checkpoints_written
        assert sum(w.cost for w in writes) == pytest.approx(
            result.stats.checkpoint_cost
        )

    def test_network_fault_events_reconcile(self, small_er):
        recorder, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=6),
            "sum",
            "serial",
            fault_plan=drop_plan(rate=0.2),
        )
        faults = [
            e
            for e in recorder.events()
            if isinstance(e, FaultInjected) and e.fault == "network"
        ]
        assert faults
        assert (
            sum(f.retransmitted for f in faults)
            == result.stats.retransmitted_messages
        )


class TestRecorder:
    def test_ring_buffer_drops_oldest(self, small_er):
        recorder = TraceRecorder(capacity=10)
        run_program(
            small_er,
            PageRank(num_supersteps=5),
            num_workers=4,
            trace=recorder,
        )
        assert len(recorder) == 10
        assert recorder.emitted > 10
        assert recorder.dropped == recorder.emitted - 10

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            TraceRecorder(capacity=0)

    def test_clear(self, small_er):
        recorder, _ = traced_run(
            small_er, lambda: PageRank(num_supersteps=3), "sum",
            "serial",
        )
        assert len(recorder) > 0
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.emitted == 0

    def test_jsonl_round_trip(self, small_er, tmp_path):
        recorder, _ = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=4),
            "sum",
            "serial",
            checkpoint_interval=2,
            fault_plan=chaos_plan(crash_superstep=2, drop=0.1),
        )
        path = tmp_path / "trace.jsonl"
        written = recorder.to_jsonl(str(path))
        loaded = read_jsonl(str(path))
        assert written == len(loaded) == len(recorder)
        assert loaded == recorder.events()

    def test_event_from_dict_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            event_from_dict({"kind": "nonsense"})

    def test_event_from_dict_ignores_unknown_fields(self):
        e = event_from_dict(
            {"kind": "barrier", "superstep": 1, "h": 2.0,
             "delivered": 3, "future_field": "x"}
        )
        assert e == Barrier(superstep=1, h=2.0, delivered=3)

    def test_default_trace_hook(self, small_er):
        recorder = TraceRecorder()
        assert get_default_trace() is None
        set_default_trace(recorder)
        try:
            run_program(
                small_er, PageRank(num_supersteps=3), num_workers=4
            )
        finally:
            set_default_trace(None)
        assert len(recorder) > 0
        assert get_default_trace() is None

    def test_explicit_trace_beats_default(self, small_er):
        default = TraceRecorder()
        explicit = TraceRecorder()
        set_default_trace(default)
        try:
            run_program(
                small_er,
                PageRank(num_supersteps=3),
                num_workers=4,
                trace=explicit,
            )
        finally:
            set_default_trace(None)
        assert len(explicit) > 0
        assert len(default) == 0

    def test_untraced_run_emits_nothing(self, small_er):
        # No recorder anywhere: the run must behave exactly as before
        # the trace layer existed.
        result = run_program(
            small_er, PageRank(num_supersteps=3), num_workers=4
        )
        assert result.num_supersteps > 0
        # ... and attaching a recorder changes nothing the run computes.
        traced = run_program(
            small_er, PageRank(num_supersteps=3), num_workers=4,
            trace=TraceRecorder(),
        )
        assert canonical_result(traced) == canonical_result(result)


class TestHandoffEvents:
    def test_parallel_degradation_emits_handoff(self, small_er):
        class UnsafePageRank(PageRank):
            parallel_safe = False

        recorder, _ = traced_run(
            small_er,
            lambda: UnsafePageRank(num_supersteps=3),
            "sum",
            "parallel",
        )
        handoffs = [
            e for e in recorder.events() if isinstance(e, Handoff)
        ]
        assert len(handoffs) == 1
        assert handoffs[0].from_path == "parallel"
        assert handoffs[0].to_path == "serial"
        assert not handoffs[0].comparable

    def test_handoffs_excluded_from_modeled_stream(self, small_er):
        class UnsafePageRank(PageRank):
            parallel_safe = False

        degraded, _ = traced_run(
            small_er,
            lambda: UnsafePageRank(num_supersteps=3),
            "sum",
            "parallel",
        )
        clean, _ = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=3),
            "sum",
            "serial",
        )
        assert modeled_equal(degraded, clean)
        assert len(degraded) == len(clean) + 1


class TestAttribution:
    def _traced(self, small_er, **kwargs):
        return traced_run(
            small_er,
            lambda: PageRank(num_supersteps=5),
            "sum",
            "serial",
            **kwargs,
        )

    def test_costs_sum_to_bsp_time(self, small_er):
        _, result = self._traced(small_er)
        breakdowns = attribute_costs(result.stats)
        assert sum(b.cost for b in breakdowns) == pytest.approx(
            result.stats.bsp_time
        )
        assert all(
            b.cost == max(b.w, b.gh, b.L) for b in breakdowns
        )

    def test_binding_labels_respect_model(self, small_er):
        _, result = self._traced(small_er)
        # A huge g makes every non-idle superstep communication-bound.
        skewed = attribute_costs(
            result.stats, BSPCostModel(g=1e9)
        )
        busy = [b for b in skewed if b.gh > 0]
        assert busy and all(b.binding == "gh" for b in busy)

    def test_summary_counts(self, small_er):
        _, result = self._traced(small_er)
        breakdowns = attribute_costs(result.stats)
        summary = attribution_summary(breakdowns)
        assert summary["supersteps"] == len(breakdowns)
        assert (
            summary["count_w"]
            + summary["count_gh"]
            + summary["count_L"]
            == len(breakdowns)
        )
        assert summary["bsp_time"] == pytest.approx(
            result.stats.bsp_time
        )

    def test_breakdowns_from_events_agree_on_binding(self, small_er):
        recorder, result = self._traced(
            small_er, checkpoint_interval=2
        )
        from_stats = attribute_costs(result.stats)
        from_trace = breakdowns_from_events(recorder.events())
        assert [b.binding for b in from_trace] == [
            b.binding for b in from_stats
        ]
        assert [b.cost for b in from_trace] == [
            b.cost for b in from_stats
        ]
        assert [b.checkpoint_cost for b in from_trace] == [
            b.checkpoint_cost for b in from_stats
        ]

    def test_format_attribution(self, small_er):
        _, result = self._traced(small_er)
        text = format_attribution(attribute_costs(result.stats))
        assert "bind" in text
        assert "bsp_time" in text


class TestStraggler:
    def test_shares_sum_to_one(self, small_er):
        _, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=5),
            "sum",
            "serial",
        )
        skews = straggler_profile(result.stats)
        assert len(skews) == 4
        assert sum(s.work_share for s in skews) == pytest.approx(1.0)
        assert sum(s.critical_supersteps for s in skews) == len(
            result.stats.supersteps
        )

    def test_profile_from_trace_matches_run_stats(self, small_er):
        recorder, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=5),
            "sum",
            "serial",
        )
        from_stats = straggler_profile(result.stats)
        from_trace = straggler_profile(stats_from_events(recorder))
        assert from_trace == from_stats

    def test_empty(self):
        from repro.metrics.stats import RunStats

        assert straggler_profile(RunStats(num_workers=4)) == []
        assert "no supersteps" in format_straggler(
            RunStats(num_workers=4)
        )

    def test_format(self, small_er):
        _, result = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=5),
            "sum",
            "serial",
        )
        text = format_straggler(result.stats)
        assert "worker" in text
        assert "imbalance" in text

    def test_compare_partitioners(self, small_er):
        from repro.graph import (
            BfsGrowPartitioner,
            HashPartitioner,
            RangePartitioner,
        )

        rows = compare_partitioners(
            small_er,
            lambda: PageRank(num_supersteps=4),
            {
                "hash": HashPartitioner(4),
                "range": RangePartitioner(small_er, 4),
                "bfs-grow": BfsGrowPartitioner(small_er, 4),
            },
            num_workers=4,
        )
        assert [r.name for r in rows] == ["hash", "range", "bfs-grow"]
        assert all(r.bsp_time > 0 for r in rows)
        assert all(0.0 <= r.remote_fraction <= 1.0 for r in rows)
        table = format_partitioner_table(rows)
        assert "bfs-grow" in table


class TestEventSchema:
    def test_modeled_key_strips_informational(self):
        p = WorkerProfile(
            superstep=1, worker=0, work=3.0, sent_logical=2,
            received_logical=2, sent_network=1, received_network=1,
            sent_remote=1, wall_seconds=0.5, barrier_seconds=0.25,
        )
        key = p.modeled_key()
        assert "wall_seconds" not in key
        assert "barrier_seconds" not in key
        assert key[0] == "worker_profile"

    def test_superstep_start_key_ignores_path_and_backend(self):
        a = SuperstepStart(superstep=2, path="fast", backend="serial")
        b = SuperstepStart(
            superstep=2, path="reference", backend="parallel"
        )
        assert a.modeled_key() == b.modeled_key()

    def test_modeled_events_filters_handoffs(self):
        events = [
            SuperstepStart(superstep=0),
            Handoff(
                superstep=0, from_path="fast", to_path="reference",
                reason="x",
            ),
            SuperstepEnd(
                superstep=0, active_vertices=1, w=1.0, h=0.0,
                cost=1.0, binding="w",
            ),
        ]
        keys = modeled_events(events)
        assert len(keys) == 2
        assert all(k[0] != "handoff" for k in keys)

    def test_to_dict_round_trips_every_kind(self):
        samples = [
            SuperstepStart(superstep=1, execution=2),
            WorkerProfile(
                superstep=1, worker=3, work=1.0, sent_logical=1,
                received_logical=1, sent_network=1,
                received_network=1, sent_remote=0,
            ),
            Barrier(superstep=1, h=2.0, delivered=4),
            SuperstepEnd(
                superstep=1, active_vertices=5, w=1.0, h=2.0,
                cost=2.0, binding="gh", checkpoint_cost=0.5,
            ),
            CheckpointWrite(superstep=2, size=10, cost=1.0),
            Rollback(
                superstep=2, restored_vertices=7,
                discarded_supersteps=3,
            ),
            FaultInjected(superstep=2, fault="crash", worker=1,
                          attempt=1),
            Handoff(superstep=2, from_path="parallel",
                    to_path="serial", reason="r"),
        ]
        for event in samples:
            assert event_from_dict(event.to_dict()) == event
        # Traces written while confined recovery existed carry a
        # ``confined`` flag on every rollback; they still read.
        legacy = {**samples[5].to_dict(), "confined": False}
        assert event_from_dict(legacy) == samples[5]


class TestTraceReport:
    def test_report_sections(self, small_er, tmp_path, capsys):
        recorder, _ = traced_run(
            small_er,
            lambda: PageRank(num_supersteps=5),
            "sum",
            "serial",
            checkpoint_interval=2,
            fault_plan=chaos_plan(crash_superstep=3, drop=0.1),
        )
        path = tmp_path / "trace.jsonl"
        recorder.to_jsonl(str(path))

        from repro.cli import trace_main

        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "event census" in out
        assert "cost attribution" in out
        assert "straggler profile" in out
        assert "faults and recovery" in out
        assert "rollback" in out

    def test_report_empty(self):
        from repro.core.report import format_trace_report

        assert format_trace_report([]) == "(empty trace)"

    def test_table1_trace_flag(self, tmp_path, capsys):
        from repro.cli import main as table1_main

        path = tmp_path / "t1.jsonl"
        code = table1_main(
            ["--rows", "1", "--scale", "0.3", "--trace", str(path)]
        )
        assert code == 0
        events = read_jsonl(str(path))
        assert events
        assert get_default_trace() is None
