"""The harness checks itself: metric coverage, the path-executed
check (including a failing-on-purpose operation), span arithmetic,
the driver contract's output format, and ``compare.py``."""

import copy
import json
import shutil

import pytest

import child
import spans
from conftest import BENCH_DIR, ROOT, run_bench
from workloads import BY_NAME

ENGINE_WORKLOADS = [n for n, w in BY_NAME.items() if w.program != "table1"]


def test_every_metric_is_reported_with_a_unit(smoke, contract):
    results = smoke["results"]["workloads"]
    assert sorted(results) == sorted(
        w["name"] for w in contract["workloads"]
    )
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    assert all(units.values())
    reported = set()
    for name, report in results.items():
        for metric in contract["end_to_end"]:
            assert metric["unit"]
            value = report["end_to_end"][metric["name"]]
            assert isinstance(value, float) and value > 0, (name, metric)
        assert report["end_to_end"]["failed_frac"] == 0
        for key, value in report["per_layer"].items():
            assert key in units, f"{name} reports undeclared {key}"
            assert isinstance(value, (int, float)), (name, key, value)
        reported |= set(report["per_layer"])
        applies = {
            key
            for key in units
            if key.startswith(("trace.", "bsp.engine.unattributed"))
            or key.startswith("core.table1.") == (name == "table1")
        }
        assert applies <= set(report["per_layer"]), (
            name,
            sorted(applies - set(report["per_layer"])),
        )
    assert reported == set(units)
    # ... and the one command prints each of them by name.
    for key in list(units) + [m["name"] for m in contract["end_to_end"]]:
        assert key in smoke["stdout"]


def test_requested_paths_executed(smoke):
    results = smoke["results"]["workloads"]
    assert smoke["results"]["cross_workload_failures"] == []
    for name, report in results.items():
        assert report["failed"] == 0, report["failures"]
        assert report["attempted"] == 3  # warm-up + timed + traced
    par2 = results["pagerank-ba-par2"]["per_layer"]
    assert par2["bsp.parallel.parallel_supersteps"] == 11
    assert par2["bsp.parallel.columnar_supersteps"] == 11
    assert par2["bsp.parallel.rank_restarts"] == 0
    assert par2["bsp.shm_transport.coord_codec_s"] > 0
    spill = results["pagerank-ba-spill"]["per_layer"]
    assert spill["bsp.fabric.spilled_lanes"] > 0
    assert spill["bsp.fabric.account_s"] > 0
    ckpt = results["pagerank-ba-ckpt"]["per_layer"]
    assert ckpt["bsp.durability.checkpoints"] == 4
    assert ckpt["bsp.durability.persist_s"] > 0
    for name in ENGINE_WORKLOADS:
        layer = results[name]["per_layer"]
        if name != "pagerank-ba-spill":
            assert layer["bsp.fabric.spilled_lanes"] == 0
        tiers = (
            layer["bsp.kernels.vectorized_supersteps"],
            layer["bsp.kernels.dense_supersteps"],
            layer["bsp.kernels.reference_supersteps"],
        )
        steps = layer["bsp.loop.supersteps"]
        expected = (
            (0, steps, 0) if name == "sssp-grid" else (steps, 0, 0)
        )
        assert tiers == expected, name
    digests = {results[n]["digest"] for n in (
        "pagerank-ba", "pagerank-ba-par2", "pagerank-ba-spill"
    )}
    assert len(digests) == 1


def _spec(name, tmp_path, **extra):
    scratch = tmp_path / "scratch"
    scratch.mkdir(exist_ok=True)
    return dict(
        workload=name,
        seed=1,
        seconds=0,
        trace=False,
        smoke=True,
        min_timed=1,
        scratch=str(scratch),
        span_file=str(tmp_path / f"{name}.spans.jsonl"),
        **extra,
    )


def test_silent_serial_fallback_is_a_failed_operation(
    tmp_path, monkeypatch
):
    """The parallel backend degrades to serial for a program that
    declares itself unsafe, and says so only through counters: every
    such operation must count as failed, never as ok."""
    from repro.algorithms import PageRank

    monkeypatch.setattr(PageRank, "parallel_safe", False, raising=False)
    report = child.measure(_spec("pagerank-ba-par2", tmp_path))
    assert report["failed"] == report["attempted"] == 2
    assert report["end_to_end"]["failed_frac"] == 1.0
    reasons = report["failures"][0]["reasons"]
    assert any(
        r.startswith("degraded:parallel_supersteps=0") for r in reasons
    )
    assert any("parallel_disabled_reason" in r for r in reasons)


def test_a_run_that_does_not_spill_is_a_failed_operation(
    tmp_path, monkeypatch
):
    import dataclasses

    roomy = dataclasses.replace(
        BY_NAME["pagerank-ba-spill"],
        engine_kwargs={"num_workers": 2, "memory_budget": 1 << 30},
    )
    monkeypatch.setitem(BY_NAME, "pagerank-ba-spill", roomy)
    spec = _spec("pagerank-ba-spill", tmp_path)
    spec["snapshot"] = child.measure(
        dict(spec, prep=True, snapshot_dir=str(tmp_path / "snapshot"))
    )
    report = child.measure(spec)
    assert report["failed"] == report["attempted"]
    assert "degraded:spilled_lanes=0 (want > 0)" in (
        report["failures"][0]["reasons"]
    )


def test_span_self_times_and_unattributed_sum_to_traced_wall(smoke):
    for name, report in smoke["results"]["workloads"].items():
        recorded = spans.read(smoke["dir"] / f"{name}.spans.jsonl")
        assert {s["op"] for s in recorded} == {report["attempted"] - 1}
        roots = [s for s in recorded if s["parent"] is None]
        assert [s["name"] for s in roots] == ["op"]
        own = spans.self_times(recorded)
        assert min(own.values()) > -1e-6
        layers = sum(
            own[s["id"]]
            for s in recorded
            if s["name"] not in child._FRAME_SPANS
        )
        layer = report["per_layer"]
        wall = layer["trace.traced_wall_s"]
        total = layers + layer["bsp.engine.unattributed_s"]
        assert total == pytest.approx(wall, rel=0.01), name
        # The frames the benchmark opens account for the rest.
        frames = sum(
            own[s["id"]]
            for s in recorded
            if s["name"] in child._FRAME_SPANS
        )
        assert frames == pytest.approx(
            layer["bsp.engine.unattributed_s"], abs=0.01 * wall
        )


def test_unresolvable_trace_target_is_null_not_a_crash():
    recorder = spans.SpanRecorder()
    restore, unresolved = spans.install(
        recorder,
        [
            ("repro.bsp.fabric:MessageFabric", "gone", "bsp.fabric.gone"),
            ("repro.bsp.no_such_module", "f", "bsp.nowhere"),
            ("repro.bsp.engine", "take_checkpoint", "bsp.checkpoint.take"),
        ],
    )
    import repro.bsp.checkpoint
    import repro.bsp.engine

    try:
        assert unresolved == ["bsp.fabric.gone", "bsp.nowhere"]
        assert (
            repro.bsp.engine.take_checkpoint
            is not repro.bsp.checkpoint.take_checkpoint
        )
    finally:
        restore()
    assert (
        repro.bsp.engine.take_checkpoint
        is repro.bsp.checkpoint.take_checkpoint
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_single_workload_invocation_follows_the_driver_contract(
    trace, contract, tmp_path
):
    proc = run_bench(
        "--workload", "degree-ba", "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--smoke", "--out-dir", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == 2 + trace
    declared = contract["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = line["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert not (tmp_path / "scratch" / "degree-ba").exists()


def test_without_the_program_it_exits_nonzero_and_prints_no_result(
    tmp_path,
):
    shutil.copy(f"{ROOT}/BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "bench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench(
        "--workload", "pagerank-ba", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "repro" in proc.stderr


def test_compare_applies_the_bounds(smoke, tmp_path):
    base = smoke["results"]
    a = tmp_path / "a.json"
    a.write_text(json.dumps(base))

    def variant(name, edit):
        doc = copy.deepcopy(base)
        edit(doc["workloads"]["sssp-grid"])
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def slower(report):
        report["end_to_end"]["wall_s"] *= 1.5
        report["samples"]["wall_s"] = [
            v * 1.5 for v in report["samples"]["wall_s"]
        ]

    def failing(report):
        report["end_to_end"]["failed_frac"] = 0.5

    same = run_bench(str(a), str(a), script="compare.py")
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout
    slow = run_bench(str(a), variant("slow", slower), script="compare.py")
    assert slow.returncode == 1
    rows = [r for r in slow.stdout.splitlines() if "regressed" in r]
    assert len(rows) == 1 and rows[0].split()[:2] == [
        "wall_s", "sssp-grid"
    ]
    fast = run_bench(variant("slow", slower), str(a), script="compare.py")
    assert fast.returncode == 0 and "improved" in fast.stdout
    bad = run_bench(str(a), variant("bad", failing), script="compare.py")
    assert bad.returncode == 1
    # Several runs a side: the values are the runs' medians.
    many = run_bench(
        f"{a},{a},{a}",
        ",".join([variant("slow", slower)] * 3),
        script="compare.py",
    )
    assert many.returncode == 1 and "3/3" in many.stdout


def test_compare_reports_noise_wider_than_the_bound_as_unresolved():
    import compare

    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert compare.classify(noisy, noisy, "lower", 0.10) == "unresolved"
    assert (
        compare.classify(noisy, [v * 3 for v in noisy], "lower", 0.10)
        == "regressed"
    )
    assert (
        compare.classify(noisy, [v * 3 for v in noisy], "higher", 0.10)
        == "improved"
    )
    steady = [1.0, 1.01, 0.99, 1.0]
    assert compare.classify(steady, steady, "lower", 0.10) == "unchanged"
