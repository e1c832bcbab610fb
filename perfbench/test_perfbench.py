"""The benchmark's own tests: metric names, output checkers, seeded inputs, spans.

Run from the repository root::

    python3 -m pytest perfbench -q

The name test runs every workload briefly in both modes (a few minutes).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import campaign, checks, harness, loadgen, service, snapshot, tracing

harness.bootstrap()

RUN = os.path.join(harness.ROOT, "perfbench", "run.py")


def _definition() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# printed metric names
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["campaign_nyx", "snapshot_restart", "service_mix"])
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_definition(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3", "--seconds", "2",
         "--trace", str(trace)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _definition()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for spec in wanted:
        entry = result["metrics"][spec["name"]]
        assert entry["unit"] == spec["unit"]
        assert isinstance(entry["value"], float)
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    elif workload != "snapshot_restart":
        # Cold solves run in the server (spans from inside it) and in the
        # campaign's control plane.
        assert result["metrics"]["core.schedule_calls"]["value"] > 0


def test_no_program_sources_fails_without_a_result(tmp_path):
    """A directory with only the benchmark in it exits non-zero, printing nothing."""
    import shutil

    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(harness.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign_nyx", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_stop_children_reaps_the_resource_tracker_and_orphans():
    """No process started during a run outlives it, not even a grandchild
    whose parent already exited, or the pool's resource tracker."""
    script = (
        "import subprocess, sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from multiprocessing import resource_tracker\n"
        "from perfbench import harness\n"
        "harness.adopt_orphans()\n"
        "resource_tracker.ensure_running()\n"
        "subprocess.run(['sh', '-c', 'sleep 60 &'], check=True)\n"
        "time.sleep(0.2)\n"
        "before = len(harness.child_pids())\n"
        "t0 = time.perf_counter()\n"
        "harness.stop_children()\n"
        "print(before, len(harness.child_pids()), time.perf_counter() - t0)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, harness.ROOT],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    before, after, took = proc.stdout.split()
    assert int(before) == 2  # the tracker and the orphaned sleep
    assert int(after) == 0
    assert float(took) < 10


# ----------------------------------------------------------------------
# each checker rejects a bad output
# ----------------------------------------------------------------------
def _snapshot(path) -> dict:
    from repro.framework import save_snapshot

    field = np.linspace(0.0, 1.0, 4096).reshape(16, 16, 16)
    save_snapshot(str(path), {"f": field}, 1e-3)
    return {"f": field}


def test_scrub_accepts_clean_and_rejects_one_flipped_byte(tmp_path):
    path = tmp_path / "snap.rpio"
    _snapshot(path)
    assert checks.scrub(str(path)) == []
    data = bytearray(path.read_bytes())
    data[len(data) // 3] ^= 0x01
    path.write_bytes(bytes(data))
    assert checks.scrub(str(path))


def test_bounds_check_rejects_one_value_past_its_bound():
    original = {"f": np.zeros((8, 8))}
    restored = {"f": np.zeros((8, 8))}
    restored["f"][3, 5] = 1.5e-3
    assert checks.within_bounds(original, {"f": np.full((8, 8), 9e-4)}, {"f": 1e-3}) == []
    issues = checks.within_bounds(original, restored, {"f": 1e-3})
    assert len(issues) == 1 and "'f'" in issues[0]


def test_crc_map_check_rejects_one_changed_block():
    ref = {"it0001/rank0/rho/0": 1, "it0001/rank0/rho/1": 2}
    assert checks.same_crc_maps(ref, dict(ref), "sim") == []
    assert checks.same_crc_maps(ref, {**ref, "it0001/rank0/rho/1": 3}, "sim")


def _solve_result(request, body: dict) -> loadgen.Result:
    return loadgen.Result(request, 0.0, 0.0, 0.01, 200, json.dumps(body).encode())


def _solved(request) -> dict:
    """A real solution body for ``request``, as the service would send it."""
    from repro.core import solve
    from repro.service.protocol import solution_json_dict

    return {"ok": True, "cache": "miss",
            "solution": solution_json_dict(solve(_instance_of(request)))}


def _instance_of(request):
    from repro.core import instance_from_json

    return instance_from_json(json.dumps(request.instance))


def test_service_check_rejects_one_mismatched_response_body():
    traffic = loadgen.Traffic(5)
    req = traffic.solve(0.0, "hot", 0)
    good = _solved(req)
    out = harness.Outcome()
    service.check_results(out, [_solve_result(req, good)] * 3)
    assert (out.attempted, out.failed) == (3, 0)

    bad = json.loads(json.dumps(good))
    bad["solution"]["makespan"] += 1.0
    out = harness.Outcome()
    service.check_results(out, [_solve_result(req, good)] * 2 + [_solve_result(req, bad)])
    assert (out.attempted, out.failed) == (3, 1)


def test_solution_check_rejects_wrong_instance_and_invalid_schedule():
    traffic = loadgen.Traffic(5)
    req, other = traffic.solve(0.0, "hot", 0), traffic.solve(0.0, "hot", 1)
    body = _solved(req)
    assert checks.solution_issues(req.instance, body) == []
    assert checks.solution_issues(other.instance, body)
    broken = json.loads(json.dumps(body))
    first = next(iter(broken["solution"]["schedule"]["io"]))
    broken["solution"]["schedule"]["io"][first] = [-5.0, -4.0]
    assert checks.solution_issues(req.instance, broken)


def test_failed_requests_count_as_failures_and_miss_the_limit():
    req = loadgen.Traffic(5).solve(0.0, "cold")
    refused = loadgen.Result(req, 0.0, 0.0, 0.001, 429, b"{}")
    out = harness.Outcome()
    service.check_results(out, [refused])
    assert (out.attempted, out.failed) == (1, 1)
    assert refused.latency_s == float("inf")


# ----------------------------------------------------------------------
# one seed, one set of inputs
# ----------------------------------------------------------------------
def test_traffic_is_a_function_of_the_seed():
    def plan(seed):
        t = loadgen.Traffic(seed)
        return [(r.due, r.path, r.body) for r in t.warmup() + t.phase(60.0, 2.0, 10)]

    assert plan(11) == plan(11)
    assert plan(11) != plan(12)


def test_snapshot_inputs_are_a_function_of_the_seed():
    a, b, c = snapshot.make_inputs(4), snapshot.make_inputs(4), snapshot.make_inputs(5)
    for (name_a, fields_a, bounds_a), (name_b, fields_b, bounds_b) in zip(a, b):
        assert name_a == name_b and bounds_a == bounds_b
        for key in fields_a:
            assert np.array_equal(fields_a[key], fields_b[key])
    assert not np.array_equal(a[0][1]["baryon_density"], c[0][1]["baryon_density"])


def test_campaign_spec_is_a_function_of_the_seed(tmp_path):
    spec = campaign.make_spec(4, str(tmp_path))
    assert spec.fingerprint() == campaign.make_spec(4, str(tmp_path)).fingerprint()
    assert spec.fingerprint() != campaign.make_spec(5, str(tmp_path)).fingerprint()
    assert spec.workers is None and spec.engine == "process"


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, "outer", 0.0, 10.0, None, "r", 0),
        S(2, "child", 1.0, 4.0, 1, "r", 0),
        S(3, "child", 3.0, 5.0, 1, "r", 0),
        S(4, "outer", 6.0, 7.0, 1, "r", 0),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.outer_total(spans, "outer") == pytest.approx(10.0)
    assert tracing.self_total(spans, "child") == pytest.approx(5.0)


def test_within_keeps_only_spans_under_the_named_ancestor():
    S = tracing.Span
    spans = [
        S(1, "compression.compress", 0.0, 4.0, None, "r", 0),
        S(2, "compression.quantize", 0.5, 1.5, 1, "r", 0),
        S(3, "model.predict", 5.0, 7.0, None, "r", 0),
        S(4, "compression.quantize", 5.5, 6.0, 3, "r", 0),
    ]
    assert tracing.outer_total(spans, "compression.quantize") == pytest.approx(1.5)
    within = tracing.outer_spans(spans, "compression.quantize", "compression.compress")
    assert [s.span_id for s in within] == [2]


def test_spans_round_trip_through_jsonl(tmp_path):
    recorder = tracing.SpanRecorder()
    recorder.add("service.request", 1.0, 2.0, "fixed-0", status=200)
    path = str(tmp_path / "spans.jsonl")
    recorder.write_jsonl(path)
    assert tracing.read_jsonl(path) == recorder.spans
    assert tracing.in_window(recorder.spans, 0.5, 2.5) == recorder.spans
    assert tracing.in_window(recorder.spans, 1.5, 2.5) == []


def test_patches_reach_solve_through_the_algorithm_registry():
    """``solve`` calls the function held by a frozen registry record."""
    from repro.core import solve
    from repro.core.registry import REGISTRY

    before = dict(REGISTRY)
    instance = _instance_of(loadgen.Traffic(5).solve(0.0, "hot", 0))
    recorder = tracing.SpanRecorder()
    with tracing.Patches(recorder):
        solve(instance)
    assert REGISTRY == before
    assert tracing.count(recorder.spans, "core.schedule") >= 1


def test_patches_record_spans_and_restore_originals():
    import repro.durability.checksum as checksum
    from repro.durability import crc32c

    recorder = tracing.SpanRecorder()
    with tracing.Patches(recorder) as patches:
        assert patches.missing == []
        checksum.crc32c(b"abc")
    assert checksum.crc32c is crc32c
    spans = [s for s in recorder.spans if s.name == "durability.crc32c"]
    assert len(spans) == 1 and spans[0].attrs["bytes"] == 3


def test_a_missing_layer_function_is_dropped_with_a_note(capsys):
    target = tracing.Target("gone.call", "repro.core:no_such_function")
    with tracing.Patches(tracing.SpanRecorder(), targets=(target,)) as patches:
        assert patches.missing_spans() == {"gone.call"}
    assert "not found" in capsys.readouterr().err
