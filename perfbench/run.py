"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign_nyx --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

With ``--trace 0`` the run reports the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` it reports the per-layer metrics
from a separate traced run, and the tracing overhead.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output check
failed, 2 when the benchmark cannot run here (for example, no program
sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import harness  # noqa: E402

WORKLOADS = ("campaign_nyx", "snapshot_restart", "service_mix")


def load_definition() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        return json.load(fh)


def parse_args(argv, definition: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=definition["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> harness.Outcome:
    from perfbench import campaign, service, snapshot

    module = {"campaign_nyx": campaign, "snapshot_restart": snapshot, "service_mix": service}[name]
    return module.run(seed, seconds, trace)


def finish(out: harness.Outcome, definition: dict, trace: bool) -> dict:
    """Order and complete the metrics; a layer the traced run of a workload
    has no spans or counters for reads 0."""
    wanted = definition["per_layer" if trace else "end_to_end"]
    if trace:
        out.put("fail_share", out.failed / max(1, out.attempted), "ratio")
    metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name in out.dropped:
            continue
        if name not in out.metrics:
            if not trace:
                raise harness.BenchError(f"workload did not measure {name}")
            out.put(name, 0.0, spec["unit"], "not measured on this workload")
        value, unit = out.metrics[name]
        if unit != spec["unit"]:
            raise harness.BenchError(f"{name}: unit {unit!r}, BENCHMARK.json says {spec['unit']!r}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": out.failed == 0 and not out.issues,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def report(name: str, out: harness.Outcome, result: dict) -> None:
    facts = harness.host_facts()
    print(f"workload {name}: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for metric, entry in result["metrics"].items():
        source = out.sources.get(metric)
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}"
              + (f"   [{source}]" if source else ""))
    for note in out.notes:
        print(f"  note: {note}")
    for issue in out.issues[:20]:
        print(f"  CHECK FAILED: {issue}")
    print(f"  {result['attempted']} operations, {result['failed']} failed")


def run_all(args) -> int:
    """Each workload in its own interpreter, exactly as when run alone."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    try:
        definition = load_definition()
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv, definition)
    if args.workload == "all":
        return run_all(args)
    harness.adopt_orphans()
    try:
        harness.bootstrap()
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        result = finish(out, definition, bool(args.trace))
    except harness.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        harness.stop_children()
    report(args.workload, out, result)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
