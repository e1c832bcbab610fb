"""Workload ``campaign_nyx``: the paper's in-situ path end to end.

``run_campaign`` on a Nyx :class:`~repro.engines.CampaignSpec` with the
real data plane on, under the process engine, with the worker count
left to the program and the spec's default 64 KiB blocks.  One
operation is one ``run_campaign`` call: control-plane scheduling and
replay for every rank and iteration, plus, on each dump iteration,
field generation, pool compression, CRC32C and async shared-file
writes.

Loads ``apps``, ``core``, ``framework``, ``simulator``, ``engines``,
``compression``, ``durability`` and ``io``.  Bypasses ``service``.
"""

from __future__ import annotations

import shutil
import time

from . import checks, harness, tracing
from .harness import Outcome, median
from .layers import Layers

#: The spec's shape; the seed is the benchmark's ``--seed``.
NODES, PPN, ITERATIONS, EDGE = 2, 4, 3, 48
#: Dump iterations of that spec (iterations 1 .. ITERATIONS - 1).
DUMPS = ITERATIONS - 1
#: The traced run makes at least this many rounds of paired runs.
MIN_ROUNDS = 3


def make_spec(seed: int, data_dir: str, engine: str = "process"):
    from repro.engines import CampaignSpec

    return CampaignSpec(
        app="nyx",
        nodes=NODES,
        ppn=PPN,
        iterations=ITERATIONS,
        seed=seed,
        engine=engine,
        data_dir=data_dir,
        data_edge=EDGE,
    )


class _Run:
    """One ``run_campaign`` call and what it left on disk."""

    def __init__(self, seed: int, label: str, engine: str = "process", tracer=None):
        from repro.engines import run_campaign
        from repro.telemetry import NULL_TRACER

        self.dir = harness.run_dir(f"campaign-{label}")
        spec = make_spec(seed, self.dir, engine)
        cpu0, t0 = harness.cpu_s(), time.perf_counter()
        self.report = run_campaign(spec, tracer=tracer or NULL_TRACER)
        self.wall_s = time.perf_counter() - t0
        self.cpu_s = harness.cpu_s() - cpu0
        self.data = self.report.data

    @property
    def mbps(self) -> float:
        return self.data.raw_bytes / 1e6 / self.wall_s

    def issues(self, reference_crcs: dict | None) -> list[str]:
        """Every container scrubs clean, and blocks match the reference."""
        found = []
        if len(self.data.containers) != DUMPS:
            found.append(
                f"{len(self.data.containers)} containers published, "
                f"expected {DUMPS}"
            )
        for path in self.data.containers.values():
            found += checks.scrub(path)
        if reference_crcs is not None:
            found += checks.same_crc_maps(
                reference_crcs, self.data.block_crc32c, self.report.engine
            )
        return found

    def discard(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _runs_for(seconds: float, seed: int, label: str, **kwargs) -> list[_Run]:
    """Back-to-back runs until ``seconds`` of wall time have passed (at least one)."""
    runs: list[_Run] = []
    t_end = time.perf_counter() + seconds
    while not runs or time.perf_counter() < t_end:
        runs.append(_Run(seed, f"{label}{len(runs)}", **kwargs))
    return runs


def _check_all(out: Outcome, runs: list[_Run], reference: dict) -> None:
    for run in runs:
        out.check(run.issues(reference))
        run.discard()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_s = harness.import_setup_s()
    # Warm-up: loads lazy imports and gives the reference block CRCs.
    warm = _Run(seed, "warm")
    out.check(warm.issues(None))
    reference = warm.data.block_crc32c
    warm.discard()
    if trace:
        _traced(out, seed, seconds, reference)
        return out

    harness.reset_peak_rss()
    runs = _runs_for(seconds, seed, "timed")
    peak = max(harness.proc_peak_rss_mb(), harness.children_peak_rss_mb())
    out.put("throughput", median(r.mbps for r in runs), "1/s")
    out.put("cpu_ms", median(r.cpu_s for r in runs) * 1e3, "ms")
    out.put("setup_s", setup_s, "s")
    out.put("peak_rss_MB", peak, "MB")
    _check_all(out, runs, reference)
    # The cross-engine contract: the inline engine writes the same blocks.
    sim = _Run(seed, "sim", engine="sim")
    out.check(sim.issues(reference))
    sim.discard()
    return out


def _traced(out: Outcome, seed: int, seconds: float, reference: dict) -> None:
    """Rounds of four runs: untraced, wrapped by the benchmark, with the
    program's ``Tracer``, and under ``engine="sim"``.

    The order rotates from round to round, and every overhead is the
    median over rounds of a ratio within a round, so a slow minute or a
    fixed position in the order does not read as overhead.
    """
    from repro.telemetry import Tracer

    recorder = tracing.SpanRecorder()
    patches = tracing.Patches(recorder)
    arms = ("plain", "traced", "tracer", "sim")
    runs: dict[str, list[_Run]] = {arm: [] for arm in arms}
    t_end = time.perf_counter() + seconds
    while len(runs["plain"]) < MIN_ROUNDS or time.perf_counter() < t_end:
        k = len(runs["plain"])
        for arm in arms[k % len(arms):] + arms[:k % len(arms)]:
            label = f"{arm}{k}"
            if arm == "traced":
                recorder.request = f"campaign-{k}"
                with patches:
                    runs[arm].append(_Run(seed, label))
            elif arm == "tracer":
                runs[arm].append(_Run(seed, label, tracer=Tracer()))
            elif arm == "sim":
                runs[arm].append(_Run(seed, label, engine="sim"))
            else:
                runs[arm].append(_Run(seed, label))
    harness.write_spans(recorder, "campaign_nyx", seed)

    plain, traced = runs["plain"], runs["traced"]
    n = len(traced)
    stats = [r.data for r in traced]
    sup = [s.supervisor for s in stats if s.supervisor is not None]
    layers = Layers(out, recorder.spans, patches.missing_spans(), per=n)

    def paired(name: str, ratios: list[float], unit: str, what: str) -> None:
        out.put(name, median(ratios), unit,
                f"{what}; median of {len(ratios)} rounds, "
                f"range {min(ratios):.4g}..{max(ratios):.4g}")

    layers.span_total("apps.generate_s", "apps.generate_field")
    layers.span_total("core.schedule_s", "core.schedule")
    layers.span_count("core.schedule_calls", "core.schedule")
    layers.span_median_ms("core.cold_solve_ms", "core.schedule")
    layers.self_total("framework.iteration_self_s", "framework.iteration")
    layers.span_total("simulator.replay_s", "simulator.replay")
    layers.span_total("engines.dump_s", "engines.dump")
    layers.codec_write_side()
    layers.crc(sum(s.compressed_bytes for s in stats))
    layers.io_write_side(recorder.kept.get("io.submit", []))

    src = "DataPlaneStats"
    out.put("framework.io_overhead_pct",
            traced[0].report.result.mean_relative_overhead * 100, "%",
            "CampaignResult.mean_relative_overhead")
    out.put("engines.workers", stats[0].workers, "count", src)
    out.put("engines.rank_task_wall_s",
            sum(s.compress_wall_s for s in stats) / n, "s",
            f"{src}.compress_wall_s (from dump start: includes generation)")
    out.put("engines.attempts_per_task",
            sum(s.tasks for s in sup) / max(1, sum(s.attempts for s in sup)),
            "ratio", "SupervisorStats")
    out.put("engines.fallbacks",
            sum(len(s.fallback_ranks) for s in sup) / n, "count",
            "SupervisorStats")
    paired("engines.pool_vs_inline",
           [p.wall_s / i.wall_s for p, i in zip(plain, runs["sim"])],
           "ratio", "process-engine wall / sim-engine wall")
    out.put("compression.blocks", sum(s.num_blocks for s in stats) / n,
            "count", src)
    out.put("compression.payload_bytes_mean",
            sum(s.compressed_bytes for s in stats)
            / max(1, sum(s.num_blocks for s in stats)), "B", src)
    out.put("compression.ratio", stats[0].compression_ratio, "ratio", src)
    paired("telemetry.tracer_overhead_pct",
           [(p.mbps / t.mbps - 1) * 100 for p, t in zip(plain, runs["tracer"])],
           "%", "run_campaign(tracer=Tracer()) vs NULL_TRACER, MB/s")
    paired("trace.overhead_pct",
           [(p.mbps / t.mbps - 1) * 100 for p, t in zip(plain, traced)],
           "%", "benchmark wrappers installed vs not, MB/s")
    out.put("wall.latency_p50_ms", median(r.wall_s for r in plain) * 1e3, "ms",
            f"run_campaign wall time, {len(plain)} untraced runs")

    _check_all(out, [r for arm in arms for r in runs[arm]], reference)
