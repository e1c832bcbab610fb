"""Workload ``snapshot_restart``: the codec and durability layers on whole-field blocks.

``save_snapshot`` then ``load_snapshot`` at the default 8 MiB block
size, on Nyx fields (ratio about 30, entropy-dominated streams) and
WarpX fields (ratio about 80, run-dominated streams).  The fields are
generated from the seed before anything is timed.  One operation is one
round trip: save both snapshots, then load both back.

Loads ``compression`` (quantize, encode, lossless; decode on load),
``durability`` (CRC32C on write and on read) and ``io`` (async writes,
reads).  Bypasses ``apps`` (inputs are made during set-up), ``core``,
``framework`` scheduling, ``simulator``, ``engines`` and ``service``.
"""

from __future__ import annotations

import os
import time

from . import checks, harness, tracing
from .harness import Outcome, median
from .layers import Layers

#: Cubic field edge: 32^3 float64 = 256 KiB per field, one block each.
#: At 64^3 (2 MiB, the size of a core's L2 cache on the 2-CPU Xeon VM the
#: benchmark was tuned on) the codec's temporaries spilled to the shared
#: L3, and identical round trips took from 0.75 to 1.3 s of load CPU as
#: neighbours' memory traffic came and went: ten-seed spreads reached
#: 0.38.  At 32^3 the same interleaved windows spread about a third as
#: much, and a run holds ~90 round trips instead of ~8.
EDGE = 32


def make_inputs(seed: int) -> list[tuple[str, dict, dict]]:
    """``(app, fields, bounds)`` for every Nyx and WarpX field, from the seed."""
    from repro.apps import NyxModel, WarpXModel

    inputs = []
    for name, cls in (("nyx", NyxModel), ("warpx", WarpXModel)):
        app = cls(seed=seed, partition_shape=(EDGE,) * 3)
        fields = {fs.name: app.generate_field(fs.name, 0, 1) for fs in app.fields}
        bounds = {fs.name: fs.error_bound for fs in app.fields}
        inputs.append((name, fields, bounds))
    return inputs


class _RoundTrip:
    """Save every input snapshot, then load each back; checks the values."""

    def __init__(self, inputs, directory: str, label: str) -> None:
        from repro.framework import load_snapshot, save_snapshot

        self.paths = [os.path.join(directory, f"{label}-{app}.rpio") for app, _, _ in inputs]
        self.stats = []
        t0 = time.perf_counter()
        for (_, fields, bounds), path in zip(inputs, self.paths):
            self.stats.append(save_snapshot(path, fields, bounds))
        t1, cpu1 = time.perf_counter(), harness.cpu_s()
        restored = [load_snapshot(path) for path in self.paths]
        t2 = time.perf_counter()
        self.load_cpu_s = harness.cpu_s() - cpu1
        self.save_s, self.load_s = t1 - t0, t2 - t1
        self.raw_bytes = sum(s.raw_bytes for s in self.stats)
        self.stored_bytes = sum(s.compressed_bytes for s in self.stats)
        self.bound_issues = []
        for (_, fields, bounds), values in zip(inputs, restored):
            self.bound_issues += checks.within_bounds(fields, values, bounds)

    @property
    def save_mbps(self) -> float:
        return self.raw_bytes / 1e6 / self.save_s

    @property
    def roundtrip_mbps(self) -> float:
        return self.raw_bytes / 1e6 / (self.save_s + self.load_s)

    def issues(self) -> list[str]:
        """Values within bounds (checked on load) and every file scrubs clean."""
        found = list(self.bound_issues)
        for path in self.paths:
            found += checks.scrub(path)
            os.unlink(path)
        return found


def _trips_for(seconds: float, inputs, directory: str, label: str, recorder=None):
    trips: list[_RoundTrip] = []
    t_end = time.perf_counter() + seconds
    while not trips or time.perf_counter() < t_end:
        if recorder is not None:
            recorder.request = f"roundtrip-{len(trips)}"
        trips.append(_RoundTrip(inputs, directory, f"{label}{len(trips)}"))
    return trips


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    setup_s = harness.import_setup_s()
    inputs = make_inputs(seed)
    directory = harness.run_dir("snapshot")
    warm = _RoundTrip(inputs, directory, "warm")
    out.check(warm.issues())
    if trace:
        _traced(out, seed, seconds, inputs, directory)
        return out

    harness.reset_peak_rss()
    trips = _trips_for(seconds, inputs, directory, "timed")
    peak = harness.proc_peak_rss_mb()
    # The fastest round trip, not the median: a neighbour on the shared
    # virtual machine slows identical trips by up to a third, minutes at a
    # time, and the fastest trip of a run moved less from run to run than
    # the median trip.  The interference only ever adds time, so the
    # floor is the program's cost.
    out.put("throughput", max(t.save_mbps for t in trips), "1/s")
    out.put("cpu_ms", min(t.load_cpu_s for t in trips) * 1e3, "ms")
    out.put("setup_s", setup_s, "s")
    out.put("peak_rss_MB", peak, "MB")
    for trip in trips:
        out.check(trip.issues())
    return out


def _traced(out: Outcome, seed: int, seconds: float, inputs, directory: str) -> None:
    plain = _trips_for(0.5 * seconds, inputs, directory, "plain")
    recorder = tracing.SpanRecorder()
    with tracing.Patches(recorder) as patches:
        traced = _trips_for(0.5 * seconds, inputs, directory, "traced", recorder)
    harness.write_spans(recorder, "snapshot_restart", seed)

    n = len(traced)
    stored = sum(t.stored_bytes for t in traced)
    layers = Layers(out, recorder.spans, patches.missing_spans(), per=n)
    layers.codec_write_side()
    layers.codec_read_side()
    layers.crc(stored)
    layers.io_write_side(
        recorder.kept.get("io.submit", []),
        overflow_blocks=sum(s.overflow_blocks for t in traced for s in t.stats),
    )
    layers.span_total("io.read_s", "io.read")
    blocks = sum(s.num_blocks for t in traced for s in t.stats)
    out.put("compression.blocks", blocks / n, "count", "SnapshotStats")
    out.put("compression.payload_bytes_mean", stored / max(1, blocks), "B", "SnapshotStats")
    out.put("compression.ratio", sum(t.raw_bytes for t in traced) / max(1, stored), "ratio",
            "SnapshotStats")
    out.put("trace.overhead_pct",
            (median(t.roundtrip_mbps for t in plain)
             / median(t.roundtrip_mbps for t in traced) - 1) * 100, "%")
    out.put("wall.latency_p50_ms", median(t.load_s for t in plain) * 1e3, "ms",
            "load_snapshot wall time, untraced round trips")
    for trip in plain + traced:
        out.check(trip.issues())
