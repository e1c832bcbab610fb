"""Per-layer metrics folded from a traced run's spans.

Values are per operation of the workload (one campaign run, one
snapshot round trip, one load phase): totals are divided by ``per``.
A metric whose spans come from a wrapper that could not be installed is
dropped with a note rather than reported as zero.
"""

from __future__ import annotations

from . import tracing
from .harness import Outcome, median


class Layers:
    """Folds spans into per-layer metrics on an :class:`Outcome`."""

    def __init__(self, out: Outcome, spans, missing: set[str], per: int = 1) -> None:
        self.out = out
        self.spans = spans
        self.missing = missing
        self.per = max(1, per)

    def put(self, name: str, needs: tuple[str, ...], value, unit: str) -> None:
        """Report ``value()`` unless a span it needs was not recorded."""
        lost = [s for s in needs if s in self.missing]
        if lost:
            self.out.dropped.add(name)
            self.out.notes.append(f"dropped {name}: no {', '.join(lost)} spans")
            return
        self.out.put(name, value(), unit)

    # -- generic folds -------------------------------------------------
    def span_total(self, name: str, span: str, within: str | None = None) -> None:
        self.put(name, (span,),
                 lambda: tracing.outer_total(self.spans, span, within) / self.per, "s")

    def span_count(self, name: str, span: str) -> None:
        self.put(name, (span,),
                 lambda: len(tracing.outer_spans(self.spans, span)) / self.per, "count")

    def span_median_ms(self, name: str, span: str) -> None:
        self.put(name, (span,), lambda: median(
            s.duration for s in tracing.outer_spans(self.spans, span)) * 1e3, "ms")

    def self_total(self, name: str, span: str) -> None:
        self.put(name, (span,), lambda: tracing.self_total(self.spans, span) / self.per, "s")

    def rate(self, name: str, span: str) -> None:
        """MB/s: bytes the ``span`` calls handled over their total time."""

        def value():
            calls = tracing.outer_spans(self.spans, span)
            busy = sum(s.duration for s in calls)
            return tracing.total_bytes(calls) / 1e6 / busy if busy > 0 else 0.0

        self.put(name, (span,), value, "MB/s")

    # -- layer groups ----------------------------------------------------
    def codec_write_side(self) -> None:
        """Compression time; its stages count only inside a compression
        (a size prediction also quantizes, to sample, on its own)."""
        whole = "compression.compress"
        self.span_total("compression.compress_s", whole)
        self.rate("compression.compress_MBps", whole)
        self.span_total("compression.quantize_s", "compression.quantize", within=whole)
        self.span_total("compression.encode_s", "compression.encode", within=whole)
        self.span_total("compression.lossless_s", "compression.lossless", within=whole)

    def codec_read_side(self) -> None:
        self.span_total("compression.decompress_s", "compression.decompress")
        self.rate("compression.decompress_MBps", "compression.decompress")

    def crc(self, stored_bytes: int) -> None:
        """CRC32C busy time and calls, and bytes checksummed per stored byte."""
        span = "durability.crc32c"
        self.span_total("durability.crc32c_s", span)
        self.span_count("durability.crc32c_calls", span)
        self.put(
            "durability.crc_passes",
            (span,),
            lambda: tracing.total_bytes(tracing.outer_spans(self.spans, span))
            / max(1, stored_bytes),
            "ratio",
        )

    def io_write_side(self, jobs: list, overflow_blocks: int | None = None) -> None:
        """Write and drain time; overflow and retries from the async jobs.

        ``jobs`` are the :class:`~repro.io.WriteJob` objects
        ``AsyncWriter.submit`` returned during the traced operations.
        """
        self.span_total("io.write_s", "io.write")
        self.span_total("io.drain_wait_s", "io.drain")
        if overflow_blocks is None:
            self.put(
                "io.overflow_blocks",
                ("io.submit",),
                lambda: sum(j.fit_reservation is False for j in jobs) / self.per,
                "count",
            )
        else:
            self.out.put("io.overflow_blocks", overflow_blocks / self.per, "count", "SnapshotStats")
        self.put(
            "io.write_retries",
            ("io.submit",),
            lambda: sum(max(0, j.attempts - 1) for j in jobs) / self.per,
            "count",
        )
