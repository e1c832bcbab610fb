"""Spans around calls into the program's layers, recorded from outside.

A traced run wraps public functions and methods of ``repro``'s layers
(:data:`TARGETS`) so that each call becomes one :class:`Span`: name,
start, end, the span that was open on the same thread when it began
(its parent), and the request the workload was serving.  Spans stay in
memory and are written out as JSON lines when the run ends; per-layer
times are sums of span durations or of self time (a span's duration
minus the part its children cover).

Nothing in ``src/`` changes.  A target that no longer exists is skipped
with a note, and the metrics built on it are dropped, so the
end-to-end run still completes.  Calls made in forked pool workers pass
straight through: their spans would die with the worker, so those
layers are read from the program's own counters instead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from wrapped calls; ``request`` tags new spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: str | None = None
        #: Return values kept by targets declared with ``keep=True``.
        self.kept: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None, keep: bool = False):
        """``fn`` recording one span per call made in this process.

        ``size(args, kwargs, result)`` gives the bytes the call handled
        (kept as ``attrs["bytes"]``); ``keep`` stores each return value.
        """
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != recorder._pid:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            attrs = {}
            if size is not None:
                attrs["bytes"] = size(args, kwargs, result)
            if keep:
                recorder.kept.setdefault(name, []).append(result)
            recorder.spans.append(
                Span(
                    span_id,
                    name,
                    start,
                    end,
                    parent,
                    recorder.request,
                    threading.get_ident(),
                    attrs,
                )
            )
            return result

        return traced

    def add(self, name: str, start: float, end: float, request: str, **attrs) -> None:
        """Record a span the workload timed itself (e.g. an HTTP call)."""
        self.spans.append(
            Span(
                next(self._ids),
                name,
                start,
                end,
                None,
                request,
                threading.get_ident(),
                attrs,
            )
        )

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def read_jsonl(path: str) -> list[Span]:
    """Spans written by :meth:`SpanRecorder.write_jsonl`."""
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _named(spans, name):
    return [s for s in spans if s.name == name]


def _ancestor_names(span: Span, by_id: dict) -> set[str]:
    names = set()
    parent = by_id.get(span.parent)
    while parent is not None:
        names.add(parent.name)
        parent = by_id.get(parent.parent)
    return names


def outer_spans(spans, name: str, within: str | None = None) -> list[Span]:
    """``name`` spans not nested in another ``name`` span.

    With ``within``, only those that have a ``within`` span among their
    ancestors (for example quantization done as part of a compression,
    not the sampling a size prediction does on its own).
    """
    by_id = {s.span_id: s for s in spans}
    found = []
    for s in _named(spans, name):
        above = _ancestor_names(s, by_id)
        if name not in above and (within is None or within in above):
            found.append(s)
    return found


def outer_total(spans, name: str, within: str | None = None) -> float:
    """Summed duration of :func:`outer_spans`."""
    return sum(s.duration for s in outer_spans(spans, name, within))


def count(spans, name: str) -> int:
    return len(_named(spans, name))


def total_bytes(spans) -> int:
    return sum(s.attrs.get("bytes", 0) for s in spans)


def in_window(spans, start: float, end: float) -> list[Span]:
    """Spans that began and ended within ``[start, end]``.

    ``time.perf_counter`` reads the system-wide monotonic clock on
    Linux, so a window timed in one process selects spans recorded in
    another (the traced server's).
    """
    return [s for s in spans if start <= s.start and s.end <= end]


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the union of its children's."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


def self_total(spans, name: str) -> float:
    own = self_times(spans)
    return sum(own[s.span_id] for s in _named(spans, name))


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _nbytes_arg(args, kwargs, result):
    """Bytes of the first array/bytes argument after ``self``."""
    for value in args:
        nbytes = getattr(value, "nbytes", None)
        if isinstance(nbytes, int):
            return nbytes
        if isinstance(value, (bytes, bytearray, memoryview)):
            return len(value)
    return 0


def _nbytes_result(args, kwargs, result):
    nbytes = getattr(result, "nbytes", None)
    if isinstance(result, (bytes, bytearray)):
        return len(result)
    return nbytes if isinstance(nbytes, int) else 0


def _backend_class():
    from repro.compression import SZCompressor

    return type(SZCompressor().backend)


@dataclass(frozen=True)
class Target:
    """One wrapped call: ``module:Class.method`` or ``module:function``.

    A function is replaced wherever the program holds a reference to it
    (module globals, and upper-case registry dicts such as
    ``repro.core.registry.ALGORITHMS`` and the records of ``REGISTRY``),
    so ``from x import f`` aliases are covered too.
    """

    span: str
    where: str
    size: object = None
    keep: bool = False


#: Every call the traced run wraps, by layer.
TARGETS = (
    Target("apps.generate_field", "repro.apps:NyxModel.generate_field", _nbytes_result),
    Target("apps.generate_field", "repro.apps:WarpXModel.generate_field", _nbytes_result),
    Target("core.schedule", "repro.core:ext_johnson"),
    Target("core.schedule", "repro.core:ext_johnson_backfill"),
    Target("core.schedule", "repro.core:generation_list_schedule"),
    Target("core.schedule", "repro.core:generation_list_schedule_backfill"),
    Target("core.schedule", "repro.core:one_list_greedy"),
    Target("core.schedule", "repro.core:two_lists_greedy"),
    Target("framework.iteration", "repro.framework:CampaignRunner.run_one"),
    Target("simulator.replay", "repro.simulator:execute_schedule"),
    Target("engines.dump", "repro.engines:SerialDataPlane.dump"),
    Target("engines.dump", "repro.engines:PoolDataPlane.dump"),
    Target("compression.compress", "repro.compression:SZCompressor.compress", _nbytes_arg),
    Target("compression.quantize", "repro.compression:SZCompressor.quantize", _nbytes_arg),
    Target("compression.encode", "<codec-backend>.encode"),
    Target("compression.lossless", "repro.compression.lossless:lossless_compress", _nbytes_arg),
    Target("compression.decompress", "repro.compression:SZCompressor.decompress", _nbytes_result),
    Target("durability.crc32c", "repro.durability:crc32c", _nbytes_arg),
    Target("io.write", "repro.io:SharedFileWriter.write"),
    Target("io.write", "repro.io:SharedFileWriter.write_unreserved"),
    Target("io.drain", "repro.io:AsyncWriter.drain"),
    Target("io.submit", "repro.io:AsyncWriter.submit", keep=True),
    Target("io.read", "repro.io:SharedFileReader.read", _nbytes_result),
)


def _resolve(where: str):
    """``(owner, attr, original, is_method)`` for a target address."""
    if where.startswith("<codec-backend>."):
        # The default backend's class, or the base class it inherits
        # the method from.
        attr = where.split(".", 1)[1]
        owner = next(c for c in _backend_class().__mro__ if attr in c.__dict__)
        return owner, attr, owner.__dict__[attr], True
    module_name, path = where.split(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        # Only a method the class itself defines: wrapping an inherited
        # one would shadow the parent's and double-count overrides.
        return owner, attr, owner.__dict__[attr], True
    return owner, attr, getattr(owner, attr), False


def _swapped(value, original, wrapper):
    """``value`` with ``original`` replaced by ``wrapper``, or ``None``.

    ``value`` is the function itself or a dataclass record holding it in
    a field (such as the frozen ``AlgorithmInfo`` entries of
    ``repro.core.registry.REGISTRY``, through which ``solve`` calls).
    """
    if value is original:
        return wrapper
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        held = {f.name: wrapper for f in dataclasses.fields(value)
                if getattr(value, f.name, None) is original}
        if held:
            return dataclasses.replace(value, **held)
    return None


class Patches:
    """Install the :data:`TARGETS` wrappers; undo them on exit.

    Targets that cannot be found are listed in :attr:`missing` (and
    announced on stderr) instead of failing the run.
    """

    def __init__(self, recorder: SpanRecorder, targets=TARGETS) -> None:
        self.recorder = recorder
        self.targets = targets
        self.missing: list[Target] = []
        self._undo: list = []

    def __enter__(self) -> "Patches":
        self.missing = []
        for target in self.targets:
            try:
                owner, attr, original, is_method = _resolve(target.where)
            except (ImportError, AttributeError, KeyError, ValueError, StopIteration):
                self.missing.append(target)
                print(
                    f"perfbench: note: {target.where} not found; "
                    f"dropping metrics built on {target.span} spans",
                    file=sys.stderr,
                )
                continue
            wrapper = self.recorder.wrap(
                target.span, original, size=target.size, keep=target.keep
            )
            if is_method:
                setattr(owner, attr, wrapper)
                self._undo.append((setattr, owner, attr, original))
            else:
                self._replace_everywhere(original, wrapper)
        return self

    def _replace_everywhere(self, original, wrapper) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((setattr, module, key, original))
                elif isinstance(value, dict) and key.isupper():
                    for dkey, dvalue in list(value.items()):
                        replacement = _swapped(dvalue, original, wrapper)
                        if replacement is not None:
                            value[dkey] = replacement
                            self._undo.append((dict.__setitem__, value, dkey, dvalue))

    def missing_spans(self) -> set[str]:
        """Span names with at least one target that could not be wrapped."""
        return {t.span for t in self.missing}

    def __exit__(self, *exc) -> None:
        for restore, owner, key, original in reversed(self._undo):
            restore(owner, key, original)
        self._undo.clear()
