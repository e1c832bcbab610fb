"""Workload ``service_mix``: ``repro serve`` under seeded HTTP traffic.

A ``python -m repro serve --port 0`` subprocess, driven over HTTP by
:mod:`perfbench.loadgen` with ``/solve`` traffic: a hot share that hits
the memo cache and a unique share that runs cold ``ExtJohnson+BF``
solves.  Three phases:

* fixed: open-loop Poisson arrivals at :data:`FIXED_RATE`;
* capacity: closed loop, every connection busy;
* mixed: the fixed rate again with every tenth request a modelled
  ``/campaign``.  Campaigns run 20-70 ms and stall the solves behind
  them, so they are kept out of the fixed phase, where a handful of
  them would set the solve p99 alone.

The gated figures are CPU-time based: requests answered per CPU-second
of the server over the two open-loop phases (fixed and mixed, so
``/campaign`` work counts), and server CPU milliseconds per ``/solve``
request in the fixed phase.  The closed-loop rate is printed, not gated:
at saturation it amplified the host's drift about twofold, and its
ten-seed spread reached 0.24 against a bound of 0.25.  On a shared virtual machine the wall-clock
latency moved by half from minute to minute with the CPU time the
hypervisor lent to other tenants; CPU time does not.  Wall-clock
latencies are printed, and reported by the traced run, which also ramps
the offered rate to the highest one whose solve p99 meets
:data:`LIMIT_MS`.

The traced run starts a second server through
``perfbench/traced_serve.py``, which installs the layer wrappers inside
the server process; its spans give the ``core`` figures and the tracing
overhead (server CPU per request, traced against untraced).

Loads ``service`` (parsing, admission, batching dispatch, memo cache)
and, on cold solves, ``core``; the modelled campaigns touch
``framework`` and ``simulator``.  Bypasses the real data plane
(``apps`` field generation, ``engines`` pool, ``compression``,
``io``).
"""

from __future__ import annotations

import collections
import json
import math
import os
import subprocess
import sys
import threading
import time

from . import checks, harness, loadgen, tracing
from .harness import Outcome, median, percentile
from .layers import Layers

#: Offered rate of the fixed and mixed phases, requests per second.  An
#: assumption (there is no traffic record to take it from): well under
#: the closed-loop capacity, which each run prints, so the fixed phase
#: measures the cost of a request on a busy server without a backlog.
FIXED_RATE = 60.0
#: Shares of the run's seconds: fixed, capacity, mixed phase.  The two
#: open-loop phases carry the gated figures.
SHARES = (0.6, 0.15, 0.25)
#: In the mixed phase, every CAMPAIGN_EVERY-th request is a ``/campaign``
#: (an assumption: campaigns are a small share of the traffic).
CAMPAIGN_EVERY = 10
#: Shares of the traced run's seconds: untraced fixed phase, ramp,
#: untraced mixed phase, traced fixed phase.
TRACED_SHARES = (0.25, 0.25, 0.15, 0.25)
#: Ramp (traced run): latency limit on the solve p99, ms; first step at
#: RAMP_START, x RAMP_FACTOR until a step fails (or / RAMP_FACTOR until
#: one passes), then REFINE bisection steps.
LIMIT_MS = 150.0
RAMP_START = 100.0
RAMP_FACTOR = 1.25
REFINE = 2
TRACED_SERVE = os.path.join(harness.ROOT, "perfbench", "traced_serve.py")


def cpu_split() -> tuple[set[int] | None, set[int] | None]:
    """CPUs for the server and for the load generator.

    The generator gets the last CPU to itself and the server the rest,
    so the two do not trade places on one core between requests (which
    shifted latencies by a third from one run to the next).  ``None``
    on a one-CPU machine: no pinning.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return set(cpus[:-1]), {cpus[-1]}


class Server:
    """A ``repro serve`` child: stdout captured, port parsed, always reaped.

    With ``spans``, the server runs under ``traced_serve.py`` and writes
    its spans to that path when it stops.  Use as a context manager;
    :attr:`conns` holds one keep-alive connection per CPU.
    """

    port: int | None = None

    def __init__(self, log_path: str, cpus: set[int] | None = None,
                 spans: str | None = None) -> None:
        self.log_path = log_path
        self.spans = spans
        self.lines: list[str] = []
        launcher = ["-m", "repro"] if spans is None else [TRACED_SERVE, spans]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *launcher, "serve", "--host", "127.0.0.1", "--port", "0"],
            preexec_fn=None if cpus is None else lambda: os.sched_setaffinity(0, cpus),
            cwd=harness.ROOT,
            env=harness.program_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        bound = threading.Event()
        self._reader = threading.Thread(target=self._read, args=(bound,), daemon=True)
        self._reader.start()
        try:
            if not bound.wait(60) or self.port is None:
                raise harness.BenchError(
                    "repro serve did not report a port: " + "".join(self.lines[-5:])
                )
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0
        self.conns = loadgen.Connections(self.port, os.cpu_count() or 1)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.conns.close()
        self.stop()

    def _read(self, bound: threading.Event) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)
            if self.port is None and "listening on http://" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
                bound.set()
        bound.set()

    def _wait_healthy(self) -> None:
        conns = loadgen.Connections(self.port, 1)
        try:
            deadline = time.perf_counter() + 60
            while conns.call(0, "GET", "/health")[0] != 200:
                if time.perf_counter() > deadline:
                    raise harness.BenchError("repro serve never answered /health")
                time.sleep(0.01)
        finally:
            conns.close()

    def status(self) -> dict:
        code, body = self.conns.call(0, "GET", "/status")
        return json.loads(body) if code == 200 else {}

    def cpu_s(self) -> float:
        return harness.proc_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """``/shutdown``, then kill if it has not exited in 30 s."""
        if self.proc.poll() is None and self.port is not None:
            conns = loadgen.Connections(self.port, 1)
            conns.call(0, "POST", "/shutdown")
            conns.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._reader.join(timeout=10)
        with open(self.log_path, "w") as fh:
            fh.writelines(self.lines)

    def read_spans(self) -> tuple[list, set[str]]:
        """A stopped traced server's spans, and the span names it could not wrap."""
        try:
            with open(self.spans + ".missing.json") as fh:
                missing = set(json.load(fh))
            return tracing.read_jsonl(self.spans), missing
        except (OSError, ValueError) as exc:
            raise harness.BenchError(
                f"traced server left no spans ({exc}): " + "".join(self.lines[-5:])
            )


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
def _solve_latencies(results) -> list[float]:
    return [r.latency_s for r in results if r.request.path == "/solve"]


def _p99_ms(results) -> float:
    return percentile(_solve_latencies(results), 99) * 1e3


def _ramp(conns, traffic, seconds: float) -> tuple[float, list]:
    """The highest offered rate meeting the limit, and every step's results.

    Steps bracket the limit, bisect the bracket, then interpolate (in
    log-log space) where the p99 crosses it between the highest passing
    and the lowest failing step.
    """
    step_s = seconds / 6
    steps = []
    t_end = time.perf_counter() + seconds
    lo = hi = None  # (rate, p99 ms)
    rate = RAMP_START

    def step(r: float):
        results = loadgen.run_phase(conns, traffic.phase(r, step_s))
        steps.append((r, results))
        return r, _p99_ms(results)

    while (lo is None or hi is None) and time.perf_counter() < t_end:
        r, p99 = step(rate)
        if p99 <= LIMIT_MS:
            lo, rate = (r, p99), r * RAMP_FACTOR
        else:
            hi, rate = (r, p99), r / RAMP_FACTOR
    for _ in range(REFINE):
        if lo is None or hi is None or time.perf_counter() >= t_end:
            break
        r, p99 = step(math.sqrt(lo[0] * hi[0]))
        if p99 <= LIMIT_MS:
            lo = (r, p99)
        else:
            hi = (r, p99)
    if lo is None:
        return 0.0, steps
    if hi is None or math.isinf(hi[1]):
        return lo[0], steps
    share = math.log(LIMIT_MS / lo[1]) / math.log(hi[1] / lo[1])
    return lo[0] * (hi[0] / lo[0]) ** share, steps


def _capacity(conns, traffic, seconds: float) -> tuple[float, list]:
    """Answered requests per second with every connection kept busy."""
    # About four times the capacity measured on a 2-CPU VM (250/s): more
    # than the server answers in ``seconds``, without spending seconds
    # generating requests that are never sent.
    pending = traffic.phase(1000.0, seconds)
    results = loadgen.run_closed(conns, pending, seconds)
    elapsed = max((r.done for r in results), default=0.0)
    return (sum(r.ok for r in results) / elapsed if elapsed else 0.0), results


def _phase_metrics(out: Outcome, prefix: str, results) -> None:
    late = [r.late_s for r in results]
    out.put(f"{prefix}.late_p99_ms", percentile(late, 99) * 1e3, "ms")
    out.put(f"{prefix}.sent", len(results), "count")
    out.put(f"{prefix}.ok", sum(r.ok for r in results), "count")
    out.put(f"{prefix}.failed", sum(not r.ok for r in results), "count")


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------
def _answer(result) -> str:
    """The part of a 200 body that must repeat exactly for the same key."""
    body = json.loads(result.body)
    if result.request.path == "/solve":
        return json.dumps(body.get("solution"))
    campaign = dict(body.get("campaign") or {})
    campaign.pop("wall_time_s", None)
    return json.dumps(campaign)


def check_results(out: Outcome, results) -> None:
    """Per request: answered 200, a valid solution, the same answer as its key's others."""
    answers = {}
    for r in results:
        if r.ok:
            try:
                answers[id(r)] = _answer(r)
            except ValueError:
                answers[id(r)] = None
    by_key = collections.defaultdict(list)
    for r in results:
        if answers.get(id(r)) is not None:
            by_key[r.request.key].append(answers[id(r)])
    usual = {k: collections.Counter(v).most_common(1)[0][0] for k, v in by_key.items()}
    validated: dict[str, list[str]] = {}
    for r in results:
        answer = answers.get(id(r))
        if not r.ok:
            out.check([f"{r.request.path} {r.request.key}: HTTP {r.status}"])
            continue
        if answer is None:
            out.check([f"{r.request.path} {r.request.key}: body is not JSON"])
            continue
        issues = []
        if answer != usual[r.request.key]:
            issues.append(f"{r.request.key}: answer differs from the key's other responses")
        if r.request.instance is not None:
            if answer not in validated:
                validated[answer] = checks.solution_issues(
                    r.request.instance, json.loads(r.body)
                )
            issues += validated[answer]
        out.check(issues)


# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    logs = harness.run_dir("service")
    server_cpus, client_cpus = cpu_split()
    if client_cpus is not None:
        os.sched_setaffinity(0, client_cpus)
    traffic = loadgen.Traffic(seed)
    if trace:
        results = _traced(out, seed, seconds, logs, server_cpus, traffic)
    else:
        results = _timed(out, seconds, logs, server_cpus, traffic)
    check_results(out, results)
    return out


def _warm(server: Server, traffic) -> list:
    return [loadgen.run_phase(server.conns, [r])[0] for r in traffic.warmup()]


def _timed(out: Outcome, seconds, logs, cpus, traffic) -> list:
    """Set-up, then the fixed, capacity and mixed phases on one server."""
    setups = []
    for i in range(harness.SETUP_REPEATS - 1):
        with Server(os.path.join(logs, f"setup{i}.log"), cpus) as probe:
            setups.append(probe.setup_s)
    with Server(os.path.join(logs, "server.log"), cpus) as server:
        setups.append(server.setup_s)
        results = _warm(server, traffic)
        fixed_s, capacity_s, mixed_s = (share * seconds for share in SHARES)
        cpu0 = server.cpu_s()
        fixed = loadgen.run_phase(server.conns, traffic.phase(FIXED_RATE, fixed_s))
        cpu1 = server.cpu_s()
        rps, closed = _capacity(server.conns, traffic, capacity_s)
        cpu2 = server.cpu_s()
        mixed = loadgen.run_phase(
            server.conns, traffic.phase(FIXED_RATE, mixed_s, campaign_every=CAMPAIGN_EVERY)
        )
        cpu3 = server.cpu_s()
        results += fixed + closed + mixed
        peak = harness.proc_peak_rss_mb(server.proc.pid)
    out.put("throughput", sum(r.ok for r in fixed + mixed) / (cpu1 - cpu0 + cpu3 - cpu2), "1/s")
    out.put("cpu_ms", (cpu1 - cpu0) * 1e3 / len(fixed), "ms")
    out.put("setup_s", median(setups), "s")
    out.put("peak_rss_MB", peak, "MB")
    lats = _solve_latencies(fixed)
    out.notes.append(
        f"wall clock, not gated: solve p50 {median(lats) * 1e3:.1f} ms, "
        f"p99 {percentile(lats, 99) * 1e3:.1f} ms at {FIXED_RATE:g}/s; "
        f"capacity {rps:.0f}/s (the fixed rate is {FIXED_RATE / rps:.0%} of it), "
        f"{sum(r.ok for r in closed) / (cpu2 - cpu1):.0f} per server CPU-second"
    )
    return results


def _traced(out: Outcome, seed, seconds, logs, cpus, traffic) -> list:
    """Untraced server: fixed phase, ramp, mixed phase.  Traced server:
    the fixed phase again, with spans recorded inside the server."""
    fixed_s, ramp_s, mixed_s, traced_s = (share * seconds for share in TRACED_SHARES)
    with Server(os.path.join(logs, "server.log"), cpus) as server:
        results = _warm(server, traffic)
        before = server.status()
        cpu0 = server.cpu_s()
        plain = loadgen.run_phase(server.conns, traffic.phase(FIXED_RATE, fixed_s))
        plain_cpu = server.cpu_s() - cpu0
        after = server.status()
        max_rps, steps = _ramp(server.conns, traffic, ramp_s)
        ramp = [r for _, step in steps for r in step]
        mixed = loadgen.run_phase(
            server.conns, traffic.phase(FIXED_RATE, mixed_s, campaign_every=CAMPAIGN_EVERY)
        )
    spans_path = os.path.join(harness.WORK, "traces", f"service_mix-seed{seed}-server.jsonl")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with Server(os.path.join(logs, "traced-server.log"), cpus, spans=spans_path) as server:
        results += _warm(server, traffic)
        cpu0, t0 = server.cpu_s(), time.perf_counter()
        traced = loadgen.run_phase(server.conns, traffic.phase(FIXED_RATE, traced_s))
        t1, traced_cpu = time.perf_counter(), server.cpu_s() - cpu0
    server_spans, missing = server.read_spans()

    recorder = tracing.SpanRecorder()
    for phase, phase_results in (("fixed", plain), ("ramp", ramp), ("mixed", mixed)):
        for i, r in enumerate(phase_results):
            cache = json.loads(r.body).get("cache", "") if r.ok else ""
            recorder.add("service.request", r.due, r.done, f"{phase}-{i}",
                         endpoint=r.request.path, status=r.status, cache=cache,
                         late_s=r.late_s)
    harness.write_spans(recorder, "service_mix", seed)

    def delta(*path):
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    bodies = [(r, json.loads(r.body)) for r in plain if r.ok]
    hits = [r.latency_s for r, b in bodies if b.get("cache") == "hit"]
    cold = [r.latency_s for r, b in bodies if b.get("cache") == "miss"]
    camp = [r.latency_s for r in mixed if r.ok and r.request.path == "/campaign"]
    st = "/status delta over the untraced fixed phase"
    lookups = delta("cache", "hits") + delta("cache", "misses")
    out.put("service.cache_hit_ratio", delta("cache", "hits") / max(1, lookups), "ratio", st)
    out.put("wall.latency_p50_ms", median(_solve_latencies(plain)) * 1e3, "ms",
            "solve latency, untraced fixed phase")
    out.put("service.solve_p99_ms", percentile(_solve_latencies(plain), 99) * 1e3, "ms",
            "untraced fixed phase")
    out.put("service.hit_p50_ms", median(hits) * 1e3, "ms")
    out.put("service.cold_p50_ms", median(cold) * 1e3, "ms")
    out.put("service.campaign_p50_ms", median(camp) * 1e3, "ms", "mixed phase")
    out.put("service.max_rps", max_rps, "1/s",
            f"ramp: highest offered rate with solve p99 <= {LIMIT_MS:g} ms")
    out.put("service.batches", delta("queue", "batches"), "count", st)
    out.put("service.coalesced", delta("queue", "coalesced"), "count", st)
    out.put("service.rejected", delta("requests", "rejected"), "count", st)
    out.put("service.errors", delta("requests", "errors"), "count", st)
    _phase_metrics(out, "loadgen.fixed", plain)
    _phase_metrics(out, "loadgen.ramp", ramp)

    # Spans the traced server recorded while it served the traced phase;
    # core figures are per request of that phase.
    layers = Layers(out, tracing.in_window(server_spans, t0, t1), missing, per=len(traced))
    layers.span_total("core.schedule_s", "core.schedule")
    layers.span_count("core.schedule_calls", "core.schedule")
    layers.span_median_ms("core.cold_solve_ms", "core.schedule")
    out.put("trace.overhead_pct",
            (traced_cpu / len(traced) / (plain_cpu / len(plain)) - 1) * 100, "%",
            "server CPU per request, traced server against untraced, fixed phase")
    return results + plain + ramp + mixed + traced
