"""Seeded open-loop load for ``repro serve``.

Arrivals are a Poisson process: every request has a due time fixed
before the phase starts, and is sent at that time whether or not
earlier requests have answered.  One process sends them over a few
persistent keep-alive connections (no more than ``nproc``), one thread
per connection; when every connection is busy, the next request goes
out late.  Latency is timed from the due time, so that wait counts.

The traffic: ``/solve`` with the default ``ExtJohnson+BF`` on 16-64-job
instances, a fixed share of them drawn from a small hot set (memo hits
once warm) and the rest unique (cold solves).  A mixed phase adds
modelled ``/campaign`` requests.  Requests rotate over several tenants
so the per-tenant quota does not refuse them.

:func:`run_closed` is the saturating counterpart: each connection sends
its next request as soon as the previous one answers.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from dataclasses import dataclass

# The traffic mix.  No request log of a deployed service exists to take
# these from; each is an assumption, chosen so that both kinds of
# ``/solve`` work show in the figures:
#: Share of ``/solve`` requests drawn from the hot set.  A minority, so
#: cold solves (the ``core`` layer) carry most of the server's CPU time
#: and the memo cache still answers about one request in three.
HOT_SHARE = 0.3
#: Size of the hot set: few enough that every hot instance is cached
#: after the warm-up, so a hot request is always a memo hit.
HOT_SET = 8
#: Jobs per instance: a cold ``ExtJohnson+BF`` solve takes about a
#: millisecond, so no single request sets the percentiles alone.
JOBS = (16, 64)
#: Tenants the requests rotate over, so that no tenant's token bucket
#: (the server's default quota) refuses traffic at the rates used here.
TENANTS = 16
#: Modelled campaigns the ``/campaign`` share draws from (seeds vary).
CAMPAIGN_VARIANTS = 2
_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Request:
    due: float  # seconds after the phase start
    path: str
    body: bytes
    key: str  # requests with the same key must get the same answer
    instance: dict | None = None


@dataclass
class Result:
    request: Request
    due: float  # seconds after the phase start, like sent and done
    sent: float
    done: float
    status: int  # 0 when the connection failed
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        """From due time to answer; a failed or refused request never answers."""
        return self.done - self.due if self.ok else math.inf

    @property
    def late_s(self) -> float:
        return self.sent - self.due


class Traffic:
    """The seeded request mix; every instance comes from ``seed``."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed
        # Hot instances span the job range evenly, so the seed changes
        # their contents but not their sizes.
        step = (JOBS[1] - JOBS[0]) / (HOT_SET - 1)
        self.hot = [self._instance(round(JOBS[0] + i * step)) for i in range(HOT_SET)]
        self._cold = 0
        self._sent = 0

    def _instance(self, jobs: int | None = None) -> dict:
        rng = self.rng
        length = 20.0
        jobs = rng.randint(*JOBS) if jobs is None else jobs

        def obstacles():
            points = sorted(rng.uniform(0.0, length) for _ in range(4))
            return [[points[0], points[1]], [points[2], points[3]]]

        return {
            "begin": 0.0,
            "end": length,
            "jobs": [
                {
                    "index": i,
                    "compression_time": rng.uniform(0.05, 0.5),
                    "io_time": rng.uniform(0.05, 0.5),
                    "label": "",
                    "io_release": 0.0,
                }
                for i in range(jobs)
            ],
            "main_obstacles": obstacles(),
            "background_obstacles": obstacles(),
        }

    def _tenant(self) -> str:
        self._sent += 1
        return f"tenant-{self._sent % TENANTS}"

    def solve(self, due: float, kind: str, index: int | None = None) -> Request:
        if kind == "hot":
            index = self.rng.randrange(HOT_SET) if index is None else index
            instance, key = self.hot[index], f"hot-{index}"
        else:
            self._cold += 1
            instance, key = self._instance(), f"cold-{self._cold}"
        body = json.dumps({"instance": instance, "tenant": self._tenant()})
        return Request(due, "/solve", body.encode(), key, instance)

    def campaign(self, due: float, variant: int | None = None) -> Request:
        variant = self.rng.randrange(CAMPAIGN_VARIANTS) if variant is None else variant
        payload = {
            "app": "nyx",
            "nodes": 1,
            "ppn": 1,
            "iterations": 2,
            "seed": self.seed + variant,
            "tenant": self._tenant(),
        }
        return Request(due, "/campaign", json.dumps(payload).encode(), f"campaign-{variant}")

    def warmup(self) -> list[Request]:
        """One of each hot instance and campaign variant, then a cold solve."""
        reqs = [self.solve(0.0, "hot", i) for i in range(HOT_SET)]
        reqs += [self.campaign(0.0, v) for v in range(CAMPAIGN_VARIANTS)]
        return reqs + [self.solve(0.0, "cold")]

    def phase(self, rate: float, seconds: float, campaign_every: int = 0) -> list[Request]:
        """Poisson arrivals at ``rate`` per second for ``seconds``.

        With ``campaign_every``, every such request is a ``/campaign``
        (a fixed count, so these slow requests do not vary in number
        from seed to seed).
        """
        reqs, t = [], self.rng.expovariate(rate)
        while t < seconds:
            if campaign_every and len(reqs) % campaign_every == campaign_every // 2:
                reqs.append(self.campaign(t))
            elif self.rng.random() < HOT_SHARE:
                reqs.append(self.solve(t, "hot"))
            else:
                reqs.append(self.solve(t, "cold"))
            t += self.rng.expovariate(rate)
        return reqs


class Connections:
    """Persistent keep-alive connections, one per sending thread."""

    def __init__(self, port: int, count: int) -> None:
        self.port = port
        self.conns = [self._open() for _ in range(count)]

    def _open(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def call(self, slot: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        """One request on connection ``slot``; ``(0, b"")`` if it failed."""
        conn = self.conns[slot]
        try:
            conn.request(method, path, body=body, headers=_HEADERS)
            response = conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            self.conns[slot] = self._open()
            return 0, b""

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def run_phase(conns: Connections, requests: list[Request]) -> list[Result]:
    """Send ``requests`` at their due times; returns one result each."""
    results: list[Result | None] = [None] * len(requests)
    lock = threading.Lock()
    cursor = iter(range(len(requests)))
    start = time.perf_counter() + 0.02

    def sender(slot: int) -> None:
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            req = requests[i]
            wait = start + req.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, body = conns.call(slot, "POST", req.path, req.body)
            results[i] = Result(req, req.due, sent - start, time.perf_counter() - start,
                                status, body)

    _on_every_connection(conns, sender)
    return results


def run_closed(conns: Connections, requests: list[Request], seconds: float) -> list[Result]:
    """Send ``requests`` back to back on every connection for ``seconds``.

    Each request is due when its connection frees up, so latency is
    service time alone.  Requests left over when time is up are not sent.
    """
    results: list[Result] = []
    lock = threading.Lock()
    cursor = iter(requests)
    start = time.perf_counter()
    t_end = start + seconds

    def sender(slot: int) -> None:
        while time.perf_counter() < t_end:
            with lock:
                req = next(cursor, None)
            if req is None:
                return
            sent = time.perf_counter() - start
            status, body = conns.call(slot, "POST", req.path, req.body)
            with lock:
                results.append(
                    Result(req, sent, sent, time.perf_counter() - start, status, body)
                )

    _on_every_connection(conns, sender)
    return results


def _on_every_connection(conns: Connections, sender) -> None:
    threads = [threading.Thread(target=sender, args=(slot,)) for slot in range(len(conns.conns))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
