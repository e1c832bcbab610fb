"""Shared plumbing of the benchmark: paths, statistics, set-up, memory.

Nothing here imports ``repro``; the workload modules do, after
:func:`bootstrap` has put the checkout's ``src/`` first on the path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

#: Root of the checkout the benchmark runs from (the parent of this file's
#: directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: containers, snapshots, server
#: logs and span files.  Listed in the root ``.gitignore``.
WORK = os.path.join(ROOT, ".perfbench")

#: How many times set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's sources, or fail.

    Also points temporary files at the checkout's work directory so a
    run reads and writes only inside the checkout.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources at {SRC}/repro")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    import tempfile

    tempfile.tempdir = tmp
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(
            f"imported repro from {repro.__file__}, not from {SRC}"
        )


def program_env() -> dict:
    """Environment for child processes that run the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    return env


def run_dir(name: str) -> str:
    """A fresh directory under the work directory (emptied if present)."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
#: ``prctl`` option that makes orphaned descendants reparent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of any descendant whose parent exits first, so
    :func:`stop_children` also finds grandchildren (Linux only)."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    """PIDs of this process's live or unreaped children."""
    me = str(os.getpid())
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = fh.read().rsplit(")", 1)[1].split()[1]
        except (OSError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap(pids, deadline: float) -> list[int]:
    """Wait until ``deadline`` for ``pids`` to end; returns those still running."""
    left = set(pids)
    while left:
        for pid in list(left):
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                left.discard(pid)
        if not left or time.perf_counter() > deadline:
            break
        time.sleep(0.02)
    return sorted(left)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait for each to end.

    The multiprocessing resource tracker, started by the program's pool
    engine, outlives its parent by design and ignores SIGTERM; closing
    its pipe makes it exit.  Whatever else is left gets SIGTERM, then
    SIGKILL.
    """
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if getattr(tracker, "_fd", None) is not None:
            os.close(tracker._fd)
            tracker._fd = tracker._pid = None
    except (ImportError, AttributeError, OSError):
        pass
    for sig in (None, signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        if not pids:
            return
        for pid in pids if sig is not None else ():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        _reap(pids, time.perf_counter() + grace_s)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failures) sort last."""
    values = sorted(values)
    if not values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(values)))
    return float(values[rank - 1])


# ----------------------------------------------------------------------
# set-up and memory
# ----------------------------------------------------------------------
def import_setup_s(repeats: int = SETUP_REPEATS) -> float:
    """Median time to import ``repro`` in a fresh interpreter."""
    env = program_env()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro"],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return median(times)


def reset_peak_rss() -> None:
    """Restart this process's resident high-water mark (Linux only)."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a live process, in MB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


def cpu_s() -> float:
    """CPU seconds used so far by this process (all threads) and its
    finished children, such as joined pool workers.

    Unlike wall time this does not grow when the hypervisor lends the
    machine's cores to other tenants, which on a shared 2-CPU virtual
    machine moved wall-clock figures by up to a half from minute to minute.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def proc_cpu_s(pid: int) -> float:
    """CPU seconds used so far by a live process (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def children_peak_rss_mb() -> float:
    """Largest peak RSS among this process's finished children, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and whether its output was right.

    ``metrics`` maps a name to ``(value, unit)``; ``sources`` says where
    a per-layer value came from when it is not a span of the
    benchmark's own wrappers (for example ``DataPlaneStats``).
    """

    attempted: int = 0
    failed: int = 0
    issues: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    sources: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: Per-layer metrics left out because their wrapper could not be
    #: installed (the layer's function is gone).
    dropped: set[str] = field(default_factory=set)

    def put(self, name: str, value: float, unit: str, source: str = "") -> None:
        self.metrics[name] = (float(value), unit)
        if source:
            self.sources[name] = source

    def check(self, issues: list[str]) -> bool:
        """Count one attempted operation; failed when ``issues`` is non-empty."""
        self.attempted += 1
        if issues:
            self.failed += 1
            self.issues.extend(issues)
        return not issues


def write_spans(recorder, workload: str, seed: int) -> str:
    """Write a traced run's spans as JSON lines; returns the path."""
    path = os.path.join(WORK, "traces", f"{workload}-seed{seed}.jsonl")
    recorder.write_jsonl(path)
    return path


def host_facts() -> dict:
    """Facts recorded with every run."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a program dependency
        numpy_version = "missing"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": sha or "unknown (not a git checkout)",
    }
