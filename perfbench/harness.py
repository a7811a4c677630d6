"""Shared plumbing of the benchmark: environment, statistics, spans, output.

Nothing here imports ``repro`` at module level: ``run.py`` scrubs the
environment before the package is first imported, and the helpers that
need the package import it lazily.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
OUT = os.path.join(REPO, ".bench_out")

#: Variables that change what the program does; a stray value in the
#: caller's shell must not leak into a timed run.
SCRUBBED_VARS = (
    "REPRO_TRACE",
    "REPRO_NUM_THREADS",
    "REPRO_BACKEND",
    "REPRO_TUNE_CACHE",
    "REPRO_MP_START",
)

POOL_THREADS = 2


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` (no install needed)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise FileNotFoundError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def hermetic_environment() -> None:
    """Drop the program's behaviour switches from the environment.

    ``OPENBLAS_NUM_THREADS`` is deliberately left as found: users run the
    library defaults, and pinning it would hide the BLAS-thread behaviour
    the benchmark is meant to expose.  It is recorded instead.
    """
    if os.environ.get("REPRO_SANITIZE", "").strip() not in ("", "0"):
        raise RuntimeError(
            "REPRO_SANITIZE is set: the write-set sanitizer slows every "
            "kernel, so timed runs are refused"
        )
    for var in SCRUBBED_VARS:
        os.environ.pop(var, None)


def run_child(*args: str) -> str:
    """Run a ``child.py`` step in a fresh interpreter; returns its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child step {args[0]} failed:\n{proc.stderr}")
    return proc.stdout


# ------------------------------------------------------------------ #
# Statistics
# ------------------------------------------------------------------ #


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` at the highest percentile that still has
    at least ten samples beyond it; the maximum when there are fewer than
    eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 11:
        return float(ordered[-1]), 100.0
    return float(ordered[n - 11]), math.floor(100.0 * (n - 10) / n)


def percentile(values, pct: float) -> float:
    """Nearest-rank ``pct`` percentile.

    The end-to-end tails use a fixed percentile, chosen so that at least
    ten samples lie beyond it at the workload's sample count, so that runs
    with different counts compare like with like; :func:`tail` (the
    highest percentile with ten beyond) moves with the count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return float(ordered[max(math.ceil(pct / 100.0 * len(ordered)) - 1, 0)])


def describe(values) -> dict:
    """Median, tail and sample count of one timing series."""
    value, pct = tail(values)
    return {"median": median(values), "tail": value, "tail_pct": pct,
            "n": len(values)}


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set of this process (plus its largest waited-for
    child when ``include_children``), in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ------------------------------------------------------------------ #
# The benchmark's own spans
# ------------------------------------------------------------------ #


class SpanLog:
    """In-memory spans recorded around calls into the program's layers.

    Each span has a name, start and end (``time.perf_counter`` seconds),
    its parent span's id and a request id shared by all spans of one job
    or one ``cp_als`` call.  Written out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def record(self, name: str, start: float, end: float,
               request: str | None = None, parent: int | None = None) -> dict:
        if parent is None and self._stack:
            parent = self._stack[-1]["id"]
        if request is None and self._stack:
            request = self._stack[-1]["request"]
        span = {"id": len(self.spans), "name": name, "start": start,
                "end": end, "parent": parent, "request": request}
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, request: str | None = None):
        span = self.record(name, time.perf_counter(), math.nan, request)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span["end"] = time.perf_counter()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the union of the
        intervals its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(
                    (s["start"], s["end"]))
        totals: dict[str, float] = {}
        for s in self.spans:
            covered = union_length(children.get(s["id"], []),
                                   s["start"], s["end"])
            own = (s["end"] - s["start"]) - covered
            totals[s["name"]] = totals.get(s["name"], 0.0) + own
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "self_seconds": self.self_times()},
                      fh)


def union_length(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ------------------------------------------------------------------ #
# Correctness accounting
# ------------------------------------------------------------------ #


class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.void: str | None = None

    def check(self, ok: bool, reason: str) -> bool:
        """Count one operation; a failure when ``ok`` is false."""
        self.attempted += 1
        if not ok:
            self._failure(reason)
        return ok

    def fail(self, reason: str) -> None:
        """Count one operation that failed outright."""
        self.attempted += 1
        self._failure(reason)

    def _failure(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.void is None


# ------------------------------------------------------------------ #
# Recorded configuration
# ------------------------------------------------------------------ #


def blas_threads_actual() -> int:
    """Thread count reported by the OpenBLAS numpy links, via the
    scipy-openblas getter (``-1`` when no getter is found)."""
    import numpy  # noqa: F401  (maps the library into the process)

    names = ("scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    libs = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and path not in libs:
                libs.append(path)
    # numpy's own copy first: scipy may map a second OpenBLAS.
    libs.sort(key=lambda p: "numpy" not in p)
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def configuration() -> dict:
    import numpy

    from repro.bench.env import host_fingerprint
    from repro.parallel import get_backend
    from repro.parallel.blas import get_blas_threads

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    reported = get_blas_threads()
    # Outside a git checkout, git would search the parent directories.
    fingerprint = (host_fingerprint(REPO)
                   if os.path.exists(os.path.join(REPO, ".git"))
                   else {"git_rev": None, "git_dirty": None})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_reported": -1 if reported is None else reported,
        "blas_threads_actual": blas_threads_actual(),
        "backend": get_backend(),
        "pool_threads": POOL_THREADS,
        "git_rev": fingerprint["git_rev"],
        "git_dirty": fingerprint["git_dirty"],
    }


# ------------------------------------------------------------------ #
# Output
# ------------------------------------------------------------------ #


def emit(workload: str, seed: int, trace: bool, metrics: dict,
         units: dict, ledger: Ledger, extra: dict) -> None:
    """Print the human-readable table, write the full record, and print
    the one-line result as the last line of standard output."""
    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {"workload": workload, "seed": seed, "trace": trace,
              "metrics": {k: {"value": v, "unit": units[k]}
                          for k, v in metrics.items()},
              "attempted": ledger.attempted, "failed": ledger.failed,
              "error_rate": ledger.error_rate, "reasons": ledger.reasons,
              "void": ledger.void, **extra}
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(f"# {tag}: config {json.dumps(extra.get('config', {}))}")
    for name, stats in extra.get("timings", {}).items():
        print(f"#   {name:<28} median {stats['median']:.6g}  "
              f"p{stats['tail_pct']:g} {stats['tail']:.6g}  n={stats['n']}")
    for name, value in metrics.items():
        print(f"#   {name:<36} {value:>14.6g} {units[name]}")
    print(f"#   error_rate {ledger.error_rate:.6g} "
          f"({ledger.failed}/{ledger.attempted})")
    for reason in ledger.reasons:
        print(f"#   FAILED: {reason}")
    if ledger.void:
        print(f"#   VOID: {ledger.void}")
    result = {"correct": ledger.correct, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": float(v), "unit": units[k]}
                          for k, v in metrics.items()}}
    print(json.dumps(result))
