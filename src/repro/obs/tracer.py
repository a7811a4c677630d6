"""Hierarchical, thread-aware span tracer for the MTTKRP/CP-ALS stack.

The paper's evaluation (Figures 4-8) is built on *attribution*: which phase
of which algorithm, on which mode of which iteration, spent the time — and
how evenly the worker threads shared it.  :class:`Tracer` records exactly
that structure as nested **spans**:

    cp_als > iter[3] > mode[1] > mttkrp.twostep > gemm

Each span carries wall-clock start/end (one monotonic clock for the whole
trace), the recording thread, free-form ``args`` (mode, shape, rank, ...)
and accumulating ``counters`` (FLOPs from :mod:`repro.core.flops`, bytes
read/written, GEMM call counts).  :class:`~repro.parallel.pool.ThreadPool`
additionally records one span per parallel region with a **load-imbalance**
metric — max/mean of the per-worker wall times, the key diagnostic for the
paper's static contiguous-block schedule (imbalance 1.0 = perfectly even,
``T`` = one worker did everything).

Nesting is tracked *per thread* (a thread-local span stack), so pool
workers never corrupt the orchestrating thread's hierarchy; completed spans
are appended to a shared, lock-protected list.

Enabling
--------
Tracing is **off by default** and costs nothing when off: every
instrumented call site fetches the module-wide tracer once via
:func:`get_tracer`, which returns the :data:`NULL_TRACER` singleton —
whose ``span()`` returns one shared no-op context manager (no per-call
allocations) and whose ``enabled`` attribute lets parallel regions skip
instrumentation wholesale, including their per-worker clock reads.

Turn it on with :func:`enable` (returns the live :class:`Tracer`) or by
setting the ``REPRO_TRACE`` environment variable before the first traced
call: ``REPRO_TRACE=1`` enables collection; any other non-false value is
treated as an output path to which a Chrome trace-event JSON is written at
interpreter exit (``REPRO_TRACE=trace.json python examples/quickstart.py``).
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "enable",
    "disable",
    "is_enabled",
    "capture",
]

_clock = time.perf_counter


class Span:
    """One timed, named region of the execution, recorded by a tracer.

    Attributes
    ----------
    name:
        Leaf name, e.g. ``"gemm"`` or ``"iter[3]"``.
    path:
        ``"/"``-joined ancestry on the recording thread, e.g.
        ``"cp_als/iter[3]/mode[1]/mttkrp.twostep/gemm"``.
    tid / thread_name:
        Identity of the recording thread (pool workers show up on their
        own timeline lanes in the Chrome trace).
    start / end:
        Monotonic seconds (shared clock across the trace); ``end`` is
        ``None`` while the span is open.
    args:
        Free-form metadata set at creation (mode, shape, schedule, ...).
    counters:
        Numeric accumulators attached while the span is current
        (``flops``, ``bytes_read``, ``gemm_calls``, ``imbalance``, ...).
    """

    __slots__ = ("name", "path", "tid", "thread_name", "start", "end",
                 "args", "counters")

    def __init__(self, name: str, path: str, tid: int, thread_name: str,
                 start: float, args: dict | None = None) -> None:
        self.name = name
        self.path = path
        self.tid = tid
        self.thread_name = thread_name
        self.start = start
        self.end: float | None = None
        self.args: dict = args or {}
        self.counters: dict[str, float] = {}

    @property
    def duration(self) -> float:
        """Span wall time in seconds (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def add(self, counter: str, value: float) -> None:
        """Accumulate ``value`` into a named counter on this span."""
        self.counters[counter] = self.counters.get(counter, 0.0) + float(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.path!r}, {self.duration * 1e3:.3f} ms, "
                f"counters={self.counters})")


class Tracer:
    """Collects nested spans from any number of threads.

    A tracer is usable directly (instantiate and pass around / install via
    :func:`enable`); the instrumented library code always goes through
    :func:`get_tracer` so a single ``enable()`` call traces the whole
    stack.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._local = threading.local()
        # Tracer-level counters catch add_counter() calls made while no
        # span is open on the calling thread.
        self.counters: dict[str, float] = {}
        self.epoch = _clock()
        self.epoch_unix = time.time()

    # -- span recording ------------------------------------------------ #

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **args):
        """Open a nested span on the calling thread.

        >>> tr = Tracer()
        >>> with tr.span("outer"):
        ...     with tr.span("inner", mode=1) as sp:
        ...         sp.add("flops", 10)
        >>> [s.path for s in tr.spans()]
        ['outer/inner', 'outer']
        """
        stack = self._stack()
        path = f"{stack[-1].path}/{name}" if stack else name
        thread = threading.current_thread()
        sp = Span(name, path, thread.ident or 0, thread.name, _clock(),
                  args or None)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = _clock()
            stack.pop()
            with self._lock:
                self._spans.append(sp)

    def record(self, name: str, start: float, end: float, **args) -> Span:
        """Record a retrospective span from already-measured clock values.

        Used where the measurement already exists (per-worker phase clocks
        inside kernels); the span nests under the calling thread's current
        span, and ``start``/``end`` must come from the same monotonic
        clock (:func:`time.perf_counter`).
        """
        stack = self._stack()
        path = f"{stack[-1].path}/{name}" if stack else name
        thread = threading.current_thread()
        sp = Span(name, path, thread.ident or 0, thread.name, float(start),
                  args or None)
        sp.end = float(end)
        with self._lock:
            self._spans.append(sp)
        return sp

    def record_region(self, name: str, start: float, end: float,
                      worker_seconds: list[float]) -> Span:
        """Record a parallel region and its load-imbalance metric.

        ``worker_seconds`` holds the wall time of each *participating*
        worker.  The span's counters are ``workers``, ``max_worker_s``,
        ``mean_worker_s`` and ``imbalance`` = max/mean, which lies in
        ``[1, workers]`` (1.0 for a perfectly balanced region; defined as
        1.0 for empty/zero-time regions).
        """
        sp = self.record(name, start, end)
        n = len(worker_seconds)
        mx = max(worker_seconds) if worker_seconds else 0.0
        mean = (sum(worker_seconds) / n) if n else 0.0
        sp.counters["workers"] = float(n)
        sp.counters["max_worker_s"] = float(mx)
        sp.counters["mean_worker_s"] = float(mean)
        sp.counters["imbalance"] = float(mx / mean) if mean > 0.0 else 1.0
        sp.args["worker_seconds"] = [round(float(s), 9) for s in worker_seconds]
        return sp

    def add_counter(self, name: str, value: float) -> None:
        """Accumulate into the innermost open span on this thread.

        Falls back to the tracer-level :attr:`counters` dict when no span
        is open (e.g. a kernel called outside any traced context).
        """
        stack = self._stack()
        if stack:
            stack[-1].add(name, value)
        else:
            with self._lock:
                self.counters[name] = self.counters.get(name, 0.0) + float(value)

    # -- access -------------------------------------------------------- #

    def spans(self) -> list[Span]:
        """Snapshot of all completed spans (in completion order)."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        """Drop all completed spans and tracer-level counters."""
        with self._lock:
            self._spans.clear()
            self.counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer({len(self.spans())} spans)"


class _NullSpan:
    """Shared no-op stand-in for :class:`Span`; one instance, zero state."""

    __slots__ = ()
    counters: dict = {}
    args: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def add(self, counter, value):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stub used when tracing is disabled.

    ``span()``/``record()`` return one shared singleton object, so the
    disabled path allocates nothing per call and parallel regions can gate
    their instrumentation on the class attribute :attr:`enabled`.
    """

    __slots__ = ()
    enabled = False

    def span(self, name, **args):
        return _NULL_SPAN

    def record(self, name, start, end, **args):
        return _NULL_SPAN

    def record_region(self, name, start, end, worker_seconds):
        return _NULL_SPAN

    def add_counter(self, name, value):
        pass

    def spans(self):
        return []

    def clear(self):
        pass


NULL_TRACER = NullTracer()

_state_lock = threading.Lock()
_active: Tracer | None = None
_env_checked = False


def _check_env() -> None:
    global _env_checked, _active
    with _state_lock:
        if _env_checked:
            return
        _env_checked = True
        value = os.environ.get("REPRO_TRACE", "").strip()
        if not value or value.lower() in ("0", "false", "off", "no"):
            return
        _active = Tracer()
        if value.lower() not in ("1", "true", "on", "yes"):
            # Treat the value as an output path; dump at interpreter exit.
            import atexit

            tracer = _active
            path = value

            def _dump() -> None:  # pragma: no cover - exercised via subprocess
                from repro.obs.export import save_chrome_trace

                try:
                    save_chrome_trace(tracer, path)
                except OSError as exc:
                    import sys

                    print(f"repro.obs: could not write trace to {path!r}: "
                          f"{exc}", file=sys.stderr)

            atexit.register(_dump)


def get_tracer() -> Tracer | NullTracer:
    """The active tracer, or :data:`NULL_TRACER` when tracing is off.

    This is the hot-path accessor every instrumented call site uses; it is
    a global read plus (on the first call only) one ``REPRO_TRACE``
    environment check.
    """
    if not _env_checked:
        _check_env()
    active = _active
    return active if active is not None else NULL_TRACER


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) as the active tracer."""
    global _active, _env_checked
    with _state_lock:
        _env_checked = True
        _active = tracer if tracer is not None else Tracer()
        return _active


def disable() -> Tracer | None:
    """Stop tracing; returns the tracer that was active (for export)."""
    global _active
    with _state_lock:
        previous = _active
        _active = None
        return previous


def is_enabled() -> bool:
    """Whether a live tracer is currently installed."""
    return get_tracer().enabled


@contextmanager
def capture(tracer: Tracer | None = None):
    """Temporarily install a fresh tracer; restores the prior state.

    The benchmark harness uses this to run one instrumented repetition of
    a measured kernel and snapshot its FLOP/byte/imbalance counters
    without clobbering a user-enabled tracer (or enabling tracing for the
    rest of the process):

    >>> import repro.obs as obs
    >>> with obs.capture() as tr:
    ...     pass  # run the kernel once
    >>> tr.spans()
    []
    """
    global _active, _env_checked
    with _state_lock:
        previous = _active
        previously_checked = _env_checked
        _env_checked = True
        _active = tracer if tracer is not None else Tracer()
        installed = _active
    try:
        yield installed
    finally:
        with _state_lock:
            _active = previous
            _env_checked = previously_checked
