"""Observability: structured tracing and metrics for the MTTKRP stack.

This package gives every layer of the reproduction — the worker pool, the
KRP/MTTKRP kernels, the CP-ALS driver, the benchmark harness — a shared,
thread-aware span tracer with per-span counters (FLOPs, bytes, GEMM call
counts) and per-parallel-region load-imbalance metrics, exportable as
Chrome trace-event JSON or a Figure 6/8-style phase-breakdown table.

Quickstart
----------
>>> import repro.obs as obs
>>> tracer = obs.enable()               # or: REPRO_TRACE=1 in the env
>>> # ... run cp_als / mttkrp ...
>>> text = obs.summary(tracer)          # phase breakdown + imbalance
>>> _ = obs.disable()

See ``docs/observability.md`` for the span model and export formats, and
``python -m repro.obs.report trace.json`` for the offline report CLI.
"""

from repro.obs.export import (
    chrome_trace,
    counter_total,
    counters_snapshot,
    phase_totals,
    save_chrome_trace,
    summary,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    capture,
    disable,
    enable,
    get_tracer,
    is_enabled,
)

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
    "chrome_trace",
    "save_chrome_trace",
    "summary",
    "phase_totals",
    "counter_total",
    "counters_snapshot",
]
