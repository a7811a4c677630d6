"""Trace exporters: Chrome trace-event JSON and phase-breakdown tables.

Two consumers of a :class:`~repro.obs.tracer.Tracer`:

* :func:`chrome_trace` / :func:`save_chrome_trace` — the Chrome
  trace-event format (the ``traceEvents`` JSON loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev).  Every span becomes a
  complete ("X") event on its recording thread's lane; span args and
  counters ride along in ``args``, so FLOPs, byte counts and per-region
  imbalance are inspectable per event.
* :func:`phase_totals` / :func:`summary` — the paper's Figure 6/8
  phase-breakdown view of a single trace: phase spans aggregated by name
  (calls, seconds, share), followed by the algorithm spans' analytic
  FLOP/byte rates and a per-region load-imbalance table.

A phase's seconds are the wall-clock *union* of its spans, so the
per-worker spans of one parallel region count once — as the paper times
each OpenMP region — while sequential entries still add up.
"""

from __future__ import annotations

import json
import os

from repro.obs.tracer import Tracer

__all__ = [
    "chrome_trace",
    "save_chrome_trace",
    "summary",
    "summarize_records",
    "records_from_events",
    "phase_totals",
    "counter_total",
    "counters_snapshot",
]

#: Counters aggregated into benchmark records by :func:`counters_snapshot`.
_SNAPSHOT_COUNTERS = (
    "flops",
    "bytes_read",
    "bytes_written",
    "bytes_lower_bound",
    "gemm_calls",
    "gemv_calls",
)


def counter_total(tracer: Tracer, name: str) -> float:
    """Sum of counter ``name`` across all spans plus the tracer level.

    Counters recorded while a span was open live on that span
    (:meth:`~repro.obs.tracer.Span.add`); counters recorded outside any
    span accumulate on the tracer itself.  A trace-wide total — e.g. the
    autotuner's ``tune.measure`` / ``tune.cache_hit`` counts, which tests
    assert on — needs both.
    """
    total = float(getattr(tracer, "counters", {}).get(name, 0.0))
    for span in tracer.spans():
        total += float(span.counters.get(name, 0.0))
    return total


def counters_snapshot(tracer: Tracer) -> dict[str, float]:
    """Flatten a trace into the counter dict benchmark records carry.

    The export hook the benchmark harness runs each measured point
    through: analytic FLOP/byte totals and GEMM/GEMV call counts summed
    across all spans (plus tracer-level spillover), and the per-region
    load-imbalance distilled to ``regions`` / ``imbalance_mean`` /
    ``imbalance_max``.  Zero-valued totals are omitted — a missing key
    reads as "not instrumented", a present key as a real measurement.
    """
    snapshot: dict[str, float] = {}
    for name in _SNAPSHOT_COUNTERS:
        total = counter_total(tracer, name)
        if total:
            snapshot[name] = total
    imbalances = [
        sp.counters["imbalance"]
        for sp in tracer.spans()
        if "imbalance" in sp.counters
    ]
    if imbalances:
        snapshot["regions"] = float(len(imbalances))
        snapshot["imbalance_mean"] = sum(imbalances) / len(imbalances)
        snapshot["imbalance_max"] = max(imbalances)
    return snapshot


def _json_default(obj):
    """Coerce numpy scalars (and anything else numeric-ish) for json."""
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer as a Chrome trace-event dict.

    Returns ``{"traceEvents": [...], "displayTimeUnit": "ms", ...}``;
    timestamps are microseconds relative to the tracer's epoch.
    """
    pid = os.getpid()
    events: list[dict] = []
    thread_names: dict[int, str] = {}
    for sp in tracer.spans():
        thread_names.setdefault(sp.tid, sp.thread_name)
        args = {"path": sp.path}
        args.update(sp.args)
        args.update(sp.counters)
        events.append(
            {
                "name": sp.name,
                "cat": sp.path.split("/", 1)[0],
                "ph": "X",
                "ts": (sp.start - tracer.epoch) * 1e6,
                "dur": sp.duration * 1e6,
                "pid": pid,
                "tid": sp.tid,
                "args": args,
            }
        )
    for tid, name in sorted(thread_names.items()):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "epoch_unix_s": tracer.epoch_unix,
            "tracer_counters": dict(tracer.counters),
        },
    }


def save_chrome_trace(tracer: Tracer, path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    trace = chrome_trace(tracer)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, default=_json_default)
    return path


# --------------------------------------------------------------------- #
# Aggregation (shared between live tracers and loaded trace files)
# --------------------------------------------------------------------- #


def _records_from_tracer(tracer: Tracer) -> list[dict]:
    return [
        {
            "name": sp.name,
            "path": sp.path,
            "start": sp.start,
            "seconds": sp.duration,
            "counters": sp.counters,
        }
        for sp in tracer.spans()
    ]


def records_from_events(events: list[dict]) -> list[dict]:
    """Normalize loaded Chrome trace events into aggregation records.

    Only complete ("X") events are considered; counters are recovered from
    the numeric entries of each event's ``args``.
    """
    records = []
    for ev in events:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {}) or {}
        counters = {
            k: v
            for k, v in args.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)
        }
        records.append(
            {
                "name": ev.get("name", "?"),
                "path": args.get("path", ev.get("name", "?")),
                "start": float(ev.get("ts", 0.0)) / 1e6,
                "seconds": float(ev.get("dur", 0.0)) / 1e6,
                "counters": counters,
            }
        )
    return records


def _phase_leaf_records(records: list[dict]) -> list[dict]:
    """Leaf records for the phase breakdown.

    Three kinds of span are bookkeeping around the phase spans and are
    dropped *before* the leaf computation: parallel-region spans
    (``imbalance`` counter), the pool's per-worker wrapper spans
    (``*.worker``), and algorithm spans carrying analytic ``flops``
    counters (``mttkrp.*``, ``krp.parallel``, ``node_mttkrp``, ...).  So
    an enclosing phase span (``reduce`` around a reduction region,
    ``lr_krp`` around a parallel KRP) surfaces as the leaf.
    """
    filtered = [
        rec
        for rec in records
        if "imbalance" not in rec["counters"]
        and "flops" not in rec["counters"]
        and not rec["name"].endswith(".worker")
    ]
    ancestors = set()
    for rec in filtered:
        parts = rec["path"].split("/")
        for depth in range(1, len(parts)):
            ancestors.add("/".join(parts[:depth]))
    return [rec for rec in filtered if rec["path"] not in ancestors]


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def phase_totals(source: Tracer | list[dict]) -> dict[str, float]:
    """Wall-clock seconds per phase name, from a trace's leaf spans.

    Each phase's total is the union of its spans' intervals: the
    per-worker spans of one parallel region overlap and count once (the
    region's wall time for that phase, as the paper times an OpenMP
    region), never their sum; successive calls add up.

    >>> import repro.obs as obs
    >>> tr = obs.Tracer()
    >>> _ = tr.record("gemm", 1.0, 3.0, worker=0)
    >>> _ = tr.record("gemm", 1.0, 3.0, worker=1)
    >>> obs.phase_totals(tr)
    {'gemm': 2.0}
    """
    records = (
        _records_from_tracer(source) if isinstance(source, Tracer) else source
    )
    intervals: dict[str, list[tuple[float, float]]] = {}
    for rec in _phase_leaf_records(records):
        intervals.setdefault(rec["name"], []).append(
            (rec["start"], rec["start"] + rec["seconds"])
        )
    return {name: _union_seconds(iv) for name, iv in intervals.items()}


def summarize_records(records: list[dict]) -> str:
    """Text summary (phase breakdown + region imbalance) of trace records."""
    lines: list[str] = []
    calls: dict[str, int] = {}
    for rec in _phase_leaf_records(records):
        calls[rec["name"]] = calls.get(rec["name"], 0) + 1
    seconds = phase_totals(records)
    total = sum(seconds.values()) or 1.0

    lines.append("phase breakdown (leaf spans, each region counted once)")
    lines.append(f"{'phase':<28} {'calls':>7} {'seconds':>10} {'share':>7}")
    for name, secs in sorted(seconds.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"{name:<28} {calls[name]:>7d} {secs:>10.4f} {secs / total:>6.1%}"
        )

    flop_spans = [r for r in records if r["counters"].get("flops", 0.0) > 0]
    if flop_spans:
        by_algo: dict[str, dict] = {}
        for rec in flop_spans:
            agg = by_algo.setdefault(
                rec["name"],
                {"calls": 0, "seconds": 0.0, "flops": 0.0, "bytes": 0.0},
            )
            agg["calls"] += 1
            agg["seconds"] += rec["seconds"]
            agg["flops"] += rec["counters"]["flops"]
            agg["bytes"] += rec["counters"].get("bytes_read", 0.0)
            agg["bytes"] += rec["counters"].get("bytes_written", 0.0)
        lines.append("")
        lines.append("algorithm spans (analytic FLOP/byte counters)")
        lines.append(
            f"{'span':<28} {'calls':>7} {'seconds':>10} {'GFLOP/s':>9} "
            f"{'GB/s':>9}"
        )
        for name, agg in sorted(
            by_algo.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            secs = agg["seconds"] or float("inf")
            lines.append(
                f"{name:<28} {agg['calls']:>7d} {agg['seconds']:>10.4f} "
                f"{agg['flops'] / secs / 1e9:>9.2f} "
                f"{agg['bytes'] / secs / 1e9:>9.2f}"
            )

    regions = [r for r in records if "imbalance" in r["counters"]]
    if regions:
        by_region: dict[str, dict] = {}
        for rec in regions:
            agg = by_region.setdefault(
                rec["name"],
                {"regions": 0, "seconds": 0.0, "imb_sum": 0.0,
                 "imb_max": 0.0, "workers": 0.0},
            )
            agg["regions"] += 1
            agg["seconds"] += rec["seconds"]
            agg["imb_sum"] += rec["counters"]["imbalance"]
            agg["imb_max"] = max(agg["imb_max"], rec["counters"]["imbalance"])
            agg["workers"] = max(
                agg["workers"], rec["counters"].get("workers", 0.0)
            )
        lines.append("")
        lines.append("parallel regions (load imbalance = max/mean worker time)")
        lines.append(
            f"{'region':<32} {'regions':>7} {'seconds':>10} {'workers':>7} "
            f"{'imb avg':>8} {'imb max':>8}"
        )
        for name, agg in sorted(
            by_region.items(), key=lambda kv: -kv[1]["seconds"]
        ):
            lines.append(
                f"{name:<32} {agg['regions']:>7d} {agg['seconds']:>10.4f} "
                f"{int(agg['workers']):>7d} "
                f"{agg['imb_sum'] / agg['regions']:>8.3f} "
                f"{agg['imb_max']:>8.3f}"
            )
    return "\n".join(lines)


def summary(tracer: Tracer) -> str:
    """Figure 6/8-style phase-breakdown text table for a live tracer."""
    return summarize_records(_records_from_tracer(tracer))
