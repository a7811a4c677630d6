"""Benchmark harness: registry, normalized results, regression trends.

* :mod:`~repro.bench.registry` — name → :class:`BenchSpec` registry of
  every runnable benchmark (fig4–fig8, dimtree, autotune, pool-overhead,
  ablations); ``run_benchmark`` executes any of them at a chosen scale;
* :mod:`~repro.bench.schema` — the one normalized result record every
  producer emits (timing stats + obs counters + host fingerprint + git
  rev), with validating writer/loader for ``results/*.bench.json``;
* :mod:`~repro.bench.env` — host fingerprint / host-class / provenance
  headers shared by every result producer;
* :mod:`~repro.bench.trend` — cross-PR regression tracker diffing a run
  against the committed history, tolerance-aware, fails loudly;
* :mod:`~repro.bench.cli` — the ``repro-bench`` CLI (also
  ``python -m repro.bench``): ``list`` / ``run`` / ``trend`` / ``migrate``;
* :mod:`~repro.bench.timing` — robust wall timing (median-of-k, raw
  samples);
* :mod:`~repro.bench.stream` — the STREAM scale benchmark of Figure 4;
* :mod:`~repro.bench.harness` — measured experiment runners (KRP, MTTKRP,
  CP-ALS) producing structured points with timing stats and obs counters;
* :mod:`~repro.bench.figures` — per-figure drivers printing paper-style
  tables for both the *measured* (host, reduced scale) and *modeled*
  (paper machine, paper scale) variants:
  ``python -m repro.bench.figures fig5 --scale 0.005``.
"""

from repro.bench.env import host_class, host_fingerprint, provenance_header
from repro.bench.harness import (
    CPALSPoint,
    KRPPoint,
    MTTKRPPoint,
    run_cpals_point,
    run_krp_point,
    run_mttkrp_point,
)
from repro.bench.registry import (
    BenchSpec,
    benchmark_names,
    get_spec,
    list_specs,
    measure_case,
    run_benchmark,
)
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    load_history,
    load_results,
    new_record,
    record_from_point,
    validate_record,
    write_results,
)
from repro.bench.stream import stream_scale
from repro.bench.timing import median_time, time_samples

__all__ = [
    "median_time",
    "time_samples",
    "stream_scale",
    "KRPPoint",
    "MTTKRPPoint",
    "CPALSPoint",
    "run_krp_point",
    "run_mttkrp_point",
    "run_cpals_point",
    "host_fingerprint",
    "host_class",
    "provenance_header",
    "BenchSpec",
    "benchmark_names",
    "get_spec",
    "list_specs",
    "run_benchmark",
    "measure_case",
    "SCHEMA_VERSION",
    "SchemaError",
    "new_record",
    "record_from_point",
    "validate_record",
    "write_results",
    "load_results",
    "load_history",
]
