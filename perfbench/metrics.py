"""Metric names, units and regression bounds (mirrored by BENCHMARK.json).

Every workload reports every metric: the untraced run the end-to-end
list, the traced run the per-layer list.  ``selftest.py`` checks that
this table and ``BENCHMARK.json`` agree.
"""

#: (name, unit, better, bound) — bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("latency_p50_s", "s", "lower", 0.25),
    ("latency_tail_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("goodput_per_s", "1/s", "higher", 0.25),
]

ROLES = ("first", "inner", "last")

#: (name, unit, better)
PER_LAYER = (
    [(f"core.mttkrp.{r}_s", "s", "lower") for r in ROLES]
    + [(f"core.mttkrp.{r}_over_gemm", "ratio", "lower") for r in ROLES]
    + [(f"core.mttkrp.{r}_gflops", "GFLOP/s", "higher") for r in ROLES]
    + [(f"core.mttkrp.{r}_over_predicted", "ratio", "lower") for r in ROLES]
    + [
        ("core.mttkrp.modes_over_sweep", "ratio", "lower"),
        ("core.krp_s", "s", "lower"),
        ("core.krp_reuse_over_naive", "ratio", "lower"),
        ("tensor.multi_ttv_s", "s", "lower"),
        ("parallel.region_launch_s", "s", "lower"),
        ("parallel.reduce_s", "s", "lower"),
        ("parallel.blas_threads_reported", "count", "higher"),
        ("parallel.blas_threads_actual", "count", "lower"),
        ("parallel.imbalance_max", "ratio", "lower"),
        ("cpd.gram_s", "s", "lower"),
        ("cpd.non_mttkrp_s", "s", "lower"),
        ("cpd.tiny_cpals_s", "s", "lower"),
        ("batch.fleet16_per_item_s", "s", "lower"),
        ("serve.submit_s", "s", "lower"),
        ("serve.wait_p50_s", "s", "lower"),
        ("serve.run_p50_s", "s", "lower"),
        ("serve.run_over_direct", "ratio", "lower"),
        ("serve.medium_wait_s", "s", "lower"),
        ("serve.medium_run_s", "s", "lower"),
        ("serve.coalesced_share", "ratio", "higher"),
        ("serve.group_size_mean", "count", "higher"),
        ("serve.shed", "count", "lower"),
        ("serve.respawns", "count", "lower"),
        ("serve.timeouts", "count", "lower"),
        ("serve.stats_call_s", "s", "lower"),
        ("serve.jobs_retained", "count", "lower"),
        ("serve.gen_lag_tail_s", "s", "lower"),
        ("reference.ttb_iter_s", "s", "lower"),
        ("reference.speedup_vs_ttb", "ratio", "higher"),
        ("machine.stream_gbs", "GB/s", "higher"),
        ("machine.gemm_gflops", "GFLOP/s", "higher"),
        ("obs.phase.krp_s", "s", "lower"),
        ("obs.phase.gemm_s", "s", "lower"),
        ("obs.phase.reduce_s", "s", "lower"),
        ("obs.phase.ttv_s", "s", "lower"),
        ("obs.flops_per_byte", "flop/B", "higher"),
        ("obs.trace_overhead", "ratio", "lower"),
        ("error_rate", "ratio", "lower"),
    ]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
