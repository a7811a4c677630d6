"""Figure 6: MTTKRP time breakdown (DGEMM / KRP / REDUCE / DGEMV) per mode.

The benchmark measures whole-call time and attaches the per-phase split of
one instrumented call to ``extra_info`` (pytest-benchmark records it in
its JSON output), matching the stacked bars of Figure 6.

Run: ``pytest benchmarks/test_fig6_breakdown.py --benchmark-only``.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from benchmarks.conftest import bench_scale, cached_problem, record_paper_context
from repro.core.dispatch import mttkrp
from repro.data.workloads import FIG5_WORKLOADS

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("wl", FIG5_WORKLOADS, ids=lambda w: f"N{w.N}")
@pytest.mark.parametrize("algorithm", ["onestep", "twostep"])
@pytest.mark.parametrize("mode_kind", ["external", "internal"])
def test_fig6_breakdown(benchmark, wl, algorithm, mode_kind):
    shape = wl.shape(bench_scale())
    mode = 0 if mode_kind == "external" else wl.N // 2
    if algorithm == "twostep" and mode_kind == "external":
        pytest.skip("2-step is defined for internal modes only")
    X, U = cached_problem(shape, wl.C)

    with obs.capture() as tracer:
        mttkrp(X, U, mode, method=algorithm, num_threads=1)
    phases = obs.phase_totals(tracer)
    total = sum(phases.values())
    record_paper_context(
        benchmark,
        figure="fig6",
        N=wl.N,
        algorithm=algorithm,
        mode=mode,
        threads=1,
        phase_seconds={k: round(v, 6) for k, v in phases.items()},
        phase_fractions={k: round(v / total, 4) for k, v in phases.items()},
    )
    benchmark(mttkrp, X, U, mode, method=algorithm, num_threads=1)
