"""Figure 8: MTTKRP time breakdown on the (synthetic) fMRI tensors.

As Figure 6 but on the application tensors, whose modes have very
different sizes — the paper highlights that KRP cost is relatively larger
for the small subject mode (n=1, I_1=59), and that the 2-step algorithm
beats the baseline on mode 1 by 2.8x/3.5x in parallel.

Run: ``pytest benchmarks/test_fig8_fmri_breakdown.py --benchmark-only``.
"""

from __future__ import annotations

import pytest

import repro.obs as obs
from benchmarks.conftest import record_paper_context
from repro.core.dispatch import mttkrp
from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
from repro.data.fmri import synthetic_fmri
from repro.data.workloads import FMRI_REDUCED_4D
from repro.tensor.generate import random_factors

pytestmark = pytest.mark.bench

_cache: dict = {}


def _problem(kind: str):
    if kind not in _cache:
        t, s, r, _ = FMRI_REDUCED_4D
        data = synthetic_fmri(t, s, r, rank=5, rng=0)
        X = data.to_3way() if kind == "3D" else data.tensor
        _cache[kind] = (X, random_factors(X.shape, 25, rng=1))
    return _cache[kind]


def _cases():
    out = []
    for kind, N in (("3D", 3), ("4D", 4)):
        for n in range(N):
            out.append((kind, n, "onestep"))
            if 0 < n < N - 1:
                out.append((kind, n, "twostep"))
            out.append((kind, n, "gemm-baseline"))
    return out


@pytest.mark.parametrize(
    "kind,mode,algorithm",
    _cases(),
    ids=lambda v: str(v),
)
def test_fig8_fmri_mttkrp(benchmark, kind, mode, algorithm):
    X, U = _problem(kind)
    if algorithm == "gemm-baseline":
        scratch: dict = {}
        with obs.capture() as tracer:
            mttkrp_gemm_lower_bound(X, U, mode, num_threads=1, _scratch=scratch)
        record_paper_context(
            benchmark,
            figure="fig8",
            tensor=kind,
            mode=mode,
            algorithm=algorithm,
            phase_seconds={
                k: round(v, 6) for k, v in obs.phase_totals(tracer).items()
            },
        )
        benchmark(
            mttkrp_gemm_lower_bound,
            X,
            U,
            mode,
            num_threads=1,
            _scratch=scratch,
        )
    else:
        with obs.capture() as tracer:
            mttkrp(X, U, mode, method=algorithm, num_threads=1)
        record_paper_context(
            benchmark,
            figure="fig8",
            tensor=kind,
            mode=mode,
            algorithm=algorithm,
            phase_seconds={
                k: round(v, 6) for k, v in obs.phase_totals(tracer).items()
            },
        )
        benchmark(mttkrp, X, U, mode, method=algorithm, num_threads=1)
