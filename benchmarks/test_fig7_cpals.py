"""Figure 7: per-iteration CP-ALS time — our implementation vs the
Tensor-Toolbox-style reference, over CP ranks, on the fMRI tensors.

Paper protocol: 3D (225 x 59 x 19900) and 4D (225 x 59 x 200 x 200)
application tensors, C in {10,...,30}; claims up to 2x sequential and
6.7x/7.4x parallel speedup over Matlab at C = 30.

Run: ``pytest benchmarks/test_fig7_cpals.py --benchmark-only``.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_threads, record_paper_context
from repro.cpd.cp_als import cp_als
from repro.data.fmri import synthetic_fmri
from repro.data.workloads import FMRI_REDUCED_4D
from repro.reference.tensor_toolbox import cp_als_ttb
from repro.tensor.generate import random_factors

pytestmark = pytest.mark.bench

_THREADS = bench_threads()
_RANKS = (10, 20, 30)  # subset of the paper's {10,15,20,25,30} grid

_dataset_cache: dict = {}


def _tensors():
    if "data" not in _dataset_cache:
        t, s, r, _ = FMRI_REDUCED_4D
        data = synthetic_fmri(t, s, r, rank=5, rng=0)
        _dataset_cache["data"] = {
            "3D": data.to_3way(),
            "4D": data.tensor,
        }
    return _dataset_cache["data"]


@pytest.mark.parametrize("kind", ["3D", "4D"])
@pytest.mark.parametrize("rank", _RANKS, ids=lambda r: f"C{r}")
@pytest.mark.parametrize("impl", ["repro", "ttb"])
@pytest.mark.parametrize("threads", _THREADS, ids=lambda t: f"T{t}")
def test_fig7_cpals_iteration(benchmark, kind, rank, impl, threads):
    X = _tensors()[kind]
    init = random_factors(X.shape, rank, rng=1)
    record_paper_context(
        benchmark,
        figure="fig7",
        tensor=kind,
        shape=list(X.shape),
        rank=rank,
        implementation=impl,
        threads=threads,
    )

    if impl == "repro":

        # The paper's algorithm: one MTTKRP per mode, not the
        # dimension-tree sweep cp_als defaults to.
        def one_iteration():
            cp_als(
                X, rank, n_iter_max=1, tol=0.0, init=init,
                num_threads=threads, mode_strategy="per-mode",
            )

    else:

        def one_iteration():
            cp_als_ttb(
                X, rank, n_iter_max=1, tol=0.0, init=init,
                num_threads=threads,
            )

    benchmark(one_iteration)
