"""Phase-name coverage: every kernel and solver reports its Figure 6/8
phases through ``obs.phase_totals`` of one traced call.

Each case lists the phase names the breakdown figures key on; the check
runs at one and two threads, so both the sequential paths and the
pool-region paths (per-worker spans, reductions) are covered.
"""

import numpy as np
import pytest

from repro.batch import BatchedTensor
from repro.batch.cp_als import cp_als_batched
from repro.batch.mttkrp import mttkrp_batched
from repro.core.dimtree import (
    left_partial,
    mttkrp_dimtree,
    node_mttkrp,
    node_mttkrp_columnwise,
    right_partial,
)
from repro.core.mttkrp_baseline import mttkrp_baseline, mttkrp_gemm_lower_bound
from repro.core.mttkrp_blocked import mttkrp_blocked
from repro.core.mttkrp_onestep import mttkrp_onestep, mttkrp_onestep_sequential
from repro.core.mttkrp_twostep import mttkrp_twostep, mttkrp_twostep_blocked
from repro.cpd.cp_als import cp_als
from repro.cpd.nncp import cp_nnhals
from repro.parallel.backend import shutdown_all_executors
from repro.parallel.config import use_backend
from repro.reference.tensor_toolbox import cp_als_ttb, mttkrp_ttb
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import traced_phases

X = random_tensor((4, 5, 6), rng=0)
U = random_factors(X.shape, 3, rng=1)
TL = left_partial(X, U, 2)
XNN = DenseTensor(np.abs(X.data), X.shape)
_rng = np.random.default_rng(0)
BT = BatchedTensor(_rng.random((4, X.size)), X.shape)
BU = [_rng.random((4, s, 3)) for s in X.shape]

KRP = {"full_krp", "gemm"}
NODE = {"node_krp", "node_gemm"}
ALS = {"gram", "solve"}

#: name -> (call taking the thread count, phases at T=1, extra at T=2).
CASES = {
    "onestep-seq": (lambda T: mttkrp_onestep_sequential(X, U, 1), KRP, set()),
    "onestep-external": (
        lambda T: mttkrp_onestep(X, U, 0, num_threads=T), KRP, {"reduce"},
    ),
    "onestep-internal": (
        lambda T: mttkrp_onestep(X, U, 1, num_threads=T),
        {"lr_krp", "gemm"}, {"reduce"},
    ),
    "twostep": (
        lambda T: mttkrp_twostep(X, U, 1, num_threads=T),
        {"lr_krp", "gemm", "gemv"}, set(),
    ),
    "twostep-blocked": (
        lambda T: mttkrp_twostep_blocked(X, U, 1, 50, num_threads=T),
        {"lr_krp", "gemm", "gemv"}, set(),
    ),
    "baseline": (
        lambda T: mttkrp_baseline(X, U, 1, num_threads=T),
        {"reorder", "full_krp", "gemm"}, set(),
    ),
    "gemm-lower-bound": (
        lambda T: mttkrp_gemm_lower_bound(X, U, 1, num_threads=T),
        {"gemm"}, set(),
    ),
    "blocked-external": (
        lambda T: mttkrp_blocked(X, U, 0, num_threads=T), KRP, {"reduce"},
    ),
    "blocked-internal": (
        lambda T: mttkrp_blocked(X, U, 1, num_threads=T),
        {"lr_krp", "gemm"}, {"reduce"},
    ),
    "left-partial": (
        lambda T: left_partial(X, U, 2, num_threads=T),
        {"lr_krp", "gemm"}, set(),
    ),
    "right-partial": (
        lambda T: right_partial(X, U, 1, num_threads=T),
        {"lr_krp", "gemm"}, set(),
    ),
    "node-mttkrp": (
        lambda T: node_mttkrp(TL, U[:2], keep=0, num_threads=T),
        NODE, {"node_reduce"},
    ),
    "node-mttkrp-last": (
        lambda T: node_mttkrp(TL, U[:2], keep=1, num_threads=T),
        NODE, {"node_reduce"},
    ),
    "node-columnwise": (
        lambda T: node_mttkrp_columnwise(TL, U[:2], keep=0), {"gemv"}, set(),
    ),
    "dimtree": (
        lambda T: mttkrp_dimtree(X, U, 1, num_threads=T),
        {"lr_krp", "gemm"} | NODE, {"node_reduce"},
    ),
    "batched": (
        lambda T: mttkrp_batched(BT, BU, 1, method="batched", num_threads=T),
        KRP, set(),
    ),
    "batched-loop": (
        lambda T: mttkrp_batched(
            BT, BU, 1, method="batched-loop", num_threads=T
        ),
        KRP, set(),
    ),
    "ttb": (
        lambda T: mttkrp_ttb(X, U, 1, num_threads=T),
        {"reorder", "full_krp", "gemm"}, set(),
    ),
    "cp_als": (
        lambda T: cp_als(X, 3, n_iter_max=2, tol=0.0, rng=0, num_threads=T),
        KRP | ALS | {"lr_krp", "gemv"}, {"reduce"},
    ),
    "cp_als-dimtree": (
        lambda T: cp_als(
            X, 3, n_iter_max=2, tol=0.0, rng=0, num_threads=T,
            mode_strategy="dimtree",
        ),
        {"lr_krp", "gemm"} | NODE | ALS, {"node_reduce"},
    ),
    "nncp": (
        lambda T: cp_nnhals(XNN, 2, n_iter_max=2, tol=0.0, rng=0, num_threads=T),
        KRP | {"lr_krp", "gemv", "gram", "hals"}, {"reduce"},
    ),
    "cp_als_batched": (
        lambda T: cp_als_batched(
            BT, 3, n_iter_max=2, tol=0.0, rng=0, num_threads=T
        ),
        KRP | ALS, set(),
    ),
    "cp_als_ttb": (
        lambda T: cp_als_ttb(X, 3, n_iter_max=2, tol=0.0, rng=0, num_threads=T),
        {"reorder", "full_krp", "gemm", "solve"}, set(),
    ),
}


@pytest.mark.parametrize("T", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_phase_names(case, T):
    call, phases, parallel_only = CASES[case]
    expected = phases | (parallel_only if T > 1 else set())
    totals = traced_phases(lambda: call(T))
    assert expected <= set(totals), sorted(totals)
    assert all(seconds >= 0.0 for seconds in totals.values())


@pytest.fixture(scope="module")
def process_backend():
    with use_backend("process"):
        yield
    shutdown_all_executors()


#: Cases whose phases run inside pool regions: under the process backend
#: their worker spans are recorded in the worker processes and replayed.
REGION_CASES = [
    "onestep-external", "onestep-internal", "blocked-external",
    "blocked-internal", "node-mttkrp", "batched", "batched-loop",
]


@pytest.mark.parametrize("case", REGION_CASES)
def test_phase_names_process_backend(case, process_backend):
    call, phases, parallel_only = CASES[case]
    assert phases | parallel_only <= set(traced_phases(lambda: call(2)))
