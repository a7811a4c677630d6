"""Batched MTTKRP: correctness vs the per-item kernels and arena reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.batch import (
    BATCHED_MTTKRP_METHODS,
    BatchedTensor,
    choose_batch_chunk,
    mttkrp_batched,
    mttkrp_batched_loop,
    mttkrp_batched_stacked,
)
from repro.core.dispatch import mttkrp
from repro.parallel.backend import get_executor
from repro.parallel.workspace import Workspace
from repro.util import prod


def _operands(rng, B, shape, C, dtype=np.float64):
    flat = rng.standard_normal((B, prod(shape))).astype(dtype)
    factors = [
        rng.standard_normal((B, s, C)).astype(dtype) for s in shape
    ]
    return BatchedTensor(flat, shape), factors


@pytest.mark.parametrize("shape", [(5, 4), (4, 3, 5), (3, 2, 4, 2)])
@pytest.mark.parametrize("B", [1, 3])
def test_matches_per_item_dispatch(shape, B):
    """Every batch item must equal its own single-tensor MTTKRP."""
    rng = np.random.default_rng(10)
    bt, factors = _operands(rng, B, shape, C=3)
    for n in range(len(shape)):
        out = mttkrp_batched(bt, factors, n, method="batched")
        for b in range(B):
            ref = mttkrp(
                bt.item(b), [f[b] for f in factors], n, method="onestep"
            )
            np.testing.assert_allclose(out[b], ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_and_loop_lanes_bitwise_identical(dtype):
    rng = np.random.default_rng(11)
    bt, factors = _operands(rng, 7, (4, 3, 5), C=4, dtype=dtype)
    for n in range(3):
        a = mttkrp_batched(bt, factors, n, method="batched")
        b = mttkrp_batched(bt, factors, n, method="batched-loop")
        assert a.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_bitwise_invariant_to_workers_and_backend(backend):
    """Workers own disjoint batch blocks: any split is bit-identical."""
    rng = np.random.default_rng(12)
    bt, factors = _operands(rng, 9, (4, 3, 2), C=3)
    for n in range(3):
        ref = mttkrp_batched(bt, factors, n, num_threads=1)
        for T in (2, 4):
            out = mttkrp_batched(
                bt, factors, n, num_threads=T, backend=backend
            )
            np.testing.assert_array_equal(out, ref)


def test_negative_mode_and_auto_alias():
    rng = np.random.default_rng(13)
    bt, factors = _operands(rng, 2, (3, 4, 2), C=2)
    np.testing.assert_array_equal(
        mttkrp_batched(bt, factors, -1, method="auto"),
        mttkrp_batched(bt, factors, 2, method="batched"),
    )


def test_workspace_zero_steady_state_allocations():
    """After one warm pass per (mode, lane), repeat calls allocate nothing."""
    rng = np.random.default_rng(14)
    bt, factors = _operands(rng, 6, (5, 4, 3), C=3)
    with Workspace() as ws:
        for n in range(3):
            mttkrp_batched(bt, factors, n, method="batched", workspace=ws)
            mttkrp_batched(bt, factors, n, method="batched-loop", workspace=ws)
        warm = ws.stats.allocations
        for _ in range(3):
            for n in range(3):
                mttkrp_batched(
                    bt, factors, n, method="batched", workspace=ws
                )
                mttkrp_batched(
                    bt, factors, n, method="batched-loop", workspace=ws
                )
        assert ws.stats.allocations == warm


def test_workspace_zero_steady_state_allocations_parallel():
    rng = np.random.default_rng(15)
    bt, factors = _operands(rng, 8, (4, 3, 2), C=3)
    ex = get_executor(2)
    with Workspace(ex) as ws:
        for n in range(3):
            mttkrp_batched(
                bt, factors, n, method="batched", num_threads=2, workspace=ws
            )
        warm = ws.stats.allocations
        for _ in range(3):
            for n in range(3):
                mttkrp_batched(
                    bt, factors, n, method="batched", num_threads=2,
                    workspace=ws,
                )
        assert ws.stats.allocations == warm


def test_workspace_output_is_arena_owned():
    """With a matching workspace the result aliases the arena buffer."""
    rng = np.random.default_rng(16)
    bt, factors = _operands(rng, 3, (4, 3), C=2)
    with Workspace() as ws:
        first = mttkrp_batched(bt, factors, 0, workspace=ws)
        second = mttkrp_batched(bt, factors, 0, workspace=ws)
        assert np.shares_memory(first, second)
    detached = mttkrp_batched(bt, factors, 0)
    assert detached.flags["OWNDATA"] or detached.base is None


def test_choose_batch_chunk_bounds():
    plan = choose_batch_chunk((6, 5, 4), 1, 8, batch=100)
    assert 1 <= plan.chunk <= 100
    assert plan.num_chunks == -(-100 // plan.chunk)
    tiny = choose_batch_chunk((6, 5, 4), 1, 8, batch=100, cache_bytes=64)
    assert tiny.chunk == 1
    assert tiny.num_chunks == 100
    single = choose_batch_chunk((6, 5), 0, 4, batch=1)
    assert single.chunk == 1 and single.num_chunks == 1
    with pytest.raises(ValueError, match="batch"):
        choose_batch_chunk((6, 5), 0, 4, batch=0)


def test_chunked_execution_is_bitwise_stable():
    """Forcing chunk=1 via a tiny cache must not change a single bit."""
    rng = np.random.default_rng(17)
    bt, factors = _operands(rng, 5, (4, 3, 5), C=3)
    for n in range(3):
        whole = mttkrp_batched_stacked(bt, factors, n)
        chunked = mttkrp_batched_stacked(bt, factors, n, cache_bytes=64)
        np.testing.assert_array_equal(whole, chunked)


def test_mixed_dtype_promotes():
    rng = np.random.default_rng(18)
    bt, factors = _operands(rng, 2, (3, 4), C=2, dtype=np.float32)
    factors[0] = factors[0].astype(np.float64)
    out = mttkrp_batched(bt, factors, 0)
    assert out.dtype == np.float64


def test_validation_errors():
    rng = np.random.default_rng(19)
    bt, factors = _operands(rng, 3, (4, 3, 2), C=2)
    with pytest.raises(TypeError, match="BatchedTensor"):
        mttkrp_batched(bt.flat, factors, 0)
    with pytest.raises(ValueError, match="unknown method"):
        mttkrp_batched(bt, factors, 0, method="onestep")
    with pytest.raises(ValueError, match="3 stacked factors"):
        mttkrp_batched(bt, factors[:2], 0)
    with pytest.raises(ValueError, match="must be 3-D"):
        mttkrp_batched(bt, [factors[0][0]] + factors[1:], 0)
    with pytest.raises(ValueError, match="batch"):
        mttkrp_batched(bt, [factors[0][:2]] + factors[1:], 0)
    with pytest.raises(ValueError, match="rows"):
        bad = [np.swapaxes(factors[0], 1, 2)] + factors[1:]
        mttkrp_batched(bt, bad, 0)
    with pytest.raises(ValueError, match="columns"):
        wide = list(factors)
        wide[1] = np.concatenate([wide[1], wide[1]], axis=2)
        mttkrp_batched(bt, wide, 0)


def test_methods_tuple_is_the_dispatch_contract():
    assert BATCHED_MTTKRP_METHODS == (
        "auto", "autotune", "batched", "batched-loop"
    )
    rng = np.random.default_rng(20)
    bt, factors = _operands(rng, 2, (3, 4), C=2)
    ref = mttkrp_batched_loop(bt, factors, 0)
    for method in ("auto", "batched", "batched-loop"):
        np.testing.assert_array_equal(
            mttkrp_batched(bt, factors, 0, method=method), ref
        )


def test_timers_record_phases():
    from tests.conftest import traced_phases

    rng = np.random.default_rng(21)
    bt, factors = _operands(rng, 3, (4, 3, 2), C=2)
    phases = traced_phases(
        lambda: mttkrp_batched(bt, factors, 1, method="batched")
    )
    assert phases.get("full_krp", -1.0) >= 0.0
    assert phases.get("gemm", -1.0) >= 0.0
