"""Tests for the dimension-tree (all-modes MTTKRP) extension."""

import numpy as np
import pytest

from repro.core.dimtree import (
    left_partial,
    node_mttkrp,
    node_mttkrp_columnwise,
    right_partial,
    split_point,
)
from repro.cpd.cp_als import cp_als
from repro.parallel.backend import get_executor
from repro.parallel.workspace import Workspace
from repro.tensor.generate import random_factors, random_tensor
import repro.obs as obs
from tests.conftest import mttkrp_oracle, traced_phases

SHAPES = [(4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 3, 2), (7, 3)]


class SpyExecutor:
    """Pass-through executor that records every parallel region's label.

    Regression guard for the bug where the dimtree first level computed
    its KRP with the *serial* ``khatri_rao`` — engagement of the executor
    is asserted on the recorded labels, not inferred from timings.
    """

    def __init__(self, inner):
        self.inner = inner
        self.labels = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def parallel_for(self, fn, num_items, **kwargs):
        self.labels.append(kwargs.get("label"))
        return self.inner.parallel_for(fn, num_items, **kwargs)


def _case(shape, rank=5, seed=0):
    return (
        random_tensor(shape, rng=seed),
        random_factors(shape, rank, rng=seed + 1),
    )


class TestSplitPoint:
    def test_values(self):
        assert split_point(2) == 1
        assert split_point(3) == 2
        assert split_point(4) == 2
        assert split_point(5) == 3

    def test_bounds(self):
        for N in range(2, 8):
            m = split_point(N)
            assert 1 <= m <= N - 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            split_point(1)


class TestPartials:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_left_partial_every_left_mode(self, shape):
        X, U = _case(shape)
        N = len(shape)
        for m in range(1, N):
            TL = left_partial(X, U, m)
            assert TL.shape == shape[:m] + (5,)
            for n in range(m):
                np.testing.assert_allclose(
                    node_mttkrp(TL, U[:m], keep=n),
                    mttkrp_oracle(X, U, n),
                    atol=1e-9,
                )

    @pytest.mark.parametrize("shape", SHAPES)
    def test_right_partial_every_right_mode(self, shape):
        X, U = _case(shape)
        N = len(shape)
        for m in range(1, N):
            TR = right_partial(X, U, m)
            assert TR.shape == shape[m:] + (5,)
            for n in range(m, N):
                np.testing.assert_allclose(
                    node_mttkrp(TR, U[m:], keep=n - m),
                    mttkrp_oracle(X, U, n),
                    atol=1e-9,
                )

    def test_invalid_split(self):
        X, U = _case((4, 5, 6))
        for bad in (0, 3):
            with pytest.raises(ValueError, match="split"):
                left_partial(X, U, bad)
            with pytest.raises(ValueError, match="split"):
                right_partial(X, U, bad)

    def test_timers(self):
        X, U = _case((4, 5, 6))
        phases = traced_phases(lambda: left_partial(X, U, 2))
        assert {"lr_krp", "gemm"} <= set(phases)

    def test_krp_runs_on_the_executor(self):
        # Regression: the first level used to call the serial khatri_rao.
        X, U = _case((4, 5, 6))
        spy = SpyExecutor(get_executor(2))
        left_partial(X, U, 2, num_threads=2, executor=spy)
        assert "krp.rows" in spy.labels
        spy.labels.clear()
        right_partial(X, U, 2, num_threads=2, executor=spy)
        assert "krp.rows" in spy.labels

    def test_parallel_krp_matches_serial_bitwise(self):
        X, U = _case((3, 4, 5, 6))
        for m in (1, 2, 3):
            a = left_partial(X, U, m)
            b = left_partial(X, U, m, num_threads=3)
            assert np.array_equal(a.data, b.data)
            a = right_partial(X, U, m)
            b = right_partial(X, U, m, num_threads=3)
            assert np.array_equal(a.data, b.data)

    def test_workspace_buffers_are_reused(self):
        X, U = _case((4, 5, 6))
        ws = Workspace()
        a = left_partial(X, U, 2, workspace=ws).data
        allocs = ws.stats.allocations
        b = left_partial(X, U, 2, workspace=ws).data
        assert b is a  # same backing buffer
        assert ws.stats.allocations == allocs
        assert ws.stats.reuses > 0


class TestNodeMttkrp:
    def test_single_mode_node_is_identity(self):
        # A node with one tensor mode: its MTTKRP is the node matrix itself.
        X, U = _case((4, 6))
        TL = left_partial(X, U, 1)  # shape (4, C)
        np.testing.assert_allclose(
            node_mttkrp(TL, U[:1], keep=0),
            TL.unfold_front(0),
            atol=1e-12,
        )

    def test_wrong_factor_count(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        with pytest.raises(ValueError, match="factor matrices"):
            node_mttkrp(TL, U[:1], keep=0)

    def test_wrong_factor_shape(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        with pytest.raises(ValueError, match="shape"):
            node_mttkrp(TL, [U[1], U[0]], keep=0)

    def test_keep_out_of_range(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        with pytest.raises(ValueError, match="keep"):
            node_mttkrp(TL, U[:2], keep=2)

    def test_phase_timer(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        phases = traced_phases(lambda: node_mttkrp(TL, U[:2], keep=0))
        assert {"node_krp", "node_gemm"} <= set(phases)

    def test_phase_timer_columnwise(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        phases = traced_phases(lambda: node_mttkrp_columnwise(TL, U[:2], keep=0))
        assert "gemv" in phases


def _all_nodes(shape, rank, seed=0):
    """Every (node, node factors, keep) of every split of a tensor —
    including the degenerate splits m=1 and m=N-1."""
    X, U = _case(shape, rank=rank, seed=seed)
    N = len(shape)
    for m in range(1, N):
        TL = left_partial(X, U, m)
        TR = right_partial(X, U, m)
        for keep in range(m):
            yield TL, U[:m], keep
        for keep in range(N - m):
            yield TR, U[m:], keep


class TestBatchedVsColumnwise:
    """The batched rewrite must be a pure reorganization of the
    column-wise reference: identical bits when run serially."""

    @pytest.mark.parametrize(
        "shape", [(4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 3, 2), (7, 3)]
    )
    @pytest.mark.parametrize("rank", [1, 5])
    def test_bit_identical_serial(self, shape, rank):
        for node, facs, keep in _all_nodes(shape, rank):
            a = node_mttkrp_columnwise(node, facs, keep)
            b = node_mttkrp(node, facs, keep, num_threads=1)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b), (shape, rank, keep)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_parallel_matches_serial(self, threads):
        for node, facs, keep in _all_nodes((3, 4, 5, 6), rank=4):
            a = node_mttkrp(node, facs, keep, num_threads=1)
            b = node_mttkrp(node, facs, keep, num_threads=threads)
            np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)

    def test_thread_process_bit_identical_at_fixed_threads(self):
        ex_t = get_executor(2, backend="thread")
        ex_p = get_executor(2, backend="process")
        for node, facs, keep in _all_nodes((3, 4, 5), rank=4):
            a = node_mttkrp(node, facs, keep, num_threads=2, executor=ex_t)
            b = node_mttkrp(node, facs, keep, num_threads=2, executor=ex_p)
            assert np.array_equal(np.asarray(a), np.asarray(b)), keep

    def test_node_executor_engaged(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        spy = SpyExecutor(get_executor(2))
        node_mttkrp(TL, U[:2], keep=0, num_threads=2, executor=spy)
        assert "dimtree.node" in spy.labels

    def test_workspace_zero_allocations_after_warmup(self):
        X, U = _case((4, 5, 6))
        TL = left_partial(X, U, 2)
        ws = Workspace()
        node_mttkrp(TL, U[:2], keep=1, workspace=ws)
        allocs = ws.stats.allocations
        for _ in range(3):
            node_mttkrp(TL, U[:2], keep=1, workspace=ws)
        assert ws.stats.allocations == allocs
        assert ws.stats.reuses >= 3


class TestCpAlsDimtree:
    @pytest.mark.parametrize("shape", [(6, 7, 8), (5, 6, 7, 4), (3, 4, 5, 3, 3)])
    def test_identical_trajectory_to_per_mode(self, shape):
        X = random_tensor(shape, rng=9)
        init = random_factors(shape, 3, rng=10)
        a = cp_als(X, 3, n_iter_max=6, tol=0.0, init=init)
        b = cp_als(
            X, 3, n_iter_max=6, tol=0.0, init=init, mode_strategy="dimtree"
        )
        np.testing.assert_allclose(a.fits, b.fits, atol=1e-9)

    def test_recovers_exact_lowrank(self):
        from repro.tensor.generate import from_kruskal

        U = random_factors((9, 10, 11), 2, rng=20)
        X = from_kruskal(U)
        res = cp_als(
            X, 2, n_iter_max=150, tol=1e-13, rng=21, mode_strategy="dimtree"
        )
        assert res.final_fit > 0.9999

    def test_unknown_strategy(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="mode_strategy"):
            cp_als(X, 2, mode_strategy="tree-of-life")

    def test_fewer_gemm_flops_reflected_in_phases(self):
        """The dimtree iteration should do its tensor-sized work in exactly
        two 'gemm' phase entries per iteration (one per half)."""
        X = random_tensor((8, 8, 8, 8), rng=1)
        init = random_factors(X.shape, 4, rng=2)
        with obs.capture() as tracer:
            cp_als(
                X, 4, n_iter_max=2, tol=0.0, init=init, mode_strategy="dimtree"
            )
        gemm_spans = [s for s in tracer.spans() if s.name == "gemm"]
        assert len(gemm_spans) == 2 * 2  # 2 halves x 2 iterations

    @pytest.mark.parametrize("shape", [(6, 7, 8), (5, 6, 7, 4)])
    def test_parallel_trajectory_matches_serial(self, shape):
        X = random_tensor(shape, rng=9)
        init = random_factors(shape, 3, rng=10)
        a = cp_als(
            X, 3, n_iter_max=5, tol=0.0, init=init, mode_strategy="dimtree"
        )
        b = cp_als(
            X, 3, n_iter_max=5, tol=0.0, init=init, mode_strategy="dimtree",
            num_threads=2,
        )
        np.testing.assert_allclose(a.fits, b.fits, atol=1e-9)

    def test_backends_bit_identical(self):
        """Whole dimtree runs agree bitwise across thread/process at a
        fixed thread count (same partitions, strides, reduce pairing)."""
        X = random_tensor((5, 6, 7), rng=11)
        init = random_factors(X.shape, 3, rng=12)
        a = cp_als(
            X, 3, n_iter_max=4, tol=0.0, init=init,
            mode_strategy="dimtree", num_threads=2, backend="thread",
        )
        b = cp_als(
            X, 3, n_iter_max=4, tol=0.0, init=init,
            mode_strategy="dimtree", num_threads=2, backend="process",
        )
        assert a.fits == b.fits
        for fa, fb in zip(a.model.factors, b.model.factors):
            assert np.array_equal(fa, fb)

    def test_zero_allocations_after_warmup(self):
        """After the first iteration warms the arena, later iterations
        allocate no node/private buffers (the acceptance criterion,
        asserted via the workspace's own stats counter)."""
        X = random_tensor((5, 6, 7, 4), rng=13)
        init = random_factors(X.shape, 3, rng=14)
        ws1 = Workspace()
        cp_als(
            X, 3, n_iter_max=1, tol=0.0, init=init,
            mode_strategy="dimtree", workspace=ws1,
        )
        ws4 = Workspace()
        cp_als(
            X, 3, n_iter_max=4, tol=0.0, init=init,
            mode_strategy="dimtree", workspace=ws4,
        )
        # 4 iterations allocate exactly what 1 iteration does ...
        assert ws4.stats.allocations == ws1.stats.allocations
        # ... and the extra iterations are pure reuse.
        assert ws4.stats.reuses > ws1.stats.reuses
        # Caller-provided workspaces stay open (stats readable, reusable).
        assert ws4.num_buffers > 0

    def test_internal_workspace_closed_and_external_reused(self):
        X = random_tensor((4, 5, 6), rng=15)
        init = random_factors(X.shape, 2, rng=16)
        ws = Workspace()
        cp_als(
            X, 2, n_iter_max=2, tol=0.0, init=init,
            mode_strategy="dimtree", workspace=ws,
        )
        allocs = ws.stats.allocations
        # A second run on the same shapes allocates nothing at all.
        cp_als(
            X, 2, n_iter_max=2, tol=0.0, init=init,
            mode_strategy="dimtree", workspace=ws,
        )
        assert ws.stats.allocations == allocs
