"""Cache-blocked MTTKRP: tile derivation, correctness, parity, observability.

The blocked kernels (:mod:`repro.core.mttkrp_blocked`) are the one family
whose *shape of execution* depends on a machine parameter (``cache_bytes``),
so beyond the usual differential checks these tests sweep the cache size —
from "everything fits in one tile" down to pathological 1 KiB caches that
force maximal tiling — and assert the result never changes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.obs as obs
from repro.core.dispatch import MTTKRP_METHODS, mttkrp
from repro.core.flops import blocked_cost, mttkrp_comm_lower_bound
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.core.mttkrp_blocked import TilePlan, choose_tiles, mttkrp_blocked
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from tests.conftest import traced_phases


def _problem(shape, rank=5, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    X = DenseTensor(rng.standard_normal(shape).astype(dtype))
    U = [rng.standard_normal((s, rank)).astype(dtype) for s in shape]
    return X, U


class TestChooseTiles:
    def test_registered_in_dispatch(self):
        # The differential oracle iterates MTTKRP_METHODS; this pins the
        # blocked kernel inside that sweep.
        assert "blocked" in MTTKRP_METHODS

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("cache", [1024, 65536, 8 << 20])
    def test_tile_within_bounds(self, n, cache):
        shape = (36, 30, 24)
        plan = choose_tiles(shape, n, 16, cache_bytes=cache)
        p = mode_products(shape, n)
        extent = p.other if plan.external else p.left
        assert 1 <= plan.tile <= extent
        assert plan.external == (n in (0, 2))
        if plan.external:
            assert plan.num_tasks == -(-p.other // plan.tile)
        else:
            assert plan.num_tasks == p.right
        assert plan.cache_bytes == float(cache)

    def test_working_set_fits_half_cache_when_possible(self):
        shape, C, cache = (36, 30, 24), 16, 1 << 20
        target_words = cache / 2 / 8
        for n in range(3):
            plan = choose_tiles(shape, n, C, cache_bytes=cache)
            p = mode_products(shape, n)
            krp_copies = 1 if plan.external else 2
            working = (
                p.size * plan.tile          # tensor tile
                + krp_copies * plan.tile * C  # KRP tile(s)
                + p.size * C                # output
            )
            assert working <= target_words

    def test_smaller_itemsize_allows_longer_tiles(self):
        shape, n, C, cache = (8, 200, 8), 1, 16, 64 * 1024
        t64 = choose_tiles(shape, n, C, itemsize=8, cache_bytes=cache).tile
        t32 = choose_tiles(shape, n, C, itemsize=4, cache_bytes=cache).tile
        assert t32 >= t64

    def test_big_cache_is_single_tile(self):
        plan = choose_tiles((6, 5, 4), 0, 3, cache_bytes=8 << 20)
        assert plan.tile == 20 and plan.num_tasks == 1

    def test_tiny_cache_degrades_gracefully(self):
        # Output alone exceeds half the cache: tile floors at >= 1
        # instead of failing — correctness never depends on the estimate.
        plan = choose_tiles((512, 64, 512), 1, 64, cache_bytes=256)
        assert plan.tile >= 1

    def test_invalid_cache_rejected(self):
        with pytest.raises(ValueError, match="cache_bytes"):
            choose_tiles((4, 5, 6), 0, 3, cache_bytes=0)

    def test_plan_is_frozen_value(self):
        plan = choose_tiles((4, 5, 6), 1, 3, cache_bytes=4096)
        assert isinstance(plan, TilePlan)
        with pytest.raises(AttributeError):
            plan.tile = 99


class TestCorrectness:
    @pytest.mark.parametrize(
        "shape", [(3, 4), (6, 5, 4), (7, 6, 5, 4), (3, 4, 2, 3, 2)]
    )
    def test_matches_baseline_every_mode(self, shape):
        X, U = _problem(shape)
        for n in range(len(shape)):
            ref = mttkrp_baseline(X, U, n)
            out = mttkrp_blocked(X, U, n)
            np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("cache", [1024, 4096, 65536, 8 << 20])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_result_invariant_under_cache_size(self, cache, n):
        # Sweeping cache_bytes changes the tiling, never the mathematics.
        X, U = _problem((12, 10, 8), rank=6, seed=3)
        ref = mttkrp_baseline(X, U, n)
        out = mttkrp_blocked(X, U, n, cache_bytes=cache)
        np.testing.assert_allclose(out, ref, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dtypes(self, dtype):
        X, U = _problem((9, 8, 7), rank=4, seed=1, dtype=dtype)
        for n in range(3):
            ref = mttkrp_baseline(X, U, n)
            out = mttkrp_blocked(X, U, n, cache_bytes=4096)
            assert out.dtype == ref.dtype
            tol = 1e-4 if dtype == np.float32 else 1e-10
            np.testing.assert_allclose(out, ref, atol=tol)

    def test_strided_factors(self):
        X, U = _problem((8, 7, 6), rank=4, seed=2)
        strided = [np.repeat(f, 2, axis=0)[::2] for f in U]
        for f in strided:
            assert not f.flags["C_CONTIGUOUS"]
        for n in range(3):
            ref = mttkrp_baseline(X, U, n)
            out = mttkrp_blocked(X, strided, n, cache_bytes=4096)
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_fortran_tensor(self):
        rng = np.random.default_rng(4)
        arr = np.asfortranarray(rng.standard_normal((6, 5, 4)))
        X = DenseTensor(arr)
        U = [rng.standard_normal((s, 3)) for s in (6, 5, 4)]
        for n in range(3):
            np.testing.assert_allclose(
                mttkrp_blocked(X, U, n, cache_bytes=2048),
                mttkrp_baseline(X, U, n),
                atol=1e-10,
            )

    def test_parallel_matches_sequential_tolerance(self):
        X, U = _problem((14, 12, 10), rank=6, seed=5)
        for n in range(3):
            ref = mttkrp_blocked(X, U, n, num_threads=1)
            out = mttkrp_blocked(X, U, n, num_threads=3, cache_bytes=8192)
            np.testing.assert_allclose(out, ref, atol=1e-10)


class TestBackendParity:
    def test_thread_process_bit_identical(self):
        from repro.parallel.backend import shutdown_all_executors
        from repro.parallel.config import num_threads

        X, U = _problem((8, 6, 5, 4), rank=3, seed=6)
        try:
            for n in range(4):
                with num_threads(2):
                    thread = mttkrp(
                        X, U, n, method="blocked", backend="thread"
                    )
                    process = mttkrp(
                        X, U, n, method="blocked", backend="process"
                    )
                assert np.array_equal(thread, process)
        finally:
            shutdown_all_executors()


class TestObservability:
    def test_timers_external_and_internal(self):
        X, U = _problem((10, 9, 8), rank=4, seed=7)
        phases = traced_phases(lambda: mttkrp_blocked(X, U, 0))
        assert "full_krp" in phases and "gemm" in phases
        phases = traced_phases(lambda: mttkrp_blocked(X, U, 1, num_threads=2))
        assert {"lr_krp", "gemm", "reduce"} <= set(phases)

    def test_traced_dispatch_reports_lower_bound_ratio(self):
        X, U = _problem((12, 10, 8), rank=6, seed=8)
        with obs.capture() as tracer:
            mttkrp(X, U, 1, method="blocked", num_threads=2)
        snap = obs.counters_snapshot(tracer)
        assert snap["bytes_lower_bound"] > 0
        ratio = (
            snap["bytes_read"] + snap["bytes_written"]
        ) / snap["bytes_lower_bound"]
        assert np.isfinite(ratio) and ratio >= 0.5
        spans = [s for s in tracer.spans() if s.name == "mttkrp.blocked"]
        assert spans and spans[0].counters["bytes_lower_bound"] > 0

    def test_lower_bound_below_blocked_traffic(self):
        # The bound must actually bound: analytic blocked traffic is
        # never below the BRK floor, for any mode or cache size.
        shape, C = (40, 32, 24), 16
        for n in range(3):
            for cache in (4096, 1 << 20, 8 << 20):
                bound = mttkrp_comm_lower_bound(shape, n, C, cache_bytes=cache)
                cost = blocked_cost(shape, n, C, cache_bytes=cache)
                achieved = sum(
                    p.read_bytes + p.write_bytes for p in cost.phases
                )
                assert bound > 0
                assert achieved >= bound * 0.999


class TestAutotunerIntegration:
    def test_blocked_is_a_candidate_both_mode_kinds(self):
        from repro.tune import candidate_set

        for n in (0, 1, 2):
            labels = {c.label for c in candidate_set((6, 5, 4), n)}
            assert "blocked" in labels

    def test_blocked_record_replays_through_dispatch(self):
        from repro.tune import TuneKey, TuneRecord, TuningCache, autotune

        X, U = _problem((6, 5, 4), rank=3, seed=9)
        cache = TuningCache(None)
        key = TuneKey.make((6, 5, 4), 3, 1, 1, "thread", "float64")
        cache.put(key, TuneRecord(method="blocked", source="measured"))
        record = autotune(X, U, 1, num_threads=1, backend="thread", cache=cache)
        assert record.method == "blocked"  # eligible: served, not re-measured
        np.testing.assert_allclose(
            mttkrp(X, U, 1, method=record.label, num_threads=1),
            mttkrp_baseline(X, U, 1),
            atol=1e-10,
        )


class TestValidation:
    def test_rejects_non_tensor(self):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_blocked(np.zeros((3, 4)), [np.zeros((3, 2))], 0)

    def test_rejects_bad_mode(self):
        X, U = _problem((4, 5, 6), rank=2)
        with pytest.raises((ValueError, IndexError)):
            mttkrp_blocked(X, U, 3)
