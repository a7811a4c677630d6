"""Tests for the baseline MTTKRP implementations."""

import numpy as np
import pytest

from repro.core.mttkrp_baseline import mttkrp_baseline, mttkrp_gemm_lower_bound
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import mttkrp_oracle, traced_phases


def _case(shape, rank=5, seed=0):
    X = random_tensor(shape, rng=seed)
    U = random_factors(shape, rank, rng=seed + 1)
    return X, U


class TestBaseline:
    @pytest.mark.parametrize("shape", [(4, 5, 6), (3, 4, 5, 6), (7, 2)])
    def test_all_modes_vs_oracle(self, shape):
        X, U = _case(shape)
        for n in range(len(shape)):
            np.testing.assert_allclose(
                mttkrp_baseline(X, U, n), mttkrp_oracle(X, U, n), atol=1e-10
            )

    def test_phases_recorded(self):
        X, U = _case((4, 5, 6))
        phases = traced_phases(lambda: mttkrp_baseline(X, U, 1))
        assert {"reorder", "full_krp", "gemm"} <= set(phases)

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_baseline(rng.random((3, 4)), [], 0)

    def test_negative_mode(self):
        X, U = _case((4, 5, 6))
        np.testing.assert_allclose(
            mttkrp_baseline(X, U, -2), mttkrp_oracle(X, U, 1), atol=1e-10
        )


class TestGemmLowerBound:
    def test_output_shape(self):
        X, U = _case((4, 5, 6))
        out = mttkrp_gemm_lower_bound(X, U, 1)
        assert out.shape == (5, 5)

    def test_scratch_reuse(self):
        X, U = _case((4, 5, 6))
        scratch = {}
        mttkrp_gemm_lower_bound(X, U, 1, _scratch=scratch)
        a_first = scratch["A"]
        mttkrp_gemm_lower_bound(X, U, 1, _scratch=scratch)
        assert scratch["A"] is a_first  # cached, not reallocated

    def test_scratch_invalidated_on_new_shape(self):
        X, U = _case((4, 5, 6))
        scratch = {}
        mttkrp_gemm_lower_bound(X, U, 1, _scratch=scratch)
        mttkrp_gemm_lower_bound(X, U, 0, _scratch=scratch)
        assert scratch["key"] == (4, 30, 5)

    def test_timer_records_gemm_only(self):
        X, U = _case((4, 5, 6))
        phases = traced_phases(lambda: mttkrp_gemm_lower_bound(X, U, 1))
        assert set(phases) == {"gemm"}

    def test_operand_shapes_match_mttkrp_dimensions(self):
        X, U = _case((4, 5, 6), rank=7)
        scratch = {}
        mttkrp_gemm_lower_bound(X, U, 2, _scratch=scratch)
        assert scratch["A"].shape == (6, 20)
        assert scratch["B"].shape == (20, 7)
        # Column-major, as the paper's benchmark specifies.
        assert scratch["B"].flags.f_contiguous
