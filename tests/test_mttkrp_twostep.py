"""Tests for 2-step MTTKRP (Algorithm 4)."""

import numpy as np
import pytest

from repro.core.mttkrp_twostep import choose_side, mttkrp_twostep
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import mttkrp_oracle, traced_phases

SHAPES = [(4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 3, 2)]


def _case(shape, rank=5, seed=0):
    X = random_tensor(shape, rng=seed)
    U = random_factors(shape, rank, rng=seed + 1)
    return X, U


class TestChooseSide:
    def test_prefers_larger_side_for_step1(self):
        # I^L_1 = 10 > I^R_1 = 6 -> left-first.
        assert choose_side((10, 3, 6), 1) == "left"
        assert choose_side((6, 3, 10), 1) == "right"

    def test_tie_goes_right(self):
        assert choose_side((5, 3, 5), 1) == "right"


class TestTwoStep:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("side", ["auto", "left", "right"])
    def test_internal_modes_vs_oracle(self, shape, side):
        X, U = _case(shape)
        for n in range(1, len(shape) - 1):
            np.testing.assert_allclose(
                mttkrp_twostep(X, U, n, side=side),
                mttkrp_oracle(X, U, n),
                atol=1e-10,
            )

    def test_left_right_agree(self):
        X, U = _case((4, 5, 6))
        np.testing.assert_allclose(
            mttkrp_twostep(X, U, 1, side="left"),
            mttkrp_twostep(X, U, 1, side="right"),
            atol=1e-10,
        )

    @pytest.mark.parametrize("n", [0, 2])
    def test_external_mode_rejected(self, n):
        X, U = _case((4, 5, 6))
        with pytest.raises(ValueError, match="internal"):
            mttkrp_twostep(X, U, n)

    def test_order2_rejected(self):
        X, U = _case((4, 5))
        with pytest.raises(ValueError, match="internal"):
            mttkrp_twostep(X, U, 1)

    def test_bad_side(self):
        X, U = _case((4, 5, 6))
        with pytest.raises(ValueError, match="side"):
            mttkrp_twostep(X, U, 1, side="up")

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_twostep(rng.random((3, 4, 5)), [], 1)

    def test_timers_record_phases(self):
        X, U = _case((4, 5, 6))
        phases = traced_phases(lambda: mttkrp_twostep(X, U, 1))
        assert {"lr_krp", "gemm", "gemv"} <= set(phases)

    def test_with_threads(self):
        # Parallelism is inside BLAS; result must be unchanged.
        X, U = _case((4, 5, 6))
        np.testing.assert_allclose(
            mttkrp_twostep(X, U, 1, num_threads=4),
            mttkrp_oracle(X, U, 1),
            atol=1e-10,
        )

    def test_skewed_dims_choose_each_side(self):
        # Both auto-branches are exercised and correct.
        for shape in [(12, 3, 2), (2, 3, 12)]:
            X, U = _case(shape)
            np.testing.assert_allclose(
                mttkrp_twostep(X, U, 1, side="auto"),
                mttkrp_oracle(X, U, 1),
                atol=1e-10,
            )

    def test_rank1(self):
        X, U = _case((4, 5, 6), rank=1)
        np.testing.assert_allclose(
            mttkrp_twostep(X, U, 1), mttkrp_oracle(X, U, 1), atol=1e-10
        )

    def test_mode_size_one(self):
        X, U = _case((4, 1, 6))
        np.testing.assert_allclose(
            mttkrp_twostep(X, U, 1), mttkrp_oracle(X, U, 1), atol=1e-10
        )

    def test_5way_all_internal(self):
        X, U = _case((3, 2, 4, 2, 3))
        for n in (1, 2, 3):
            for side in ("left", "right"):
                np.testing.assert_allclose(
                    mttkrp_twostep(X, U, n, side=side),
                    mttkrp_oracle(X, U, n),
                    atol=1e-10,
                )
