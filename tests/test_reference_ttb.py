"""Tests for the Tensor-Toolbox-style reference implementation."""

import numpy as np
import pytest

from repro.core.krp import khatri_rao
from repro.cpd.cp_als import cp_als
from repro.reference.tensor_toolbox import (
    cp_als_ttb,
    khatrirao_ttb,
    mttkrp_ttb,
)
from repro.tensor.generate import from_kruskal, random_factors, random_tensor
from tests.conftest import mttkrp_oracle, traced_phases


class TestKhatriraoTTB:
    def test_matches_algorithm1(self, rng):
        mats = [rng.random((d, 4)) for d in (3, 5, 2)]
        np.testing.assert_allclose(khatrirao_ttb(mats), khatri_rao(mats))

    def test_column_mismatch(self, rng):
        with pytest.raises(ValueError, match="equal columns"):
            khatrirao_ttb([rng.random((3, 2)), rng.random((3, 3))])


class TestMttkrpTTB:
    @pytest.mark.parametrize("shape", [(4, 5, 6), (3, 4, 5, 6)])
    def test_all_modes_vs_oracle(self, shape):
        X = random_tensor(shape, rng=0)
        U = random_factors(shape, 5, rng=1)
        for n in range(len(shape)):
            np.testing.assert_allclose(
                mttkrp_ttb(X, U, n), mttkrp_oracle(X, U, n), atol=1e-10
            )

    def test_agrees_with_our_algorithms(self):
        from repro.core.dispatch import mttkrp

        X = random_tensor((4, 5, 6), rng=2)
        U = random_factors(X.shape, 3, rng=3)
        for n in range(3):
            np.testing.assert_allclose(
                mttkrp_ttb(X, U, n), mttkrp(X, U, n), atol=1e-10
            )

    def test_phases(self):
        X = random_tensor((4, 5, 6), rng=0)
        U = random_factors(X.shape, 3, rng=1)
        phases = traced_phases(lambda: mttkrp_ttb(X, U, 1))
        assert {"reorder", "full_krp", "gemm"} <= set(phases)

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_ttb(rng.random((3, 4)), [], 0)


class TestCpAlsTTB:
    def test_identical_iterates_to_ours(self):
        """Same init => same fits: the two CP-ALS drivers do the same math,
        differing only in MTTKRP implementation."""
        X = random_tensor((6, 7, 8), rng=0)
        init = random_factors(X.shape, 3, rng=1)
        ours = cp_als(X, 3, n_iter_max=6, tol=0.0, init=init)
        ttb = cp_als_ttb(X, 3, n_iter_max=6, tol=0.0, init=init)
        np.testing.assert_allclose(ours.fits, ttb.fits, atol=1e-8)

    def test_recovers_exact_lowrank(self):
        U = random_factors((9, 10, 11), 2, rng=5)
        X = from_kruskal(U)
        res = cp_als_ttb(X, 2, n_iter_max=150, tol=1e-13, rng=6)
        assert res.final_fit > 0.9999

    def test_iteration_times_recorded(self):
        X = random_tensor((5, 6, 7), rng=0)
        res = cp_als_ttb(X, 2, n_iter_max=3, tol=0.0, rng=1)
        assert len(res.iteration_times) == 3
        assert res.mean_iteration_time > 0

    def test_errors(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="rank"):
            cp_als_ttb(X, 0)
        with pytest.raises(ValueError, match="random init"):
            cp_als_ttb(X, 2, init="hosvd")
        with pytest.raises(ValueError, match="initial factors"):
            cp_als_ttb(X, 2, init=[np.ones((4, 2))])

    def test_zero_tensor(self):
        from repro.tensor.dense import DenseTensor

        with pytest.raises(ValueError, match="zero"):
            cp_als_ttb(DenseTensor(np.zeros((3, 4))), 2)
