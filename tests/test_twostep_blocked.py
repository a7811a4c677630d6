"""Tests for the constant-memory blocked 2-step MTTKRP."""

import numpy as np
import pytest

import repro.obs as obs
from repro.core.mttkrp_twostep import mttkrp_twostep, mttkrp_twostep_blocked
from repro.tensor.generate import random_factors, random_tensor
from tests.conftest import mttkrp_oracle, traced_phases


def _gemm_spans(fn) -> int:
    with obs.capture() as tracer:
        fn()
    return sum(s.name == "gemm" for s in tracer.spans())


def _case(shape, rank=5, seed=0):
    return (
        random_tensor(shape, rng=seed),
        random_factors(shape, rank, rng=seed + 1),
    )


class TestBlockedTwoStep:
    @pytest.mark.parametrize("shape", [(4, 5, 6), (3, 4, 5, 6), (2, 3, 4, 3, 2)])
    @pytest.mark.parametrize("side", ["auto", "left", "right"])
    @pytest.mark.parametrize("budget", [1, 37, 10**9])
    def test_matches_oracle_all_budgets(self, shape, side, budget):
        X, U = _case(shape)
        for n in range(1, len(shape) - 1):
            np.testing.assert_allclose(
                mttkrp_twostep_blocked(X, U, n, budget, side=side),
                mttkrp_oracle(X, U, n),
                atol=1e-9,
            )

    def test_matches_unblocked(self):
        X, U = _case((5, 6, 7, 4))
        for n in (1, 2):
            np.testing.assert_allclose(
                mttkrp_twostep_blocked(X, U, n, 100),
                mttkrp_twostep(X, U, n),
                atol=1e-10,
            )

    def test_huge_budget_single_block(self):
        # With an unbounded budget the loop runs exactly once per side.
        X, U = _case((4, 5, 6))
        assert _gemm_spans(lambda: mttkrp_twostep_blocked(X, U, 1, 10**12)) == 1

    def test_tiny_budget_many_blocks(self):
        X, U = _case((4, 5, 6))
        # group size degrades to one output row per block.
        assert _gemm_spans(
            lambda: mttkrp_twostep_blocked(X, U, 1, 1, side="right")
        ) == 5

    def test_external_mode_rejected(self):
        X, U = _case((4, 5, 6))
        with pytest.raises(ValueError, match="internal"):
            mttkrp_twostep_blocked(X, U, 0, 100)

    def test_bad_budget(self):
        X, U = _case((4, 5, 6))
        with pytest.raises(ValueError, match="positive"):
            mttkrp_twostep_blocked(X, U, 1, 0)

    def test_bad_side(self):
        X, U = _case((4, 5, 6))
        with pytest.raises(ValueError, match="side"):
            mttkrp_twostep_blocked(X, U, 1, 10, side="down")

    def test_rejects_plain_ndarray(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            mttkrp_twostep_blocked(rng.random((3, 4, 5)), [], 1, 10)

    def test_phases_recorded(self):
        X, U = _case((4, 5, 6))
        phases = traced_phases(lambda: mttkrp_twostep_blocked(X, U, 1, 50))
        assert {"lr_krp", "gemm", "gemv"} <= set(phases)
