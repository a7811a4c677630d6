"""Tests for the CP-ALS driver."""

import numpy as np
import pytest

import repro.obs as obs
from repro.cpd.cp_als import cp_als
from repro.cpd.diagnostics import factor_match_score
from repro.cpd.kruskal import KruskalTensor
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import from_kruskal, random_factors, random_tensor


def _exact_lowrank(shape=(10, 11, 12), rank=3, seed=0):
    U = random_factors(shape, rank, rng=seed)
    return from_kruskal(U), KruskalTensor(U)


class TestConvergence:
    def test_exact_recovery_fit(self):
        X, _ = _exact_lowrank()
        res = cp_als(X, 3, n_iter_max=200, tol=1e-13, rng=1)
        assert res.final_fit > 0.9999

    def test_factor_recovery(self):
        X, truth = _exact_lowrank(seed=3)
        res = cp_als(X, 3, n_iter_max=300, tol=1e-14, rng=4)
        assert factor_match_score(res.model, truth) > 0.99

    def test_fit_nondecreasing(self):
        X = random_tensor((8, 9, 10), rng=0)
        res = cp_als(X, 4, n_iter_max=25, tol=0.0, rng=1)
        fits = np.array(res.fits)
        # ALS is monotone in the exact arithmetic sense; allow tiny
        # floating-point wiggle.
        assert np.all(np.diff(fits) > -1e-9)

    def test_converged_flag(self):
        X, _ = _exact_lowrank()
        res = cp_als(X, 3, n_iter_max=500, tol=1e-6, rng=1)
        assert res.converged
        assert res.iterations < 500

    def test_tol_zero_runs_all_iterations(self):
        X = random_tensor((6, 7, 8), rng=0)
        res = cp_als(X, 2, n_iter_max=5, tol=0.0, rng=1)
        assert res.iterations == 5
        assert not res.converged

    def test_4way(self):
        U = random_factors((5, 6, 7, 4), 2, rng=7)
        X = from_kruskal(U)
        res = cp_als(X, 2, n_iter_max=150, tol=1e-13, rng=8)
        assert res.final_fit > 0.999


class TestOptions:
    def test_explicit_init(self):
        X, truth = _exact_lowrank()
        init = [f + 0.01 for f in truth.factors]
        res = cp_als(X, 3, n_iter_max=50, tol=1e-12, init=init)
        assert res.final_fit > 0.999

    def test_explicit_init_not_mutated(self):
        X, _ = _exact_lowrank()
        init = random_factors(X.shape, 3, rng=9)
        snapshot = [f.copy() for f in init]
        cp_als(X, 3, n_iter_max=3, init=init)
        for a, b in zip(init, snapshot):
            np.testing.assert_array_equal(a, b)

    def test_hosvd_init(self):
        X, _ = _exact_lowrank()
        res = cp_als(X, 3, n_iter_max=200, tol=1e-12, init="hosvd")
        # ALS can converge slowly even on exact low-rank data (swamps);
        # HOSVD init should still reach a high fit.
        assert res.final_fit > 0.99

    def test_methods_agree(self):
        X = random_tensor((6, 7, 8), rng=2)
        init = random_factors(X.shape, 3, rng=3)
        fits = {}
        for method in ("auto", "onestep", "baseline"):
            res = cp_als(X, 3, n_iter_max=6, tol=0.0, init=init, method=method)
            fits[method] = res.fits
        np.testing.assert_allclose(fits["auto"], fits["onestep"], atol=1e-8)
        np.testing.assert_allclose(fits["auto"], fits["baseline"], atol=1e-8)

    def test_timers_populated(self):
        X = random_tensor((6, 7, 8), rng=2)
        with obs.capture() as tracer:
            res = cp_als(X, 2, n_iter_max=3, tol=0.0, rng=0)
        assert {"gram", "solve"} <= set(obs.phase_totals(tracer))
        assert len(res.iteration_times) == 3
        assert res.mean_iteration_time > 0

    def test_verbose_prints(self, capsys):
        X = random_tensor((5, 5, 5), rng=2)
        cp_als(X, 2, n_iter_max=2, tol=0.0, rng=0, verbose=True)
        assert "fit" in capsys.readouterr().out

    def test_model_is_normalized_and_sorted(self):
        X = random_tensor((6, 7, 8), rng=2)
        res = cp_als(X, 3, n_iter_max=5, tol=0.0, rng=0)
        w = np.abs(res.model.weights)
        assert all(w[:-1] >= w[1:])
        for f in res.model.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0)


class TestErrors:
    def test_bad_rank(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="rank"):
            cp_als(X, 0)

    def test_bad_iterations(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="n_iter_max"):
            cp_als(X, 2, n_iter_max=0)

    def test_zero_tensor(self):
        with pytest.raises(ValueError, match="zero"):
            cp_als(DenseTensor(np.zeros((3, 4))), 2)

    def test_order1_rejected(self):
        with pytest.raises(ValueError, match="order"):
            cp_als(DenseTensor(np.ones(4), (4,)), 2)

    def test_wrong_init_count(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="initial factors"):
            cp_als(X, 2, init=[np.ones((4, 2))])

    def test_wrong_init_shape(self):
        X = random_tensor((4, 5), rng=0)
        with pytest.raises(ValueError, match="init"):
            cp_als(X, 2, init=[np.ones((4, 2)), np.ones((5, 3))])

    def test_not_a_tensor(self, rng):
        with pytest.raises(TypeError, match="DenseTensor"):
            cp_als(rng.random((3, 4)), 2)

    def test_empty_fits_properties(self):
        from repro.cpd.cp_als import CPALSResult

        res = CPALSResult(model=None)
        with pytest.raises(ValueError):
            _ = res.final_fit
        with pytest.raises(ValueError):
            _ = res.mean_iteration_time
