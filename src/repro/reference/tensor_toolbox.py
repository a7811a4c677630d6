"""Tensor-Toolbox-style dense CP-ALS: the paper's software comparator.

Matlab Tensor Toolbox (Bader & Kolda) computes dense MTTKRP the
straightforward way (Section 2.3 of the paper):

1. ``tenmat(X, n)`` — permute and reshape the tensor into an explicit
   ``I_n x I_{!=n}`` matricization (reordering every entry in memory);
2. ``khatrirao(U, -n, 'r')`` — form the full Khatri-Rao product explicitly
   (column-wise, without the reuse optimization of Algorithm 1);
3. one matrix multiplication.

Its only parallelism is whatever the BLAS inside Matlab provides, which is
exactly how the paper characterizes the Matlab packages ("the only
opportunity for parallelization in the packages is within BLAS calls").

This module reproduces that computational profile in Python/numpy so the
Figure 7 comparison can be regenerated: :func:`mttkrp_ttb` mirrors
``mttkrp(tensor, U, n)`` and :func:`cp_als_ttb` mirrors ``cp_als`` (same
update order, normalization, and fit logic as Tensor Toolbox 2.6).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs import get_tracer
from repro.parallel.blas import blas_threads
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.matricize import unfold_explicit
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["khatrirao_ttb", "mttkrp_ttb", "cp_als_ttb", "TTBResult"]


def khatrirao_ttb(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Tensor Toolbox's ``khatrirao``: column-wise, no row-wise reuse.

    TTB computes the KRP column by column via repeated reshaped outer
    products (``bsxfun``-style broadcasting).  Arithmetic cost matches the
    naive row-wise schedule: each pairwise expansion recomputes full-height
    products, i.e. ``Z-1`` passes over the output height.
    """
    mats = [np.asarray(m) for m in matrices]
    C = mats[0].shape[1]
    for m in mats:
        if m.ndim != 2 or m.shape[1] != C:
            raise ValueError("all matrices must be 2-D with equal columns")
    K = mats[0]
    for m in mats[1:]:
        # TTB expands pairwise left-to-right; unlike Algorithm 1 it
        # allocates and fills a fresh full-size buffer per pair.
        K = (K[:, None, :] * m[None, :, :]).reshape(-1, C)
    return K


def mttkrp_ttb(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
) -> np.ndarray:
    """Dense MTTKRP the Tensor Toolbox way: reorder + full KRP + GEMM.

    Traced phases (:mod:`repro.obs` spans): ``"reorder"``, ``"full_krp"``,
    ``"gemm"``.  ``num_threads`` caps the BLAS threads, the only
    parallelism this implementation has.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    check_factor_matrices(list(factors), tensor.shape)
    T = resolve_threads(num_threads)
    tr = get_tracer()
    with tr.span("reorder"):
        Xn = unfold_explicit(tensor, n, order="F")
    with tr.span("full_krp"):
        # KRP of all factors but n, highest mode first (TTB's convention for
        # its 0-indexed equivalent; matches the matricization column order).
        K = khatrirao_ttb(
            [np.asarray(factors[k]) for k in range(tensor.ndim - 1, -1, -1) if k != n]
        )
    with blas_threads(T), tr.span("gemm"):
        return Xn @ K


@dataclass
class TTBResult:
    """Outcome of :func:`cp_als_ttb` (mirrors CPALSResult's fields)."""

    factors: list[np.ndarray]
    weights: np.ndarray
    fits: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    iteration_times: list[float] = field(default_factory=list)

    @property
    def final_fit(self) -> float:
        if not self.fits:
            raise ValueError("no iterations were run")
        return self.fits[-1]

    @property
    def mean_iteration_time(self) -> float:
        times = self.iteration_times
        if not times:
            raise ValueError("no iterations were run")
        if len(times) > 2:
            times = times[1:]
        return float(np.mean(times))


def cp_als_ttb(
    tensor: DenseTensor,
    rank: int,
    n_iter_max: int = 50,
    tol: float = 1e-4,
    init: str | Sequence[np.ndarray] = "random",
    num_threads: int | None = None,
    rng: np.random.Generator | int | None = None,
) -> TTBResult:
    """``cp_als`` as Tensor Toolbox 2.6 computes it.

    Same ALS mathematics as :func:`repro.cpd.cp_als` but with the
    straightforward MTTKRP (and TTB's default ``tol=1e-4``), so that
    per-iteration time comparisons isolate the MTTKRP algorithms — the
    quantity Figure 7 reports.
    """
    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    N = tensor.ndim
    rng = np.random.default_rng(rng)
    if isinstance(init, str):
        if init != "random":
            raise ValueError("TTB reference supports only random init")
        factors = [rng.random((s, rank)) for s in tensor.shape]
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != N:
            raise ValueError(f"expected {N} initial factors, got {len(factors)}")

    norm_x = tensor.norm()
    if norm_x == 0.0:
        raise ValueError("cannot decompose a zero tensor")
    weights = np.ones(rank)
    grams = [f.T @ f for f in factors]
    tracer = get_tracer()
    result = TTBResult(factors=factors, weights=weights)
    previous_fit = -np.inf

    for it in range(n_iter_max):
        t0 = time.perf_counter()
        M = None
        for n in range(N):
            M = mttkrp_ttb(tensor, factors, n, num_threads=num_threads)
            H = np.ones((rank, rank))
            for k in range(N):
                if k != n:
                    H *= grams[k]
            with tracer.span("solve"):
                try:
                    factors[n] = np.linalg.solve(H, M.T).T
                except np.linalg.LinAlgError:
                    factors[n] = M @ np.linalg.pinv(H)
                if it == 0:
                    weights = np.linalg.norm(factors[n], axis=0)
                else:
                    weights = np.maximum(np.abs(factors[n]).max(axis=0), 1.0)
                weights = np.where(weights > 0, weights, 1.0)
                factors[n] /= weights
            grams[n] = factors[n].T @ factors[n]
        result.iteration_times.append(time.perf_counter() - t0)

        assert M is not None
        inner = float(np.einsum("ic,ic,c->", M, factors[N - 1], weights))
        H_all = np.ones((rank, rank))
        for g in grams:
            H_all *= g
        norm_y_sq = float(weights @ H_all @ weights)
        residual_sq = max(norm_x**2 - 2.0 * inner + norm_y_sq, 0.0)
        fit = 1.0 - np.sqrt(residual_sq) / norm_x
        result.fits.append(fit)
        result.iterations = it + 1
        if tol > 0 and abs(fit - previous_fit) < tol:
            result.converged = True
            break
        previous_fit = fit

    result.factors = factors
    result.weights = weights
    return result
