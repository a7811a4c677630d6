"""Nonnegative CP decomposition via HALS, built on the fast MTTKRP kernels.

The paper's related work (Liavas et al. [16]) concerns parallel
*nonnegative* tensor factorization — and the fMRI application itself is
naturally nonnegative (network loadings, subject expressions).  This module
adds NCP to the application layer using exactly the same MTTKRP kernels, so
the paper's performance work carries over unchanged: per sweep, the cost is
one MTTKRP per mode plus ``O(C^2 I_n)`` column updates.

Algorithm: HALS (hierarchical alternating least squares; Cichocki et al.).
For mode ``n`` with MTTKRP ``M`` and Hadamard-of-Grams ``H``:

    for each component c:
        u_c <- max( u_c + (M(:,c) - U_n H(:,c)) / H(c,c) , 0 )

which is the exact coordinate-wise minimizer of the mode-``n`` subproblem
under nonnegativity.  HALS converges monotonically (each column update
cannot increase the objective).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.dispatch import mttkrp
from repro.cpd.gram import GramCache
from repro.cpd.kruskal import KruskalTensor
from repro.obs import get_tracer
from repro.tensor.dense import DenseTensor

__all__ = ["cp_nnhals", "NNCPResult"]


@dataclass
class NNCPResult:
    """Outcome of a nonnegative CP (HALS) run."""

    model: KruskalTensor
    fits: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    iteration_times: list[float] = field(default_factory=list)

    @property
    def final_fit(self) -> float:
        """Fit after the last sweep."""
        if not self.fits:
            raise ValueError("no iterations were run")
        return self.fits[-1]


def cp_nnhals(
    tensor: DenseTensor,
    rank: int,
    n_iter_max: int = 100,
    tol: float = 1e-8,
    init: str | Sequence[np.ndarray] = "random",
    method: str = "auto",
    num_threads: int | None = None,
    rng: np.random.Generator | int | None = None,
    epsilon: float = 1e-12,
) -> NNCPResult:
    """Fit a rank-``C`` *nonnegative* CP decomposition with HALS.

    Parameters
    ----------
    tensor:
        Dense tensor (entries need not be nonnegative, but the model will
        be; for data with negative entries the fit ceiling is < 1).
    rank:
        Number of components.
    n_iter_max, tol:
        Sweep limit and fit-change convergence tolerance (``tol <= 0``
        disables early stopping).
    init:
        ``"random"`` (uniform, hence feasible) or explicit nonnegative
        factor matrices.
    method:
        MTTKRP method (as in :func:`repro.cpd.cp_als.cp_als`).
    num_threads:
        Thread count for the MTTKRP kernels.
    rng:
        Seed/generator for random initialization.
    epsilon:
        Floor applied inside column updates to avoid exact-zero columns
        (standard HALS safeguard: a zero column would make its Gram
        diagonal zero and stall the component forever).

    Returns
    -------
    NNCPResult
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if n_iter_max <= 0:
        raise ValueError(f"n_iter_max must be positive, got {n_iter_max}")
    N = tensor.ndim
    if N < 2:
        raise ValueError("NCP requires an order >= 2 tensor")

    gen = np.random.default_rng(rng)
    if isinstance(init, str):
        if init != "random":
            raise ValueError("cp_nnhals supports only random init by name")
        factors = [gen.random((s, rank)) for s in tensor.shape]
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != N:
            raise ValueError(f"expected {N} initial factors, got {len(factors)}")
        for n, f in enumerate(factors):
            if f.shape != (tensor.shape[n], rank):
                raise ValueError(
                    f"init[{n}] has shape {f.shape}, expected "
                    f"{(tensor.shape[n], rank)}"
                )
            if (f < 0).any():
                raise ValueError(f"init[{n}] has negative entries")

    norm_x = tensor.norm()
    if norm_x == 0.0:
        raise ValueError("cannot decompose a zero tensor")

    grams = GramCache(factors)
    tracer = get_tracer()
    result = NNCPResult(model=KruskalTensor(factors, np.ones(rank)))
    previous_fit = -np.inf

    for it in range(n_iter_max):
        t_start = time.perf_counter()
        M = None
        for n in range(N):
            M = mttkrp(
                tensor,
                factors,
                n,
                method=method,
                num_threads=num_threads,
            )
            with tracer.span("gram"):
                H = grams.hadamard(skip=n)
            with tracer.span("hals"):
                U = factors[n]
                for c in range(rank):
                    h_cc = H[c, c]
                    if h_cc <= 0:
                        continue
                    # Exact coordinate minimizer, projected to >= 0.
                    update = U[:, c] + (M[:, c] - U @ H[:, c]) / h_cc
                    np.maximum(update, 0.0, out=update)
                    # Safeguard against a dead (all-zero) component.
                    if not update.any():
                        update[:] = epsilon
                    U[:, c] = update
            grams.update(n)
        result.iteration_times.append(time.perf_counter() - t_start)

        # Fit via the final mode's MTTKRP (same trick as cp_als; weights
        # are implicit/unit in HALS).
        assert M is not None
        inner = float(np.einsum("ic,ic->", M, factors[N - 1]))
        H_all = grams.hadamard_all()
        norm_y_sq = float(H_all.sum())
        residual_sq = max(norm_x**2 - 2.0 * inner + norm_y_sq, 0.0)
        fit = 1.0 - np.sqrt(residual_sq) / norm_x
        result.fits.append(fit)
        result.iterations = it + 1
        if tol > 0 and abs(fit - previous_fit) < tol:
            result.converged = True
            break
        previous_fit = fit

    result.model = KruskalTensor(
        [f.copy() for f in factors], np.ones(rank)
    ).normalize()
    return result
