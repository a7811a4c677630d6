"""Fleet CP-ALS: decompose B small same-shape tensors simultaneously.

One ALS iteration for the whole fleet: every mode update runs one
batched MTTKRP (:func:`repro.batch.mttkrp.mttkrp_batched`), one stacked
Gram/Hadamard product ``(B, C, C)``, and one stacked
``np.linalg.solve`` — so per-item Python cost is amortized over the
batch exactly where it dominates (small tensors).  The per-item update
math mirrors :func:`repro.cpd.cp_als.cp_als` line by line (same weight
normalization, same fit-via-last-MTTKRP trick), so each item's iterates
match an independent single-tensor run to solver precision.

Items converge independently: a per-item convergence mask retires
finished items from the working set.  Once any item has converged the
remaining active items are gathered into workspace-held compaction
buffers (the tensor data is copied once per *shrink event*, not per
iteration), so finished items stop consuming MTTKRP, Gram, and solve
work entirely.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.batch.mttkrp import mttkrp_batched
from repro.batch.tensor import BatchedTensor
from repro.cpd.kruskal import KruskalTensor
from repro.obs import get_tracer
from repro.parallel.config import use_backend

__all__ = ["cp_als_batched", "BatchedCPResult"]


@dataclass
class BatchedCPResult:
    """Outcome of one fleet CP-ALS run.

    Attributes
    ----------
    factors:
        One stacked ``(B, I_k, C)`` array per mode (not normalized;
        pair with ``weights`` or use :meth:`model`).
    weights:
        Per-item column weights, shape ``(B, C)``.
    fits:
        Final fit ``1 - |X_b - Y_b|/|X_b|`` per item, shape ``(B,)``.
    converged:
        Per-item early-stop flags, shape ``(B,)``.
    iterations:
        Iterations each item actually ran, shape ``(B,)``.
    iteration_times:
        Wall seconds per fleet iteration (the active-item count falls
        as items converge, so late entries cover fewer items).
    tuning:
        The :class:`~repro.tune.cache.TuneRecord` behind the run's
        kernel pick when started with ``tune=True``, else ``None``.
    """

    factors: list[np.ndarray]
    weights: np.ndarray
    fits: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    iteration_times: list[float] = field(default_factory=list)
    tuning: object | None = None

    @property
    def batch(self) -> int:
        return int(self.weights.shape[0])

    def model(self, b: int) -> KruskalTensor:
        """Item ``b``'s fitted model (normalized, weight-sorted)."""
        return KruskalTensor(
            [np.array(f[b]) for f in self.factors], np.array(self.weights[b])
        ).normalize()


def cp_als_batched(
    batch: BatchedTensor,
    rank: int,
    n_iter_max: int = 50,
    tol: float = 1e-8,
    init: str | Sequence[np.ndarray] = "random",
    method: str = "auto",
    num_threads: int | None = None,
    backend: str | None = None,
    rng: np.random.Generator | int | None = None,
    workspace=None,
    tune: bool = False,
    cancel: "CancelToken | None" = None,
) -> BatchedCPResult:
    """Fit a rank-``C`` CP decomposition to every item of a batch.

    Parameters
    ----------
    batch:
        ``B`` same-shape dense tensors (:class:`BatchedTensor`).
    rank:
        Number of CP components ``C`` (shared across the fleet).
    n_iter_max:
        Maximum ALS iterations per item.
    tol:
        Per-item convergence tolerance on the fit change; ``tol <= 0``
        disables early stopping (every item runs ``n_iter_max``).
    init:
        ``"random"`` (seeded by ``rng``) or one explicit ``(B, I_k, C)``
        array per mode.
    method:
        Batched MTTKRP method for every mode update, one of
        :data:`~repro.batch.mttkrp.BATCHED_MTTKRP_METHODS`.  Ignored
        when ``tune=True``.
    num_threads / backend:
        Forwarded to the batched kernels (workers split the batch axis;
        iterates are bit-identical across backends and thread counts).
    rng:
        Seed/generator for random initialization.
    workspace:
        Optional :class:`~repro.parallel.workspace.Workspace` owning the
        kernel panels, Gram/Hadamard stacks and compaction buffers.  By
        default one is created and closed internally; pass your own to
        verify the zero-steady-state-allocation property (buffers are
        re-acquired only when the active set shrinks).
    tune:
        Resolve the stacked-vs-loop crossover once up front via
        :func:`repro.tune.batched.autotune_batched` and use that lane
        for every iteration (overrides ``method``).
    cancel:
        Optional :class:`~repro.util.cancel.CancelToken` polled at every
        *fleet* iteration boundary (the whole batch advances in
        lock-step, so cancellation is fleet-granular here; per-item
        retirement is what the convergence mask is for).  The token's
        ``on_progress(iteration, fit)`` hook receives the mean fit over
        the items still active this iteration.

    Returns
    -------
    BatchedCPResult

    Raises
    ------
    ValueError
        On rank/shape inconsistencies or if any item is a zero tensor.
    """
    if not isinstance(batch, BatchedTensor):
        raise TypeError(
            f"batch must be a BatchedTensor, got {type(batch).__name__}"
        )
    rank = int(rank)
    if rank <= 0:
        raise ValueError(f"rank must be positive, got {rank}")
    if n_iter_max <= 0:
        raise ValueError(f"n_iter_max must be positive, got {n_iter_max}")
    B = batch.batch
    N = batch.ndim
    shape = batch.shape

    if isinstance(init, str):
        if init != "random":
            raise ValueError(
                f"unknown batched init {init!r} (use 'random' or explicit "
                f"stacked factors)"
            )
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        factors = [
            rng.random((B, s, rank)) for s in shape
        ]
    else:
        factors = [np.array(f, dtype=np.float64, copy=True) for f in init]
        if len(factors) != N:
            raise ValueError(
                f"expected {N} initial stacked factors, got {len(factors)}"
            )
        for n, f in enumerate(factors):
            if f.shape != (B, shape[n], rank):
                raise ValueError(
                    f"init[{n}] has shape {f.shape}, expected "
                    f"{(B, shape[n], rank)}"
                )

    norm_x = batch.norms()
    if np.any(norm_x == 0.0):
        bad = np.flatnonzero(norm_x == 0.0)
        raise ValueError(
            f"cannot decompose zero tensors (items {bad.tolist()})"
        )

    tracer = get_tracer()
    flat = batch.flat

    weights = np.ones((B, rank))
    fits = np.zeros(B)
    previous_fit = np.full(B, -np.inf)
    iterations = np.zeros(B, dtype=np.int64)
    converged = np.zeros(B, dtype=bool)
    active = np.ones(B, dtype=bool)
    result = BatchedCPResult(
        factors=factors, weights=weights, fits=fits, converged=converged,
        iterations=iterations,
    )

    backend_scope = use_backend(backend) if backend is not None else nullcontext()
    with backend_scope, tracer.span(
        "cp_als_batched", rank=rank, batch=B, shape=list(shape),
        method=method, tune=tune,
    ):
        from repro.parallel.backend import get_executor
        from repro.parallel.config import resolve_threads
        from repro.parallel.workspace import Workspace

        T = resolve_threads(num_threads)
        executor = get_executor(T) if T > 1 else None
        ws = workspace if workspace is not None else Workspace(executor)
        own_ws = workspace is None
        if tune:
            from repro.tune.batched import autotune_batched

            record = autotune_batched(
                batch, factors, 0, num_threads=num_threads,
                workspace=ws,
            )
            result.tuning = record
            method = record.method
            ws.release("tune.")
        try:
            if cancel is not None:
                cancel.raise_if_cancelled()
            for it in range(n_iter_max):
                idx = np.flatnonzero(active)
                m = idx.size
                if m == 0:
                    break
                with tracer.span(f"iter[{it}]", active=int(m)):
                    t_start = time.perf_counter()
                    if m == B:
                        sub = batch
                        sub_factors = factors
                    else:
                        # Compact the active items.  The gather buffers
                        # are full-size and acquired once; data moves
                        # only when the active set shrank this round.
                        tbuf = ws.buffer(
                            "cpb.gather.tensor", (B, batch.size),
                            dtype=flat.dtype,
                        )
                        np.take(flat, idx, axis=0, out=tbuf[:m])
                        sub = BatchedTensor(tbuf[:m], shape)
                        sub_factors = []
                        for k in range(N):
                            fbuf = ws.buffer(
                                f"cpb.gather.factor{k}",
                                (B, shape[k], rank),
                            )
                            np.take(factors[k], idx, axis=0, out=fbuf[:m])
                            sub_factors.append(fbuf[:m])
                    sub_weights, M, h_all = _iterate_once(
                        sub, sub_factors, rank, it, method, num_threads,
                        tracer, ws,
                    )
                    if m != B:
                        for k in range(N):
                            factors[k][idx] = sub_factors[k]
                    weights[idx] = sub_weights
                    result.iteration_times.append(time.perf_counter() - t_start)

                    # Fit via the last mode's MTTKRP (see cp_als).
                    inner = np.einsum(
                        "bic,bic,bc->b", M, sub_factors[N - 1], sub_weights
                    )
                    norm_y_sq = np.einsum(
                        "bc,bcd,bd->b", sub_weights, h_all, sub_weights
                    )
                    nx = norm_x[idx]
                    residual_sq = np.maximum(
                        nx**2 - 2.0 * inner + norm_y_sq, 0.0
                    )
                    fit = 1.0 - np.sqrt(residual_sq) / nx
                    fits[idx] = fit
                    iterations[idx] = it + 1
                    if tol > 0:
                        done = np.abs(fit - previous_fit[idx]) < tol
                        converged[idx[done]] = True
                        active[idx[done]] = False
                    previous_fit[idx] = fit
                    # Fleet iteration boundary: stream the active-set
                    # mean fit, then honour cancellation/deadline.
                    if cancel is not None:
                        if cancel.on_progress is not None:
                            cancel.on_progress(it, float(np.mean(fit)))
                        cancel.raise_if_cancelled()
        finally:
            if own_ws:
                ws.close()
    return result


def _iterate_once(sub, sub_factors, rank, it, method, num_threads, tracer, ws):
    """One full ALS sweep over the active sub-batch.

    Returns ``(weights, M, h_all)``: the per-item weights after the
    last mode's update, the last mode's MTTKRP result, and the Hadamard
    of all N Gram stacks — the three ingredients of the caller's
    no-extra-pass fit computation.
    """
    m = sub.batch
    N = sub.ndim
    grams = ws.buffer("cpb.grams", (N, m, rank, rank))
    with tracer.span("gram"):
        for k in range(N):
            np.matmul(
                sub_factors[k].transpose(0, 2, 1), sub_factors[k],
                out=grams[k],
            )
    weights = None
    M = None
    for n in range(N):
        with tracer.span(f"mode[{n}]"):
            M = mttkrp_batched(
                sub, sub_factors, n, method=method,
                num_threads=num_threads, workspace=ws, slot="cpb.mttkrp",
            )
            with tracer.span("gram"):
                H = ws.buffer("cpb.hadamard", (m, rank, rank))
                H[...] = 1.0
                for k in range(N):
                    if k != n:
                        np.multiply(H, grams[k], out=H)
            with tracer.span("solve"):
                U = _solve_update_batched(M, H)
                # Same normalization schedule as cp_als: column 2-norms
                # on the first iteration, max-norms (floored at 1) after.
                if it == 0:
                    weights = np.linalg.norm(U, axis=1)
                else:
                    weights = np.maximum(np.abs(U).max(axis=1), 1.0)
                weights = np.where(weights > 0, weights, 1.0)
                # Rebind rather than write in place: the process
                # backend's operand marshalling caches exports by array
                # identity, so an in-place update would re-serve the
                # pre-update factor to the workers.
                sub_factors[n] = U / weights[:, None, :]
            np.matmul(
                sub_factors[n].transpose(0, 2, 1), sub_factors[n],
                out=grams[n],
            )
    h_all = ws.buffer("cpb.hadamard_all", (m, rank, rank))
    h_all[...] = 1.0
    for k in range(N):
        np.multiply(h_all, grams[k], out=h_all)
    return weights, M, h_all


def _solve_update_batched(M: np.ndarray, H: np.ndarray) -> np.ndarray:
    """Stacked ``U_b = M_b H_b^+`` (one LAPACK call for the fleet).

    A single singular item would fail the stacked solve, so on
    ``LinAlgError`` the batch degrades to per-item solves with the same
    pseudoinverse fallback :func:`repro.cpd.cp_als._solve_update` uses.
    """
    try:
        return np.linalg.solve(H, M.transpose(0, 2, 1)).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        out = np.empty_like(M)
        for b in range(M.shape[0]):
            try:
                out[b] = np.linalg.solve(H[b], M[b].T).T
            except np.linalg.LinAlgError:
                out[b] = M[b] @ np.linalg.pinv(H[b])
        return out
