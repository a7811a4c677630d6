"""2-step MTTKRP (Algorithm 4; Phan et al. [19] as presented in the paper).

The computation is split into a **partial MTTKRP** — one large GEMM between
a multi-mode matricization of the tensor (which the natural layout makes
column- or row-major, so no entries are reordered) and a *partial* KRP —
followed by a **multi-TTV** that contracts the intermediate against the
remaining factor matrices' columns, one GEMV per rank column.

Either ordering is mathematically valid:

* **right-first** (Figure 3a/3b): ``R_(0:n) = X_(0:n) . K_R`` (``X_(0:n)``
  is column-major), then the multi-TTV contracts modes ``0..n-1`` against
  ``K_L``'s columns;
* **left-first** (Figure 3c/3d): ``L = X_(0:n-1)^T . K_L`` (the transpose
  is row-major), then the multi-TTV contracts modes ``n+1..N-1`` against
  ``K_R``'s columns.

Both orderings do the same flops in step 1; Algorithm 4 picks the ordering
whose *second* step touches the smaller intermediate — left-first iff
``I^L_n > I^R_n``.  ``side="left"``/``"right"`` force an ordering (the
ablation benchmark uses this); ``side="auto"`` applies the paper's rule.

For external modes the 2-step algorithm degenerates to the 1-step
algorithm, so this module only defines behaviour for internal modes
(``0 < n < N-1``) and raises otherwise — callers wanting transparent
fallback should use :func:`repro.core.dispatch.mttkrp`.

Parallelism lives entirely inside the BLAS calls (the paper's Algorithm 4
serves as both the sequential and parallel variant); ``num_threads`` is
forwarded to the BLAS runtime via :func:`repro.parallel.blas.blas_threads`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.flops import record_mttkrp_cost
from repro.core.krp import khatri_rao
from repro.obs import get_tracer
from repro.parallel.backend import get_executor
from repro.parallel.blas import assert_native_layout, blas_threads
from repro.parallel.config import get_backend, resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from repro.tensor.ttv import multi_ttv
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp_twostep", "mttkrp_twostep_blocked", "choose_side"]


def choose_side(shape: Sequence[int], n: int) -> str:
    """The paper's ordering rule: left-first iff ``I^L_n > I^R_n``.

    The 2nd step's flop count is ``2 * C * I_n * I^R_n`` (left-first) or
    ``2 * C * I_n * I^L_n`` (right-first); picking the larger of
    ``I^L_n, I^R_n`` for step 1 leaves the smaller for step 2.
    """
    p = mode_products(tuple(int(s) for s in shape), int(n))
    return "left" if p.left > p.right else "right"


def mttkrp_twostep(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    side: str = "auto",
) -> np.ndarray:
    """Algorithm 4: 2-step MTTKRP for an internal mode.

    Parameters
    ----------
    tensor:
        Input tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode.
    n:
        Output mode; must be internal (``0 < n < N-1``).
    num_threads:
        BLAS thread budget for the two steps; defaults to the package-wide
        setting.
    side:
        ``"auto"`` (paper rule), ``"left"``, or ``"right"``.

    Traced phases (:mod:`repro.obs` spans): ``"lr_krp"`` (forming both
    partial KRPs), ``"gemm"`` (the partial MTTKRP) and ``"gemv"`` (the
    multi-TTV).

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP result.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    rank = check_factor_matrices(list(factors), tensor.shape)
    if tensor.ndim < 3 or n == 0 or n == tensor.ndim - 1:
        raise ValueError(
            f"2-step MTTKRP is defined only for internal modes "
            f"(0 < n < N-1); got n={n} for an order-{tensor.ndim} tensor. "
            f"Use repro.core.dispatch.mttkrp for automatic fallback."
        )
    if side not in ("auto", "left", "right"):
        raise ValueError(f"side must be 'auto', 'left' or 'right', got {side!r}")
    T = resolve_threads(num_threads)
    tr = get_tracer()
    N = tensor.ndim
    record_mttkrp_cost(tr, tensor.shape, n, rank, "twostep", T)

    with tr.span("lr_krp"):
        # K_L = U_{n-1} krp ... krp U_0 (mode-0 index fastest);
        # K_R = U_{N-1} krp ... krp U_{n+1} (mode-(n+1) index fastest).
        KL = khatri_rao([np.asarray(factors[k]) for k in range(n - 1, -1, -1)])
        KR = khatri_rao([np.asarray(factors[k]) for k in range(N - 1, n, -1)])

    if side == "auto":
        side = choose_side(tensor.shape, n)

    # Under the process backend the multi-TTV's Python-level column loop is
    # fanned over worker processes; step 1's GEMM output is then computed
    # straight into a shared-memory buffer so the workers attach it
    # zero-copy.  Otherwise (thread backend, or one worker) everything runs
    # as in the sequential algorithm — step 1 is a single BLAS call either
    # way, so the two backends issue identical GEMMs.
    ex = (
        get_executor(T, backend="process")
        if T > 1 and get_backend() == "process"
        else None
    )
    C = KL.shape[1]
    res_dtype = np.result_type(tensor.dtype, KL.dtype)

    def _intermediate_buffer(entries: int) -> np.ndarray | None:
        if ex is None:
            return None
        return ex.allocate_shared((entries,), dtype=res_dtype)

    with blas_threads(T):
        if side == "left":
            cols = tensor.size // int(np.prod(tensor.shape[:n]))
            buf = _intermediate_buffer(C * cols)
            # Step 1 (Fig. 3c): L = X_(0:n-1)^T . K_L; the transpose view is
            # row-major, so this is a single well-shaped GEMM.
            with tr.span("gemm", side="left"):
                # Computed transposed (L^T = K_L^T . X_(0:n-1)) so the
                # C-contiguous GEMM output *is* the natural layout of L —
                # same BLAS call, no data movement afterwards.
                tr.add_counter("gemm_calls", 1)
                if buf is None:
                    LmatT = KL.T @ tensor.unfold_front(n - 1)
                    flat = LmatT.ravel()
                else:
                    # Runtime backing for the RA004 suppression below
                    # (checked only under REPRO_SANITIZE).
                    assert_native_layout(
                        buf.reshape((C, cols)), "twostep.gemm.left.out"
                    )
                    np.matmul(
                        KL.T, tensor.unfold_front(n - 1),
                        # buf is a flat 1-D shared allocation, so this
                        # reshape is C-contiguous.  # repro: ignore[RA004]
                        out=buf.reshape((C, cols)),
                    )
                    flat = buf
            # L is the (I_n x I_{n+1} x ... x I_{N-1} x C) intermediate in
            # natural layout (rows of L linearize modes n.., mode n fastest),
            # reinterpreted for free.
            L = DenseTensor(flat, tensor.shape[n:] + (C,))
            with tr.span("gemv", side="left"):
                # Step 2 (Fig. 3d): contract trailing modes against K_R's
                # columns, one GEMV per rank column.
                tr.add_counter("gemv_calls", C)
                return multi_ttv(
                    L, [np.asarray(factors[k]) for k in range(n + 1, N)],
                    leading=True, executor=ex,
                )
        else:
            cols = int(np.prod(tensor.shape[: n + 1]))
            buf = _intermediate_buffer(C * cols)
            # Step 1 (Fig. 3a): R = X_(0:n) . K_R on the column-major view.
            with tr.span("gemm", side="right"):
                # Transposed form (R^T = K_R^T . X_(0:n)^T) for the same
                # reason: the GEMM writes R directly in natural layout.
                tr.add_counter("gemm_calls", 1)
                if buf is None:
                    RmatT = KR.T @ tensor.unfold_front(n).T
                    flat = RmatT.ravel()
                else:
                    # Runtime backing for the RA004 suppression below
                    # (checked only under REPRO_SANITIZE).
                    assert_native_layout(
                        buf.reshape((C, cols)), "twostep.gemm.right.out"
                    )
                    np.matmul(
                        KR.T, tensor.unfold_front(n).T,
                        # buf is a flat 1-D shared allocation, so this
                        # reshape is C-contiguous.  # repro: ignore[RA004]
                        out=buf.reshape((C, cols)),
                    )
                    flat = buf
            R = DenseTensor(flat, tensor.shape[: n + 1] + (C,))
            with tr.span("gemv", side="right"):
                # Step 2 (Fig. 3b): contract leading modes against K_L's
                # columns.
                tr.add_counter("gemv_calls", C)
                return multi_ttv(
                    R, [np.asarray(factors[k]) for k in range(n)],
                    leading=False, executor=ex,
                )


def mttkrp_twostep_blocked(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    max_intermediate_entries: int,
    num_threads: int | None = None,
    side: str = "auto",
) -> np.ndarray:
    """Constant-memory 2-step MTTKRP via blocking (Vannieuwenhoven et al.).

    The plain 2-step algorithm materializes an intermediate of
    ``I^L_n * I_n * C`` (right-first) or ``I_n * I^R_n * C`` (left-first)
    entries — for large tensors this temporary can rival the tensor
    itself.  Vannieuwenhoven, Meerbergen and Vandebril [25] observe the
    partial MTTKRP and the multi-TTV can be *interleaved blockwise*: each
    block of the intermediate is produced by a GEMM on a contiguous slice
    of the matricization view and consumed immediately by its multi-TTV
    contribution, so only one block is ever alive.  They report (and the
    paper relays) that capping the footprint does not hurt performance;
    the ablation benchmark ``test_ablation_blocked_twostep`` checks that
    here.

    Blocking axes (both keep every GEMM on contiguous natural-layout
    views):

    * right-first: block over the output mode ``I_n`` — intermediate rows
      ``[i0*I^L_n, i1*I^L_n)`` are a contiguous row range of ``X_(0:n)``;
      each block finishes its own output rows ``M[i0:i1, :]``.
    * left-first: block over ``I^R_n`` — intermediate rows
      ``[r0*I_n, r1*I_n)`` are a contiguous row range of
      ``X_(0:n-1)^T``; blocks *accumulate* into the full output.

    Parameters
    ----------
    max_intermediate_entries:
        Upper bound on the number of intermediate entries alive at once
        (the block size is derived from it; at least one block row-group
        is always used, so pathologically small budgets degrade to
        fine-grained blocking rather than failing).
    Other parameters as in :func:`mttkrp_twostep`.
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    check_factor_matrices(list(factors), tensor.shape)
    if tensor.ndim < 3 or n == 0 or n == tensor.ndim - 1:
        raise ValueError(
            "blocked 2-step MTTKRP is defined only for internal modes"
        )
    if side not in ("auto", "left", "right"):
        raise ValueError(f"side must be 'auto', 'left' or 'right', got {side!r}")
    max_intermediate_entries = int(max_intermediate_entries)
    if max_intermediate_entries <= 0:
        raise ValueError("max_intermediate_entries must be positive")
    T = resolve_threads(num_threads)
    tr = get_tracer()
    N = tensor.ndim
    p = mode_products(tensor.shape, n)
    rank = np.asarray(factors[0]).shape[1]

    with tr.span("lr_krp"):
        KL = khatri_rao([np.asarray(factors[k]) for k in range(n - 1, -1, -1)])
        KR = khatri_rao([np.asarray(factors[k]) for k in range(N - 1, n, -1)])
    if side == "auto":
        side = choose_side(tensor.shape, n)

    M = np.zeros((p.size, rank), dtype=tensor.dtype, order="C")
    with blas_threads(T):
        if side == "right":
            # Block over I_n: rows_per_group intermediate rows = group*ILn.
            group = max(max_intermediate_entries // (p.left * rank), 1)
            X = tensor.unfold_front(n)  # (ILn*In, IRn) column-major view
            for i0 in range(0, p.size, group):
                i1 = min(i0 + group, p.size)
                with tr.span("gemm"):
                    # Contiguous row slice of the column-major view.
                    Rb = KR.T @ X[i0 * p.left : i1 * p.left].T
                    # Rb is (C, (i1-i0)*ILn) C-contiguous == natural layout
                    # of the block of R.
                with tr.span("gemv"):
                    for j in range(rank):
                        sub = Rb[j].reshape((p.left, i1 - i0), order="F")
                        M[i0:i1, j] = KL[:, j] @ sub
        else:
            # Block over I^R_n; contributions accumulate into M.
            group = max(max_intermediate_entries // (p.size * rank), 1)
            XT = tensor.unfold_front(n - 1).T  # (In*IRn, ILn) row-major view
            for r0 in range(0, p.right, group):
                r1 = min(r0 + group, p.right)
                with tr.span("gemm"):
                    Lb = KL.T @ XT[r0 * p.size : r1 * p.size].T
                    # (C, (r1-r0)*In) C-contiguous.
                with tr.span("gemv"):
                    for j in range(rank):
                        sub = Lb[j].reshape((p.size, r1 - r0), order="F")
                        M[:, j] += sub @ KR[r0:r1, j]
    return M
