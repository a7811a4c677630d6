"""1-step MTTKRP (Algorithms 2 and 3 of the paper).

Computes ``M = X_(n) . (U_{N-1} krp ... krp U_{n+1} krp U_{n-1} krp ... krp
U_0)`` by multiplying the matricized tensor against an (explicit or
block-computed) Khatri-Rao product, **without reordering tensor entries**:

* mode 0: ``X_(0)`` is column-major, one GEMM against the full KRP;
* mode N-1: ``X_(N-1)`` is row-major, one GEMM against the full KRP;
* internal modes: ``X_(n)`` is a contiguous sequence of ``I^R_n`` row-major
  ``I_n x I^L_n`` blocks (Figure 2); the KRP is conformally partitioned
  into ``I^R_n`` row blocks of height ``I^L_n`` and the product is a block
  inner product — one GEMM per block.

Parallelization (Algorithm 3) distinguishes external and internal modes:

* **external** (``n = 0`` or ``n = N-1``): threads own contiguous *column*
  blocks of the matricization; each thread forms only its rows of the KRP
  (a variant of Algorithm 1 starting mid-stream) and GEMMs its slice into a
  private output, followed by a parallel reduction;
* **internal**: the *left* partial KRP ``K_L`` is precomputed in parallel;
  threads own contiguous ranges of matricization blocks, and for each block
  ``j`` compute the ``j``-th row of the right KRP, the rank-1 "KRP block"
  ``K_t = K_R(j,:) (hadamard-broadcast) K_L``, and one GEMM into a private
  output; a parallel reduction finishes.

As the paper notes (Section 5.3), running Algorithm 3 with one thread is
slightly more efficient and uses less memory than Algorithm 2 for internal
modes (it never materializes the full KRP), so :func:`mttkrp_onestep` with
``num_threads=1`` is the recommended sequential entry point; Algorithm 2 is
kept as :func:`mttkrp_onestep_sequential` for completeness and testing.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.flops import record_mttkrp_cost
from repro.core.krp import khatri_rao, krp_rows
from repro.core.krp_parallel import khatri_rao_parallel
from repro.obs import get_tracer
from repro.parallel.backend import get_executor
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp_onestep", "mttkrp_onestep_sequential", "krp_operands"]


def krp_operands(
    factors: Sequence[np.ndarray], n: int
) -> list[np.ndarray]:
    """KRP inputs for mode-``n`` MTTKRP, in the paper's order.

    ``K = U_{N-1} krp ... krp U_{n+1} krp U_{n-1} krp ... krp U_0``: all
    factors except mode ``n``, highest mode first.  With
    :func:`repro.core.krp.khatri_rao`'s convention (first input slowest)
    this makes mode 0's row index vary fastest — matching the natural-layout
    column ordering of ``X_(n)``.
    """
    return [np.asarray(factors[k]) for k in range(len(factors) - 1, -1, -1) if k != n]


def _validate(
    tensor: DenseTensor, factors: Sequence[np.ndarray], n: int
) -> tuple[int, int]:
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    rank = check_factor_matrices(list(factors), tensor.shape)
    if tensor.ndim < 2:
        raise ValueError("MTTKRP requires an order >= 2 tensor")
    return n, rank


def mttkrp_onestep_sequential(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
) -> np.ndarray:
    """Algorithm 2: sequential 1-step MTTKRP with an explicit full KRP.

    Parameters
    ----------
    tensor:
        Input tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode (mode ``n``'s entry is
        ignored by the math but must be present and well-shaped).
    n:
        Output mode.

    Traced phases (:mod:`repro.obs` spans): ``"full_krp"`` and
    ``"gemm"``.

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP result.
    """
    n, rank = _validate(tensor, factors, n)
    tr = get_tracer()
    record_mttkrp_cost(tr, tensor.shape, n, rank, "onestep-seq", 1)
    with tr.span("full_krp"):
        K = khatri_rao(krp_operands(factors, n))
    p = mode_products(tensor.shape, n)
    if n == 0:
        with tr.span("gemm"):
            tr.add_counter("gemm_calls", 1)
            return tensor.unfold_mode0() @ K  # X_(0) is column-major
    M = np.zeros(
        (p.size, rank),
        dtype=np.result_type(tensor.dtype, K.dtype),
        order="C",
    )
    blocks = tensor.mode_blocks_view(n)  # (IRn, In, ILn), row-major blocks
    with tr.span("gemm"):
        tr.add_counter("gemm_calls", p.right)
        for j in range(p.right):
            # Conformal partition: KRP row block j has height I^L_n.
            M += blocks[j] @ K[j * p.left : (j + 1) * p.left]
    return M


def mttkrp_onestep(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
) -> np.ndarray:
    """Algorithm 3: parallel 1-step MTTKRP.

    With ``num_threads=1`` this is the paper's preferred sequential variant
    (for internal modes it forms the left partial KRP and streams blocks of
    the full KRP instead of materializing it).

    Parameters
    ----------
    tensor:
        Input tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode.
    n:
        Output mode.
    num_threads:
        Thread count ``T``; defaults to the package-wide setting.

    Traced phases: ``"full_krp"`` (external modes), ``"lr_krp"``
    (internal modes: left KRP + per-block right-KRP rows and Hadamard
    broadcasts), ``"gemm"``, and ``"reduce"``.

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP result.
    """
    n, rank = _validate(tensor, factors, n)
    T = resolve_threads(num_threads)
    record_mttkrp_cost(get_tracer(), tensor.shape, n, rank, "onestep", T)
    if n == 0 or n == tensor.ndim - 1:
        return _onestep_external(tensor, factors, n, rank, T)
    return _onestep_internal(tensor, factors, n, rank, T)


def _k_external(
    worker: int,
    start: int,
    stop: int,
    tensor: DenseTensor,
    n: int,
    operands: list[np.ndarray],
    out: np.ndarray,
) -> None:
    """Region kernel for Alg. 3 lines 2-9: one worker's column block.

    Worker-private: rows ``[start, stop)`` of the KRP (Alg. 1 variant
    starting mid-stream) and the private output slab ``out[worker]``.
    Module-level (not a closure) so the process backend can ship it by
    reference; the matricization view is rebuilt inside the worker, which
    under shared memory has the exact strides of the parent's view.
    """
    # X_(0) is the column-major unfold; X_(N-1) the row-major one.  Either
    # way a contiguous *column* slice is directly GEMM-able.
    Xn = tensor.unfold_mode0() if n == 0 else tensor.unfold_last()
    tr = get_tracer()
    with tr.span("full_krp", worker=worker):
        Kt = krp_rows(operands, start, stop)
    with tr.span("gemm", worker=worker):
        np.matmul(Xn[:, start:stop], Kt, out=out[worker])


def _onestep_external(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    rank: int,
    T: int,
) -> np.ndarray:
    """External modes: parallelize over matricization columns (Alg. 3 l.2-9)."""
    p = mode_products(tensor.shape, n)
    operands = krp_operands(factors, n)
    tr = get_tracer()

    if T == 1:
        Xn = tensor.unfold_mode0() if n == 0 else tensor.unfold_last()
        with tr.span("full_krp"):
            K = krp_rows(operands, 0, p.other)
        with tr.span("gemm"):
            tr.add_counter("gemm_calls", 1)
            return Xn @ K

    ex = get_executor(T)
    out = ex.allocate_private(T, (p.size, rank), dtype=tensor.dtype)
    ex.parallel_for(
        _k_external,
        p.other,
        args=(tensor, n, operands, out),
        label="mttkrp.onestep.external",
    )
    tr.add_counter("gemm_calls", T)
    with tr.span("reduce"):
        return ex.reduce(out, label="mttkrp.reduce").copy()


def _internal_chunk(block_cols: int, rank: int, total_blocks: int) -> int:
    """Blocks per batched-GEMM chunk for the internal-mode loop.

    The per-block work (one ``I_n x I^L_n`` GEMM plus one broadcast
    Hadamard) is identical whether blocks are issued one BLAS call at a
    time (as in the paper's C code) or as a strided-batch GEMM; batching
    ``chunk`` consecutive blocks amortizes the Python dispatch overhead
    that a C implementation does not have.  The chunk is sized to keep the
    temporary KRP block panel around 4 MiB (cache-friendly, bounded
    memory), mirroring how vendor BLAS batch interfaces are used.
    """
    target_bytes = 4 << 20
    chunk = max(target_bytes // max(block_cols * rank * 8, 1), 1)
    return int(min(chunk, total_blocks, 8192))


def _internal_range(
    blocks3: np.ndarray,
    right_ops: list[np.ndarray],
    KL: np.ndarray,
    Mt: np.ndarray,
    jstart: int,
    jstop: int,
) -> int:
    """Process matricization blocks ``[jstart, jstop)`` into ``Mt``.

    Returns the batched-GEMM call count for the trace counters; each
    chunk's KRP and GEMM run under ``lr_krp``/``gemm`` spans on the
    calling (worker) thread.
    """
    rank = KL.shape[1]
    chunk = _internal_chunk(KL.shape[0], rank, jstop - jstart)
    calls = 0
    tr = get_tracer()
    for j0 in range(jstart, jstop, chunk):
        j1 = min(j0 + chunk, jstop)
        with tr.span("lr_krp", blocks=j1 - j0):
            # Rows j0..j1 of the right KRP (Alg. 1 variant, mid-stream
            # start), then the conformal KRP blocks K_t = K_R(j,:) (krp) K_L.
            kr = krp_rows(right_ops, j0, j1)  # (b, C)
            Kt = kr[:, None, :] * KL[None, :, :]  # (b, ILn, C)
        with tr.span("gemm", blocks=j1 - j0):
            # One GEMM per block, issued as a strided batch:
            # (b, In, ILn) @ (b, ILn, C) -> (b, In, C), summed into Mt.
            Mt += np.matmul(blocks3[j0:j1], Kt).sum(axis=0)
        calls += 1
    return calls


def _k_internal(
    worker: int,
    jstart: int,
    jstop: int,
    tensor: DenseTensor,
    n: int,
    right_ops: list[np.ndarray],
    KL: np.ndarray,
    out: np.ndarray,
    gemm_calls: np.ndarray,
) -> None:
    """Region kernel for Alg. 3 lines 10-17: one worker's block range.

    Module-level for the process backend; the 3-D block view of the
    matricization is rebuilt in the worker over the shared tensor buffer.
    """
    blocks3 = tensor.mode_blocks_view(n)  # (IRn, In, ILn)
    gemm_calls[worker] = _internal_range(
        blocks3, right_ops, KL, out[worker], jstart, jstop
    )


def _onestep_internal(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    rank: int,
    T: int,
) -> np.ndarray:
    """Internal modes: parallelize over matricization blocks (Alg. 3 l.10-17)."""
    p = mode_products(tensor.shape, n)
    tr = get_tracer()
    right_ops = [np.asarray(factors[k]) for k in range(tensor.ndim - 1, n, -1)]
    left_ops = [np.asarray(factors[k]) for k in range(n - 1, -1, -1)]

    if T == 1:
        with tr.span("lr_krp"):
            KL = khatri_rao_parallel(left_ops, num_threads=T)
        M = np.zeros((p.size, rank), dtype=tensor.dtype)
        calls = _internal_range(
            tensor.mode_blocks_view(n), right_ops, KL, M, 0, p.right
        )
        tr.add_counter("gemm_calls", calls)
        return M

    ex = get_executor(T)
    with tr.span("lr_krp"):
        # Left partial KRP K_L = U_{n-1} krp ... krp U_0, formed in parallel
        # on the same executor (under the process backend it lands directly
        # in a shared segment, so the region below attaches it zero-copy).
        KL = khatri_rao_parallel(left_ops, num_threads=T, executor=ex)

    out = ex.allocate_private(T, (p.size, rank), dtype=tensor.dtype)
    gemm_calls = ex.allocate_shared((T,), dtype=np.int64)
    ex.parallel_for(
        _k_internal,
        p.right,
        args=(tensor, n, right_ops, KL, out, gemm_calls),
        label="mttkrp.onestep.internal",
    )
    tr.add_counter("gemm_calls", int(gemm_calls.sum()))
    with tr.span("reduce"):
        return ex.reduce(out, label="mttkrp.reduce").copy()
