"""Cache-blocked MTTKRP guided by the communication lower bound.

The 1-step kernels (:mod:`repro.core.mttkrp_onestep`) already avoid
reordering tensor entries, but they still materialize Khatri-Rao panels in
memory: external modes form each worker's full KRP slice (``I_other/T x C``
words written and re-read), internal modes write every broadcast block
``K_t = K_R(j,:) (hadamard) K_L`` to a ~4 MiB panel.  Against the
Ballard-Rouse-Knight floor (:func:`repro.core.flops.mttkrp_comm_lower_bound`)
that panel traffic is pure overhead: the compulsory terms are one read of
the tensor, one read of the factors and one write of the output.

This module's kernels close that gap by **tiling the contraction over
cache-sized blocks** chosen analytically from the bound instantiated
against the machine model's measured cache capacity
(:attr:`repro.machine.model.MachineModel.cache_bytes`):

* **external modes** (``n = 0`` or ``n = N-1``): the matricization's
  columns are cut into tiles of ``tile`` columns such that the tensor tile
  (``I_n x tile``), the KRP tile (``tile x C``) and the output
  (``I_n x C``) together fit in half the cache.  Each KRP tile is formed
  in a *reused cache-resident buffer* (:func:`repro.core.krp.krp_rows`
  starting mid-stream) and consumed by one GEMM-accumulate — the full KRP
  never exists, so its ``I_other * C`` words of write+read traffic
  disappear;
* **internal modes**: within the natural ``(I^R_n, I_n, I^L_n)`` block
  structure, the ``I^L_n`` extent is tiled so the tensor tile, the
  ``K_L`` tile, the broadcast ``K_t`` tile and the output stay
  cache-resident; ``K_t`` is formed tile-by-tile in a reused buffer
  instead of being written to a memory panel.

The parallel path partitions *tiles* (external) or *blocks* (internal)
across the existing executor abstraction — contiguous ranges via
``parallel_for``, private output slabs, tree reduction — so thread and
process backends produce bit-identical results at fixed ``T`` and the
RA001 shared-write analysis stays clean (all shared writes are indexed by
``worker`` or derived from the partition).

Tile selection is exposed as :func:`choose_tiles` so the tests, the cost
model (:func:`repro.core.flops.blocked_cost`) and the docs
(``docs/blocking.md``) can all point at one derivation.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.flops import record_mttkrp_cost
from repro.core.krp import krp_rows
from repro.core.mttkrp_onestep import krp_operands
from repro.obs import get_tracer
from repro.parallel.backend import get_executor
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import mode_products
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp_blocked", "choose_tiles", "TilePlan"]

_clock = time.perf_counter


@dataclass(frozen=True)
class TilePlan:
    """Analytic tile choice for one mode-``n`` blocked MTTKRP.

    Attributes
    ----------
    external:
        Whether mode ``n`` is external (tile = matricization columns) or
        internal (tile = ``I^L_n`` extent within each block).
    tile:
        Tile length in the tiled dimension (columns of ``X_(n)`` for
        external modes, ``I^L_n`` sub-range for internal modes).
    num_tasks:
        Parallel work items: column tiles (external) or matricization
        blocks ``I^R_n`` (internal).
    cache_bytes:
        The fast-memory capacity the plan was derived for.
    """

    external: bool
    tile: int
    num_tasks: int
    cache_bytes: float


def _resolve_cache_bytes(cache_bytes: float | None) -> float:
    if cache_bytes is not None:
        if cache_bytes <= 0:
            raise ValueError(f"cache_bytes must be positive, got {cache_bytes}")
        return float(cache_bytes)
    # Lazy import: repro.core must stay importable without repro.machine.
    from repro.machine.model import host_model_default

    return float(host_model_default().cache_bytes)


def choose_tiles(
    shape: Sequence[int],
    n: int,
    C: int,
    itemsize: int = 8,
    cache_bytes: float | None = None,
) -> TilePlan:
    """Pick the tile length that keeps the working set cache-resident.

    Derivation (see ``docs/blocking.md``): with a fast-memory target of
    ``M = cache_bytes / 2 / itemsize`` words (half the cache, leaving room
    for the streamed tensor lines), the per-tile working set is

    * external: tensor tile ``I_n * t`` + KRP tile ``t * C`` + output
      ``I_n * C``  =>  ``t <= (M - I_n C) / (I_n + C)``;
    * internal: tensor tile ``I_n * t`` + ``K_L`` tile ``t * C`` + ``K_t``
      tile ``t * C`` + output ``I_n C``  =>  ``t <= (M - I_n C) / (I_n + 2C)``,

    clamped to ``[1, extent]``.  When the output alone exceeds the target
    (tiny caches, fat modes) the tile degrades gracefully to the smallest
    useful length instead of failing — correctness never depends on the
    cache estimate.
    """
    shape = tuple(int(s) for s in shape)
    N = len(shape)
    n = check_mode(n, N)
    C = int(C)
    cache = _resolve_cache_bytes(cache_bytes)
    target_words = max(cache / 2.0 / max(int(itemsize), 1), 1.0)
    p = mode_products(shape, n)
    external = n == 0 or n == N - 1
    extent = p.other if external else p.left
    denom = p.size + (C if external else 2 * C)
    free = target_words - p.size * C
    if free >= denom:
        tile = int(free // denom)
    else:
        tile = max(int(target_words // denom), 1)
    tile = max(1, min(tile, extent))
    if external:
        num_tasks = -(-p.other // tile)  # ceil
    else:
        num_tasks = p.right
    return TilePlan(
        external=external,
        tile=tile,
        num_tasks=num_tasks,
        cache_bytes=cache,
    )


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


def mttkrp_blocked(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    cache_bytes: float | None = None,
) -> np.ndarray:
    """Communication-aware blocked MTTKRP for mode ``n``.

    Numerically equivalent to the other kernels (same tolerance class as
    the 1-step algorithm: per-tile GEMM partial sums accumulated in
    order); thread vs process backends are bit-identical at fixed ``T``.

    Parameters
    ----------
    tensor:
        Dense tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode.
    n:
        Output mode.
    num_threads:
        Worker count ``T``; defaults to the package-wide setting.
    cache_bytes:
        Fast-memory capacity for tile sizing; defaults to the host
        machine model's calibrated/default
        :attr:`~repro.machine.model.MachineModel.cache_bytes`.

    Returns
    -------
    numpy.ndarray
        The ``I_n x C`` MTTKRP result.

    Traced phases (:mod:`repro.obs` spans): ``"full_krp"`` (external) or
    ``"lr_krp"`` (internal), ``"gemm"``, and ``"reduce"`` (``T > 1``).
    """
    n, rank = _validate(tensor, factors, n)
    T = resolve_threads(num_threads)
    record_mttkrp_cost(
        get_tracer(), tensor.shape, n, rank, "blocked", T,
        cache_bytes=cache_bytes,
    )
    dtype = np.result_type(
        tensor.dtype, *[np.asarray(f).dtype for f in factors]
    )
    plan = choose_tiles(
        tensor.shape, n, rank,
        itemsize=np.dtype(dtype).itemsize,
        cache_bytes=cache_bytes,
    )
    if plan.external:
        return _blocked_external(tensor, factors, n, rank, T, plan, dtype)
    return _blocked_internal(tensor, factors, n, rank, T, plan, dtype)


# --------------------------------------------------------------------- #
# External modes: tile the matricization columns
# --------------------------------------------------------------------- #


def _external_range(
    Xn: np.ndarray,
    operands: list[np.ndarray],
    Mt: np.ndarray,
    tile: int,
    kstart: int,
    kstop: int,
) -> int:
    """Accumulate column tiles ``[kstart, kstop)`` into ``Mt``.

    Tile ``k`` covers columns ``[k*tile, (k+1)*tile)``; the KRP tile for
    that range is formed mid-stream into a reused buffer (never touching
    memory at steady state) and immediately consumed by one
    GEMM-accumulate.  Returns the GEMM call count.
    """
    total_cols = Xn.shape[1]
    C = Mt.shape[1]
    kbuf = np.empty((tile, C), dtype=np.result_type(*operands), order="C")
    gbuf = np.empty(Mt.shape, dtype=Mt.dtype, order="C")
    tracer = get_tracer()
    traced = tracer.enabled
    tk = tg = 0.0
    span_start = _clock() if traced else 0.0
    for k in range(kstart, kstop):
        c0 = k * tile
        c1 = min(c0 + tile, total_cols)
        if traced:
            t0 = _clock()
        Kt = krp_rows(operands, c0, c1, out=kbuf[: c1 - c0])
        if traced:
            t1 = _clock()
        np.matmul(Xn[:, c0:c1], Kt, out=gbuf)
        Mt += gbuf
        if traced:
            tk += t1 - t0
            tg += _clock() - t1
    calls = max(kstop - kstart, 0)
    if traced and calls:
        # One span pair per worker range (per-tile spans would dominate
        # the trace at fine tiles).
        mid = span_start + tk
        tracer.record("full_krp", span_start, mid, tiles=calls)
        tracer.record("gemm", mid, mid + tg, tiles=calls)
    return calls


def _k_blocked_external(
    worker: int,
    start: int,
    stop: int,
    tensor: DenseTensor,
    n: int,
    operands: list[np.ndarray],
    tile: int,
    out: np.ndarray,
    gemm_calls: np.ndarray,
) -> None:
    """Region kernel: one worker's contiguous range of column tiles.

    Module-level (not a closure) so the process backend ships it by
    reference; the matricization view is rebuilt inside the worker over
    the shared buffer.  All shared writes are indexed by ``worker``.
    """
    Xn = tensor.unfold_mode0() if n == 0 else tensor.unfold_last()
    gemm_calls[worker] = _external_range(
        Xn, operands, out[worker], tile, start, stop
    )


def _blocked_external(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    rank: int,
    T: int,
    plan: TilePlan,
    dtype,
) -> np.ndarray:
    p = mode_products(tensor.shape, n)
    operands = krp_operands(factors, n)
    tr = get_tracer()

    if T == 1:
        Xn = tensor.unfold_mode0() if n == 0 else tensor.unfold_last()
        M = np.zeros((p.size, rank), dtype=dtype, order="C")
        calls = _external_range(Xn, operands, M, plan.tile, 0, plan.num_tasks)
        tr.add_counter("gemm_calls", calls)
        return M

    ex = get_executor(T)
    out = ex.allocate_private(T, (p.size, rank), dtype=dtype)
    gemm_calls = ex.allocate_shared((T,), dtype=np.int64)
    ex.parallel_for(
        _k_blocked_external,
        plan.num_tasks,
        args=(tensor, n, operands, plan.tile, out, gemm_calls),
        label="mttkrp.blocked.external",
    )
    tr.add_counter("gemm_calls", int(gemm_calls.sum()))
    with tr.span("reduce"):
        return ex.reduce(out, label="mttkrp.reduce").copy()


# --------------------------------------------------------------------- #
# Internal modes: tile the I^L_n extent within each block
# --------------------------------------------------------------------- #


def _internal_tiled_range(
    blocks3: np.ndarray,
    right_ops: list[np.ndarray],
    KL: np.ndarray,
    Mt: np.ndarray,
    tile: int,
    jstart: int,
    jstop: int,
) -> int:
    """Accumulate matricization blocks ``[jstart, jstop)`` into ``Mt``.

    The right-KRP rows for the whole range are formed once (a ``range x C``
    strip, cache-resident); each block's broadcast ``K_t`` is then built
    one ``tile x C`` slice at a time in a reused buffer and consumed by a
    GEMM-accumulate, so no KRP panel ever reaches memory.  Returns the
    GEMM call count.
    """
    ILn = KL.shape[0]
    C = KL.shape[1]
    tracer = get_tracer()
    with tracer.span("lr_krp", blocks=jstop - jstart):
        kr = krp_rows(right_ops, jstart, jstop)  # (range, C), small
    ktile = np.empty((tile, C), dtype=np.result_type(kr, KL), order="C")
    gbuf = np.empty(Mt.shape, dtype=Mt.dtype, order="C")
    calls = max(jstop - jstart, 0) * -(-ILn // tile)
    with tracer.span("gemm", tiles=calls):
        for j in range(jstart, jstop):
            krj = kr[j - jstart]
            for l0 in range(0, ILn, tile):
                l1 = min(l0 + tile, ILn)
                # K_t tile: K_R(j,:) broadcast-Hadamard K_L rows [l0, l1).
                np.multiply(krj[None, :], KL[l0:l1], out=ktile[: l1 - l0])
                np.matmul(blocks3[j][:, l0:l1], ktile[: l1 - l0], out=gbuf)
                Mt += gbuf
    return calls


def _k_blocked_internal(
    worker: int,
    jstart: int,
    jstop: int,
    tensor: DenseTensor,
    n: int,
    right_ops: list[np.ndarray],
    KL: np.ndarray,
    tile: int,
    out: np.ndarray,
    gemm_calls: np.ndarray,
) -> None:
    """Region kernel: one worker's contiguous range of matricization blocks."""
    blocks3 = tensor.mode_blocks_view(n)  # (IRn, In, ILn)
    gemm_calls[worker] = _internal_tiled_range(
        blocks3, right_ops, KL, out[worker], tile, jstart, jstop
    )


def _blocked_internal(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    rank: int,
    T: int,
    plan: TilePlan,
    dtype,
) -> np.ndarray:
    p = mode_products(tensor.shape, n)
    tr = get_tracer()
    right_ops = [np.asarray(factors[k]) for k in range(tensor.ndim - 1, n, -1)]
    left_ops = [np.asarray(factors[k]) for k in range(n - 1, -1, -1)]

    with tr.span("lr_krp"):
        # K_L = U_{n-1} krp ... krp U_0, formed once.  Unlike the 1-step
        # kernel this is the *only* KRP that touches memory; the broadcast
        # K_t tiles stay in the workers' cache-resident buffers.
        KL = krp_rows(left_ops, 0, p.left)

    if T == 1:
        M = np.zeros((p.size, rank), dtype=dtype, order="C")
        calls = _internal_tiled_range(
            tensor.mode_blocks_view(n), right_ops, KL, M, plan.tile, 0, p.right
        )
        tr.add_counter("gemm_calls", calls)
        return M

    ex = get_executor(T)
    out = ex.allocate_private(T, (p.size, rank), dtype=dtype)
    gemm_calls = ex.allocate_shared((T,), dtype=np.int64)
    ex.parallel_for(
        _k_blocked_internal,
        p.right,
        args=(tensor, n, right_ops, KL, plan.tile, out, gemm_calls),
        label="mttkrp.blocked.internal",
    )
    tr.add_counter("gemm_calls", int(gemm_calls.sum()))
    with tr.span("reduce"):
        return ex.reduce(out, label="mttkrp.reduce").copy()
