"""Unified MTTKRP entry point with the paper's per-mode algorithm policy.

Section 5.3.3: "Our C implementation of CP-ALS employs Algorithm 3 (1-step)
for both outer modes and Algorithm 4 (2-step) for all inner modes."  That is
exactly what ``method="auto"`` does (noting the two algorithms coincide for
external modes anyway).
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

from repro.core.dimtree import mttkrp_dimtree
from repro.core.mttkrp_baseline import mttkrp_baseline
from repro.core.mttkrp_blocked import mttkrp_blocked
from repro.core.mttkrp_onestep import mttkrp_onestep, mttkrp_onestep_sequential
from repro.core.mttkrp_twostep import mttkrp_twostep
from repro.obs import get_tracer
from repro.parallel.config import use_backend
from repro.tensor.dense import DenseTensor
from repro.util.validation import check_mode

__all__ = ["mttkrp", "MTTKRP_METHODS"]

MTTKRP_METHODS = (
    "auto",
    "autotune",
    "onestep",
    # onestep-seq is strictly dominated by "onestep" at every thread
    # count the tuner would measure, so it is deliberately absent from
    # the autotuner candidate set (it exists for oracle/ablation use).
    "onestep-seq",  # repro: ignore[RA010]
    "twostep",
    "blocked",
    "dimtree",
    "baseline",
)

# Keyword arguments that configure the *execution environment* of a
# kernel rather than its mathematics.  When the autotuner resolves
# ``method="autotune"`` to a concrete kernel, only these are forwarded
# from the caller's kwargs (and only to kernels that accept them) — the
# mathematical kwargs come from the tuning record itself.
_TUNE_PASSTHROUGH = ("workspace", "executor", "slot")


def mttkrp(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    method: str = "auto",
    num_threads: int | None = None,
    backend: str | None = None,
    **kwargs,
) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product for mode ``n``.

    ``M = X_(n) . (U_{N-1} krp ... krp U_{n+1} krp U_{n-1} krp ... krp U_0)``

    Parameters
    ----------
    tensor:
        Dense tensor in natural layout.
    factors:
        One ``I_k x C`` factor matrix per mode (the mode-``n`` matrix does
        not enter the computation but fixes shapes, matching CP-ALS usage).
    n:
        Output mode (negative values allowed, numpy-style).
    method:
        * ``"auto"`` — the paper's CP-ALS policy: 1-step for external
          modes, 2-step for internal modes;
        * ``"autotune"`` — empirical selection (:mod:`repro.tune`): the
          fastest kernel measured for this ``(shape, rank, mode,
          threads, backend, dtype)`` key, served from the persisted
          tuning cache after the first call.  2-way tensors skip
          measurement entirely (every kernel is the same single GEMM).
          Caller kwargs other than ``workspace``/``executor``/``slot``
          are ignored — the tuning record supplies the kernel kwargs;
        * ``"onestep"`` — Algorithm 3 (the recommended 1-step variant,
          also for ``num_threads=1``);
        * ``"onestep-seq"`` — Algorithm 2 (explicit full KRP);
        * ``"twostep"`` — Algorithm 4 (internal modes only; external modes
          fall back to 1-step, which it degenerates to).  The spec forms
          ``"twostep:left"``/``"twostep:right"`` pin the ordering (same
          as ``side=``) — this is the label syntax tuning records use,
          so a recorded pick can be replayed verbatim;
        * ``"blocked"`` — the cache-blocked kernel family
          (:mod:`repro.core.mttkrp_blocked`): KRP tiles formed in
          cache-resident buffers, tile shapes derived from the
          Ballard-Rouse-Knight communication lower bound against the
          machine model's cache capacity; accepts ``cache_bytes=``;
        * ``"dimtree"`` — the dimension-tree node path for a single mode
          (half-tensor partial contraction + node MTTKRP, see
          :func:`repro.core.dimtree.mttkrp_dimtree`); accepts
          ``workspace=``/``executor=``/``slot=``;
        * ``"baseline"`` — explicit reorder + full KRP + single GEMM.
    num_threads:
        Thread count; defaults to the package-wide setting.
    backend:
        Execution backend for the parallel regions, ``"thread"`` or
        ``"process"`` (see :mod:`repro.parallel.backend`); defaults to the
        package-wide setting (``set_backend()`` / ``REPRO_BACKEND``).
    **kwargs:
        Forwarded to the selected implementation (e.g. ``side=`` for
        ``"twostep"``).

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
    external = n == 0 or n == tensor.ndim - 1
    if method == "auto":
        method = "onestep" if external else "twostep"
    autotuned = method == "autotune"
    if autotuned:
        from repro.tune.tuner import autotune

        record = autotune(
            tensor,
            factors,
            n,
            num_threads=num_threads,
            backend=backend,
            workspace=kwargs.get("workspace"),
        )
        method = record.method
        resolved_kwargs = dict(record.kwargs)
        if method == "dimtree":
            for key in _TUNE_PASSTHROUGH:
                if key in kwargs:
                    resolved_kwargs[key] = kwargs[key]
        kwargs = resolved_kwargs
    if method.startswith("twostep:"):
        side_spec = method.partition(":")[2]
        if side_spec not in ("left", "right"):
            raise ValueError(
                f"unknown method {method!r}; the twostep spec form is "
                f"'twostep:left' or 'twostep:right'"
            )
        method = "twostep"
        kwargs.setdefault("side", side_spec)
    if method == "twostep" and external:
        # The paper: "for external modes, the 2-step algorithm degenerates
        # to the 1-step algorithm."
        method = "onestep"
        if kwargs:
            warnings.warn(
                f"mttkrp(method='twostep') degenerates to the 1-step "
                f"algorithm for external mode {n}; ignoring keyword "
                f"arguments {sorted(kwargs)} that the 1-step "
                f"implementation does not accept",
                UserWarning,
                stacklevel=2,
            )
            kwargs = {}
    if method not in MTTKRP_METHODS:
        raise ValueError(
            f"unknown method {method!r}; expected one of {MTTKRP_METHODS}"
        )

    tracer = get_tracer()
    backend_scope = use_backend(backend) if backend is not None else nullcontext()
    with backend_scope:
        if not tracer.enabled:
            return _run(tensor, factors, n, method, num_threads, kwargs)
        with tracer.span(
            f"mttkrp.{method}", mode=n, shape=list(tensor.shape),
            autotuned=autotuned,
        ) as span:
            # Each kernel attaches its own analytic flop/byte counters on
            # entry (record_mttkrp_cost) — they accumulate on this open
            # span; the dimtree path's phases carry theirs on the nested
            # partial/node spans.
            out = _run(tensor, factors, n, method, num_threads, kwargs)
            span.args["rank"] = int(out.shape[1])
            return out


def _run(tensor, factors, n, method, num_threads, kwargs):
    if method == "onestep":
        return mttkrp_onestep(tensor, factors, n, num_threads=num_threads, **kwargs)
    if method == "onestep-seq":
        return mttkrp_onestep_sequential(tensor, factors, n, **kwargs)
    if method == "twostep":
        return mttkrp_twostep(tensor, factors, n, num_threads=num_threads, **kwargs)
    if method == "blocked":
        return mttkrp_blocked(tensor, factors, n, num_threads=num_threads, **kwargs)
    if method == "dimtree":
        return mttkrp_dimtree(tensor, factors, n, num_threads=num_threads, **kwargs)
    assert method == "baseline"
    return mttkrp_baseline(tensor, factors, n, num_threads=num_threads, **kwargs)
