"""Baseline MTTKRP implementations from Section 2.3 / Section 5.3.

Two baselines appear in the paper:

* :func:`mttkrp_baseline` — the straightforward approach of Bader & Kolda:
  explicitly form the matricized tensor (reordering entries in memory),
  explicitly form the full KRP, and perform one GEMM.  This is what the
  Matlab packages do, and it is what the paper's algorithms improve on.
* :func:`mttkrp_gemm_lower_bound` — the paper's benchmark "Baseline": a
  *single GEMM between column-major matrices of the same dimensions as the
  matricized tensor and the KRP*.  It can be viewed as a lower bound on the
  straightforward approach because it excludes both the reorder time and
  the KRP-formation time.  The returned value is meaningless; only its cost
  matters, so the function returns the product *and* is instrumented for the
  harness.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.flops import gemm_lower_bound_cost, record_mttkrp_cost
from repro.core.krp import khatri_rao
from repro.core.mttkrp_onestep import krp_operands
from repro.obs import get_tracer
from repro.parallel.blas import blas_threads
from repro.parallel.config import resolve_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.matricize import unfold_explicit
from repro.util.validation import check_factor_matrices, check_mode

__all__ = ["mttkrp_baseline", "mttkrp_gemm_lower_bound"]


def mttkrp_baseline(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
) -> np.ndarray:
    """Straightforward MTTKRP: explicit reorder + explicit KRP + one GEMM.

    Parallelism is only inside the BLAS call (as in the Matlab packages).

    Parameters
    ----------
    tensor, factors, n:
        As in :func:`repro.core.mttkrp_onestep.mttkrp_onestep`.
    num_threads:
        BLAS thread budget.

    Traced phases (:mod:`repro.obs` spans): ``"reorder"``,
    ``"full_krp"`` and ``"gemm"``.

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
    T = resolve_threads(num_threads)
    tr = get_tracer()
    record_mttkrp_cost(tr, tensor.shape, n, rank, "baseline", T)
    with tr.span("reorder"):
        # The memory-bound entry reordering the paper's algorithms avoid.
        Xn = unfold_explicit(tensor, n, order="F")
    with tr.span("full_krp"):
        K = khatri_rao(krp_operands(factors, n))
    with blas_threads(T), tr.span("gemm"):
        tr.add_counter("gemm_calls", 1)
        return Xn @ K


def mttkrp_gemm_lower_bound(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    _scratch: dict | None = None,
) -> np.ndarray:
    """The paper's "Baseline" benchmark: one DGEMM of MTTKRP dimensions.

    Multiplies *column-major* matrices shaped like ``X_(n)``
    (``I_n x I_{!=n}``) and the KRP (``I_{!=n} x C``) filled with
    placeholder data — the time of this call is the lower bound the paper
    plots, since it charges neither the reorder nor the KRP formation.

    Parameters
    ----------
    _scratch:
        Optional dict reused across benchmark repetitions to cache the
        operand allocations (keyed by shape), so repeated timing measures
        only the GEMM.

    Returns
    -------
    numpy.ndarray
        The GEMM product (numerically meaningless for MTTKRP).
    """
    if not isinstance(tensor, DenseTensor):
        raise TypeError(
            f"tensor must be a DenseTensor, got {type(tensor).__name__}"
        )
    n = check_mode(n, tensor.ndim)
    rank = check_factor_matrices(list(factors), tensor.shape)
    T = resolve_threads(num_threads)
    tr = get_tracer()
    rows = tensor.shape[n]
    inner = tensor.size // rows
    key = (rows, inner, rank)
    if _scratch is not None and _scratch.get("key") == key:
        A, B = _scratch["A"], _scratch["B"]
    else:
        # Column-major operands of the exact MTTKRP GEMM shape.  The first
        # operand reuses the tensor's own buffer (reinterpreted, not
        # reordered) for realistic data; the values are irrelevant to cost.
        A = tensor.data.reshape((rows, inner), order="F")
        B = np.ones((inner, rank), order="F")
        if _scratch is not None:
            _scratch.update(key=key, A=A, B=B)
    with blas_threads(T), tr.span("gemm-lower-bound") as sp:
        cost = gemm_lower_bound_cost(tensor.shape, n, rank)
        sp.add("flops", cost.flops)
        sp.add("bytes_read", sum(p.read_bytes for p in cost.phases))
        sp.add("bytes_written", sum(p.write_bytes for p in cost.phases))
        sp.add("gemm_calls", 1)
        with tr.span("gemm"):
            return A @ B
