"""Timed calls whose outputs are checked against independent references.

Tolerances (stated once, used everywhere):

* an MTTKRP output agrees with ``mttkrp_baseline`` when
  ``|M - M_ref|_F <= MTTKRP_RTOL * |M_ref|_F``;
* a fit recomputed here from a returned model (numpy ``einsum``, no
  ``repro`` code) agrees with the fit the program reports, or with a
  direct ``cp_als`` call's fit, within ``FIT_ATOL``.
"""

from __future__ import annotations

import time

import numpy as np

MTTKRP_RTOL = 1e-9
FIT_ATOL = 1e-6


def timed_sweep(X, factors, threads: int, refs, ledger) -> list[float]:
    """One ``mttkrp(X, U, n, method="auto")`` call per mode; returns the
    per-mode seconds and checks every output against its reference."""
    from repro.core.dispatch import mttkrp

    times = []
    for n in range(X.ndim):
        t0 = time.perf_counter()
        M = mttkrp(X, factors, n, method="auto", num_threads=threads)
        times.append(time.perf_counter() - t0)
        check_mttkrp(M, refs[n], n, ledger)
    return times


def check_mttkrp(M, ref, n: int, ledger) -> None:
    err = np.linalg.norm(M - ref)
    ledger.check(bool(err <= MTTKRP_RTOL * np.linalg.norm(ref)),
                 f"mttkrp mode {n}: relative error "
                 f"{err / np.linalg.norm(ref):.3g}")


def model_fit(X, weights, factors) -> float:
    """``1 - |X - [[w; U]]| / |X|`` computed with numpy alone."""
    data = X.to_ndarray()
    N = data.ndim
    letters = "abcdefghij"[:N]
    spec = ",".join([letters] + [f"{c}z" for c in letters] + ["z"]) + "->"
    inner = float(np.einsum(spec, data, *factors, weights, optimize=True))
    H = np.ones((len(weights), len(weights)))
    for U in factors:
        H *= U.T @ U
    norm_x = float(np.linalg.norm(data))
    residual_sq = max(norm_x**2 - 2.0 * inner + float(weights @ H @ weights),
                      0.0)
    return 1.0 - np.sqrt(residual_sq) / norm_x


def same_model(a, b) -> bool:
    """Bit-identical fits, weights and factors of two ``cp_als`` results."""
    return (a.fits == b.fits
            and np.array_equal(a.model.weights, b.model.weights)
            and all(np.array_equal(x, y)
                    for x, y in zip(a.model.factors, b.model.factors)))
