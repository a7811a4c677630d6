"""Measured experiment runners for the figure drivers and the registry.

Each ``run_*_point`` function measures one point of one figure (a specific
algorithm / workload / thread count) and returns a small result record;
the figure drivers in :mod:`repro.bench.figures` assemble those into the
paper's tables, and the registry runners in :mod:`repro.bench.suites`
convert them into normalized schema records.  All runners accept
preconstructed inputs where reuse matters so repeated timings measure the
kernel, not setup.

Since the registry refactor every point carries, beyond the headline
``seconds``:

* ``stats`` — the full timing distribution (mean/median/min/max/std over
  the repeats), feeding ``timing`` in the normalized schema;
* ``counters`` — analytic FLOP/byte totals, GEMM/GEMV call counts and
  per-region load imbalance captured by running one instrumented
  repetition under a private :func:`repro.obs.capture` tracer (the
  measured repetitions themselves stay untraced, so instrumentation
  cannot skew the timings).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.bench.stream import stream_buffers, stream_scale
from repro.bench.timing import time_samples
from repro.core.dispatch import mttkrp
from repro.core.krp_parallel import khatri_rao_parallel
from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
from repro.cpd.cp_als import cp_als
from repro.reference.tensor_toolbox import cp_als_ttb
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_factors
from repro.util import prod

__all__ = [
    "KRPPoint",
    "MTTKRPPoint",
    "CPALSPoint",
    "run_krp_point",
    "run_stream_point",
    "run_mttkrp_point",
    "run_cpals_point",
]


def _stats_from_samples(samples: Sequence[float]) -> dict:
    from repro.bench.schema import timing_from_stats

    return timing_from_stats(samples)


def _captured_counters(fn: Callable[[], object]) -> dict[str, float]:
    """Counters from one instrumented invocation of ``fn``."""
    with obs.capture() as tracer:
        fn()
    return obs.counters_snapshot(tracer)


@dataclass(frozen=True)
class KRPPoint:
    """One measured Figure 4 point."""

    schedule: str  # "reuse" | "naive" | "stream"
    Z: int
    C: int
    rows: int
    threads: int
    seconds: float
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MTTKRPPoint:
    """One measured Figure 5/6/8 point."""

    algorithm: str
    shape: tuple[int, ...]
    mode: int
    C: int
    threads: int
    seconds: float
    phases: dict[str, float] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CPALSPoint:
    """One measured Figure 7 point (per-iteration CP-ALS time)."""

    implementation: str  # "repro" | "dimtree" | "ttb"
    shape: tuple[int, ...]
    rank: int
    threads: int
    seconds_per_iteration: float
    final_fit: float
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)


def run_krp_point(
    matrices: Sequence[np.ndarray],
    threads: int,
    schedule: str = "reuse",
    repeats: int = 3,
) -> KRPPoint:
    """Measure one parallel-KRP configuration (Figure 4 protocol)."""
    mats = [np.asarray(m) for m in matrices]
    C = mats[0].shape[1]
    rows = prod(m.shape[0] for m in mats)
    out = np.empty((rows, C))

    def kernel() -> None:
        khatri_rao_parallel(mats, num_threads=threads, out=out, schedule=schedule)

    samples = time_samples(kernel, repeats=repeats)
    return KRPPoint(
        schedule=schedule,
        Z=len(mats),
        C=C,
        rows=rows,
        threads=threads,
        seconds=float(np.mean(samples)),
        stats=_stats_from_samples(samples),
        counters=_captured_counters(kernel),
    )


def run_stream_point(entries: int, C: int, threads: int, repeats: int = 3) -> KRPPoint:
    """Measure the STREAM scale kernel at the KRP output size."""
    src, dst = stream_buffers(int(entries) * int(C))

    def kernel() -> None:
        stream_scale(src, dst, num_threads=threads)

    samples = time_samples(kernel, repeats=repeats)
    return KRPPoint(
        schedule="stream",
        Z=0,
        C=C,
        rows=int(entries),
        threads=threads,
        seconds=float(np.mean(samples)),
        stats=_stats_from_samples(samples),
        counters=_captured_counters(kernel),
    )


def run_mttkrp_point(
    tensor: DenseTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    algorithm: str,
    threads: int,
    repeats: int = 3,
) -> MTTKRPPoint:
    """Measure one MTTKRP configuration (Figure 5 protocol: median of k).

    The phase breakdown (``obs.phase_totals``) and obs counters come from
    one extra traced repetition (Figure 6/8); the timed repetitions run
    untraced.
    """
    C = np.asarray(factors[0]).shape[1]
    scratch: dict = {}

    if algorithm == "gemm-baseline":

        def kernel() -> None:
            mttkrp_gemm_lower_bound(
                tensor, factors, mode, num_threads=threads, _scratch=scratch
            )
    else:

        def kernel() -> None:
            mttkrp(
                tensor, factors, mode, method=algorithm, num_threads=threads
            )

    samples = time_samples(kernel, repeats=repeats)
    with obs.capture() as tracer:
        kernel()
    return MTTKRPPoint(
        algorithm=algorithm,
        shape=tensor.shape,
        mode=int(mode),
        C=int(C),
        threads=int(threads),
        seconds=float(np.median(samples)),
        phases=obs.phase_totals(tracer),
        stats=_stats_from_samples(samples),
        counters=obs.counters_snapshot(tracer),
    )


def run_cpals_point(
    tensor: DenseTensor,
    rank: int,
    implementation: str,
    threads: int,
    iterations: int = 3,
    rng: int = 0,
) -> CPALSPoint:
    """Measure per-iteration CP-ALS time (Figure 7 protocol).

    Both implementations get identical random initial factors so they do
    identical arithmetic per iteration; ``tol=0``-style fixed iteration
    counts make the per-iteration average well-defined.  The whole
    measured run executes under a capture tracer, so the attached
    counters are totals over all ``iterations``.
    """
    init = random_factors(tensor.shape, rank, rng=rng)
    with obs.capture() as tracer:
        if implementation in ("repro", "dimtree"):
            res = cp_als(
                tensor,
                rank,
                n_iter_max=iterations,
                tol=0.0,
                init=init,
                num_threads=threads,
                mode_strategy=(
                    "dimtree" if implementation == "dimtree" else "per-mode"
                ),
            )
            per_iter = res.mean_iteration_time
            fit = res.final_fit
        elif implementation == "ttb":
            res = cp_als_ttb(
                tensor,
                rank,
                n_iter_max=iterations,
                tol=0.0,
                init=init,
                num_threads=threads,
            )
            per_iter = res.mean_iteration_time
            fit = res.final_fit
        else:
            raise ValueError(f"unknown implementation {implementation!r}")
    return CPALSPoint(
        implementation=implementation,
        shape=tensor.shape,
        rank=int(rank),
        threads=int(threads),
        seconds_per_iteration=per_iter,
        final_fit=fit,
        stats={
            "mean_s": float(per_iter),
            "median_s": float(per_iter),
            "repeats": int(iterations),
        },
        counters=obs.counters_snapshot(tracer),
    )
