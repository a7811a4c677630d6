"""Measurement utilities for the benchmark harness.

The paper reports the average of 100 trials for KRP (Figure 4) and the
median of 10 runs for MTTKRP (Figure 5); :func:`median_time` and
:func:`mean_time` implement both protocols with configurable repetition
counts (the reduced-scale defaults use fewer repetitions to keep the full
suite fast on one core).
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

__all__ = ["median_time", "mean_time", "time_once", "time_samples"]


def time_once(fn: Callable[[], object]) -> float:
    """Wall-clock seconds of a single invocation."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_samples(
    fn: Callable[[], object], repeats: int = 5, warmup: int = 1
) -> list[float]:
    """Raw per-repeat wall times after ``warmup`` runs.

    The registry's normalized records keep the full timing distribution
    (mean/median/min/max/std), so the harness measures once and derives
    every statistic from the same samples.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    for _ in range(warmup):
        fn()
    return [time_once(fn) for _ in range(repeats)]


def median_time(
    fn: Callable[[], object], repeats: int = 5, warmup: int = 1
) -> float:
    """Median wall time over ``repeats`` runs after ``warmup`` runs.

    The paper's MTTKRP protocol (median of 10); warmup runs absorb
    allocator and BLAS-thread-pool start-up effects.
    """
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    for _ in range(warmup):
        fn()
    return float(np.median([time_once(fn) for _ in range(repeats)]))


def mean_time(
    fn: Callable[[], object], repeats: int = 10, warmup: int = 1
) -> float:
    """Mean wall time over ``repeats`` runs (the paper's KRP protocol)."""
    if repeats <= 0:
        raise ValueError(f"repeats must be positive, got {repeats}")
    for _ in range(warmup):
        fn()
    return float(np.mean([time_once(fn) for _ in range(repeats)]))
