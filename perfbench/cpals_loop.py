"""Untraced run of the ``cpals-*`` workloads.

Closed loop with one caller: ``cp_als`` at a fixed iteration count, then
one MTTKRP sweep on fixed factors, repeated until the window closes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import time
from contextlib import contextmanager

import harness
from checks import FIT_ATOL, model_fit, same_model, timed_sweep
from inputs import load_cpals


@contextmanager
def prepared(workload, seed: int):
    """Generate the workload's inputs in a child process; yields the
    directory holding them and removes it afterwards."""
    workdir = os.path.join(harness.OUT, f"{workload.name}-seed{seed}-inputs")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        harness.run_child("prep", json.dumps(dataclasses.asdict(workload)),
                          str(seed), workdir)
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(workload, workdir: str) -> list[float]:
    return [json.loads(harness.run_child("setup", workdir,
                                         str(workload.threads)))["setup_s"]
            for _ in range(workload.setups)]


def solve(workload, X, init_seed: int):
    from repro.cpd import cp_als

    return cp_als(X, workload.rank, n_iter_max=workload.iters, tol=0.0,
                  method="auto", num_threads=workload.threads,
                  rng=init_seed)


def check_first(workload, X, first, planted_fit: float, ledger) -> None:
    """The reference decomposition every later call must reproduce."""
    fit = first.fits[-1]
    ledger.check(fit >= planted_fit - workload.fit_margin,
                 f"cp_als fit {fit:.6f} below planted fit {planted_fit:.6f}"
                 f" - {workload.fit_margin}")
    recomputed = model_fit(X, first.model.weights, first.model.factors)
    ledger.check(abs(recomputed - fit) <= FIT_ATOL,
                 f"cp_als reported fit {fit:.9f}, model fits {recomputed:.9f}")


def run(workload, seed: int, seconds: float, ledger) -> tuple[dict, dict]:
    with prepared(workload, seed) as workdir:
        setups = setup_samples(workload, workdir)
        X, factors, refs, planted_fit, init_seed = load_cpals(workdir)

    # Warm-up (untimed): pool threads, BLAS threads, allocator.
    first = solve(workload, X, init_seed)
    check_first(workload, X, first, planted_fit, ledger)
    timed_sweep(X, factors, workload.threads, refs, ledger)

    iter_s, run_s, sweep_s = [], [], []
    good = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = solve(workload, X, init_seed)
        run_s.append(time.perf_counter() - t0)
        iter_s.extend(result.iteration_times)
        good += ledger.check(same_model(result, first),
                             "repeated cp_als on one seed changed its result")
        sweep_s.append(sum(timed_sweep(X, factors, workload.threads, refs,
                                       ledger)))

    timings = {"cpals_iter_s": harness.describe(iter_s),
               "cpals_run_s": harness.describe(run_s),
               "mttkrp_sweep_s": harness.describe(sweep_s),
               "setup_s": harness.describe(setups)}
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(),
        "latency_p50_s": harness.median(iter_s),
        "latency_tail_s": harness.percentile(iter_s, workload.tail_pct),
        "solve_s": harness.median(run_s),
        "goodput_per_s": (good / len(run_s)) * workload.iters
                         / harness.median(run_s),
    }
    return metrics, timings
