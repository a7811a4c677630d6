"""Traced run: per-layer metrics from timed calls into each layer.

Kernel-layer probes (core, tensor, parallel, cpd, obs, reference,
machine) run on the workload's kernel configuration: the fMRI tensor at
rank 25 for ``cpals-*``, a medium-job tensor at rank 10 for
``serve-mixed``, always on the two-thread pool (serve jobs themselves run
single-threaded, which opens no pool region).  The batch and serve probes
run the ``serve-mixed`` job classes on every workload, so that every
traced run reports every per-layer metric.

The benchmark's own spans (around each call it makes) are kept in memory
and written to ``.bench_out/<run>-spans.json`` at the end, next to a
Chrome trace of one traced ``cp_als`` call from the program's own spans.
"""

from __future__ import annotations

import os
import time

import numpy as np

import harness
import serve_loop
from checks import (FIT_ATOL, MTTKRP_RTOL, check_mttkrp, same_model,
                    timed_sweep)
from harness import median
from inputs import WORKLOADS, CPALSWorkload, load_cpals, seeds, tiny_tensors

REPS = 5
CPALS_PAIRS = 3
TTB_ITERS = 3
SERVE_WINDOW = 6.0
TINY_PROBES = 30
FLEET = 16

#: Program span names that make up each kernel phase.
PHASES = {
    "krp": {"full_krp", "lr_krp", "krp.parallel"},
    "gemm": {"gemm"},
    "reduce": {"reduce", "node_reduce"},
    "ttv": {"gemv"},
}


def _parent(path: str) -> str:
    """Name of a program span's parent, from its ``/``-joined path."""
    parts = path.split("/")
    return parts[-2] if len(parts) > 1 else ""


def timed(fn, reps: int = REPS, warmup: int = 1) -> float:
    from repro.bench.timing import time_samples

    return median(time_samples(fn, repeats=reps, warmup=warmup))


def kernel_config(workload, seed: int) -> dict:
    if isinstance(workload, CPALSWorkload):
        from cpals_loop import prepared

        with prepared(workload, seed) as workdir:
            X, factors, refs, _, init_seed = load_cpals(workdir)
        return dict(X=X, factors=factors, refs=refs, rank=workload.rank,
                    iters=workload.iters, init_seed=init_seed)
    from repro.core.mttkrp_baseline import mttkrp_baseline
    from repro.tensor.generate import random_factors, random_tensor

    s_tensor, s_factors, s_init = seeds(seeds(seed, 5)[4], 3)
    X = random_tensor(workload.medium_shape, rng=s_tensor)
    factors = random_factors(X.shape, workload.medium_rank, rng=s_factors)
    refs = [mttkrp_baseline(X, factors, n) for n in range(X.ndim)]
    return dict(X=X, factors=factors, refs=refs, rank=workload.medium_rank,
                iters=workload.medium_iters, init_seed=s_init)


def core_layer(cfg, spans, ledger, values) -> None:
    """core.* and machine.*."""
    from repro.core.dispatch import mttkrp
    from repro.core.flops import onestep_cost, twostep_cost
    from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
    from repro.machine.calibrate import calibrate_host_model
    from repro.machine.predict import predict_algorithm_time

    X, factors, refs, C = cfg["X"], cfg["factors"], cfg["refs"], cfg["rank"]
    T, N = harness.POOL_THREADS, cfg["X"].ndim
    timed_sweep(X, factors, T, refs, ledger)  # warm-up
    sweep = median([sum(timed_sweep(X, factors, T, refs, ledger))
                    for _ in range(REPS)])
    per_mode = [[] for _ in range(N)]
    for rep in range(REPS):
        with spans.span("core.sweep", request=f"sweep-{rep}"):
            for n in range(N):
                with spans.span(f"core.mttkrp[{n}]") as sp:
                    M = mttkrp(X, factors, n, method="auto", num_threads=T)
                per_mode[n].append(sp["end"] - sp["start"])
                check_mttkrp(M, refs[n], n, ledger)
    mode_s = [median(s) for s in per_mode]
    scratch: dict = {}
    gemm_s = []
    for n in range(N):
        with spans.span(f"core.gemm_floor[{n}]"):
            gemm_s.append(timed(lambda: mttkrp_gemm_lower_bound(
                X, factors, n, num_threads=T, _scratch=scratch)))
    external = [n in (0, N - 1) for n in range(N)]
    flops = [onestep_cost(X.shape, n, C, T).flops if external[n]
             else twostep_cost(X.shape, n, C).flops for n in range(N)]
    with spans.span("machine.calibrate"):
        model = calibrate_host_model()
    predicted = [predict_algorithm_time(
        model, X.shape, n, C, T, "onestep" if external[n] else "twostep")[0]
        for n in range(N)]
    roles = {"first": [0], "inner": list(range(1, N - 1)), "last": [N - 1]}
    for role, modes in roles.items():
        t = sum(mode_s[n] for n in modes)
        values[f"core.mttkrp.{role}_s"] = t
        values[f"core.mttkrp.{role}_over_gemm"] = t / sum(gemm_s[n] for n in modes)
        values[f"core.mttkrp.{role}_gflops"] = sum(flops[n] for n in modes) / t / 1e9
        values[f"core.mttkrp.{role}_over_predicted"] = (
            t / sum(predicted[n] for n in modes))
    values["core.mttkrp.modes_over_sweep"] = sum(mode_s) / sweep
    values["machine.stream_gbs"] = model.bw_single_gbs
    values["machine.gemm_gflops"] = model.peak_gflops_per_core * model.gemm_efficiency


def krp_and_ttv(cfg, spans, ledger, values) -> None:
    from repro.core.krp import khatri_rao, khatri_rao_naive
    from repro.core.krp_parallel import khatri_rao_parallel
    from repro.core.mttkrp_onestep import krp_operands
    from repro.core.mttkrp_twostep import choose_side
    from repro.tensor.dense import DenseTensor
    from repro.tensor.ttv import multi_ttv

    T = harness.POOL_THREADS
    mats = krp_operands(cfg["factors"], 0)
    ref = khatri_rao(mats)
    with spans.span("core.krp"):
        values["core.krp_s"] = timed(lambda: khatri_rao_parallel(mats, num_threads=T))
    ledger.check(np.array_equal(khatri_rao_parallel(mats, num_threads=T), ref),
                 "khatri_rao_parallel differs from khatri_rao")
    with spans.span("core.krp_reuse_vs_naive"):
        values["core.krp_reuse_over_naive"] = (
            timed(lambda: khatri_rao(mats)) / timed(lambda: khatri_rao_naive(mats)))

    # The 2-step algorithm's second step at mode 1's partial-result shape.
    shape, C, factors = cfg["X"].shape, cfg["rank"], cfg["factors"]
    leading = choose_side(shape, 1) == "left"
    inner = shape[1:] if leading else shape[:2]
    facs = factors[2:] if leading else factors[:1]
    rng = np.random.default_rng(0)
    partial = DenseTensor(rng.random(int(np.prod(inner)) * C), inner + (C,))
    with spans.span("tensor.multi_ttv"):
        values["tensor.multi_ttv_s"] = timed(lambda: multi_ttv(partial, facs, leading))
    letters = "abcdefgh"[: len(inner)]
    keep = letters[0] if leading else letters[-1]
    spec = ",".join([letters + "z"]
                    + [f"{c}z" for c in letters if c != keep]) + f"->{keep}z"
    expected = np.einsum(spec, partial.to_ndarray(), *facs)
    got = multi_ttv(partial, facs, leading)
    ledger.check(np.linalg.norm(got - expected)
                 <= MTTKRP_RTOL * np.linalg.norm(expected),
                 "multi_ttv differs from its einsum reference")


def parallel_layer(cfg, spans, ledger, values) -> None:
    from repro.parallel.blas import get_blas_threads
    from repro.parallel.pool import get_pool
    from repro.parallel.reduction import parallel_reduce

    T = harness.POOL_THREADS
    pool = get_pool(T)
    with spans.span("parallel.region_launch"):
        values["parallel.region_launch_s"] = timed(
            lambda: pool.parallel_for(lambda w, lo, hi: None, T), reps=200)
    template = np.random.default_rng(1).random(
        (T, cfg["X"].shape[1], cfg["rank"]))
    samples = []
    with spans.span("parallel.reduce"):
        for _ in range(50):
            buffers = template.copy()
            t0 = time.perf_counter()
            parallel_reduce(buffers, pool)
            samples.append(time.perf_counter() - t0)
    values["parallel.reduce_s"] = median(samples)
    ledger.check(np.allclose(buffers[0], template.sum(axis=0), rtol=1e-12),
                 "parallel_reduce differs from numpy sum")
    reported = get_blas_threads()
    values["parallel.blas_threads_reported"] = -1 if reported is None else reported
    values["parallel.blas_threads_actual"] = harness.blas_threads_actual()


def cpd_obs_reference(cfg, spans, ledger, values, chrome_path: str) -> None:
    """cpd.gram_s, cpd.non_mttkrp_s, obs.*, parallel.imbalance_max and
    reference.*: untraced and traced ``cp_als`` calls alternate.  The
    non-MTTKRP share of an iteration comes from the traced calls' own
    ``iter[k]`` and ``mode[n]/mttkrp.*`` spans."""
    import repro.obs as obs
    from repro.cpd import cp_als
    from repro.cpd.gram import GramCache
    from repro.reference.tensor_toolbox import cp_als_ttb

    X, rank, T = cfg["X"], cfg["rank"], harness.POOL_THREADS

    def solve():
        return cp_als(X, rank, n_iter_max=cfg["iters"], tol=0.0,
                      method="auto", num_threads=T, rng=cfg["init_seed"])

    cache = GramCache([f.copy() for f in cfg["factors"]])

    def grams():
        for n in range(X.ndim):
            cache.hadamard(skip=n)
            cache.update(n)

    with spans.span("cpd.gram"):
        values["cpd.gram_s"] = timed(grams, reps=50)

    first = solve()
    untraced, traced = [], []
    phase_s = dict.fromkeys(PHASES, 0.0)
    flops = moved = non_mttkrp = 0.0
    imbalance = 1.0
    traced_iters = 0
    for rep in range(CPALS_PAIRS):
        result = solve()
        untraced.extend(result.iteration_times)
        ledger.check(same_model(result, first), "untraced cp_als changed")
        with spans.span("cpd.cp_als", request=f"cp_als-{rep}"), \
                obs.capture() as tracer:
            result = solve()
        ledger.check(same_model(result, first), "traced cp_als changed")
        traced.extend(result.iteration_times)
        traced_iters += result.iterations
        program_spans = tracer.spans()
        non_mttkrp += sum(s.duration for s in program_spans
                          if s.name.startswith("iter["))
        non_mttkrp -= sum(s.duration for s in program_spans
                          if s.name.startswith("mttkrp.")
                          and _parent(s.path).startswith("mode["))
        for phase, names in PHASES.items():
            phase_s[phase] += harness.union_length(
                (s.start, s.end) for s in program_spans if s.name in names)
        counters = obs.counters_snapshot(tracer)
        flops += counters.get("flops", 0.0)
        moved += counters.get("bytes_read", 0.0) + counters.get("bytes_written", 0.0)
        imbalance = max(imbalance, counters.get("imbalance_max", 1.0))
    obs.save_chrome_trace(tracer, chrome_path)
    iter_s = median(untraced)
    values["cpd.non_mttkrp_s"] = non_mttkrp / traced_iters
    values["obs.trace_overhead"] = median(traced) / iter_s
    for phase, total in phase_s.items():
        values[f"obs.phase.{phase}_s"] = total / traced_iters
    values["obs.flops_per_byte"] = flops / moved
    values["parallel.imbalance_max"] = imbalance

    with spans.span("reference.cp_als_ttb", request="cp_als_ttb"):
        ttb = cp_als_ttb(X, rank, n_iter_max=TTB_ITERS, tol=0.0,
                         num_threads=T, rng=cfg["init_seed"])
    if cfg["iters"] >= TTB_ITERS:
        ledger.check(abs(ttb.fits[-1] - first.fits[TTB_ITERS - 1]) <= FIT_ATOL,
                     "cp_als_ttb and cp_als disagree on the fit")
    values["reference.ttb_iter_s"] = median(ttb.iteration_times)
    values["reference.speedup_vs_ttb"] = values["reference.ttb_iter_s"] / iter_s


def batch_and_tiny(sw, seed: int, spans, ledger, values) -> None:
    from repro.batch.fleet import cp_als_fleet
    from repro.cpd import cp_als

    items = tiny_tensors(sw, seed, TINY_PROBES)

    def direct(X, s):
        return cp_als(X, sw.tiny_rank, n_iter_max=sw.tiny_iters, tol=0.0,
                      num_threads=1, rng=s)

    direct(*items[0])  # warm-up
    samples, fits = [], []
    for X, s in items:
        with spans.span("cpd.tiny_cp_als", request=f"tiny-{s}") as sp:
            fits.append(direct(X, s).fits[-1])
        samples.append(sp["end"] - sp["start"])
    values["cpd.tiny_cpals_s"] = median(samples)

    group = items[:FLEET]

    def fleet():
        return cp_als_fleet([X for X, _ in group], sw.tiny_rank,
                            seeds=[s for _, s in group],
                            n_iter_max=sw.tiny_iters, tol=0.0, num_threads=1)

    with spans.span("batch.cp_als_fleet", request="fleet"):
        values["batch.fleet16_per_item_s"] = timed(fleet) / FLEET
    got = fleet().fits
    ledger.check(bool(np.all(np.abs(got - np.array(fits[:FLEET])) <= FIT_ATOL)),
                 "cp_als_fleet fits differ from solo cp_als")


def serve_layer(sw, seed: int, spans, ledger, values) -> None:
    s = serve_loop.open_loop(sw, seed, SERVE_WINDOW, ledger, spans)
    stats = s["stats"]
    values.update({
        "serve.submit_s": median(s["submit"]),
        "serve.wait_p50_s": median(s["tiny_wait"]),
        "serve.run_p50_s": median(s["tiny_run"]),
        "serve.medium_wait_s": median(s["medium_wait"]),
        "serve.medium_run_s": median(s["medium_run"]),
        "serve.coalesced_share": stats["coalesced_jobs"] / stats["completed"],
        "serve.group_size_mean": float(np.mean(s["groups"])),
        "serve.shed": stats["shed"],
        "serve.respawns": stats["respawns"],
        "serve.timeouts": stats["timeouts"],
        "serve.stats_call_s": s["stats_call_s"],
        "serve.jobs_retained": stats["admitted"],
        "serve.gen_lag_tail_s": harness.tail(s["lag"])[0],
    })
    values["serve.run_over_direct"] = (
        values["serve.run_p50_s"] / values["cpd.tiny_cpals_s"])


def run(workload, seed: int, ledger, serve=None) -> tuple[dict, dict]:
    """Per-layer values and the extra record fields.  ``serve`` is the
    job mix of the batch and serve probes (default: serve-mixed's)."""
    serve = serve or WORKLOADS["serve-mixed"]
    spans = harness.SpanLog()
    tag = os.path.join(harness.OUT, f"{workload.name}-seed{seed}-trace1")
    os.makedirs(harness.OUT, exist_ok=True)
    values: dict = {}
    cfg = kernel_config(workload, seed)
    core_layer(cfg, spans, ledger, values)
    krp_and_ttv(cfg, spans, ledger, values)
    parallel_layer(cfg, spans, ledger, values)
    cpd_obs_reference(cfg, spans, ledger, values,
                      tag + "-cp_als.chrome.json")
    del cfg
    batch_and_tiny(serve, seed, spans, ledger, values)
    serve_layer(serve, seed, spans, ledger, values)
    values["error_rate"] = ledger.error_rate
    spans.dump(tag + "-spans.json")
    self_s = spans.self_times()
    return values, {"span_self_s": {k: self_s[k] for k in sorted(self_s)}}
