"""The ``serve-mixed`` open loop against one in-process ``JobServer``.

Arrival times are fixed in advance from the seed.  Each job is timed
from when it was due, not from when the generator got round to sending
it, so a stall is charged to every job it delays; the generator's own
lateness is reported and voids the run past a stated bound.
"""

from __future__ import annotations

import dataclasses
import json
import time

import harness
from checks import FIT_ATOL, model_fit
from inputs import seeds, serve_jobs

_clock = time.monotonic  # the server stamps JobStatus with this clock


def job_spec(workload, job):
    from repro.serve import JobSpec

    tiny = job.kind == "tiny"
    return JobSpec(
        rank=workload.tiny_rank if tiny else workload.medium_rank,
        tensor=job.tensor,
        n_iter_max=workload.tiny_iters if tiny else workload.medium_iters,
        tol=0.0, num_threads=1, seed=job.seed,
    )


def setup_samples(workload, seed: int) -> list[float]:
    """Cold starts, each in a fresh process: ``import repro``, then from
    ``JobServer(...)`` to the first job's result."""
    spec = json.dumps(dataclasses.asdict(workload))
    return [json.loads(harness.run_child("serve-setup", spec, str(s)))["setup_s"]
            for s in seeds(seed, workload.setups)]


def open_loop(workload, seed: int, window: float, ledger,
              spans: harness.SpanLog | None = None) -> dict:
    """Run the mix for ``window`` seconds; returns the raw samples."""
    from repro.serve import JobServer, ServeConfig, ServeError

    jobs = serve_jobs(workload, seed, window)
    # Deep enough that no job is ever shed.
    server = JobServer(ServeConfig(workers=workload.workers,
                                   queue_depth=len(jobs) + 16))
    sent = []  # (job, due time, handle)
    lag, submit_s = [], []
    try:
        # One untimed job first, so the window starts on a warm server.
        server.submit(job_spec(workload, jobs[0])).result(timeout=60)
        start = _clock() + 0.05
        for job in jobs:
            due = start + job.due
            now = _clock()
            if now < due:
                time.sleep(due - now)
            lag.append(_clock() - due)
            t0 = time.perf_counter()
            try:
                handle = server.submit(job_spec(workload, job))
            except ServeError as exc:  # shed or refused: a failed job
                ledger.fail(f"{job.kind} job refused: {exc!r}")
                continue
            submit_s.append(time.perf_counter() - t0)
            sent.append((job, due, handle))
        done = []
        for job, due, handle in sent:
            try:
                result = handle.result(timeout=max(1.0, start + window + 60
                                                   - _clock()))
            except (ServeError, TimeoutError, RuntimeError) as exc:
                ledger.fail(f"{job.kind} job {handle.job_id}: {exc!r}")
                continue
            done.append((job, due, handle.status(), result))
        t0 = time.perf_counter()
        stats = server.stats()
        stats_call_s = time.perf_counter() - t0
    finally:
        server.shutdown()

    samples = {"tiny": [], "medium": [], "good": 0, "tiny_wait": [],
               "tiny_run": [], "medium_wait": [], "medium_run": [],
               "groups": []}
    for job, due, status, result in done:
        latency = status.finished_at - due
        ok = verify(workload, job, result, ledger)
        limit = (workload.tiny_limit if job.kind == "tiny"
                 else workload.medium_limit)
        samples["good"] += ok and latency <= limit
        samples[job.kind].append(latency)
        samples[f"{job.kind}_wait"].append(result.wait_seconds)
        samples[f"{job.kind}_run"].append(result.run_seconds)
        samples["groups"].append(result.group_size)
        if spans is not None:
            record_job(spans, job, due, status, result)
    lag_tail = harness.tail(lag)[0]
    if lag_tail > workload.max_gen_lag:
        ledger.void = (f"generator ran {lag_tail:.3f} s late at its tail "
                       f"(bound {workload.max_gen_lag} s)")
    samples.update(lag=lag, submit=submit_s, stats=stats,
                   stats_call_s=stats_call_s, window=window)
    return samples


def verify(workload, job, result, ledger) -> bool:
    """The fit the server reports, and the fit of the model it returned,
    both agree with a direct ``cp_als`` on the same tensor and seed."""
    from repro.cpd import cp_als

    spec = job_spec(workload, job)
    direct = cp_als(job.tensor, spec.rank, n_iter_max=spec.n_iter_max,
                    tol=0.0, num_threads=1, rng=job.seed).fits[-1]
    returned = model_fit(job.tensor, result.weights, result.factors)
    return ledger.check(
        abs(result.fit - direct) <= FIT_ATOL
        and abs(returned - direct) <= FIT_ATOL,
        f"{job.kind} job {result.job_id}: reported fit {result.fit:.9f}, "
        f"returned model {returned:.9f}, direct cp_als {direct:.9f}")


def record_job(spans, job, due, status, result) -> None:
    """Spans of one job, after the fact, on the ``perf_counter`` clock."""
    shift = time.perf_counter() - _clock()
    top = spans.record("serve.job", due + shift, status.finished_at + shift,
                       request=result.job_id)
    started = status.started_at + shift
    spans.record("serve.wait", status.submitted_at + shift, started,
                 parent=top["id"])
    spans.record("serve.run", started, started + result.run_seconds,
                 parent=top["id"])


def run(workload, seed: int, seconds: float, ledger) -> tuple[dict, dict]:
    setups = setup_samples(workload, seed)
    s = open_loop(workload, seed, seconds, ledger)
    metrics = {
        "setup_s": harness.median(setups),
        "peak_rss_mb": harness.peak_rss_mb(include_children=True),
        "latency_p50_s": harness.median(s["tiny"]),
        "latency_tail_s": harness.percentile(s["tiny"], workload.tail_pct),
        # Medium jobs are left out: whole runs land in a mode where the
        # OpenBLAS threads of both workers contend and most medium jobs
        # take several times longer, which no statistic of one run hides.
        "solve_s": harness.median(s["tiny_run"]),
        "goodput_per_s": s["good"] / s["window"],
    }
    timings = {
        "serve_tiny_latency_s": harness.describe(s["tiny"]),
        "serve_tiny_run_s": harness.describe(s["tiny_run"]),
        "serve_medium_latency_s": harness.describe(s["medium"]),
        "serve_submit_s": harness.describe(s["submit"]),
        "serve_gen_lag_s": harness.describe(s["lag"]),
        "setup_s": harness.describe(setups),
    }
    return metrics, timings
