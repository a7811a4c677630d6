"""Empirical stacked-vs-loop crossover for the batched MTTKRP engine.

The batched engine has exactly two lanes — ``"batched"`` (stacked
panels + one batched GEMM per cache-sized chunk) and ``"batched-loop"``
(the per-item 2-D reference loop).  Which wins is a property of the
*per-item overhead-to-arithmetic ratio*: tiny items amortize Python and
gufunc dispatch across the stack, huge items render the overhead
irrelevant and the loop's smaller working set can take over.  That
ratio is machine- and BLAS-specific, so (as everywhere in
:mod:`repro.tune`) the decision is measured, not modeled, and persisted
in the standard :class:`~repro.tune.cache.TuningCache` — under a
:class:`~repro.tune.cache.TuneKey` whose ``batch`` dimension separates
fleet sizes that amortize differently.

``B == 1`` is degenerate: both lanes issue the identical single-item
calls, so the stacked lane is recorded without measurement (mirroring
the order-2 short-circuit of :func:`repro.tune.tuner.autotune`).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

from repro.obs import get_tracer
from repro.parallel.config import resolve_backend, resolve_threads, use_backend
from repro.tune.cache import TuneKey, TuneRecord, TuningCache, get_cache
from repro.tune.tuner import Candidate

__all__ = ["autotune_batched", "batched_candidate_labels", "candidate_set"]

#: Measure on at most this many items: the per-item overhead the stacked
#: lane amortizes only *shrinks* relative to the arithmetic as B grows,
#: so a decision taken at this batch size is conservative for larger
#: fleets while keeping tuner probes cheap.
_PROXY_BATCH_LIMIT = 64


def candidate_set(shape: Sequence[int], n: int, batch: int) -> list[Candidate]:
    """The runnable batched candidates: ``batched`` and ``batched-loop``.

    Both lanes are eligible for every (shape, mode, batch) — the
    crossover between them is precisely what gets measured.
    """
    del shape, n, batch  # every configuration runs the same two lanes
    return [
        Candidate("batched", "batched"),
        Candidate("batched-loop", "batched-loop"),
    ]


def batched_candidate_labels() -> tuple[str, ...]:
    """Labels a cached batched record may legally carry."""
    return ("batched", "batched-loop")


def _proxy_batch(batch, factors):
    """Slice the measurement operands down to ``_PROXY_BATCH_LIMIT`` items."""
    if batch.batch <= _PROXY_BATCH_LIMIT:
        return batch, factors
    from repro.batch.tensor import BatchedTensor

    sub = BatchedTensor(
        np.ascontiguousarray(batch.flat[:_PROXY_BATCH_LIMIT]), batch.shape
    )
    sub_factors = [
        np.ascontiguousarray(np.asarray(f)[:_PROXY_BATCH_LIMIT])
        for f in factors
    ]
    return sub, sub_factors


def _measure_batched(
    candidate: Candidate, batch, factors, n, num_threads, repeats, workspace
) -> float:
    """Best-of-``repeats`` seconds for one lane (plus one warm-up)."""
    from repro.batch.mttkrp import mttkrp_batched_loop, mttkrp_batched_stacked

    runner = (
        mttkrp_batched_stacked if candidate.method == "batched"
        else mttkrp_batched_loop
    )
    tracer = get_tracer()
    best = float("inf")
    for rep in range(repeats + 1):
        with tracer.span(
            "tune.measure", candidate=candidate.label, mode=n, warmup=rep == 0
        ) as span:
            t0 = time.perf_counter()
            runner(
                batch, factors, n, num_threads=num_threads,
                workspace=workspace, slot="tune.batch",
            )
            elapsed = time.perf_counter() - t0
            span.args["seconds"] = elapsed
        tracer.add_counter("tune.measure", 1)
        if rep > 0:  # the warm-up run absorbs pool/buffer start-up costs
            best = min(best, elapsed)
    return best


def autotune_batched(
    batch,
    factors: Sequence[np.ndarray],
    n: int,
    num_threads: int | None = None,
    backend: str | None = None,
    cache: TuningCache | None = None,
    repeats: int = 2,
    workspace=None,
    force: bool = False,
) -> TuneRecord:
    """Pick the fastest batched lane for this configuration, cached.

    The cache key is ``(shape, rank, mode, threads, backend, dtype,
    batch)`` — one decision per fleet size, reused by every later
    :func:`~repro.batch.mttkrp.mttkrp_batched` ``method="autotune"``
    call and by ``cp_als_batched(tune=True)``.

    Parameters mirror :func:`repro.tune.tuner.autotune`; ``force=True``
    re-measures even on a cache hit.
    """
    from repro.batch.mttkrp import _validate

    n, rank = _validate(batch, factors, n)
    threads = resolve_threads(num_threads)
    backend_name = resolve_backend(backend)
    dtype = np.result_type(
        batch.dtype, *[np.asarray(f).dtype for f in factors]
    )
    key = TuneKey.make(
        batch.shape, rank, n, threads, backend_name, dtype,
        batch=batch.batch,
    )
    store = cache if cache is not None else get_cache()
    tracer = get_tracer()

    if not force:
        record = store.get(key)
        if record is not None:
            if record.label in batched_candidate_labels():
                tracer.add_counter("tune.cache_hit", 1)
                return record
            # A stale or foreign entry (e.g. a single-tensor method
            # recorded under an old key format): re-measure, overwrite.
            tracer.add_counter("tune.cache_stale", 1)

    if batch.batch == 1:
        record = TuneRecord(method="batched", source="degenerate")
        store.put(key, record)
        return record

    tracer.add_counter("tune.cache_miss", 1)
    candidates = candidate_set(batch.shape, n, batch.batch)
    bench_batch, bench_factors = _proxy_batch(batch, factors)
    times: dict[str, float] = {}
    scope = use_backend(backend) if backend is not None else nullcontext()
    with scope, tracer.span(
        "tune", mode=n, shape=list(batch.shape), rank=rank,
        threads=threads, backend=backend_name, batch=batch.batch,
    ):
        for candidate in candidates:
            times[candidate.label] = _measure_batched(
                candidate, bench_batch, bench_factors, n,
                threads, repeats, workspace,
            )
    winner = min(candidates, key=lambda c: times[c.label])
    record = TuneRecord(
        method=winner.method,
        kwargs=winner.kwargs_dict(),
        times=times,
        source="measured",
    )
    store.put(key, record)
    return record
