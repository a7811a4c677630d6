"""Workload definitions and their seeded inputs.

The program under test receives only what these functions generate; the
same ``--seed`` always gives the same tensors, factors, initialisation
seeds and arrival schedule.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from harness import POOL_THREADS


@dataclass(frozen=True)
class CPALSWorkload:
    """Closed loop, one caller: repeated fixed-iteration ``cp_als`` calls
    on a synthetic fMRI tensor, each followed by one MTTKRP sweep."""

    name: str
    three_way: bool
    fmri: tuple = (112, 30, 80)  # time, subjects, regions (4-way: r x r)
    planted_rank: int = 5
    rank: int = 25
    iters: int = 5
    threads: int = POOL_THREADS
    #: A decomposition must fit at least this close to the planted model.
    fit_margin: float = 0.05
    #: Setups, each a fresh process, per run.
    setups: int = 3
    #: Percentile reported as the iteration tail.
    tail_pct: float = 90.0


@dataclass(frozen=True)
class ServeWorkload:
    """Open loop: a seeded Poisson stream of tiny jobs plus one medium job
    every ``medium_period`` seconds, against one in-process JobServer."""

    name: str
    workers: int = 2
    tiny_shape: tuple = (6, 5, 4)
    tiny_rank: int = 4
    tiny_iters: int = 3
    tiny_rate: float = 60.0
    tiny_limit: float = 0.25
    medium_shape: tuple = (40, 30, 30, 20)
    medium_rank: int = 10
    medium_iters: int = 10
    medium_period: float = 2.0
    medium_limit: float = 5.0
    #: The run is void when the generator's tail lateness exceeds this.
    max_gen_lag: float = 0.05
    #: Percentile reported as the tiny-job tail.
    tail_pct: float = 99.0
    #: Cold starts, each a fresh process, per run.
    setups: int = 3


WORKLOADS = {
    w.name: w
    for w in (
        CPALSWorkload("cpals-fmri4d", three_way=False),
        CPALSWorkload("cpals-fmri3d", three_way=True),
        ServeWorkload("serve-mixed"),
    )
}


def seeds(seed: int, count: int) -> list[int]:
    """``count`` independent integer seeds derived from the run seed."""
    ss = np.random.SeedSequence(int(seed))
    return [int(s.generate_state(1)[0]) for s in ss.spawn(count)]


# ------------------------------------------------------------------ #
# CP-ALS inputs (generated in a child process, see child.py)
# ------------------------------------------------------------------ #


def cpals_paths(workdir: str) -> tuple[str, str]:
    return (os.path.join(workdir, "tensor.npy"),
            os.path.join(workdir, "meta.npz"))


def prepare_cpals(w: CPALSWorkload, seed: int, workdir: str) -> None:
    """Generate the tensor, fixed sweep factors, the planted fit and the
    reference MTTKRP outputs, and store them under ``workdir``.

    Runs in its own process so that generation never counts towards the
    measured process's peak memory.
    """
    from repro.core.mttkrp_baseline import mttkrp_baseline
    from repro.data.fmri import synthetic_fmri
    from repro.data.symmetrize import linearize_symmetric
    from repro.tensor.generate import from_kruskal, random_factors

    s_tensor, s_factors, s_init = seeds(seed, 3)
    ds = synthetic_fmri(*w.fmri, rank=w.planted_rank, rng=s_tensor)
    truth = from_kruskal(ds.ground_truth.factors, ds.ground_truth.weights)
    X = ds.tensor
    if w.three_way:
        X = ds.to_3way()
        truth = linearize_symmetric(truth, check=False)
    planted_fit = 1.0 - np.linalg.norm(X.data - truth.data) / X.norm()
    del truth, ds
    factors = random_factors(X.shape, w.rank, rng=s_factors)
    refs = [mttkrp_baseline(X, factors, n) for n in range(X.ndim)]
    tensor_path, meta_path = cpals_paths(workdir)
    np.save(tensor_path, X.data)
    np.savez(meta_path, shape=np.array(X.shape), planted_fit=planted_fit,
             init_seed=s_init,
             **{f"factor{n}": f for n, f in enumerate(factors)},
             **{f"ref{n}": r for n, r in enumerate(refs)})


def load_cpals(workdir: str):
    """``(tensor, factors, refs, planted_fit, init_seed)`` from ``workdir``."""
    from repro.tensor.dense import DenseTensor

    tensor_path, meta_path = cpals_paths(workdir)
    with np.load(meta_path) as meta:
        shape = tuple(int(s) for s in meta["shape"])
        N = len(shape)
        factors = [meta[f"factor{n}"] for n in range(N)]
        refs = [meta[f"ref{n}"] for n in range(N)]
        planted_fit = float(meta["planted_fit"])
        init_seed = int(meta["init_seed"])
    X = DenseTensor(np.load(tensor_path), shape)
    return X, factors, refs, planted_fit, init_seed


# ------------------------------------------------------------------ #
# Serve inputs
# ------------------------------------------------------------------ #


@dataclass
class Job:
    due: float  # seconds after the window opens
    kind: str  # "tiny" | "medium"
    tensor: object  # DenseTensor
    seed: int


def serve_jobs(w: ServeWorkload, seed: int, window: float) -> list[Job]:
    """The arrival schedule for a ``window``-second open loop, due times
    ascending; each job carries its own tensor and solver seed."""
    from repro.tensor.generate import random_tensor

    s_arrivals, s_jobs = seeds(seed, 2)
    rng = np.random.default_rng(s_arrivals)
    dues = []
    t = rng.exponential(1.0 / w.tiny_rate)
    while t < window:
        dues.append((t, "tiny"))
        t += rng.exponential(1.0 / w.tiny_rate)
    t = w.medium_period / 2
    while t < window:
        dues.append((t, "medium"))
        t += w.medium_period
    dues.sort()
    job_seeds = seeds(s_jobs, len(dues))
    jobs = []
    for (due, kind), s in zip(dues, job_seeds):
        shape = w.tiny_shape if kind == "tiny" else w.medium_shape
        jobs.append(Job(due, kind, random_tensor(shape, rng=s), s))
    return jobs


def tiny_tensors(w: ServeWorkload, seed: int, count: int):
    """``count`` tiny-job tensors and seeds for the direct-call probes."""
    from repro.tensor.generate import random_tensor

    probe_seed = seeds(seed, 3)[2]
    return [(random_tensor(w.tiny_shape, rng=s), s)
            for s in seeds(probe_seed, count)]
