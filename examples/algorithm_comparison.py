#!/usr/bin/env python
"""Compare the MTTKRP algorithms mode by mode with phase breakdowns.

Reproduces the *structure* of the paper's Figures 5 and 6 at a reduced
scale: for an N-way tensor, time the 1-step algorithm, the 2-step
algorithm (internal modes), the full straightforward baseline (explicit
reorder + KRP + GEMM), and the DGEMM-only lower bound — then print the
per-phase split that explains the differences.

Run:  python examples/algorithm_comparison.py [N] [entries]
      e.g. python examples/algorithm_comparison.py 5 3000000
"""

import sys

import repro.obs as obs
from repro.bench.timing import median_time
from repro.core.dispatch import mttkrp
from repro.core.mttkrp_baseline import mttkrp_gemm_lower_bound
from repro.data.workloads import fig5_shape, scaled_shape
from repro.tensor.generate import random_factors, random_tensor
from repro.util import human_count, prod

PHASES = ["reorder", "full_krp", "lr_krp", "gemm", "gemv", "reduce"]


def main() -> None:
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    entries = int(sys.argv[2]) if len(sys.argv) > 2 else 3_000_000
    base = fig5_shape(N)
    shape = scaled_shape(base, entries / prod(base))
    C = 25

    print(f"tensor {shape} ({human_count(prod(shape))} entries), C={C}\n")
    X = random_tensor(shape, rng=0)
    U = random_factors(shape, C, rng=1)

    header = f"{'mode':>4}  {'algorithm':13}  {'median(s)':>10}  " + "  ".join(
        f"{p:>9}" for p in PHASES
    )
    print(header)
    print("-" * len(header))

    for n in range(N):
        algos = ["onestep"]
        if 0 < n < N - 1:
            algos.append("twostep")
        algos += ["baseline", "gemm-lb"]
        for algo in algos:
            if algo == "gemm-lb":
                scratch: dict = {}
                seconds = median_time(
                    lambda: mttkrp_gemm_lower_bound(
                        X, U, n, num_threads=1, _scratch=scratch
                    ),
                    repeats=3,
                )
                with obs.capture() as tracer:
                    mttkrp_gemm_lower_bound(
                        X, U, n, num_threads=1, _scratch=scratch
                    )
            else:
                seconds = median_time(
                    lambda: mttkrp(X, U, n, method=algo, num_threads=1),
                    repeats=3,
                )
                with obs.capture() as tracer:
                    mttkrp(X, U, n, method=algo, num_threads=1)
            snap = obs.phase_totals(tracer)
            cells = "  ".join(
                f"{snap.get(p, 0.0):9.4f}" if p in snap
                else f"{'-':>9}"
                for p in PHASES
            )
            print(f"{n:>4}  {algo:13}  {seconds:10.4f}  {cells}")
        print()

    print("reading the table:")
    print(" * 'baseline' pays a 'reorder' phase the view-based algorithms")
    print("   never pay — that is the paper's central point;")
    print(" * 'gemm-lb' is the paper's Baseline series: the GEMM alone,")
    print("   charging neither reorder nor KRP formation;")
    print(" * the 2-step algorithm concentrates its time in one large,")
    print("   well-shaped GEMM (plus a small multi-TTV 'gemv' phase).")


if __name__ == "__main__":
    main()
