"""Benchmark entry point.

    python3 perfbench/run.py --workload cpals-fmri4d --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that times calls into each layer.
The last line of standard output is the one-line JSON result; the lines
before it are a readable table, and the full record (configuration,
sample counts, tail percentiles) is written under ``.bench_out/``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import sys

import harness
from inputs import WORKLOADS, ServeWorkload


def parse(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def measure(workload, seed: int, seconds: float, trace: bool, ledger,
            serve=None) -> tuple[dict, dict]:
    """Every end-to-end metric (``trace`` false) or every per-layer
    metric (``trace`` true), plus the extra record fields."""
    from metrics import END_TO_END, PER_LAYER

    if trace:
        import layers

        values, extra = layers.run(workload, seed, ledger, serve)
        names = [m[0] for m in PER_LAYER]
    else:
        if isinstance(workload, ServeWorkload):
            import serve_loop as loop
        else:
            import cpals_loop as loop
        values, timings = loop.run(workload, seed, seconds, ledger)
        extra = {"timings": timings}
        names = [m[0] for m in END_TO_END]
    missing = [n for n in names if n not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {n: values[n] for n in names}, extra


def main(argv: list[str]) -> int:
    args = parse(argv)
    try:
        harness.use_source_tree()
        harness.hermetic_environment()
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from metrics import UNITS

    ledger = harness.Ledger()
    values, extra = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                            bool(args.trace), ledger)
    harness.emit(args.workload, args.seed, bool(args.trace), values, UNITS,
                 ledger, {"config": harness.configuration(), **extra})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
