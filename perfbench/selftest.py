"""Self-tests of the benchmark, on reduced-size workloads.

    python3 perfbench/selftest.py

(a) a smoke run of every workload emits every end-to-end and per-layer
    metric, each with a unit, and the metric table matches BENCHMARK.json;
(b) a corrupted result (an MTTKRP output, a ``cp_als`` factor, a served
    factor) raises the error count instead of being swallowed;
(c) in the traced run the per-mode MTTKRP times add up to the untraced
    sweep within ``SWEEP_SLACK``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import unittest
from contextlib import contextmanager

import harness

harness.use_source_tree()
harness.hermetic_environment()

import cpals_loop  # noqa: E402
import layers  # noqa: E402
from inputs import WORKLOADS  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from run import measure  # noqa: E402

#: Allowed relative gap between the sum of traced per-mode times and the
#: untraced sweep.
SWEEP_SLACK = 0.25

SMALL = {
    "cpals-fmri4d": dataclasses.replace(
        WORKLOADS["cpals-fmri4d"], fmri=(24, 6, 12), rank=5, iters=8,
        setups=1),
    "cpals-fmri3d": dataclasses.replace(
        WORKLOADS["cpals-fmri3d"], fmri=(24, 6, 12), rank=5, iters=8,
        setups=1),
    "serve-mixed": dataclasses.replace(
        WORKLOADS["serve-mixed"], tiny_rate=20.0, medium_shape=(12, 8, 8, 6),
        medium_rank=4, medium_period=1.0, setups=1),
}
SEED = 7
SECONDS = 2.0


@contextmanager
def patched(obj, name: str, wrap):
    original = getattr(obj, name)
    setattr(obj, name, wrap(original))
    try:
        yield
    finally:
        setattr(obj, name, original)


def corrupt_nth(n: int, corrupt):
    """Wrap a function so that its ``n``-th result is corrupted in place."""
    def wrap(fn):
        calls = [0]

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls[0] += 1
            if calls[0] == n:
                corrupt(result)
            return result
        return wrapper
    return wrap


class SmokeRun(unittest.TestCase):
    """(a) every metric, with a unit, from every workload."""

    def test_every_metric_with_unit(self):
        for name, workload in SMALL.items():
            for trace in (False, True):
                with self.subTest(workload=name, trace=trace):
                    ledger = harness.Ledger()
                    values, _ = measure(workload, SEED, SECONDS, trace, ledger,
                                        serve=SMALL["serve-mixed"])
                    expected = PER_LAYER if trace else END_TO_END
                    self.assertEqual(list(values), [m[0] for m in expected])
                    for metric, value in values.items():
                        self.assertTrue(UNITS[metric])
                        self.assertTrue(math.isfinite(value), metric)
                    self.assertEqual(ledger.failed, 0, ledger.reasons)
                    self.assertTrue(ledger.correct)

    def test_table_matches_benchmark_json(self):
        path = os.path.join(harness.REPO, "BENCHMARK.json")
        with open(path) as fh:
            spec = json.load(fh)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in spec["end_to_end"]], END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(WORKLOADS))


class Corruption(unittest.TestCase):
    """(b) a perturbed result is counted as a failure."""

    def run_workload(self, name: str) -> harness.Ledger:
        ledger = harness.Ledger()
        measure(SMALL[name], SEED, SECONDS, False, ledger)
        return ledger

    def test_mttkrp_output(self):
        import repro.core.dispatch as dispatch

        def corrupt(M):
            M[0, 0] += 1e-6 * abs(M[0, 0]) + 1e-12

        with patched(dispatch, "mttkrp", corrupt_nth(7, corrupt)):
            ledger = self.run_workload("cpals-fmri3d")
        self.assertGreaterEqual(ledger.failed, 1)
        self.assertFalse(ledger.correct)

    def test_cp_als_factor(self):
        def corrupt(result):
            result.model.factors[1][0, 0] *= 1.0 + 1e-9

        with patched(cpals_loop, "solve", corrupt_nth(3, corrupt)):
            ledger = self.run_workload("cpals-fmri4d")
        self.assertEqual(ledger.failed, 1, ledger.reasons)

    def test_served_factor(self):
        from repro.serve.server import JobHandle

        def corrupt(result):
            result.factors[0][:] *= 1.1

        with patched(JobHandle, "result", corrupt_nth(5, corrupt)):
            ledger = self.run_workload("serve-mixed")
        self.assertEqual(ledger.failed, 1, ledger.reasons)


class TracedSweep(unittest.TestCase):
    """(c) per-mode times add up to the sweep."""

    def test_modes_add_up_to_sweep(self):
        ledger = harness.Ledger()
        values, _ = layers.run(SMALL["cpals-fmri4d"], SEED, ledger,
                               serve=SMALL["serve-mixed"])
        ratio = values["core.mttkrp.modes_over_sweep"]
        self.assertLessEqual(abs(ratio - 1.0), SWEEP_SLACK, ratio)
        self.assertEqual(ledger.failed, 0, ledger.reasons)


if __name__ == "__main__":
    unittest.main(verbosity=2)
