"""Tests for the benchmark registry and the repro-bench CLI."""

import pytest

from repro.bench.cli import main as cli_main
from repro.bench.registry import (
    benchmark_names,
    get_spec,
    list_specs,
    measure_case,
    run_benchmark,
)
from repro.bench.schema import load_results, validate_record

EXPECTED = {
    "fig4", "fig5", "fig6", "fig7", "fig8",
    "dimtree", "autotune", "pool-overhead", "ablations", "blocked",
}

ABLATION_CASES = {
    "twostep-side/auto", "twostep-side/left", "twostep-side/right",
    "seq-variant/baseline", "seq-variant/onestep-seq", "seq-variant/onestep",
    "krp-depth4/reuse", "krp-depth4/naive",
    "cpals-dispatch/auto", "cpals-dispatch/onestep", "cpals-dispatch/baseline",
    "reorder/onestep", "reorder/twostep", "reorder/baseline",
    "twostep-blocked/unblocked", "twostep-blocked/1e7",
    "twostep-blocked/1e5", "twostep-blocked/1e4",
    "accumulation/private", "accumulation/locked",
}


class TestRegistry:
    def test_all_benchmarks_registered(self):
        assert EXPECTED <= set(benchmark_names())

    def test_specs_have_titles_and_defaults(self):
        for spec in list_specs():
            assert spec.title
            assert spec.default_scale > 0
            assert spec.default_repeats >= 1

    def test_tag_filter(self):
        figures = {s.name for s in list_specs(tag="figure")}
        assert figures == {"fig4", "fig5", "fig6", "fig7", "fig8"}

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="available.*fig4"):
            get_spec("fig99")

    def test_run_one_smoke(self):
        # the registry smoke test kept inside tier-1: tiny scale, 1 repeat
        records = run_benchmark(
            "ablations", scale=0.01, threads=(1,), repeats=1
        )
        assert records
        for record in records:
            validate_record(record)
            assert record["benchmark"] == "ablations"
            assert record["timing"]["median_s"] > 0
            assert record["host"]["git_rev"]
            assert record["context"]["source"] == "repro-bench"
            assert record["context"]["scale"] == 0.01
        # Reaching here also ran the runner's accumulation-vs-1-step check.
        assert {r["case"] for r in records} == ABLATION_CASES

    def test_pool_overhead_schedule_cases(self):
        records = run_benchmark("pool-overhead", scale=0.01, repeats=1)
        schedules = {r["case"]: r["params"]["schedule"] for r in records
                     if r["case"].startswith("schedule/")}
        assert schedules == {"schedule/static": "static",
                             "schedule/dynamic": "dynamic"}

    def test_measured_record_has_obs_counters(self):
        records = run_benchmark(
            "ablations", scale=0.01, threads=(1,), repeats=1
        )
        counters = [r["counters"] for r in records if r["counters"]]
        assert counters, "no record captured obs counters"
        assert any(c.get("flops", 0) > 0 or c.get("gemm_calls", 0) > 0
                   for c in counters)

    def test_blocked_suite_reports_finite_bound_ratio(self):
        # Contract for the committed results/blocked.bench.json baseline:
        # every record carries the BRK floor and a finite achieved/bound
        # byte ratio, and the blocked cases never exceed onestep's ratio.
        records = run_benchmark("blocked", scale=0.2, threads=(1,), repeats=1)
        assert records
        ratios = {}
        for record in records:
            validate_record(record)
            counters = record["counters"]
            assert counters["bytes_lower_bound"] > 0
            ratio = counters["bound_ratio"]
            assert ratio == pytest.approx(
                (counters["bytes_read"] + counters["bytes_written"])
                / counters["bytes_lower_bound"]
            )
            assert 0 < ratio < float("inf")
            ratios[record["case"]] = ratio
        for n in (0, 1):
            assert ratios[f"n{n}/blocked/T1"] <= ratios[f"n{n}/onestep/T1"]

    def test_measure_case_structure(self):
        record = measure_case(
            "demo", "trivial", lambda: sum(range(100)),
            params={"n": 100}, repeats=2,
        )
        assert record["benchmark"] == "demo"
        assert record["timing"]["repeats"] == 2
        assert record["params"] == {"n": 100}


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED:
            assert name in out

    def test_list_tag(self, capsys):
        assert cli_main(["list", "--tag", "figure"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "ablations" not in out

    def test_list_unknown_tag(self):
        assert cli_main(["list", "--tag", "nope"]) == 1

    def test_run_writes_results_file(self, tmp_path, capsys):
        out_path = tmp_path / "current.bench.json"
        code = cli_main([
            "run", "ablations", "--scale", "0.01", "--threads", "1",
            "--repeats", "1", "--out", str(out_path),
        ])
        assert code == 0
        records = load_results(str(out_path))
        assert records and all(r["benchmark"] == "ablations" for r in records)
        assert "record(s)" in capsys.readouterr().out

    def test_run_unknown_benchmark(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
        assert "available" in capsys.readouterr().err
