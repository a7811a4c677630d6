"""Exporters: Chrome trace JSON schema, summaries, and the report CLI."""

import json
import os
import subprocess
import sys

import pytest

import repro.obs as obs
from repro.obs.export import records_from_events, summarize_records
from repro.obs.report import main as report_main
from repro.obs.tracer import Tracer


def _sample_tracer():
    tr = Tracer()
    with tr.span("cp_als", rank=4):
        with tr.span("iter[0]"):
            with tr.span("mode[0]"):
                with tr.span("mttkrp.onestep", mode=0) as sp:
                    sp.add("flops", 2.0e6)
                    with tr.span("full_krp"):
                        pass
                    with tr.span("gemm") as g:
                        g.add("gemm_calls", 1)
    tr.record_region("pool.region", tr.epoch, tr.epoch + 0.5, [0.5, 0.25])
    return tr


class TestChromeTrace:
    def test_event_schema(self):
        trace = obs.chrome_trace(_sample_tracer())
        assert set(trace) >= {"traceEvents", "displayTimeUnit"}
        events = trace["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        m_events = [e for e in events if e["ph"] == "M"]
        assert len(x_events) == 7
        assert m_events, "thread_name metadata events expected"
        for ev in x_events:
            assert set(ev) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
            }
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["pid"] == os.getpid()
            assert "path" in ev["args"]

    def test_span_counters_ride_in_args(self):
        trace = obs.chrome_trace(_sample_tracer())
        mttkrp = next(
            e for e in trace["traceEvents"] if e["name"] == "mttkrp.onestep"
        )
        assert mttkrp["args"]["flops"] == 2.0e6
        assert mttkrp["args"]["mode"] == 0
        region = next(
            e for e in trace["traceEvents"] if e["name"] == "pool.region"
        )
        assert region["args"]["imbalance"] == pytest.approx(0.5 / 0.375)

    def test_save_and_json_load_roundtrip(self, tmp_path):
        path = str(tmp_path / "trace.json")
        assert obs.save_chrome_trace(_sample_tracer(), path) == path
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        names = {e["name"] for e in loaded["traceEvents"]}
        assert {"cp_als", "iter[0]", "mode[0]", "gemm"} <= names
        records = records_from_events(loaded["traceEvents"])
        by_name = {r["name"]: r for r in records}
        assert by_name["mttkrp.onestep"]["counters"]["flops"] == 2.0e6
        assert by_name["gemm"]["path"].endswith("mttkrp.onestep/gemm")


class TestSummaries:
    def test_phase_totals_uses_leaves_only(self):
        tr = _sample_tracer()
        totals = obs.phase_totals(tr)
        # Leaves are the innermost phases; ancestors, regions and the
        # flops-carrying algorithm span are excluded.
        assert set(totals) == {"full_krp", "gemm"}
        by_name = {s.name: s for s in tr.spans()}
        for name in ("full_krp", "gemm"):
            assert totals[name] == pytest.approx(by_name[name].duration)

    def test_parallel_region_phase_counted_once(self):
        # One region, two workers each recording ``gemm`` over the same
        # interval: the phase costs the region's wall time once, not the
        # sum over workers.
        tr = Tracer()
        t0 = tr.epoch
        with tr.span("mttkrp.onestep") as sp:
            sp.add("flops", 1.0e6)
            for worker in (0, 1):
                tr.record("gemm", t0 + 0.1, t0 + 0.4, worker=worker)
            tr.record_region("mttkrp.onestep.external", t0, t0 + 0.5,
                             [0.3, 0.3])
        assert obs.phase_totals(tr)["gemm"] == pytest.approx(0.3)

    def test_phase_totals_adds_sequential_entries(self):
        tr = Tracer()
        t0 = tr.epoch
        tr.record("gemm", t0, t0 + 0.2)
        tr.record("gemm", t0 + 0.5, t0 + 0.6)
        tr.record("gemm", t0 + 0.55, t0 + 0.7)  # overlaps the second
        assert obs.phase_totals(tr)["gemm"] == pytest.approx(0.4)

    def test_phase_totals_from_loaded_trace_match_live(self, tmp_path):
        tr = _sample_tracer()
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(tr, path)
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        loaded = obs.phase_totals(records_from_events(events))
        live = obs.phase_totals(tr)
        assert set(loaded) == set(live)
        for name, seconds in live.items():
            assert loaded[name] == pytest.approx(seconds, abs=1e-6)

    def test_summary_sections(self):
        text = obs.summary(_sample_tracer())
        assert "phase breakdown" in text
        assert "full_krp" in text
        assert "algorithm spans" in text and "mttkrp.onestep" in text
        assert "parallel regions" in text and "pool.region" in text

    def test_summarize_records_from_loaded_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        with open(path, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        text = summarize_records(records_from_events(events))
        assert "full_krp" in text and "pool.region" in text


class TestReportCLI:
    def test_main_prints_summary(self, tmp_path, capsys):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        assert report_main([path]) == 0
        out = capsys.readouterr().out
        assert "phase breakdown" in out and "full_krp" in out

    def test_main_rejects_missing_file(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_python_dash_m_entry_point(self, tmp_path):
        path = str(tmp_path / "trace.json")
        obs.save_chrome_trace(_sample_tracer(), path)
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.report", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "phase breakdown" in proc.stdout


class TestEnvVar:
    def test_repro_trace_path_dumps_at_exit(self, tmp_path):
        out = str(tmp_path / "env_trace.json")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        env["REPRO_TRACE"] = out
        code = (
            "from repro import random_tensor, random_factors, mttkrp\n"
            "X = random_tensor((6, 5, 4), rng=0)\n"
            "U = random_factors(X.shape, 3, rng=1)\n"
            "mttkrp(X, U, 1, num_threads=2)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, encoding="utf-8") as fh:
            trace = json.load(fh)
        names = {e["name"] for e in trace["traceEvents"]}
        assert any(n.startswith("mttkrp.") for n in names)
