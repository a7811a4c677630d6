"""Project-level analyzer tests: call graph, dataflow, RA007–RA010,
the suppression baseline ratchet, the incremental cache, and
``--changed`` mode.

The per-file rules are covered fixture-by-fixture in
``test_analysis_lint.py``; this file covers everything that needs more
than one module in view.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.baseline import check_baseline, write_baseline
from repro.analysis.cache import LintCache
from repro.analysis.callgraph import (
    Project,
    extract_dispatch_tables,
    module_name_for,
)
from repro.analysis.dataflow import (
    view_provenance,
    write_summaries,
)
from repro.analysis.lint import collect_files, lint_paths, lint_project
from repro.analysis.rules import ALL_RULES, PROJECT_RULES, get_project_rules

REPO = Path(__file__).parent.parent
FIXTURES = Path(__file__).parent / "analysis_fixtures"
SRC = REPO / "src" / "repro"

PROJECT_RULE_IDS = [r.id for r in PROJECT_RULES]


def project_findings_for(names, rule_id=None):
    files = [FIXTURES / n for n in names]
    found = lint_project(files)
    if rule_id is not None:
        found = [f for f in found if f.rule == rule_id]
    return found


# --------------------------------------------------------------------- #
# callgraph substrate
# --------------------------------------------------------------------- #

class TestCallgraph:
    def test_module_names_follow_packages(self):
        assert module_name_for(SRC / "core" / "dispatch.py") == \
            "repro.core.dispatch"

    def test_resolves_cross_module_calls(self):
        files = collect_files([SRC / "core", SRC / "obs"])
        p = Project.load(files, detect_root=False)
        dispatch = p.modules["repro.core.dispatch"]
        run = dispatch.functions["_run"]
        callees = {c.qualname for c in p.callees(run)}
        assert "repro.core.mttkrp_onestep.mttkrp_onestep" in callees
        assert "repro.core.mttkrp_twostep.mttkrp_twostep" in callees

    def test_reachable_is_transitive(self):
        files = collect_files([SRC])
        p = Project.load(files, detect_root=False)
        dispatch = p.modules["repro.core.dispatch"]
        names = {f.qualname for f in p.reachable(dispatch.functions["mttkrp"])}
        # mttkrp -> _run -> kernels -> their helpers.
        assert "repro.core.dispatch._run" in names
        assert any(".mttkrp_onestep" in n for n in names)
        assert len(names) > 10

    def test_extracts_real_dispatch_table(self):
        files = collect_files([SRC])
        p = Project.load(files, detect_root=False)
        tables = extract_dispatch_tables(p, p.modules["repro.core.dispatch"])
        assert len(tables) == 1
        entries = tables[0].entries
        assert set(entries) == {
            "onestep", "onestep-seq", "twostep", "blocked", "dimtree",
            "baseline",
        }
        assert entries["baseline"].name == "mttkrp_baseline"

    def test_aux_sources_loaded_from_repo_root(self):
        p = Project.load([SRC / "core" / "dispatch.py"])
        assert any("test_oracle" in m.name for m in p.aux_modules)
        assert "MTTKRP" in p.docs_text


# --------------------------------------------------------------------- #
# dataflow substrate
# --------------------------------------------------------------------- #

class TestDataflow:
    def _body(self, src):
        import ast

        return ast.parse(src).body

    def test_view_provenance_tracks_reshape_alias(self):
        prov = view_provenance(
            self._body("flat = out.reshape(-1)"), {"out"}, set(),
        )
        (v,) = prov["flat"]
        assert v.base == "out" and not v.partitioned

    def test_partition_indexed_view_is_partitioned(self):
        prov = view_provenance(
            self._body("block = out[start:stop]"), {"out"},
            {"start", "stop"},
        )
        (v,) = prov["block"]
        assert v.base == "out" and v.partitioned

    def test_provenance_chains_through_views(self):
        prov = view_provenance(
            self._body("a = out.reshape(-1)\nb = a.view()\n"),
            {"out"}, set(),
        )
        assert {v.base for v in prov["b"]} == {"out"}

    def test_write_summary_fixed_vs_dependent(self):
        src = (
            "def fixed_row(buf, v):\n"
            "    buf[0] = v\n"
            "def indexed_row(buf, row, v):\n"
            "    buf[row] = v\n"
        )
        p = Project()
        import ast as _ast  # noqa: F401 — Project.add_module parses

        mod_path = FIXTURES / "ra007_pos.py"  # any real path works
        mod = p.add_module(mod_path.with_name("synth.py"), src)
        assert mod is not None
        summaries = write_summaries(p)
        fixed = summaries["synth.fixed_row"].writes_to("buf")
        assert fixed and all(w.fixed for w in fixed)
        dep = summaries["synth.indexed_row"].writes_to("buf")
        assert dep and all(w.depends == frozenset({"row"}) for w in dep)

    def test_write_summary_propagates_through_calls(self):
        src = (
            "def inner(dst, i, v):\n"
            "    dst[i] = v\n"
            "def outer(arr, j):\n"
            "    inner(arr, j, 1.0)\n"
        )
        p = Project()
        p.add_module(FIXTURES / "synth2.py", src)
        summaries = write_summaries(p)
        (w,) = summaries["synth2.outer"].writes_to("arr")
        assert w.how == "call:inner"
        assert w.depends == frozenset({"j"})


# --------------------------------------------------------------------- #
# project rules over their fixtures
# --------------------------------------------------------------------- #

class TestProjectRuleFixtures:
    @pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
    def test_positive_fixture_fires(self, rule_id):
        name = f"{rule_id.lower()}_pos.py"
        # RA010's surfaces are cross-module: lint the pos/neg pair so a
        # tuner/bench surface exists in the project at all.
        names = [name, f"{rule_id.lower()}_neg.py"]
        hits = project_findings_for(names, rule_id)
        assert hits, f"{name} produced no {rule_id} findings"
        for f in hits:
            assert Path(f.path).name == name
            assert not f.suppressed
            assert f.line > 0
            assert f.message and f.hint

    @pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
    def test_negative_fixture_clean(self, rule_id):
        names = [f"{rule_id.lower()}_pos.py", f"{rule_id.lower()}_neg.py"]
        neg = f"{rule_id.lower()}_neg.py"
        hits = [
            f for f in project_findings_for(names)
            if Path(f.path).name == neg
        ]
        assert hits == []

    def test_ra007_flags_both_escape_shapes(self):
        hits = project_findings_for(["ra007_pos.py"], "RA007")
        msgs = " | ".join(f.message for f in hits)
        assert "unpartitioned alias" in msgs
        assert "_fill_header" in msgs

    def test_ra009_names_kernel_and_method(self):
        hits = project_findings_for(["ra009_pos.py"], "RA009")
        assert len(hits) == 2
        assert any("'fast'" in f.message for f in hits)
        assert any("'slow'" in f.message for f in hits)

    def test_ra010_reports_each_missing_surface(self):
        hits = project_findings_for(
            ["ra010_pos.py", "ra010_neg.py"], "RA010",
        )
        surfaces = {f.message.split("the ")[1].split(" surface")[0]
                    for f in hits}
        assert surfaces == {"oracle", "tuner", "bench", "docs"}
        # Findings anchor on the tuple element lines, where a
        # suppression comment would go.
        lines = {f.line for f in hits}
        assert len(lines) == 2

    def test_ra010_suppression_on_tuple_line(self, tmp_path):
        src = (FIXTURES / "ra010_pos.py").read_text()
        # A directive on line N also covers N+1, so keep a spacer line
        # between the elements to suppress only quuxstep.
        src = src.replace(
            '    "quuxstep",',
            '    "quuxstep",  # repro: ignore[RA010]\n    # (spacer)',
        )
        p = tmp_path / "ra010_sup.py"
        p.write_text(src)
        found = [f for f in lint_project([p]) if f.rule == "RA010"]
        quux = [f for f in found if "quuxstep" in f.message]
        zorb = [f for f in found if "zorbstep" in f.message]
        assert quux and all(f.suppressed for f in quux)
        assert zorb and not any(f.suppressed for f in zorb)

    def test_get_project_rules_filter(self):
        assert [r.id for r in get_project_rules(["RA009"])] == ["RA009"]
        assert [r.id for r in get_project_rules(None)] == PROJECT_RULE_IDS

    def test_lint_paths_merges_project_findings(self):
        found = lint_paths([FIXTURES])
        ids = {f.rule for f in found}
        assert {"RA007", "RA008", "RA009", "RA010"} <= ids


# --------------------------------------------------------------------- #
# baseline ratchet
# --------------------------------------------------------------------- #

class TestBaselineRatchet:
    def test_round_trip_and_ratchet(self, tmp_path):
        findings = lint_paths([FIXTURES])
        bl = tmp_path / "baseline.json"
        payload = write_baseline(bl, findings)
        assert payload["total"] > 0
        assert payload["by_rule"].get("RA010", 0) >= 8

        ok, problems = check_baseline(bl, findings)
        assert ok, problems

        # Fewer findings: still ok, nudges toward re-writing.
        fewer = [f for f in findings if f.rule != "RA010"]
        ok, problems = check_baseline(bl, fewer)
        assert ok
        assert any("went down" in p for p in problems)

        # More findings of an existing rule: ratchet trips.
        ok, problems = check_baseline(bl, findings + findings[:1])
        assert not ok

    def test_new_rule_counts_as_regression(self, tmp_path):
        findings = lint_paths([FIXTURES])
        bl = tmp_path / "baseline.json"
        write_baseline(bl, [f for f in findings if f.rule != "RA009"])
        ok, problems = check_baseline(bl, findings)
        assert not ok
        assert any("RA009" in p for p in problems)

    def test_missing_baseline_fails_closed(self, tmp_path):
        ok, problems = check_baseline(tmp_path / "nope.json", [])
        assert not ok
        assert "baseline write" in problems[0]

    def test_repo_baseline_is_current(self, src_findings):
        # The committed baseline must match a fresh run: zero findings.
        ok, problems = check_baseline(REPO / "analysis-baseline.json",
                                      src_findings)
        assert ok, problems
        recorded = json.loads(
            (REPO / "analysis-baseline.json").read_text()
        )
        assert recorded["total"] == 0

    def test_cli_baseline_check_exit_codes(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "repro.analysis", *args],
                capture_output=True, text=True, cwd=REPO, env=env,
                timeout=300,
            )

        bl = tmp_path / "bl.json"
        res = run("baseline", "check", str(FIXTURES),
                  "--baseline-file", str(bl))
        assert res.returncode == 2  # no baseline yet: fail closed
        res = run("baseline", "write", str(FIXTURES),
                  "--baseline-file", str(bl))
        assert res.returncode == 0
        res = run("baseline", "check", str(FIXTURES),
                  "--baseline-file", str(bl))
        assert res.returncode == 0, res.stdout + res.stderr


# --------------------------------------------------------------------- #
# incremental cache
# --------------------------------------------------------------------- #

class TestIncrementalCache:
    def _key(self):
        return LintCache.rules_signature(ALL_RULES, PROJECT_RULES)

    def test_cached_rerun_matches_and_is_faster(self, tmp_path):
        cache_path = tmp_path / "cache.json"

        t0 = time.perf_counter()
        cache = LintCache(cache_path, self._key())
        cold = lint_paths([SRC], cache=cache)
        cache.save()
        t_cold = time.perf_counter() - t0

        t0 = time.perf_counter()
        cache2 = LintCache(cache_path, self._key())
        warm = lint_paths([SRC], cache=cache2)
        t_warm = time.perf_counter() - t0

        assert warm == cold
        assert cache2.misses == 0 and cache2.hits > 20
        # Acceptance: the cached full-tree run is >= 5x faster.
        assert t_cold >= 5 * t_warm, (
            f"cached run not 5x faster: cold={t_cold:.3f}s "
            f"warm={t_warm:.3f}s"
        )

    def test_edited_file_invalidates_only_itself(self, tmp_path):
        work = tmp_path / "tree"
        work.mkdir()
        for n in ("ra008_pos.py", "ra008_neg.py"):
            (work / n).write_text((FIXTURES / n).read_text())
        cache_path = tmp_path / "cache.json"

        cache = LintCache(cache_path, self._key())
        before = lint_paths([work], cache=cache)
        cache.save()

        # Append a fresh violation to one file.
        with open(work / "ra008_neg.py", "a") as fh:
            fh.write(
                "\n\ndef late_use(ws):\n"
                "    buf = ws.buffer(\"krp.x\", (4,), \"float64\")\n"
                "    ws.close()\n"
                "    return buf.sum()\n"
            )
        cache2 = LintCache(cache_path, self._key())
        after = lint_paths([work], cache=cache2)
        assert cache2.hits >= 1  # untouched file served from cache
        assert cache2.misses >= 1  # edited file re-linted
        new = [f for f in after if f not in before]
        assert any(
            f.rule == "RA008" and "ra008_neg" in f.path for f in new
        )

    def test_rules_signature_mismatch_discards(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache = LintCache(cache_path, "sig-a")
        cache.put_file("x.py", "source", [])
        cache.save()
        fresh = LintCache(cache_path, "sig-b")
        assert fresh.get_file("x.py", "source") is None

    def test_corrupt_cache_is_ignored(self, tmp_path):
        cache_path = tmp_path / "cache.json"
        cache_path.write_text("{not json")
        cache = LintCache(cache_path, self._key())
        assert cache.get_file("x.py", "src") is None  # no crash


# --------------------------------------------------------------------- #
# --changed mode
# --------------------------------------------------------------------- #

class TestChangedMode:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", *args], cwd=cwd, check=True, capture_output=True,
            env={**os.environ,
                 "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
                 "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t"},
        )

    def _run_cli(self, cwd, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
        ).rstrip(os.pathsep)
        return subprocess.run(
            [sys.executable, "-m", "repro.analysis", *args],
            capture_output=True, text=True, cwd=cwd, env=env, timeout=300,
        )

    def test_changed_lints_only_the_diff(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        clean = repo / "clean.py"
        clean.write_text("def ok():\n    return 1\n")
        dirty = repo / "dirty.py"
        dirty.write_text("def ok2():\n    return 2\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")

        # Introduce an RA008 violation in one file only.
        dirty.write_text(
            "def bad(ws):\n"
            "    buf = ws.buffer(\"krp.x\", (4,), \"float64\")\n"
            "    ws.close()\n"
            "    return buf.sum()\n"
        )
        res = self._run_cli(repo, ".", "--changed")
        assert res.returncode == 1
        assert "dirty.py" in res.stdout
        assert "clean.py" not in res.stdout

    def test_changed_with_no_diff_is_clean_exit(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        (repo / "mod.py").write_text("def ok():\n    return 1\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        res = self._run_cli(repo, ".", "--changed")
        assert res.returncode == 0
        assert "no changed files" in res.stdout

    def test_changed_includes_untracked(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        self._git(repo, "init", "-q")
        (repo / "mod.py").write_text("def ok():\n    return 1\n")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-qm", "seed")
        (repo / "fresh.py").write_text(
            "def bad(ws):\n"
            "    buf = ws.buffer(\"krp.x\", (4,), \"float64\")\n"
            "    ws.close()\n"
            "    return buf.sum()\n"
        )
        res = self._run_cli(repo, ".", "--changed")
        assert res.returncode == 1
        assert "fresh.py" in res.stdout
