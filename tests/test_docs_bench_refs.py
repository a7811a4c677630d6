"""Docs must point only at benchmarks that exist.

Every ``repro-bench run NAME`` in the docs names a registered suite,
every cited ``suite:case`` id is one that suite's runner produces, and
no text sends a reader to the removed pytest-based benchmark harness.
"""

import glob
import os
import re
from pathlib import Path

import pytest

from repro.bench.registry import benchmark_names, run_benchmark

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = {
    os.path.relpath(path, REPO_ROOT): Path(path).read_text(encoding="utf-8")
    for path in [os.path.join(REPO_ROOT, name)
                 for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
    + sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
}
RUN_COMMAND = re.compile(
    r"(?:repro-bench|python -m repro\.bench(?:\.cli)?)[ \t]+run"
    r"((?:[ \t]+[a-z0-9][a-z0-9-]*)+)"
)
# The character classes keep this file out of a plain-text search for
# the same strings.
REMOVED = re.compile(
    r"(?<![\w-])benchmarks[/]|repro[.]bench[.]report|--benchmark[-]only"
    r"|REPRO_BENCH_(?:SCALE|THREADS)"
)


def _expand(case):
    """``a/{b,c}`` -> ``["a/b", "a/c"]`` (brace groups may repeat)."""
    group = re.search(r"\{([^{}]*)\}", case)
    if group is None:
        return [case]
    head, tail = case[:group.start()], case[group.end():]
    return [full for alt in group.group(1).split(",")
            for full in _expand(head + alt + tail)]


@pytest.mark.parametrize("doc", sorted(DOCS))
def test_doc_names_only_existing_benchmarks(doc):
    text = DOCS[doc]
    named = {name for match in RUN_COMMAND.finditer(text)
             for name in match.group(1).split()}
    assert named <= set(benchmark_names()), sorted(named - set(benchmark_names()))
    stale = [line.strip() for line in text.splitlines() if REMOVED.search(line)]
    assert not stale, stale


def test_cited_cases_are_produced():
    suites = "|".join(re.escape(name) for name in benchmark_names())
    cited: dict[str, set[str]] = {}
    for text in DOCS.values():
        for suite, case in re.findall(rf"`({suites}):([^`\s]+)`", text):
            cited.setdefault(suite, set()).update(_expand(case))
    assert "ablations" in cited, "the docs cite no ablations case"
    missing = []
    for suite, cases in sorted(cited.items()):
        # Default scale and threads: what ``repro-bench run`` records.
        produced = {r["case"] for r in run_benchmark(suite, repeats=1)}
        missing += [f"{suite}:{case}" for case in sorted(cases - produced)]
    assert not missing, missing
