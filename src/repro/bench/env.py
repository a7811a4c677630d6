"""Host and repository provenance for benchmark records.

Every speed number this repository publishes is only interpretable
relative to *where* and *when* it was measured: a 1-CPU container and a
12-core Xeon produce different truths, and a dirty working tree produces
numbers no commit can vouch for.  This module captures that context once,
in one shape, for every producer — the ``repro-bench`` registry runners
and the figure text exports — replacing the hand-rolled
``{"cpus": ..., "platform": ...}`` dicts that previously drifted apart
across ``results/BENCH_*.json``.

Three layers:

* :func:`host_fingerprint` — the full provenance dict stored inside each
  normalized record (cpus, platform, machine, python, BLAS threads, git
  rev + dirty flag);
* :func:`host_class` — a deliberately coarse equivalence key
  (``"x86_64-1cpu"``) used by :mod:`repro.bench.trend` to decide which
  committed baselines are comparable to the current host;
* :func:`provenance_header` — a ``#``-commented text header stamped onto
  ``results/fig*.txt`` exports so the text tables stop being context-free.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

__all__ = [
    "blas_threads",
    "git_revision",
    "host_class",
    "host_class_of",
    "host_fingerprint",
    "provenance_header",
]


def blas_threads() -> int | None:
    """Thread count the loaded BLAS reports right now
    (:func:`repro.parallel.blas.get_blas_threads`; ``None`` when the
    library exposes no thread control)."""
    from repro.parallel.blas import get_blas_threads

    return get_blas_threads()


def git_revision(repo_dir: str | None = None) -> tuple[str | None, bool]:
    """``(rev, dirty)`` of the repository containing ``repo_dir``.

    ``rev`` is the full commit hash, or ``None`` outside a git checkout
    (records remain writable from an installed wheel — provenance is then
    simply unknown).  ``dirty`` is True when tracked files have
    uncommitted modifications: a number measured on a dirty tree must
    never be mistaken for the committed revision's number.
    """
    cwd = repo_dir or os.path.dirname(os.path.abspath(__file__))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        if rev.returncode != 0:
            return None, False
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=cwd, capture_output=True, text=True, timeout=10,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else False
        return rev.stdout.strip(), dirty
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        return None, False


def host_fingerprint(repo_dir: str | None = None) -> dict:
    """The normalized host/provenance dict stored in every record.

    Keys (all always present; unknown values are ``None``):

    ``cpus``, ``machine``, ``platform``, ``python``, ``blas_threads``,
    ``git_rev``, ``git_dirty``.
    """
    rev, dirty = git_revision(repo_dir)
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine() or None,
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "blas_threads": blas_threads(),
        "git_rev": rev,
        "git_dirty": dirty,
    }


def host_class_of(host: dict) -> str:
    """Coarse comparability key for a stored host dict.

    ``"<machine>-<cpus>cpu"`` — two runs are trend-comparable only when
    they share an ISA and a core count.  Tolerates the pre-schema
    ``results/BENCH_*.json`` host dicts, which recorded only ``cpus`` and
    a ``platform.platform()`` string: the machine token is recovered from
    the platform string's ``-<machine>-with-`` segment.
    """
    machine = host.get("machine")
    if not machine:
        plat = str(host.get("platform", ""))
        for token in ("x86_64", "aarch64", "arm64", "ppc64le", "s390x"):
            if token in plat:
                machine = token
                break
    cpus = host.get("cpus")
    return f"{machine or 'unknown'}-{cpus if cpus else '?'}cpu"


def host_class(repo_dir: str | None = None) -> str:
    """:func:`host_class_of` for the current host."""
    return host_class_of(host_fingerprint(repo_dir))


def provenance_header(
    *,
    scale: float | None = None,
    threads: object = None,
    extra: dict | None = None,
    comment: str = "#",
) -> str:
    """Commented provenance block for text exports (``results/fig*.txt``).

    One ``comment``-prefixed line per fact; the figure tables follow
    unchanged below, so existing text-diff workflows keep working.
    """
    fp = host_fingerprint()
    rev = fp["git_rev"] or "unknown"
    if fp["git_dirty"]:
        rev += "+dirty"
    lines = [
        f"{comment} generated by repro.bench (schema provenance header)",
        f"{comment} git_rev: {rev}",
        f"{comment} host: cpus={fp['cpus']} machine={fp['machine']} "
        f"python={fp['python']} blas_threads={fp['blas_threads']}",
        f"{comment} platform: {fp['platform']}",
    ]
    if scale is not None:
        lines.append(f"{comment} scale: {scale}")
    if threads is not None:
        if isinstance(threads, (list, tuple)):
            threads = ",".join(str(t) for t in threads)
        lines.append(f"{comment} threads: {threads}")
    for key, value in (extra or {}).items():
        lines.append(f"{comment} {key}: {value}")
    return "\n".join(lines) + "\n"
