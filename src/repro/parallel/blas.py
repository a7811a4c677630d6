"""Best-effort control of the BLAS library's internal thread count.

The paper combines OpenMP threading *outside* BLAS with multithreaded BLAS
*inside* single calls (the 2-step algorithm's parallelism is entirely inside
its one big GEMM).  To reproduce that split we need to set the BLAS thread
count at runtime.  NumPy offers no portable API, so we locate the OpenBLAS
control functions with :mod:`ctypes` in the already-loaded shared objects.
Both symbol families are probed: the ``scipy_openblas_*`` names the
``scipy-openblas`` wheels numpy ships with (64- and 32-bit integer
builds), and the plain ``openblas_*`` names of a system OpenBLAS.

If no control function is found the setters become no-ops and
:func:`get_blas_threads` returns ``None``.  That is only silent when
numpy does not link OpenBLAS at all: when ``numpy.show_config`` reports
OpenBLAS but no setter resolves, the first lookup warns
(:class:`RuntimeWarning`) and every no-op request bumps the
``blas.control_unavailable`` obs counter.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import glob
import os
import threading
import warnings
from contextlib import contextmanager

from repro.analysis.sanitizer import SanitizerError, is_sanitizing
from repro.obs import get_tracer

__all__ = [
    "set_blas_threads",
    "get_blas_threads",
    "blas_threads",
    "assert_native_layout",
]

# (setter, getter) symbol pairs, scipy-openblas wheels first.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_controls: tuple | None = None
_searched = False
_control_expected = False


def _candidate_paths():
    """Shared objects that may expose openblas_set_num_threads, cheapest
    lookups first.

    A generator, so :func:`_load` stops at the first library that
    exports the control: ``ctypes.util.find_library`` runs ``ldconfig``
    and the compiler in subprocesses, which costs tens of milliseconds
    and is only reached when numpy's own OpenBLAS was not found.
    """
    seen: set[str] = set()

    def fresh(paths):
        for p in paths:
            if p not in seen:
                seen.add(p)
                yield p

    try:
        import numpy

        numpy_dir = os.path.dirname(numpy.__file__)
        for pattern in (
            os.path.join(numpy_dir, ".libs", "*openblas*"),
            os.path.join(numpy_dir, "..", "numpy.libs", "*openblas*"),
            os.path.join(numpy_dir, "..", "scipy_openblas64", "lib", "*.so*"),
            os.path.join(numpy_dir, "..", "scipy_openblas32", "lib", "*.so*"),
        ):
            yield from fresh(sorted(glob.glob(pattern)))
    except Exception:  # pragma: no cover - numpy always importable here
        pass
    # Already-mapped libraries (covers system OpenBLAS).
    try:
        with open("/proc/self/maps") as fh:
            mapped = [
                part[-1] for part in (line.split() for line in fh)
                if part and "openblas" in part[-1].lower()
            ]
        yield from fresh(mapped)
    except OSError:  # pragma: no cover - non-Linux
        pass
    found = ctypes.util.find_library("openblas")
    if found:
        yield from fresh([found])


def _numpy_links_openblas() -> bool:
    """Whether numpy's build configuration names OpenBLAS as its BLAS."""
    try:
        import numpy

        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "openblas" in str(blas.get("name", "")).lower()
    except Exception:  # pragma: no cover - numpy without build metadata
        return False


def _load() -> tuple | None:
    """``(setter, getter)`` of the loaded BLAS (``getter`` may be
    ``None``), or ``None`` when no control function is exported."""
    global _controls, _searched, _control_expected
    with _lock:
        if _searched:
            return _controls
        _searched = True
        for path in _candidate_paths():
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for set_name, get_name in _SYMBOLS:
                setter = getattr(lib, set_name, None)
                if setter is None:
                    continue
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter = getattr(lib, get_name, None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                _controls = (setter, getter)
                return _controls
        _control_expected = _numpy_links_openblas()
    if _control_expected:
        warnings.warn(
            "numpy links OpenBLAS but no thread-control function was "
            "found (probed: " + ", ".join(s for s, _ in _SYMBOLS) + "); "
            "BLAS thread requests are ignored",
            RuntimeWarning,
            stacklevel=3,
        )
    return None


def set_blas_threads(n: int) -> bool:
    """Request that BLAS use ``n`` threads for subsequent calls.

    Returns ``True`` if a control function was found and invoked, ``False``
    if thread control is unavailable (the request is then a no-op).
    """
    n = int(n)
    if n <= 0:
        raise ValueError(f"thread count must be positive, got {n}")
    controls = _load()
    if controls is None:
        if _control_expected:
            get_tracer().add_counter("blas.control_unavailable", 1)
        return False
    controls[0](n)
    return True


def get_blas_threads() -> int | None:
    """Current BLAS thread count, or ``None`` when control is unavailable."""
    controls = _load()
    if controls is None or controls[1] is None:
        return None
    return int(controls[1]())


def assert_native_layout(arr, context: str = "operand"):
    """Assert ``arr`` is contiguous in *some* order before a BLAS call.

    The runtime counterpart of lint rules RA003/RA004 (see
    ``docs/analysis.md``): an operand contiguous in neither order forces a
    hidden copy per call — or, as an ``out=`` destination, routes BLAS
    output through foreign strides onto a different code path.  Call sites
    use this to back layout assumptions the static lint cannot prove
    (e.g. "this reshape of a flat shared buffer is C-contiguous").

    No-op unless the write-set sanitizer is enabled (``REPRO_SANITIZE=1``
    or an open :func:`repro.analysis.sanitize` context); returns ``arr``
    either way so it composes inline.
    """
    if not is_sanitizing():
        return arr
    flags = arr.flags
    if not (flags["C_CONTIGUOUS"] or flags["F_CONTIGUOUS"]):
        raise SanitizerError(
            f"{context}: array of shape {arr.shape} with strides "
            f"{arr.strides} is contiguous in neither order — BLAS would "
            f"copy it per call (or write output through foreign strides); "
            f"materialize it explicitly (np.ascontiguousarray or an "
            f"order-pinned copy)"
        )
    return arr


@contextmanager
def blas_threads(n: int):
    """Context manager scoping a BLAS thread count, restoring the prior one.

    >>> with blas_threads(1):
    ...     pass  # BLAS calls in here are single-threaded (if controllable)
    """
    previous = get_blas_threads()
    set_blas_threads(n)
    try:
        yield
    finally:
        if previous is not None:
            set_blas_threads(previous)
