"""One worker process, end to end: spawn, message, liveness, teardown.

:class:`WorkerProcess` is the only worker-process implementation: the
:class:`~repro.parallel.backend.ProcessExecutor` team and the
:class:`~repro.serve.server.JobServer` pool both use it, each with its
own child loop and message protocol.  A dead child always surfaces as a
:class:`~repro.parallel.pool.WorkerError` whose ``__cause__`` is a
``RuntimeError`` saying the worker died.  :func:`mp_context` is the one
reader of ``REPRO_MP_START``; :func:`pack_exception` and
:func:`revive_exception` carry a child's Python exception to the parent.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import traceback
from collections.abc import Callable, Sequence

from repro.parallel.pool import WorkerError

__all__ = ["mp_context", "WorkerProcess", "pack_exception", "revive_exception"]


def mp_context(start_method: str | None = None):
    """The :mod:`multiprocessing` context worker processes start from.

    The method is ``start_method``, else ``REPRO_MP_START``, else
    ``"fork"`` where available, else ``"spawn"``.  A blank value counts as
    unset; an unknown one raises :class:`ValueError` naming its source.
    """
    source, method = "start_method", (start_method or "").strip()
    if not method:
        source = "REPRO_MP_START"
        method = os.environ.get(source, "").strip()
    if not method:
        available = multiprocessing.get_all_start_methods()
        method = "fork" if "fork" in available else "spawn"
    try:
        return multiprocessing.get_context(method)
    except ValueError:
        raise ValueError(
            f"{source}={method!r} is not a multiprocessing start method; "
            f"choose from {multiprocessing.get_all_start_methods()}"
        ) from None


def pack_exception(exc: BaseException) -> tuple:
    """``(exc_bytes, repr, traceback)`` for shipping ``exc`` to the parent.

    ``exc_bytes`` is ``None`` when the exception does not pickle.
    """
    tb_text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    try:
        exc_bytes = pickle.dumps(exc)
    except Exception:
        exc_bytes = None
    return exc_bytes, repr(exc), tb_text


def revive_exception(exc_bytes, exc_repr: str, tb_text: str) -> BaseException:
    """Rebuild a shipped exception; its worker frames go on ``worker_traceback``.

    An exception that did not pickle (or unpickle) comes back as a
    ``RuntimeError`` carrying its repr and traceback text.
    """
    try:
        original = pickle.loads(exc_bytes)
    except Exception:  # also exc_bytes=None: the exception did not pickle
        return RuntimeError(f"{exc_repr}\n{tb_text}")
    original.worker_traceback = tb_text
    return original


def _child_main(target, parent_end, rank, conn, *args) -> None:
    # A forked child starts with a copy of the parent's end of its own
    # pipe; while that copy is open, ``conn`` never reports EOF when the
    # parent goes away.
    if parent_end is not None:
        parent_end.close()
    target(rank, conn, *args)


class WorkerProcess:
    """Parent-side owner of one worker process and its pipe.

    The child runs ``target(rank, conn, *args)`` and exchanges pickled
    messages on ``conn``; the tuple ``("stop",)`` asks it to return, and
    ``conn`` reports EOF once the parent's end closes.
    ``send`` may be called from several threads; ``recv`` from one.
    """

    def __init__(
        self,
        rank: int,
        ctx,
        target: Callable[..., None],
        args: Sequence = (),
        *,
        daemon: bool,
        name: str,
    ) -> None:
        self.rank = rank
        self.name = name
        self.respawns = 0
        self._ctx = ctx
        self._target = target
        self._args = tuple(args)
        self._daemon = daemon
        self._proc = None
        self._conn = None
        # A Connection tolerates one concurrent sender only.
        self._send_lock = threading.Lock()
        self._spawn()

    def _spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        # Other start methods pickle the args, which would hand the child
        # a fresh copy of parent_conn instead of the inherited one.
        forked = self._ctx.get_start_method() == "fork"
        proc = self._ctx.Process(
            target=_child_main,
            args=(self._target, parent_conn if forked else None,
                  self.rank, child_conn) + self._args,
            name=self.name,
            daemon=self._daemon,
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn

    @property
    def pid(self) -> int | None:
        return self._proc.pid if self._proc is not None else None

    def _died(self, detail: str) -> WorkerError:
        cause = RuntimeError(f"worker process {self.name} died: {detail}")
        err = WorkerError(self.rank, cause)
        err.__cause__ = cause
        return err

    # -- messaging ------------------------------------------------------ #

    def send(self, msg) -> None:
        """Pickle and ship ``msg``; :class:`WorkerError` on a broken pipe."""
        self.send_bytes(pickle.dumps(msg))

    def send_bytes(self, payload: bytes) -> None:
        """Ship an already-pickled message (see :meth:`send`)."""
        with self._send_lock:
            conn = self._conn
            if conn is None:
                raise self._died("no process")
            try:
                conn.send_bytes(payload)
            except (OSError, ValueError) as exc:
                raise self._died(f"pipe send failed ({exc!r})")

    def recv(self, timeout: float = 0.05):
        """One message, or ``None`` if none arrives within ``timeout``.

        Raises :class:`WorkerError` once the process is gone.  A reply
        the process sent just before exiting is still returned.
        """
        conn, proc = self._conn, self._proc
        if conn is None or proc is None:  # stopped, maybe by another thread
            raise self._died("no process")
        try:
            if not conn.poll(timeout):
                if proc.is_alive():
                    return None
                if not conn.poll(0):
                    raise self._died(f"exitcode={proc.exitcode}")
            return pickle.loads(conn.recv_bytes())
        except (EOFError, OSError) as exc:
            raise self._died(
                f"channel closed ({exc!r}, exitcode={proc.exitcode})"
            )

    # -- lifecycle ------------------------------------------------------ #

    def stop(self, timeout: float = 2.0) -> None:
        """Ask the process to exit; escalate to terminate, then kill."""
        self._teardown(graceful=True, timeout=timeout)

    def respawn(self) -> None:
        """Replace a dead (or wedged) process with a fresh one."""
        self._teardown(graceful=False)
        self.respawns += 1
        self._spawn()

    def kill(self) -> None:
        """SIGKILL the process (fault-injection hook)."""
        if self._proc is not None:
            self._proc.kill()

    def _teardown(self, graceful: bool, timeout: float = 2.0) -> None:
        with self._send_lock:
            proc, conn = self._proc, self._conn
            self._proc = self._conn = None
        if proc is None:
            return
        if graceful and proc.is_alive():
            try:
                conn.send_bytes(pickle.dumps(("stop",)))
            except (OSError, ValueError):
                pass
        proc.join(timeout if graceful else 0.1)
        if proc.is_alive():
            proc.terminate()
            proc.join(1.0)
        if proc.is_alive():  # pragma: no cover - stuck in C code
            proc.kill()
            proc.join(1.0)
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass
