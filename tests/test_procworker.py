"""The process-worker primitive: start method, messaging, death, teardown.

The echo child lives at module level so it pickles under ``spawn`` too.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.parallel.backend import ProcessExecutor
from repro.parallel.pool import WorkerError
from repro.parallel.procworker import (
    WorkerProcess,
    mp_context,
    pack_exception,
    revive_exception,
)


def echo_main(rank, conn, tag):
    """Reply ``(word, rank, tag)``.

    ``exit`` dies without replying; ``last`` replies, then dies.
    """
    while True:
        try:
            msg = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        if msg[0] == "exit":
            os._exit(3)
        conn.send_bytes(pickle.dumps((msg[0], rank, tag)))
        if msg[0] == "last":
            os._exit(0)


def k_fill(worker, start, stop, out):
    out[start:stop] = np.arange(start, stop)


@pytest.fixture
def echo():
    worker = WorkerProcess(
        4, mp_context(), echo_main, ("t",), daemon=True, name="echo-4"
    )
    yield worker
    worker.stop()


def recv_blocking(worker, timeout=10.0):
    for _ in range(int(timeout / 0.05)):
        msg = worker.recv(0.05)
        if msg is not None:
            return msg
    raise AssertionError("no reply")


def assert_died(excinfo, rank=4):
    err = excinfo.value
    assert err.worker == rank
    assert isinstance(err.__cause__, RuntimeError)
    assert err.__cause__ is err.original
    assert "died" in str(err.__cause__)


class TestWorkerProcess:
    def test_roundtrip(self, echo):
        assert echo.pid not in (None, os.getpid())
        echo.send(("hi",))
        assert recv_blocking(echo) == ("hi", 4, "t")

    def test_recv_times_out_while_alive(self, echo):
        assert echo.recv(0.01) is None

    def test_death_on_recv(self, echo):
        echo.send(("exit",))
        with pytest.raises(WorkerError) as excinfo:
            recv_blocking(echo)
        assert_died(excinfo)

    def test_reply_sent_before_exit_is_drained(self, echo):
        echo.send(("last",))
        echo._proc.join(5.0)
        assert not echo._proc.is_alive()
        assert echo.recv(0.05) == ("last", 4, "t")
        with pytest.raises(WorkerError) as excinfo:
            echo.recv(0.05)
        assert_died(excinfo)

    def test_send_to_dead_process(self, echo):
        echo.kill()
        echo._proc.join(5.0)
        with pytest.raises(WorkerError) as excinfo:
            echo.send(("hi",))
        assert_died(excinfo)

    def test_respawn(self, echo):
        pid = echo.pid
        echo.kill()
        echo.respawn()
        assert echo.respawns == 1
        assert echo.pid != pid
        echo.send(("again",))
        assert recv_blocking(echo) == ("again", 4, "t")

    def test_stop_is_final(self, echo):
        proc = echo._proc
        echo.stop()
        assert not proc.is_alive()
        assert echo.pid is None
        echo.stop()  # idempotent
        with pytest.raises(WorkerError) as excinfo:
            echo.send(("hi",))
        assert_died(excinfo)
        with pytest.raises(WorkerError):
            echo.recv(0.01)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


class TestExceptionShipping:
    def test_roundtrip_keeps_type_and_frames(self):
        try:
            raise ValueError("boom")
        except ValueError as exc:
            packed = pack_exception(exc)
        revived = revive_exception(*packed)
        assert isinstance(revived, ValueError)
        assert str(revived) == "boom"
        assert "test_roundtrip_keeps_type_and_frames" in revived.worker_traceback

    def test_unpicklable_becomes_runtime_error(self):
        try:
            raise _Unpicklable("odd")
        except _Unpicklable as exc:
            packed = pack_exception(exc)
        assert packed[0] is None
        revived = revive_exception(*packed)
        assert type(revived) is RuntimeError
        assert "_Unpicklable('odd')" in str(revived)
        assert "Traceback" in str(revived)


DEFAULT_METHOD = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


class TestStartMethod:
    @pytest.mark.parametrize("env", [None, "", "  "])
    def test_unset_or_blank_env_gives_default(self, env, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START", raising=False)
        if env is not None:
            monkeypatch.setenv("REPRO_MP_START", env)
        assert mp_context().get_start_method() == DEFAULT_METHOD
        assert mp_context("").get_start_method() == DEFAULT_METHOD

    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "forkk")
        assert mp_context("spawn").get_start_method() == "spawn"

    def test_invalid_argument_named(self):
        with pytest.raises(ValueError, match="start_method='forkk'"):
            mp_context("forkk")


def _start_executor():
    ex = ProcessExecutor(2)
    try:
        out = ex.allocate_shared((4,))
        ex.parallel_for(k_fill, 4, args=(out,))
        np.testing.assert_array_equal(out, np.arange(4.0))
    finally:
        ex.shutdown()


def _start_server():
    from repro.serve import JobServer, ServeConfig

    JobServer(ServeConfig(workers=1)).shutdown()


@pytest.mark.parametrize("start", [_start_executor, _start_server],
                         ids=["executor", "server"])
class TestStartMethodEntryPoints:
    def test_blank_env_means_unset(self, start, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "")
        start()

    def test_invalid_env_names_the_variable(self, start, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START", "forkk")
        with pytest.raises(ValueError, match="REPRO_MP_START='forkk'"):
            start()
