"""Executor abstraction and shared-memory arena (process backend).

Worker kernels must live at module level: the process backend pickles a
reference to the function, and the forked/spawned child resolves it by
importing this module.
"""

import contextlib
import os
import signal

import numpy as np
import pytest

import repro.obs as obs
from repro.parallel.backend import (
    Executor,
    ProcessExecutor,
    ThreadExecutor,
    get_executor,
    reset_worker_runtime_state,
    shutdown_all_executors,
)
from repro.parallel.config import set_backend, use_backend
from repro.parallel.pool import WorkerError, shutdown_all_pools
from repro.parallel.reduction import parallel_reduce
from repro.parallel.shm import ShmArena, ShmHandle, attach
from repro.tensor.dense import DenseTensor


# --------------------------------------------------------------------- #
# module-level kernels (picklable for the process backend)
# --------------------------------------------------------------------- #


def k_fill_ranges(worker, start, stop, out):
    out[start:stop] = np.arange(start, stop)


def k_mark_worker(worker, start, stop, out):
    out[start:stop] = worker


def k_square_tensor_rows(worker, start, stop, tensor, out):
    arr = tensor.unfold_mode0()
    out[start:stop] = (arr[start:stop] ** 2).sum(axis=1)


def k_raise_on_worker(worker, start, stop, bad):
    if worker in bad:
        raise ValueError(f"boom from {worker}")


def k_write_pid(worker, start, stop, out):
    out[worker] = os.getpid()


def k_traced(worker, start, stop, out):
    tracer = obs.get_tracer()
    with tracer.span("inner_work", worker=worker):
        out[start:stop] = 1.0
    tracer.add_counter("items_done", stop - start)


def k_sigkill_rank1(worker, start, stop):
    if worker == 1:
        os.kill(os.getpid(), signal.SIGKILL)


def k_unpicklable_closure():  # placeholder; real test uses a lambda
    pass


class TestShmArena:
    def test_allocate_zeroed_and_owned(self):
        arena = ShmArena()
        try:
            view, handle = arena.allocate((4, 3))
            assert view.shape == (4, 3)
            np.testing.assert_array_equal(view, 0.0)
            assert handle.writable
            assert arena.owns(view)
            assert not arena.owns(np.zeros((4, 3)))
        finally:
            arena.close()

    def test_export_caches_by_identity(self):
        arena = ShmArena()
        try:
            a = np.arange(12.0).reshape(3, 4)
            h1 = arena.export(a)
            h2 = arena.export(a)
            assert h1 is h2
            assert arena.num_segments == 1
            # A distinct array gets a distinct segment.
            b = a.copy()
            arena.export(b)
            assert arena.num_segments == 2
            del b
        finally:
            arena.close()

    def test_export_eviction_on_array_death(self):
        arena = ShmArena()
        try:
            a = np.arange(6.0)
            arena.export(a)
            assert arena.num_segments == 1
            del a
            import gc

            gc.collect()
            assert arena.num_segments == 0
        finally:
            arena.close()

    def test_export_preserves_fortran_order(self):
        # Regression: C-ordering the copy changes worker-side strides, and
        # stride-dependent BLAS paths then diverge by 1 ulp from the
        # parent (broke cp_als bit-parity between backends).
        arena = ShmArena()
        cache = {}
        try:
            f_arr = np.asfortranarray(np.arange(12.0).reshape(3, 4))
            handle = arena.export(f_arr)
            assert handle.order == "F"
            view = attach(handle, cache)
            assert view.flags.f_contiguous and not view.flags.c_contiguous
            assert view.strides == f_arr.strides
            np.testing.assert_array_equal(view, f_arr)

            c_arr = np.arange(12.0).reshape(3, 4)
            assert arena.export(c_arr).order == "C"
        finally:
            arena.close()
            del view
            for seg, _ in cache.values():
                with contextlib.suppress(BufferError):
                    seg.close()

    def test_attach_respects_writable_flag(self):
        arena = ShmArena()
        cache = {}
        try:
            view, handle = arena.allocate((5,))
            src = np.arange(5.0)  # kept alive: eviction unlinks the segment
            ro_handle = arena.export(src)
            w = attach(handle, cache)
            w[...] = 7.0
            np.testing.assert_array_equal(view, 7.0)
            r = attach(ro_handle, cache)
            with pytest.raises(ValueError):
                r[0] = 1.0
        finally:
            arena.close()
            del w, r
            for seg, _ in cache.values():
                with contextlib.suppress(BufferError):
                    seg.close()

    def test_close_idempotent_with_live_views(self):
        arena = ShmArena()
        view, _ = arena.allocate((8,))
        view[...] = 3.0
        arena.close()
        arena.close()
        # The live view keeps the mapping alive after close/unlink.
        np.testing.assert_array_equal(view, 3.0)

    def test_handle_nbytes(self):
        h = ShmHandle("x", (3, 4), "<f8")
        assert h.nbytes == 96


class TestExecutorAPI:
    def test_thread_executor_basics(self):
        ex = ThreadExecutor(2)
        out = ex.allocate_shared((10,))
        ex.parallel_for(k_fill_ranges, 10, args=(out,))
        np.testing.assert_array_equal(out, np.arange(10.0))
        assert ex.owns_shared(out)
        assert ex.owns_shared(np.zeros(3))  # threads share everything
        assert ex.backend == "thread"

    def test_allocate_private_shape_and_validation(self):
        ex = ThreadExecutor(2)
        buf = ex.allocate_private(3, (4, 2))
        assert buf.shape == (3, 4, 2)
        np.testing.assert_array_equal(buf, 0.0)
        with pytest.raises(ValueError):
            ex.allocate_private(0, (4,))

    def test_reduce_matches_sum(self, rng):
        ex = ThreadExecutor(2)
        buffers = rng.standard_normal((5, 6, 2))
        expected = buffers.sum(axis=0)
        np.testing.assert_allclose(ex.reduce(buffers.copy()), expected)

    def test_parallel_reduce_accepts_executor(self, rng):
        buffers = rng.standard_normal((4, 3))
        expected = buffers.sum(axis=0)
        np.testing.assert_allclose(
            parallel_reduce(buffers.copy(), ThreadExecutor(2)), expected
        )


class TestProcessExecutor:
    def test_single_worker_runs_inline(self):
        with ProcessExecutor(1) as ex:
            out = ex.allocate_shared((6,))
            ex.parallel_for(k_write_pid, 1, args=(out,))
            assert out[0] == os.getpid()

    def test_workers_are_separate_processes(self):
        with ProcessExecutor(2) as ex:
            out = ex.allocate_shared((2,))
            ex.parallel_for(k_write_pid, 2, args=(out,))
        pids = set(out.astype(int))
        assert os.getpid() not in pids
        assert len(pids) == 2

    def test_shared_writes_visible(self):
        with ProcessExecutor(2) as ex:
            out = ex.allocate_shared((20,))
            ex.parallel_for(k_fill_ranges, 20, args=(out,))
            np.testing.assert_array_equal(out, np.arange(20.0))

    def test_dense_tensor_marshalled_zero_copy_views(self, rng):
        X = DenseTensor(rng.standard_normal((4, 3, 2)))
        with ProcessExecutor(2) as ex:
            out = ex.allocate_shared((4,))
            ex.parallel_for(k_square_tensor_rows, 4, args=(X, out))
            np.testing.assert_allclose(out, (X.unfold_mode0() ** 2).sum(axis=1))

    def test_dynamic_schedule(self):
        with ProcessExecutor(2) as ex:
            out = ex.allocate_shared((37,))
            ex.parallel_for(
                k_fill_ranges, 37, args=(out,), schedule="dynamic", chunk=3
            )
            np.testing.assert_array_equal(out, np.arange(37.0))

    def test_owns_shared_only_for_arena_arrays(self):
        with ProcessExecutor(2) as ex:
            assert ex.owns_shared(ex.allocate_shared((3,)))
            assert not ex.owns_shared(np.zeros(3))

    def test_reduce_copies_foreign_buffers(self, rng):
        with ProcessExecutor(2) as ex:
            buffers = rng.standard_normal((4, 5))
            np.testing.assert_allclose(
                ex.reduce(buffers.copy()), buffers.sum(axis=0)
            )

    def test_worker_exception_chained(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(WorkerError) as excinfo:
                ex.parallel_for(k_raise_on_worker, 2, args=({1},))
            err = excinfo.value
            assert err.worker == 1
            assert isinstance(err.original, ValueError)
            assert err.__cause__ is err.original
            assert "boom from 1" in str(err.original)
            # Worker-side frames travel back as text.
            assert "k_raise_on_worker" in err.original.worker_traceback

    def test_all_workers_failing_reports_others(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(WorkerError) as excinfo:
                ex.parallel_for(k_raise_on_worker, 2, args=({0, 1},))
            err = excinfo.value
            assert err.worker == 0
            assert len(err.others) == 1
            assert err.others[0].worker == 1

    def test_executor_survives_worker_exception(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(WorkerError):
                ex.parallel_for(k_raise_on_worker, 2, args=({0},))
            out = ex.allocate_shared((8,))
            ex.parallel_for(k_fill_ranges, 8, args=(out,))
            np.testing.assert_array_equal(out, np.arange(8.0))

    def test_unpicklable_payload_raises_typeerror(self):
        with ProcessExecutor(2) as ex:
            with pytest.raises(Exception):
                ex.parallel_for(lambda w, a, b: None, 4)

    def test_spans_and_counters_flow_back(self):
        tracer = obs.enable()
        try:
            with ProcessExecutor(2) as ex:
                out = ex.allocate_shared((10,))
                ex.parallel_for(k_traced, 10, args=(out,), label="traced.region")
            names = [s.name for s in tracer.spans()]
            assert names.count("inner_work") == 2
            region = [s for s in tracer.spans() if s.name == "traced.region"]
            assert len(region) == 1
            assert len(region[0].args["worker_seconds"]) == 2
            assert tracer.counters["items_done"] == 10
        finally:
            obs.disable()

    def test_shutdown_idempotent_and_refuses_reuse(self):
        ex = ProcessExecutor(2)
        ex.shutdown()
        ex.shutdown()
        with pytest.raises(RuntimeError):
            ex.parallel_for(k_fill_ranges, 4, args=(np.zeros(4),))


class TestGetExecutor:
    def teardown_method(self):
        shutdown_all_executors()

    def test_cache_returns_same_instance(self):
        a = get_executor(2, backend="thread")
        b = get_executor(2, backend="thread")
        assert a is b

    def test_with_block_does_not_kill_shared_executor(self):
        with get_executor(2, backend="thread") as ex:
            pass
        out = ex.allocate_shared((4,))
        ex.parallel_for(k_fill_ranges, 4, args=(out,))
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_shutdown_evicts_from_cache(self):
        ex = get_executor(2, backend="thread")
        ex.shutdown()
        fresh = get_executor(2, backend="thread")
        assert fresh is not ex
        out = fresh.allocate_shared((4,))
        fresh.parallel_for(k_fill_ranges, 4, args=(out,))
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_pool_shutdown_retires_cached_thread_executor(self):
        ex = get_executor(2, backend="thread")
        shutdown_all_pools()
        fresh = get_executor(2, backend="thread")
        assert fresh is not ex
        out = fresh.allocate_shared((4,))
        fresh.parallel_for(k_fill_ranges, 4, args=(out,))
        np.testing.assert_array_equal(out, np.arange(4.0))

    def test_backend_selection_follows_config(self):
        with use_backend("process"):
            ex = get_executor(2)
            assert isinstance(ex, ProcessExecutor)
        with use_backend("thread"):
            ex = get_executor(2)
            assert isinstance(ex, ThreadExecutor)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            set_backend("gpu")
        with pytest.raises(ValueError):
            get_executor(2, backend="mpi")

    def test_default_backend_is_thread(self):
        assert isinstance(get_executor(2), ThreadExecutor)


class TestProcessWorkerDeath:
    """A dead worker process fails the region with a chained WorkerError,
    retires the team, and leaves the cache to build a fresh one."""

    def teardown_method(self):
        shutdown_all_executors()

    def _assert_death_retires_team(self, ex, run_region):
        with pytest.raises(WorkerError) as excinfo:
            run_region()
        assert excinfo.value.worker == 1
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert "died" in str(excinfo.value.__cause__)
        assert ex._shut
        with pytest.raises(RuntimeError, match="shut down"):
            ex.parallel_for(k_fill_ranges, 4, args=(np.zeros(4),))
        fresh = get_executor(2, backend="process")
        assert fresh is not ex
        out = fresh.allocate_shared((10,))
        fresh.parallel_for(k_fill_ranges, 10, args=(out,))
        np.testing.assert_array_equal(out, np.arange(10.0))

    def test_death_between_regions(self):
        ex = get_executor(2, backend="process")
        out = ex.allocate_shared((6,))
        ex.parallel_for(k_fill_ranges, 6, args=(out,))
        victim = ex._workers[1]._proc
        victim.kill()
        victim.join(5.0)
        assert not victim.is_alive()
        self._assert_death_retires_team(
            ex, lambda: ex.parallel_for(k_fill_ranges, 6, args=(out,))
        )

    def test_death_mid_region(self):
        ex = get_executor(2, backend="process")
        self._assert_death_retires_team(
            ex, lambda: ex.parallel_for(k_sigkill_rank1, 2)
        )


def test_worker_reset_does_not_swallow_invalid_blas_count():
    # The reset clears the caches without retiring what they hold.
    shutdown_all_executors()
    shutdown_all_pools()
    with pytest.raises(ValueError, match="thread count"):
        reset_worker_runtime_state(
            num_threads=None, blas_threads=0, leaf_worker=False
        )
