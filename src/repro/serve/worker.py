"""Service worker processes: run decompositions, stream progress, survive.

This module is the child side of one pool slot: :func:`serve_worker_main`
runs inside a :class:`~repro.parallel.procworker.WorkerProcess` that the
server owns.  It is deliberately simple — a message loop that runs **one
job at a time** on a private thread while the loop itself keeps polling
the pipe, so cancellation messages land mid-run and are delivered to the
job through its :class:`~repro.util.cancel.CancelToken` (checked by the
drivers at iteration boundaries).

Robustness contract (the fault-injection suite pins this):

* a worker process dying mid-job — SIGKILL, OOM, segfault — is detected
  by the parent tender through the pipe + liveness probe
  (:meth:`~repro.parallel.procworker.WorkerProcess.recv`), fails **only
  the job(s) it was running** with a
  :class:`~repro.parallel.pool.WorkerError` whose ``__cause__`` records
  the death, and the server respawns a fresh process so the pool keeps
  serving;
* a Python exception *inside* a job (singular solve, bad ref file) is
  caught in the worker, shipped back pickled, and fails only that job —
  the process survives and takes the next one.

Workers are **not** daemonic: a job is allowed to use the process
backend, and :class:`multiprocessing` forbids daemonic processes from
having children.  The server guarantees teardown instead (shutdown
protocol + terminate/kill escalation + atexit sweep).
"""

from __future__ import annotations

import pickle
import threading
import time
from contextlib import nullcontext

import numpy as np

from repro.parallel.procworker import pack_exception

__all__ = ["serve_worker_main"]

_clock = time.monotonic


def _execute_payload(payload: dict, token) -> object:
    """Run one job payload; returns the reply message tuple."""
    import repro.obs as obs
    from repro.util.cancel import Cancelled

    job_id = payload["job_id"]
    trace = bool(payload.get("trace"))
    capture_ctx = obs.capture() if trace else nullcontext()
    try:
        with capture_ctx as tracer:
            if payload["kind"] == "solo":
                results = [_run_solo(payload, token)]
            else:
                results = _run_group(payload, token)
        if trace and tracer is not None:
            results[0]["trace"] = obs.chrome_trace(tracer)
            results[0]["counters"] = obs.counters_snapshot(tracer)
    except Cancelled as exc:
        return ("cancelled", job_id, exc.reason)
    except BaseException as exc:  # noqa: BLE001 - shipped to the parent
        return ("failed", job_id) + pack_exception(exc)
    if payload["kind"] == "solo":
        return ("done", job_id, results[0])
    return ("done-group", job_id, results)


def _load_tensor(payload: dict):
    from repro.tensor.dense import DenseTensor

    if payload.get("ref") is not None:
        from repro.io import load_tensor

        return load_tensor(payload["ref"])
    return DenseTensor(payload["data"], payload["shape"])


def _run_solo(payload: dict, token) -> dict:
    from repro.cpd.cp_als import cp_als

    tensor = _load_tensor(payload)
    res = cp_als(
        tensor,
        payload["rank"],
        n_iter_max=payload["n_iter_max"],
        tol=payload["tol"],
        method=payload["method"],
        num_threads=payload["num_threads"],
        backend=payload["backend"],
        rng=payload["seed"],
        cancel=token,
    )
    model = res.model
    return {
        "weights": np.asarray(model.weights),
        "factors": [np.asarray(f) for f in model.factors],
        "fit": float(res.final_fit),
        "iterations": int(res.iterations),
        "converged": bool(res.converged),
        "counters": {},
        "trace": None,
    }


def _run_group(payload: dict, token) -> list[dict]:
    from repro.batch.fleet import cp_als_fleet
    from repro.tensor.dense import DenseTensor

    shape = payload["shape"]
    tensors = [DenseTensor(d, shape) for d in payload["datas"]]
    res = cp_als_fleet(
        tensors,
        payload["rank"],
        seeds=payload["seeds"],
        n_iter_max=payload["n_iter_max"],
        tol=payload["tol"],
        num_threads=payload["num_threads"],
        backend=payload["backend"],
        cancel=token,
    )
    results = []
    for b in range(len(tensors)):
        model = res.model(b)
        results.append({
            "weights": np.asarray(model.weights),
            "factors": [np.asarray(f) for f in model.factors],
            "fit": float(res.fits[b]),
            "iterations": int(res.iterations[b]),
            "converged": bool(res.converged[b]),
            "counters": {},
            "trace": None,
        })
    return results


def serve_worker_main(rank: int, conn) -> None:
    """Child-process entry: message loop around a one-job-at-a-time thread."""
    from repro.parallel.backend import reset_worker_runtime_state
    from repro.util.cancel import CancelToken

    # Service workers are intermediate processes: they run whole
    # decompositions and may spawn their own executor teams, so the
    # thread counts stay at the package defaults (a job's result must
    # match a direct in-parent call bit-for-bit).
    reset_worker_runtime_state(
        num_threads=None, blas_threads=None, leaf_worker=False
    )
    send_lock = threading.Lock()

    def send(msg) -> None:
        payload = pickle.dumps(msg)
        with send_lock:
            conn.send_bytes(payload)

    stop = False
    while not stop:
        try:
            raw = conn.recv_bytes()
        except (EOFError, OSError):
            break
        msg = pickle.loads(raw)
        if msg[0] == "stop":
            break
        if msg[0] != "job":  # stale cancel for a finished job
            continue
        payload = msg[1]
        job_id = payload["job_id"]
        remaining = payload.get("timeout_remaining")
        token = CancelToken(
            deadline=None if remaining is None else _clock() + remaining
        )
        every = int(payload.get("progress_every") or 0)
        if every > 0:
            def on_progress(it, fit, job_id=job_id, every=every):
                if it % every == 0:
                    send(("progress", job_id, int(it), float(fit)))

            token.on_progress = on_progress

        reply_box: list = []

        def run(payload=payload, token=token, box=reply_box) -> None:
            box.append(_execute_payload(payload, token))

        thread = threading.Thread(
            target=run, name=f"repro-serve-job-{job_id}", daemon=True
        )
        thread.start()
        # Pump the pipe while the job runs so cancellation lands mid-run.
        while thread.is_alive():
            if conn.poll(0.02):
                try:
                    ctl = pickle.loads(conn.recv_bytes())
                except (EOFError, OSError):
                    ctl = ("stop",)
                if ctl[0] == "stop":
                    token.cancel("server shutdown")
                    stop = True
                elif ctl[0] == "cancel" and ctl[1] == job_id:
                    token.cancel(ctl[2] if len(ctl) > 2 else "cancelled")
        thread.join()
        if reply_box:
            try:
                send(reply_box[0])
            except (OSError, ValueError):  # parent went away
                break
