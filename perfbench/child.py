"""Child-process steps of the CP-ALS workloads.

``prep SPEC SEED DIR``      generate the inputs of the workload SPEC (a JSON
                            CPALSWorkload) into DIR (inputs.prepare_cpals).
``setup DIR THREADS``       time one cold start: ``import repro`` plus the
                            first MTTKRP sweep, excluding input loading;
                            prints ``{"setup_s": ...}``.
``serve-setup SPEC SEED``   time one cold start of a server: ``import repro``
                            plus ``JobServer(...)`` to the first result of
                            one tiny job of the ServeWorkload SPEC, excluding
                            input generation; prints ``{"setup_s": ...}``.

Each setup sample needs a fresh interpreter, which is why these run as
child processes of run.py rather than inside it.
"""

from __future__ import annotations

import json
import sys
import time

import harness


def setup_probe(workdir: str, threads: int) -> float:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)
    from repro.core.dispatch import mttkrp

    t1 = time.perf_counter()
    from inputs import load_cpals

    X, factors, _, _, _ = load_cpals(workdir)
    t2 = time.perf_counter()
    for n in range(X.ndim):
        mttkrp(X, factors, n, method="auto", num_threads=threads)
    t3 = time.perf_counter()
    return (t1 - t0) + (t3 - t2)


def serve_setup_probe(spec: dict, seed: int) -> float:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is what is being timed)
    from repro.serve import JobServer, ServeConfig

    t1 = time.perf_counter()
    from inputs import Job, ServeWorkload, tiny_tensors
    from serve_loop import job_spec

    workload = ServeWorkload(**spec)
    [(X, job_seed)] = tiny_tensors(workload, seed, 1)
    job = job_spec(workload, Job(0.0, "tiny", X, job_seed))
    t2 = time.perf_counter()
    server = JobServer(ServeConfig(workers=workload.workers))
    try:
        server.submit(job).result(timeout=60)
        t3 = time.perf_counter()
    finally:
        server.shutdown()
    return (t1 - t0) + (t3 - t2)


def _fields(text: str) -> dict:
    """Workload dataclass fields from JSON (lists back to tuples)."""
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in json.loads(text).items()}


def main(argv: list[str]) -> int:
    harness.use_source_tree()
    step = argv[0]
    if step == "setup":
        # numpy must not be imported before the timer starts: a cold
        # ``import repro`` pays for it.
        print(json.dumps({"setup_s": setup_probe(argv[1], int(argv[2]))}))
        return 0
    if step == "serve-setup":
        setup_s = serve_setup_probe(_fields(argv[1]), int(argv[2]))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if step == "prep":
        from inputs import CPALSWorkload, prepare_cpals

        prepare_cpals(CPALSWorkload(**_fields(argv[1])), int(argv[2]), argv[3])
        return 0
    raise SystemExit(f"unknown step {step!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
