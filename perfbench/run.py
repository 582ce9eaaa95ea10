"""Closed-loop benchmark of the logroots batch service.

    python3 perfbench/run.py --workload float-batch --seed 1 --seconds 30 --trace 0

One client in one thread submits a request, waits for the reply and
submits the next.  Request 0 is an untimed warm-up; timed requests follow
until they have taken ``--seconds`` of wall time and the workload's
request cycle is whole.  Every reply, the warm-up's too, passes the
reference checks in ``reference.py``.  ``failed`` counts the ops of timed
requests that the program refused; the workloads hold exactly one known
refusal per document or sweep cycle, so its share is the same in every run.
``reps_per_s`` is the ops that did not fail over the summed request times.

Request times are CPU times of this process (``time.process_time``), and
``setup_s`` is its CPU time from start to the end of the warm-up.  The
process is single-threaded and compute-bound, so on an idle host these equal
wall times; on a shared host whose steal time swings wall time two- to
fourfold they measure the program rather than its neighbours.  Wall times
are kept in the result file.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every public logroots function is wrapped in a span
recorder and it carries the per-layer metrics instead.  Root digests and
spans are written under ``perfbench/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the run exits with status 2 and prints no result.
"""

import os

# One process, one thread: keep BLAS from starting a pool of its own.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["float-batch", "exact-batch", "verify-sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Import logroots from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "logroots" / "__init__.py").is_file():
        print(f"perfbench: no logroots sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import logroots
    if Path(logroots.__file__).resolve().parent != src / "logroots":
        print(f"perfbench: imported logroots from {logroots.__file__}",
              file=sys.stderr)
        sys.exit(2)
    return logroots


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    from logroots.errors import LogrootsError
    import tracing
    from workloads import WORKLOADS

    program_errors = (LogrootsError, np.linalg.LinAlgError)
    workload = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    problems: list[str] = []
    digests: list = []
    latencies: list[float] = []  # CPU seconds per timed request
    walls: list[float] = []
    op_counts: list[int] = []  # ops that did not fail, per timed request
    attempted = failed = checks_run = checks_skipped = 0

    def serve(index: int):
        """One closed-loop request: (request, reply or None, cpu s, wall s)."""
        request = workload.make(args.seed, index)
        if tracer:
            tracer.request = index
        c0, w0 = time.process_time(), time.perf_counter()
        try:
            reply = workload.run(request.payload)
        except program_errors as exc:
            reply = None
            print(f"request {index}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
        cpu, wall = time.process_time() - c0, time.perf_counter() - w0
        if tracer:
            tracer.request = -1
        return request, reply, cpu, wall

    def check(request, reply) -> int:
        """Check one reply; return how many of its ops failed."""
        if reply is None:
            digests.append(None)
            problems.append(f"request {request.index}: no reply")
            return request.ops
        found, digest, failed_ops = workload.check(request, reply)
        problems.extend(found)
        digests.append(digest)
        return failed_ops

    request, reply, _, _ = serve(0)
    setup_s = time.process_time()
    check(request, reply)
    while sum(walls) < args.seconds or len(latencies) % workload.cycle:
        request, reply, cpu, wall = serve(len(latencies) + 1)
        failed_ops = check(request, reply)
        latencies.append(cpu)
        walls.append(wall)
        op_counts.append(request.ops - failed_ops)
        attempted += request.ops
        failed += failed_ops
        if hasattr(reply, "checks_run"):
            checks_run += reply.checks_run
            checks_skipped += reply.skipped

    requests = len(latencies)
    reps_per_s = sum(op_counts) / sum(latencies)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.roots.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "cpu_s": latencies, "wall_s": walls,
                   "requests": digests}, fh)
    for p in problems[:20]:
        print(p, file=sys.stderr)

    if tracer:
        values = tracing.per_layer(tracer.spans, 1, attempted, requests,
                                   checks_run, checks_skipped)
        units = tracing.PER_LAYER_UNITS
        tracer.write(OUT / f"{stem}.trace.json.gz",
                     {"workload": args.workload, "seed": args.seed,
                      "timed_requests": requests, "reps": attempted,
                      "reps_per_s_traced": reps_per_s})
    else:
        values = {
            "reps_per_s": reps_per_s,
            "request_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"reps_per_s": "reps/s", "request_p50_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
