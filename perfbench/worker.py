"""One fresh benchmark process: set up, then probe, measure or make references.

    python3 perfbench/worker.py --mode probe|pass|reference --src DIR \
        --workload NAME --seed N [--out FILE] [--trace-out FILE] [--jobs I,J,...]

Every mode imports `semicayley` from --src and generates the workload's job
list, then prints `READY <job hash>` so the parent can time set-up.

* probe: exits right after READY.
* pass: runs every job once, in order, as one closed-loop client through
  `semicayley.cli.run` plus the JSON rendering `main()` uses.  Only the run
  and the rendering of each job are timed; a calibration kernel runs
  between jobs at most every 0.25 s, outside the timed region.  With --trace-out the outside-in
  tracer is installed first and its spans are written to that file at exit.
* reference: runs the listed jobs (no timing) and writes their exact digests.

The last stdout line is a JSON summary for the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time

import numpy as np

CALIBRATION_EVERY_S = 0.25


def calibration_s() -> float:
    """Best of three runs of a fixed kernel that does not touch the package.

    The host's speed drifts by up to 1.8x in spells of seconds; the parent
    divides each job's time by the kernel's time around it.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        np.exp(1j * np.arange(2000.0)).sum()
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_quietest_cpu() -> None:
    """Run this process on the allowed CPU where the calibration kernel is fastest.

    Other tenants load the host's CPUs unevenly; pinning also keeps the jobs
    and the calibrations that scale them on one CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    speeds = {}
    for cpu in allowed:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = calibration_s()
    os.sched_setaffinity(0, {min(allowed, key=speeds.get)})


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("probe", "pass", "reference"), required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace-out")
    parser.add_argument("--jobs", default="")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import semicayley.cli

    import workloads

    jobs = workloads.generate(args.workload, args.seed)
    print(f"READY {workloads.job_hash(jobs)}", flush=True)
    if args.mode == "probe":
        return 0

    if args.mode == "reference":
        import check

        wanted = [int(i) for i in args.jobs.split(",") if i]
        with open(args.out, "w", encoding="utf-8") as handle:
            for i in wanted:
                report, code = semicayley.cli.run(jobs[i])
                handle.write(json.dumps({"i": i, "digest": check.digest(report, code)}) + "\n")
        print(json.dumps({"done": len(wanted)}))
        return 0

    pin_to_quietest_cpu()
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"trace targets missing from the package: {missing}", file=sys.stderr)

    def render(report):
        return json.dumps(report, indent=2, sort_keys=True)

    if tracer is not None:
        render = tracer.span("cli.render", render)

    times, exits, shas, sizes, calibrations = [], [], [], [], []
    out = open(args.out, "wb") if args.out else None
    last_calibration = -math.inf
    try:
        for i, job in enumerate(jobs):
            if time.perf_counter() - last_calibration >= CALIBRATION_EVERY_S:
                calibrations.append((i, calibration_s()))
                last_calibration = time.perf_counter()
            if tracer is not None:
                tracer.job = i
            start = time.perf_counter()
            report, code = semicayley.cli.run(job)
            text = render(report)
            times.append(time.perf_counter() - start)
            data = text.encode()
            exits.append(code)
            shas.append(hashlib.sha256(data).hexdigest())
            sizes.append(len(data))
            if out is not None:
                out.write(f"{i} {code} {len(data)}\n".encode())
                out.write(data)
        calibrations.append((len(jobs), calibration_s()))
    finally:
        if out is not None:
            out.close()

    summary = {
        "times": times,
        "exits": exits,
        "sha256": shas,
        "bytes": sizes,
        "calibrations": calibrations,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
        },
    }
    if tracer is not None:
        tracer.write_spans(args.trace_out)
        summary["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "extra": dict(tracer.extra),
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
