"""semicayley benchmark: one command, one workload, every metric with its unit.

    python3 perfbench/run.py --workload rl-pst --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The command

1. generates the workload's job list from --seed (perfbench/workloads.py);
2. times set-up: fresh processes that start the interpreter, import
   `semicayley` from ./src and generate the job list;
3. runs passes over the job list, each in a fresh process with one
   closed-loop client, until --seconds have gone by (at least one pass);
4. checks every output outside the timed phase (perfbench/check.py),
   against an independent evaluation and against the frozen seed-commit
   code in perfbench/seedref;
5. prints the end-to-end metrics (--trace 0), or the per-layer metrics of
   traced passes (--trace 1), as the last stdout line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

See perfbench/README.md for the workloads, the metrics and their layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SEEDREF = os.path.join(HERE, "seedref")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)
import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES_BEFORE = 4
SETUP_PROBES_AFTER_PASS = 3
# the reference runs after the timed passes, so it may use both cores
REFERENCE_WORKERS = 2
BLAS_THREADS = "1"
PROCESS_TIMEOUT_S = 150
# no new pass starts this late into the run, so the run ends within 180 s
LAST_PASS_START_S = 75
# time of the worker's calibration kernel at the reference host speed (the
# fast spells of the 2-vCPU Xeon box the benchmark was built on)
REFERENCE_CALIBRATION_S = 0.0011


def child_env() -> dict:
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


class Worker:
    """A fresh worker process; `ready_s` is its set-up time seen from here."""

    def __init__(self, args: list[str], expected_hash: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, WORKER] + args, stdout=subprocess.PIPE,
                                     env=child_env(), cwd=ROOT, text=True)
        self.killer = threading.Timer(PROCESS_TIMEOUT_S, self.proc.kill)
        self.killer.start()
        line = self.proc.stdout.readline().split()
        self.ready_s = time.perf_counter() - start
        if line != ["READY", expected_hash]:
            self.stop()
            raise RuntimeError(f"worker {args[:2]} did not set up the expected job list: {line}")

    def finish(self) -> dict:
        """Read the rest of the output, wait for the exit and return the summary line."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return json.loads(rest.strip().splitlines()[-1]) if rest.strip() else {}

    def stop(self) -> None:
        """Kill the process if it is still running, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.killer.cancel()
        self.proc.stdout.close()


def read_outputs(path: str) -> list[tuple[int, dict]]:
    out = []
    with open(path, "rb") as handle:
        while header := handle.readline():
            _, code, size = header.split()
            out.append((int(code), json.loads(handle.read(int(size)))))
    return out


def seedref_version() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SEEDREF, "semicayley")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + handle.read())
    return digest.hexdigest()[:16]


class ReferenceCache:
    """Seed-commit digests of named-family jobs, which recur across seeds."""

    def __init__(self, workload: str) -> None:
        self.path = os.path.join(WORK, f"reference-{workload}-{seedref_version()}.jsonl")
        self.entries: dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    entry = json.loads(line)
                    self.entries[entry["key"]] = entry["digest"]

    @staticmethod
    def cacheable(job: dict) -> bool:
        return "family" in job["graph"]

    def add(self, key: str, value: dict) -> None:
        self.entries[key] = value
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": key, "digest": value}) + "\n")


class Reference:
    """Seed-commit workers for the jobs whose digests are not cached yet."""

    def __init__(self, workload: str, seed: int, jobs: list[dict], jhash: str) -> None:
        self.jobs = jobs
        self.cache = ReferenceCache(workload)
        self.keys = [workloads.job_key(job) for job in jobs]
        todo = [i for i, key in enumerate(self.keys) if key not in self.cache.entries]
        self.running: list[tuple[str, Worker]] = []
        try:
            for k in range(REFERENCE_WORKERS):
                chunk = todo[k::REFERENCE_WORKERS]
                if chunk:
                    out = os.path.join(WORK, f"reference-{workload}-{seed}-{k}.jsonl")
                    self.running.append((out, Worker([
                        "--mode", "reference", "--src", SEEDREF, "--workload", workload, "--seed", str(seed),
                        "--out", out, "--jobs", ",".join(map(str, chunk))], jhash)))
        except BaseException:
            self.stop()
            raise

    def collect(self) -> list[dict]:
        """The reference digest of every job, in job order."""
        for out, worker in self.running:
            worker.finish()
            with open(out, encoding="utf-8") as handle:
                for entry in map(json.loads, handle):
                    i = entry["i"]
                    if ReferenceCache.cacheable(self.jobs[i]):
                        self.cache.add(self.keys[i], entry["digest"])
                    self.cache.entries[self.keys[i]] = entry["digest"]
            os.remove(out)
        return [self.cache.entries[key] for key in self.keys]

    def stop(self) -> None:
        for _, worker in self.running:
            worker.stop()


def independent_checks(outputs) -> list[list[str]]:
    """Problems per job: a non-zero exit, or disagreement with the independent evaluation."""
    problems, graphs = [], {}
    for code, report in outputs:
        if code != 0:
            problems.append([f"exit {code}: {report.get('error', {}).get('message', '')}"])
            continue
        key = json.dumps(report["graph"], sort_keys=True)
        if key not in graphs:
            graphs[key] = check.Graph(report["graph"])
        problems.append(check.independent_problems(report, graphs[key]))
    return problems


def per_layer(summaries: list[dict], outputs, jobs) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced pass with the median wall time.

    summaries[0] is the untraced pass; the tracing overhead is the traced
    wall time minus its wall time.  All times come from one pass, so the
    self times plus `trace.untraced_s` sum exactly to `trace.wall_s`.
    """
    traced = sorted(summaries[1:], key=lambda s: sum(s["times"]))
    chosen = traced[(len(traced) - 1) // 2]
    trace, wall = chosen["trace"], sum(chosen["times"])
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.COUNTED_NAMES:
        metrics[f"{name}.calls"] = (trace["calls"].get(name, 0), "count")
    for name in tracer.TIMED_NAMES:
        metrics[f"{name}.self_s"] = (trace["self_s"].get(name, 0.0), "s")
    distinct_specs = len({json.dumps(job["graph"], sort_keys=True) for job in jobs})
    metrics["graphs.build.per_spec"] = (trace["calls"].get("graphs.build", 0) / distinct_specs, "calls/spec")
    metrics["spectra.spectrum.per_job"] = (trace["calls"].get("spectra.spectrum", 0) / len(jobs), "calls/job")
    metrics["transfer.oracle_expm.dim3_sum"] = (trace["extra"].get("transfer.oracle_expm.dim3_sum", 0.0), "count")
    metrics["cli.render_s"] = (trace["self_s"].get("cli.render", 0.0), "s")
    metrics["cli.report_bytes"] = (sum(chosen["bytes"]), "bytes")
    for key, value in check.report_counts([r for _, r in outputs]).items():
        if key.startswith("pst."):
            metrics[key] = (value, "bytes" if key.endswith("bytes_computed") else "count")
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.untraced_s"] = (wall - sum(trace["self_s"].values()), "s")
    metrics["trace.overhead_s"] = (wall - sum(summaries[0]["times"]), "s")
    return metrics


def scaled_wall(summary: dict) -> float:
    """A pass's job-list time at the reference host speed.

    Each job's time is multiplied by REFERENCE_CALIBRATION_S over the
    calibration time interpolated between the kernel runs before and after
    it, which removes most of the drift of a shared host's speed.
    """
    done, seconds = zip(*summary["calibrations"])
    times = np.array(summary["times"])
    local = np.interp(np.arange(len(times)) + 0.5, done, seconds)
    return float(np.sum(times * (REFERENCE_CALIBRATION_S / local)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "semicayley", "__init__.py")):
        print(f"no semicayley sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    run_start = time.perf_counter()
    jobs = workloads.generate(args.workload, args.seed)
    jhash = workloads.job_hash(jobs)
    base = ["--src", SRC, "--workload", args.workload, "--seed", str(args.seed)]

    Worker(["--mode", "probe"] + base, jhash).finish()  # warm-up: byte-compiles, fills the page cache
    setup: list[float] = []

    def probe(count: int) -> None:
        for _ in range(count):
            worker = Worker(["--mode", "probe"] + base, jhash)
            setup.append(worker.ready_s)
            worker.finish()

    out0 = os.path.join(WORK, f"outputs-{args.workload}-{args.seed}.bin")

    def run_pass(traced: bool) -> dict:
        extra = ["--mode", "pass"]
        if not summaries:
            extra += ["--out", out0]
        if traced:
            extra += ["--trace-out", os.path.join(WORK, f"trace-{args.workload}-pass{len(summaries)}.jsonl")]
        worker = Worker(extra + base, jhash)
        setup.append(worker.ready_s)
        return worker.finish()

    # The first pass is never traced: its outputs are the ones checked, and in
    # a traced run its wall time is the baseline for the tracing overhead.
    # Set-up probes run before and after every pass, so that their median
    # spans the run rather than one moment of the machine's load.
    summaries: list[dict] = []
    probe(SETUP_PROBES_BEFORE)
    pass_start = time.perf_counter()
    while True:
        summaries.append(run_pass(traced=bool(args.trace) and bool(summaries)))
        probe(SETUP_PROBES_AFTER_PASS)
        now = time.perf_counter()
        needed = len(summaries) < 1 + args.trace
        if not needed and (now - pass_start >= args.seconds or now - run_start >= LAST_PASS_START_S):
            break

    outputs = read_outputs(out0)
    os.remove(out0)
    reference = Reference(args.workload, args.seed, jobs, jhash)
    try:
        job_problems = independent_checks(outputs)  # runs while the reference workers do
        references = reference.collect()
    finally:
        reference.stop()
    for found, (code, report), ref in zip(job_problems, outputs, references):
        if code == 0:
            found += check.reference_problems(check.digest(report, code), ref)
    ok = [not found for found in job_problems]
    problems = [f"job {i}: {p}" for i, found in enumerate(job_problems) for p in found]

    changed = [f"job {i}: report differs between passes" for summary in summaries[1:]
               for i, sha in enumerate(summary["sha256"]) if sha != summaries[0]["sha256"][i]]
    problems += changed
    wrong = [p for i, found in enumerate(job_problems) for p in found if outputs[i][0] == 0] + changed
    failed_per_pass = [
        sum(not (ok[i] and s["exits"][i] == 0 and s["sha256"][i] == summaries[0]["sha256"][i])
            for i in range(len(jobs)))
        for s in summaries
    ]
    attempted = len(jobs) * len(summaries)
    failed_total = sum(failed_per_pass)
    counts = check.report_counts([r for _, r in outputs])

    if args.trace:
        metrics = per_layer(summaries, outputs, jobs)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(scaled_wall(s) for s in summaries), "s"),
            "peak_rss_mb": (statistics.median(s["maxrss_mb"] for s in summaries), "MB"),
            # add-one estimates: never 0, so a relative bound applies to them
            "fail_frac": (statistics.median((f + 1) / (len(jobs) + 1) for f in failed_per_pass), "fraction"),
            "undecided_frac": ((counts["undecided"] + 1) / (counts["decisions"] + 1), "fraction"),
        }

    env = dict(summaries[0]["env"], job_hash=jhash, seed=args.seed, workload=args.workload,
               passes=len(summaries), jobs=len(jobs))
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"jobs {len(jobs)} x {len(summaries)} passes; failed {failed_total} "
          f"(exit != 0 or check failed); undecided {counts['undecided']} of {counts['decisions']} decisions")
    print(f"job-list time as measured, median over passes: {statistics.median(sum(s['times']) for s in summaries):.6g} s")
    for p in problems[:20]:
        print(f"  {p}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed_total,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
