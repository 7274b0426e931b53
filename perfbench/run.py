#!/usr/bin/env python3
"""End-to-end benchmark of the descent-geom CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (it imports the package from `src/`).
Jobs run in this process, one at a time (a closed loop with one client),
through `descent_geom.cli.main(argv)`, with JSON files passed between
commands.  Every job's verdicts are checked against the expectations fixed
when its input was generated.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.
See perfbench/README.md.
"""

import os

# One BLAS thread, set before numpy loads: the benchmark measures the
# program, not how OpenBLAS shares the cores with other processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import DROPPED, WORKLOADS, Workload, unpinned_false  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_STARTS = 5  # fresh CLI processes timed for setup_s
COLD_JOBS = 7  # jobs run as fresh processes for cold_job_s
TAIL_BEYOND = 10  # samples required beyond the tail percentile
SUBPROCESS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cold_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def shell_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("DESCENT_GEOM_SEED", None)
    return env


class InProcess:
    """Runs one CLI command in this process, like `descent-geom argv > out`."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def __call__(self, argv, out=None):
        buf = io.StringIO()
        tracer = self.tracer
        if tracer is not None:
            tracer.enter("cli.main")
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(argv)
            text = buf.getvalue()
            if out is not None:
                with open(out, "w") as f:
                    f.write(text)
        except Exception as e:
            if tracer is not None:
                tracer.error("cli.main", e)
            raise
        finally:
            if tracer is not None:
                tracer.leave()
        if tracer is not None:
            tracer.counts["json_bytes_out"] += len(text.encode())
        return rc, text


class Shell:
    """Runs one CLI command as a fresh `python -m descent_geom.cli` process."""

    def __init__(self):
        self.env = shell_env()

    def __call__(self, argv, out=None):
        # Read stdout through a pipe: with a timeout and nothing to read,
        # wait() polls in steps of up to 50 ms, which would quantize times.
        p = subprocess.run([sys.executable, "-m", "descent_geom.cli", *argv], cwd=ROOT,
                           env=self.env, stdout=subprocess.PIPE, text=True,
                           timeout=SUBPROCESS_TIMEOUT_S)
        if out is not None:
            with open(out, "w") as f:
                f.write(p.stdout)
        return p.returncode, p.stdout


class Tally:
    """Attempted and failed jobs; prints every mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unpinned = {}  # unpinned check -> passed jobs where it was false
        self.passed = 0

    def run(self, workload, job, call):
        """Run one checked job; returns (seconds, stdout transcript or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            problems, transcript = workload.run(job, call)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
            transcript = None
        dt = time.perf_counter() - t0
        if problems:
            self.failed += 1
            print(f"FAILED job {describe(job)}:", *problems, sep="\n  ")
        else:
            self.passed += 1
            for path in unpinned_false(job, transcript):
                self.unpinned[path] = self.unpinned.get(path, 0) + 1
        return dt, transcript

    def mismatch(self, what):
        self.failed += 1
        print(f"FAILED {what}")


def describe(job):
    keys = ("label", "npoints", "levels", "seed")
    return json.dumps({k: job[k] for k in keys if k in job}, sort_keys=True)


def cold_start_s(shell):
    """Cold start of a fresh CLI process: interpreter start until a trivial
    command has finished."""
    t0 = time.perf_counter()
    rc, _ = shell(["fixtures", "cantor", "--level", "0"])
    if rc != 0:
        raise RuntimeError(f"descent-geom fixtures cantor --level 0 exited {rc}")
    return time.perf_counter() - t0


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples beyond it; the maximum for short runs."""
    s = sorted(times)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    i = len(s) - TAIL_BEYOND - 1
    return s[i], 100.0 * (i + 1) / len(s), TAIL_BEYOND


def timed_loop(workload, tally, call, cycles, after_cycle=None):
    """Runs `cycles` whole cycles of jobs; calls after_cycle(i) after cycle
    i.  Returns the job times and, per cycle, the sum of its job times."""
    times, cycle_s = [], []
    for i in range(cycles):
        jobs = workload.cycle()
        for job in jobs:
            times.append(tally.run(workload, job, call)[0])
        cycle_s.append(sum(times[-len(jobs):]))
        if after_cycle is not None:
            after_cycle(i)
    return times, cycle_s


def traced_loop(workload, tally, call, traced_call, tracer, seconds):
    """Like timed_loop, but each job runs untraced and then traced, so that
    drift on a shared machine cancels out of the overhead ratio.  The tracer
    is installed only around the traced run.  Returns both time lists."""
    plain, traced = [], []
    for _ in range(workload.cycles(seconds / 2)):
        for job in workload.cycle():
            dt, out = tally.run(workload, job, call)
            plain.append(dt)
            tracer.job = len(traced)
            tracer.install()
            try:
                dt, out_traced = tally.run(workload, job, traced_call)
            finally:
                tracer.uninstall()
            traced.append(dt)
            if out is not None and out != out_traced:
                tally.mismatch(f"trace changed the stdout of job {describe(job)}")
    return plain, traced


def src_lines():
    pkg = os.path.join(SRC, "descent_geom")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as f:
                total += sum(1 for _ in f)
    return total


def header(args):
    import numpy
    import scipy

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"  python {platform.python_version()}  numpy {numpy.__version__}  "
          f"scipy {scipy.__version__}  nproc {os.cpu_count()}  src lines {src_lines()}  "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    for name, why in DROPPED.items():
        print(f"  not run: {name}: {why}")


def run_workload(args):
    import descent_geom
    import descent_geom.cli as cli

    if not os.path.abspath(descent_geom.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"descent_geom was imported from {descent_geom.__file__}, not {SRC}")
    header(args)
    os.makedirs(WORK, exist_ok=True)
    wd = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        return measure(args, cli, Workload(args.workload, args.seed, wd))
    finally:
        shutil.rmtree(wd, ignore_errors=True)


def measure(args, cli, workload):
    t_start = time.perf_counter()
    tally = Tally()
    call = InProcess(cli)
    workload.setup(call)

    # Warm-up (fills the default sphere-grid cache, as a long-running caller
    # would) and the determinism check: the same job twice, same stdout.
    first = workload.cycle()[0]
    _, out1 = tally.run(workload, first, call)
    _, out2 = tally.run(workload, first, call)
    if out1 is not None and out1 != out2:
        tally.mismatch(f"determinism: job {describe(first)} printed different stdout")

    metrics = {}
    if not args.trace:
        # The fresh-process measurements are spread over the cycles, so that
        # they sample the same stretch of a shared machine's time as the jobs.
        shell = Shell()
        extras = [None] * SETUP_STARTS  # None: a cold start for setup_s
        for k, job in enumerate(workload.cold_jobs(COLD_JOBS)):
            extras.insert(2 * k + 1, job)
        starts, cold = [], []

        cycles = workload.cycles(args.seconds, SETUP_STARTS, COLD_JOBS)

        def after_cycle(i):
            for j, job in enumerate(extras):
                if j * cycles // len(extras) != i:
                    continue
                if job is None:
                    starts.append(cold_start_s(shell))
                else:
                    cold.append(tally.run(workload, job, shell)[0])

        t_loop = time.perf_counter()
        times, cycle_s = timed_loop(workload, tally, call, cycles, after_cycle)
        print(f"  measured {time.perf_counter() - t_loop:.1f} s: {cycles} cycles with "
              f"{sum(times):.1f} s of jobs, {sum(starts) + sum(cold):.1f} s of fresh processes; "
              f"set-up and warm-up {t_loop - t_start:.1f} s")
        setup_s = statistics.median(starts)
        t_tail, pct, beyond = tail(times)
        values = {
            # Median over cycles: each cycle holds the same mix of jobs.
            "jobs_per_s": len(times) / cycles / statistics.median(cycle_s),
            "job_p50_ms": 1e3 * statistics.median(times),
            "job_tail_ms": 1e3 * t_tail,
            "cold_job_s": statistics.median(cold),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        notes = {"job_tail_ms": f"p{pct:.1f}, {beyond} of {len(times)} jobs beyond",
                 "jobs_per_s": f"{len(times) // cycles} jobs per cycle / median of {cycles} "
                               f"cycles' job time",
                 "cold_job_s": f"median of {len(cold)} jobs run as fresh processes",
                 "setup_s": f"median of {SETUP_STARTS} fresh processes"}
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"  {name:14s} {values[name]:12.4f} {unit:4s} {notes.get(name, '')}")
    else:
        # Each job untraced, then traced: the ratio of the two times is the
        # tracing overhead, and the stdout of each job must not change.
        tracer = Tracer()
        plain, traced = traced_loop(workload, tally, call, InProcess(cli, tracer), tracer,
                                    args.seconds)
        layer = tracer.metrics(sum(traced) / sum(plain), len(traced))
        spans = tracer.root_seconds()
        print(f"  traced {len(traced)} jobs: {sum(plain):.3f} s untraced, {sum(traced):.3f} s "
              f"traced; CLI spans cover {100 * spans / sum(traced):.1f} % of traced job "
              f"time; self times sum to {sum(tracer.self_s.values()):.4f} s of "
              f"{spans:.4f} s in spans; per-layer values are per traced job")
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:48s} {value:16.6g} {unit}")
        trace_file = os.path.join(WORK, f"trace-{args.workload}-{args.seed}.json")
        tracer.dump(trace_file, {"workload": args.workload, "seed": args.seed,
                                 "job_seconds": traced})
        print(f"  spans written to {os.path.relpath(trace_file, ROOT)}")
    print(f"  fail_ratio     {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4f}")
    for path, count in sorted(tally.unpinned.items()):
        print(f"  unpinned       {path} false in {count} of {tally.passed} passed runs "
              f"(not a failure, see perfbench/README.md)")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def run_all(args):
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=900)
        lines = p.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {p.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    return merged


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "descent_geom")):
        print(f"perfbench: no package at {SRC}/descent_geom; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
