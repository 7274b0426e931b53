#!/usr/bin/env python3
"""Per-query wall times of two source trees, timed in process, interleaved.

    python3 tools/query_table.py --base DIR --change DIR [--seeds 1 2 3] [--reps 5] [--json OUT]

Starts one worker process per source tree (each imports descent_geom from
DIR/src, with one BLAS thread).  Each worker builds, per seed, the
`family_validation` store through perfbench/workloads.py (this tree's copy,
the same recipe for both sides), with `bounds joint` on each pair that the
store queries by `bounds annulus`, and the inputs of one `planar_pipeline`
cycle (`gen random --n 2` -> `descend`).  Then, repetition after
repetition, the workers take turns, the first side alternating: a worker
runs every query label of every seed, and every planar `gen random --n 2`
and `report` (labels `gen planar <npoints>x<levels>`, which is mostly
completion, and `report planar <npoints>x<levels>`), each through
`descent_geom.cli.main` with its output discarded, BEST_OF times in a row,
and reports the least wall time of each and the time of the first run,
which runs with the document memo (cli._doc_memo) and the direction-grid
memos cleared, as in a fresh process that has imported the package.  A label's time in one
repetition is its mean over the seeds.  Prints, per label, the median of
those over the repetitions on each side, in ms, the ratio change / base
and how many repetitions the change was faster in (against the base in the
same repetition), for the least times, then the medians of the first
runs; --json writes the same table and the raw times.
"""

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BEST_OF = 3  # runs of a query in a row; the least time is kept


def worker(src, seeds):
    """Build the inputs of every seed, then answer each "run" line on stdin
    with one JSON line {label: [[least ms, first ms] per seed]}."""
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    from descent_geom import cli
    from workloads import Workload, fmt_point

    # the memos a first run finds empty; an older tree lacks the cones one
    memos = [cli._doc_memo] + [
        getattr(importlib.import_module("descent_geom." + mod), name, None)
        for mod, name in (("mean_width", "_grid_cache"), ("cones", "_dirs_cache"))]
    memos = [memo for memo in memos if memo is not None]

    out = sys.stdout

    def call(argv, path=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(argv)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(buf.getvalue())
        return rc, buf.getvalue()

    with tempfile.TemporaryDirectory() as wd:
        queries = {}  # label -> [argv per seed]
        for seed in seeds:
            sub = os.path.join(wd, str(seed))
            os.mkdir(sub)
            w = Workload("family_validation", seed, sub)
            w.setup(call)
            for label, (argv, _) in w.catalog.items():
                queries.setdefault(label, []).append(argv)
                if label.startswith("bounds annulus"):
                    queries.setdefault(label.replace("annulus", "joint"), []).append(
                        ["bounds", "joint"] + argv[2:])
            for job in Workload("planar_pipeline", seed, sub).cycle():
                fam, curve = (os.path.join(sub, f"planar{job['npoints']}{part}.json")
                              for part in ("", "_curve"))
                gen = ["gen", "random", "--n", "2", "--npoints", str(job["npoints"]),
                       "--levels", str(job["levels"]), "--seed", str(job["seed"])]
                doc = json.loads(call(gen, fam)[1])
                top = doc["bodies"][-1]["vertices"]
                call(["descend", "--family", fam,
                      f"--endpoint={fmt_point(top[job['vertex'] % len(top)])}",
                      "--knots", str(len(doc["bodies"]))], curve)
                size = f"{job['npoints']}x{job['levels']}"
                queries.setdefault(f"gen planar {size}", []).append(gen)
                queries.setdefault(f"report planar {size}", []).append(
                    ["report", "--curve", curve, "--family", fam])
        out.write("ready\n")
        out.flush()
        for line in sys.stdin:
            if line.strip() != "run":
                break
            times = {}
            for label in sorted(queries):
                for argv in queries[label]:
                    for memo in memos:
                        memo.clear()
                    runs = []
                    for _ in range(BEST_OF):
                        t0 = time.perf_counter()
                        call(argv)
                        runs.append(time.perf_counter() - t0)
                    times.setdefault(label, []).append([1e3 * min(runs), 1e3 * runs[0]])
            out.write(json.dumps(times) + "\n")
            out.flush()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="root of the base source tree")
    p.add_argument("--change", required=True, help="root of the changed source tree")
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--json", help="file to write the table and the raw times to")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker:
        worker(args.worker, args.seeds)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    sides = ("base", "change")
    procs = {}
    for side in sides:
        src = os.path.join(os.path.abspath(getattr(args, side)), "src")
        procs[side] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--base", "-", "--change", "-",
             "--worker", src, "--seeds", *map(str, args.seeds)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
    try:
        for side in sides:
            if procs[side].stdout.readline().strip() != "ready":
                raise RuntimeError(f"the {side} worker could not build its inputs")
        runs = {side: [] for side in sides}
        for rep in range(args.reps):
            for side in sides if rep % 2 == 0 else sides[::-1]:
                procs[side].stdin.write("run\n")
                procs[side].stdin.flush()
                runs[side].append(json.loads(procs[side].stdout.readline()))
    finally:
        for proc in procs.values():
            proc.stdin.close()
            proc.wait()
    table = {}
    for label in sorted(runs["base"][0]):
        per_rep, first = ({side: [statistics.fmean(t[k] for t in run[label]) for run in runs[side]]
                           for side in sides} for k in (0, 1))
        med = {side: statistics.median(per_rep[side]) for side in sides}
        faster = sum(c < b for b, c in zip(per_rep["base"], per_rep["change"]))
        table[label] = {"base_ms": round(med["base"], 3), "change_ms": round(med["change"], 3),
                        "ratio": round(med["change"] / med["base"], 3),
                        "change_faster_in": f"{faster}/{args.reps}",
                        "base_first_ms": round(statistics.median(first["base"]), 3),
                        "change_first_ms": round(statistics.median(first["change"]), 3)}
    width = max(map(len, table))
    print(f"{'label':<{width}}  {'base ms':>9}  {'change ms':>9}  {'ratio':>6}  faster  "
          f"{'base 1st':>9}  {'change 1st':>10}")
    for label, row in table.items():
        print(f"{label:<{width}}  {row['base_ms']:9.3f}  {row['change_ms']:9.3f}  "
              f"{row['ratio']:6.3f}  {row['change_faster_in']:>6}  "
              f"{row['base_first_ms']:9.3f}  {row['change_first_ms']:10.3f}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"seeds": args.seeds, "reps": args.reps, "table": table, "runs": runs}, fh,
                      indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
