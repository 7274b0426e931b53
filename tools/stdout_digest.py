#!/usr/bin/env python3
"""Digest of the CLI's stdout and stderr over a fixed, seeded list of commands.

    python3 tools/stdout_digest.py [--src DIR] > digest.txt

Runs every command in this process through `descent_geom.cli.main`, with
JSON files passed between commands as in a shell pipeline: at seeds 1, 2
and 3, the `family_validation` store and all of its queries, twice (the
second pass reads every document again in the same process), `report
cone-limit` at up to CONE_VERTICES vertices of each stored R^3 top body (p0
the vertex, u from the body's vertex mean to it), four cycles of
`planar_pipeline` jobs (perfbench/workloads.py), each job whose `descend`
passed followed by `bounds length` on its curve, and an R^3 pipeline (`gen
random --n 3 --npoints 16 --levels 4`, `descend` from the top member's
first vertex with one knot per member, `report`), an R^1 completion (`gen
random --n 1 --npoints 7 --levels 6`), `family complete` at `--step`
FINE_STEP on the stored planar chain (many targets a gap), and on each
stored chain `bounds joint --csv` and `bounds annulus` at the middle member
and at `--k1-index -2`; then `gen squares --levels 5` (squares with edges
parallel to the parallel body's polygon), the Cantor fixtures at levels 2
to 7 (`bounds length` on every Cantor graph; on the Cantor disks also
`bounds joint --csv` and `bounds annulus` at those two members, and `family
check` on every Cantor family and every Cantor disks family), the default
`fixtures spiral` with `bounds length` on it, and `example61` with its
checks, a `descend` on its family and one `descend` from an interior point
of its top member (halfway from its vertex mean to its first vertex), which
`descend` snaps to the boundary by a ray from the centroid; last, `family
check` on two written two-member documents, one that fails at the distance
test (JUMP) and one with members in two dimensions (MIXED).  Prints one
line per command: its index, exit code, the sha256 of its stdout and of its
stderr (first 32 hex digits each) and the command, with the working
directory written as $WD in all three; a command that writes a CSV file
(`--csv`) ends its line with csv= and the sha256 of that file's text, or
csv=none when it wrote none.  Two source trees (--src, by default this
one's) agree in stdout, stderr and exit codes iff `diff` finds no
difference between their digests.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
PLANAR_CYCLES = 4
CANTOR_LEVELS = range(2, 8)
CONE_VERTICES = 4
# `family complete --step` on the stored planar chain: many targets a gap.
FINE_STEP = "0.01"
# Widths 0.0127 apart and a Hausdorff jump of 0.46: connectedness fails at
# the measured distance.
JUMP = {"bodies": [{"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                   {"vertices": [[0.45, 0], [1.46, 0], [1.46, 1.01], [0.45, 1.01]]}]}
# A planar triangle and a wider R^3 tetrahedron: exit 2.
MIXED = {"bodies": [{"vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]}]}


def couple_queries(curve, fam, n_members, csv):
    """argv of the couple readers not in the stored catalog: `bounds joint`
    writing its table to csv, and `bounds annulus` at the middle member and
    at the second-to-last one."""
    cd = ["--curve", curve, "--family", fam]
    return [["bounds", "joint"] + cd + ["--csv", csv]] + [
        ["bounds", "annulus"] + cd + ["--k1-index", str(k)] for k in (n_members // 2, -2)]


def fixture_commands(wd):
    """(argv, file the stdout goes to or None) of the fixture checks.  A
    fixture that prints {"family": ..., "curve": ...} to X.json also leaves
    its parts in X_family.json and X_curve.json."""
    def f(name):
        return os.path.join(wd, name + ".json")

    cmds = []
    for level in CANTOR_LEVELS:
        L = str(level)
        cmds += [
            (["fixtures", "cantor", "--level", L], f(f"cantor{L}")),
            (["fixtures", "cantor-family", "--level", L], f(f"cantor_family{L}")),
            (["check", "ec", "--curve", f(f"cantor{L}"), "--strat", f(f"cantor_family{L}")], None),
            (["check", "sdc", "--curve", f(f"cantor{L}"), "--family", f(f"cantor_family{L}")],
             None),
            (["report", "--curve", f(f"cantor{L}"), "--family", f(f"cantor_family{L}")], None),
            (["bounds", "length", "--curve", f(f"cantor{L}")], None),
            (["family", "check", "--family", f(f"cantor_family{L}")], None),
            (["fixtures", "cantor-disks", "--level", L], f(f"cantor_disks{L}")),
            (["family", "check", "--family", f(f"cantor_disks{L}_family")], None),
        ]
        cd = ["--curve", f(f"cantor_disks{L}_curve"), "--family", f(f"cantor_disks{L}_family")]
        cmds += [(["check", "sdc"] + cd, None), (["check", "ec"] + cd, None),
                 (["report"] + cd, None), (["bounds", "annulus"] + cd, None)]
        # a level-L Cantor family has 2^(L+1) - 1 members
        cmds += [(argv, None) for argv in couple_queries(
            cd[1], cd[3], 2 ** (level + 1) - 1, os.path.join(wd, f"cantor_disks{L}.csv"))]
    cmds += [(["fixtures", "spiral"], f("spiral")),
             (["bounds", "length", "--curve", f("spiral")], None),
             (["fixtures", "example61"], f("example61"))]
    ex = ["--curve", f("example61_curve"), "--family", f("example61_family")]
    cmds += [(["check", "sdc"] + ex, None), (["check", "ec"] + ex, None), (["report"] + ex, None),
             (["family", "check", "--family", f("example61_family")], None)]
    return cmds


def written_commands(wd):
    """argv of `family check` on the JUMP and MIXED documents, written to
    wd."""
    cmds = []
    for name, doc in (("jump", JUMP), ("mixed", MIXED)):
        path = os.path.join(wd, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        cmds.append(["family", "check", "--family", path])
    return cmds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the descent_geom package to run")
    args = p.parse_args(argv)
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    from descent_geom import cli
    from workloads import Workload, fmt_point

    lines = []
    with tempfile.TemporaryDirectory() as wd:
        def call(argv, out=None):
            csv = argv[argv.index("--csv") + 1] if "--csv" in argv else None
            if csv is not None and os.path.exists(csv):
                os.remove(csv)
            buf, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
            text = buf.getvalue()
            if out is not None:
                with open(out, "w") as fh:
                    fh.write(text)
                if argv[:2] == ["fixtures", "cantor-disks"] or argv[:2] == ["fixtures", "example61"]:
                    for part, value in json.loads(text).items():
                        with open(out[:-len(".json")] + f"_{part}.json", "w") as fh:
                            json.dump(value, fh)
            digest, err_digest = (hashlib.sha256(t.replace(wd, "$WD").encode()).hexdigest()[:32]
                                  for t in (text, err.getvalue()))
            line = f"{len(lines):4d} {rc} {digest} {err_digest} {' '.join(argv).replace(wd, '$WD')}"
            if csv is not None:
                if os.path.exists(csv):
                    with open(csv) as fh:
                        line += f" csv={hashlib.sha256(fh.read().encode()).hexdigest()[:32]}"
                else:
                    line += " csv=none"
            lines.append(line)
            return rc, text

        def descend(fam, curve, inside=False):
            """descend on the family file fam from its top member's first
            vertex (inside: halfway to it from the vertex mean, which
            descend snaps to the boundary), one knot per member, into the file curve; its
            exit code."""
            with open(fam) as fh:
                bodies = json.load(fh)["bodies"]
            V = np.array(bodies[-1]["vertices"])
            p = (V[0] + V.mean(axis=0)) / 2.0 if inside else V[0]
            return call(["descend", "--family", fam, f"--endpoint={fmt_point(p)}",
                         "--knots", str(len(bodies))], curve)[0]

        for seed in SEEDS:
            for name in ("family_validation", "planar_pipeline"):
                sub = os.path.join(wd, f"{name}{seed}")
                os.mkdir(sub)
                w = Workload(name, seed, sub)
                w.setup(call)
                jobs = [job for _ in range(PLANAR_CYCLES) for job in w.cycle()] \
                    if name == "planar_pipeline" else 2 * w.cycle()
                for job in jobs:
                    if len(w.run(job, call)[1]) == 3:  # descend passed: its curve is this job's
                        call(["bounds", "length", "--curve", os.path.join(sub, "curve.json")])
                chains = {label.split()[-1] for label in w.catalog or ()
                          if label.startswith("bounds annulus")}
                for chain in sorted(chains):
                    fam = os.path.join(sub, chain + ".json")
                    with open(fam) as fh:
                        n_members = len(json.load(fh)["bodies"])
                    for argv in couple_queries(os.path.join(sub, chain + "_a.json"), fam,
                                               n_members, os.path.join(sub, chain + ".csv")):
                        call(argv)
                for top in sorted(t for t in os.listdir(sub) if t.endswith("_top.json")):
                    with open(os.path.join(sub, top)) as fh:
                        V = np.array(json.load(fh)["vertices"])
                    for v in V[:CONE_VERTICES] if V.shape[1] == 3 else ():
                        call(["report", "cone-limit", "--body", os.path.join(sub, top),
                              f"--p0={fmt_point(v)}", f"--u={fmt_point(v - V.mean(axis=0))}"])
            fam, curve = (os.path.join(wd, f"random3_{seed}{part}.json") for part in ("", "_curve"))
            if call(["gen", "random", "--n", "3", "--npoints", "16", "--levels", "4",
                     "--seed", str(seed)], fam)[0] == 0 and descend(fam, curve) == 0:
                call(["report", "--curve", curve, "--family", fam])
            call(["gen", "random", "--n", "1", "--npoints", "7", "--levels", "6", "--seed", str(seed)])
            call(["family", "complete", "--strat",
                  os.path.join(wd, f"family_validation{seed}", "chain2.json"), "--step", FINE_STEP])
        call(["gen", "squares", "--levels", "5"])
        for argv, out in fixture_commands(wd):
            call(argv, out)
        descend(os.path.join(wd, "example61_family.json"), os.path.join(wd, "example61_descent.json"))
        descend(os.path.join(wd, "example61_family.json"), os.path.join(wd, "example61_snap.json"),
                inside=True)
        for argv in written_commands(wd):
            call(argv)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
