"""Seeded workloads of descent-geom CLI jobs, with their expected verdicts.

A job is a short sequence of CLI commands whose JSON output files feed the
next command, as in a shell pipeline.  Every expectation below is fixed by
how the input was built (a theorem of the paper, or a construction such as a
log spiral on the right side of b*), never by running the program.

Workloads yield jobs in cycles.  One cycle holds every input stratum of the
workload (size or query kind) once, in a seeded order, so that a run
that ends on a cycle boundary always measures the same mix.
"""

import json
import math
import os

import numpy as np

# Fields of `report` that the construction fixes: backward successive
# projection on a completed family yields a SEP that forms an expanding couple
# with the family, so the length, joint-Lipschitz and annulus bounds hold.
# `checks.sdc` is computed by `report` but not pinned, and is counted instead
# (see unpinned_false): the discrete viable-SDC test rejects some of these
# curves, and `report` then exits 1.
PIPELINE_REPORT_FIELDS = ("checks.sep", "checks.ec", "checks.length_bound",
                          "checks.joint_lipschitz", "checks.annulus")
PIPELINE_UNPINNED = ("checks.sdc",)

PLANAR_SIZES = ((10, 3), (13, 4), (16, 5))  # (--npoints, --levels)

WORKLOADS = ("planar_pipeline", "family_validation")

# Workloads of the design that are not run, with the reason; every run
# prints them.
DROPPED = {
    "spatial_pipeline": "gen random --n 3 -> descend -> report; dropped so that two workloads "
                        "get runs long enough to be steady within the time budget (R3 mean "
                        "width stays measured on family_validation)",
    "path_validation": "check sep and bounds length on 300-2000 point polylines; dropped for "
                       "the same reason (sep and prefix hulls stay measured on a stored "
                       "400-point spiral in family_validation)",
}

# Nominal wall times on the 2-core machine the benchmark was defined on: one
# cycle of in-process jobs, one job run as fresh processes, and one cold
# start.  A run of --seconds measures a fixed count of fresh-process samples
# and round(rest / cycle) whole cycles, where rest is what the samples leave
# of --seconds at these times.  So every run with the same --seconds times
# the same mix and count of jobs, and its percentiles fall on the same
# strata.
NOMINAL_CYCLE_S = {"planar_pipeline": 0.9, "family_validation": 1.9}
NOMINAL_COLD_JOB_S = {"planar_pipeline": 2.6, "family_validation": 1.1}
NOMINAL_START_S = 0.8


def fmt_point(p):
    """Comma-separated coordinates that parse back to the same floats."""
    return ",".join(repr(float(x)) for x in p)


def expect(rc, **fields):
    return {"rc": list(rc), "fields": fields}


def field(doc, path):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc


def check(step, rc, out, exp):
    """Mismatches of one command's exit code and JSON fields against exp."""
    problems = []
    if rc not in exp["rc"]:
        problems.append(f"{step}: exit {rc}, expected one of {exp['rc']}")
    if not exp["fields"]:
        return problems
    try:
        doc = json.loads(out)
    except ValueError:
        return problems + [f"{step}: stdout is not one JSON document"]
    for path, want in exp["fields"].items():
        got = field(doc, path)
        if got != want:
            problems.append(f"{step}: {path} = {got!r}, expected {want!r}")
    return problems


# -- pipelines -------------------------------------------------------------


def pipeline_job(rng, npoints, levels):
    return {
        "kind": "pipeline",
        "npoints": npoints,
        "levels": levels,
        "seed": int(rng.integers(1, 2**31)),
        "vertex": int(rng.integers(2**31)),
        "expect": {
            "gen": expect([0]),
            "descend": expect([0]),
            "report": expect([0, 1], **dict.fromkeys(PIPELINE_REPORT_FIELDS, True)),
        },
        "unpinned": PIPELINE_UNPINNED,
    }


def pipeline_cycle(rng):
    return [pipeline_job(rng, *PLANAR_SIZES[i]) for i in rng.permutation(len(PLANAR_SIZES))]


def run_pipeline(job, call, wd):
    """gen random --n 2 -> descend (one knot per member, seeded top vertex) -> report."""
    fam = os.path.join(wd, "fam.json")
    curve = os.path.join(wd, "curve.json")
    exp = job["expect"]
    rc, out = call(["gen", "random", "--n", "2", "--npoints", str(job["npoints"]),
                    "--levels", str(job["levels"]), "--seed", str(job["seed"])], fam)
    transcript = [out]
    problems = check("gen", rc, out, exp["gen"])
    if problems:
        return problems, transcript
    doc = json.loads(out)
    top = doc["bodies"][-1]["vertices"]
    endpoint = top[job["vertex"] % len(top)]
    # "--endpoint=<x>": argparse reads a separate "-1,0" as an option.
    rc, out = call(["descend", "--family", fam, f"--endpoint={fmt_point(endpoint)}",
                    "--knots", str(len(doc["bodies"]))], curve)
    transcript.append(out)
    problems = check("descend", rc, out, exp["descend"])
    if problems:
        return problems, transcript
    rc, out = call(["report", "--curve", curve, "--family", fam])
    transcript.append(out)
    return check("report", rc, out, exp["report"]), transcript


def unpinned_false(job, transcript):
    """The unpinned verdict fields of the job's last command that came out
    false, for a passed job."""
    if not job.get("unpinned"):
        return []
    doc = json.loads(transcript[-1])
    return [path for path in job["unpinned"] if field(doc, path) is False]


# -- family validation -----------------------------------------------------


def build_store(rng, call, wd):
    """Families and curves stored once per run, later only queried.

    Returns the query catalog: {label: (argv, expectation)} over the stored
    files.
    Raises RuntimeError when the program cannot build the store.
    """
    def f(name):
        return os.path.join(wd, name + ".json")

    def make(name, argv):
        rc, out = call(argv, f(name))
        if rc != 0:
            raise RuntimeError(f"store {name}: {' '.join(argv)} exited {rc}")
        return json.loads(out)

    chains = {
        "chain2": ["gen", "random", "--n", "2", "--npoints", "14", "--levels", "4"],
        "chain3": ["gen", "random", "--n", "3", "--npoints", "16", "--levels", "4"],
        "disks3": ["gen", "disks", "--n", "3", "--levels", "6"],
        "disks4": ["gen", "disks", "--n", "4", "--levels", "6"],
    }
    queries = {}
    for name, argv in chains.items():
        doc = make(name, argv + ["--seed", str(int(rng.integers(1, 2**31)))])
        top = doc["bodies"][-1]["vertices"]
        ends = rng.choice(len(top), size=2, replace=False)
        for tag, vi in zip("ab", ends):
            make(f"{name}_{tag}", ["descend", "--family", f(name),
                                   f"--endpoint={fmt_point(top[vi])}",
                                   "--knots", str(len(doc["bodies"]))])
        with open(f(name + "_top"), "w") as fh:
            json.dump(doc["bodies"][-1], fh)
        V = np.array(top)
        p0 = V[ends[0]]
        # The outward direction from the centroid leaves the tangent cone
        # at a vertex, as cone-limit requires.
        u = p0 - V.mean(axis=0)
        fam, ca, cb = f(name), f(name + "_a"), f(name + "_b")
        queries.update({
            f"family check {name}": (["family", "check", "--family", fam],
                                     expect([0], connected=True)),
            # Random R^3 chains do not fix the EC verdict, see above.
            f"check ec {name}": (["check", "ec", "--curve", ca, "--family", fam],
                                 expect([0, 1]) if name == "chain3" else expect([0], ok=True)),
            f"bounds annulus {name}": (["bounds", "annulus", "--curve", ca, "--family", fam],
                                       expect([0], bound_i_ok=True, bound_ii_ok=True)),
            f"bounds stability {name}": (
                ["bounds", "stability", "--curve", ca, "--curve2", cb, "--family", fam],
                expect([0], ok=True)),
        })
        # In R^4 the cost of cone-limit varies threefold with the degree of
        # the chosen vertex (dual-cone enumeration), too much for the bounds.
        if doc["bodies"][-1]["dim"] <= 3:
            queries[f"report cone-limit {name}"] = (
                ["report", "cone-limit", "--body", f(name + "_top"), f"--p0={fmt_point(p0)}",
                 f"--u={fmt_point(u)}"], expect([0], sandwich_ok=True))
        # Only the concentric ball families fix the discrete SDC verdict
        # (radial curves); completed random chains do not, see above.
        if name.startswith("disks"):
            queries[f"check sdc {name}"] = (["check", "sdc", "--curve", ca, "--family", fam],
                                            expect([0], ok=True))
    # One Cantor level: the cost of the Cantor queries grows fourfold a level.
    make("cantor", ["fixtures", "cantor", "--level", "6"])
    make("cantor_family", ["fixtures", "cantor-family", "--level", "6"])
    ex = make("example61", ["fixtures", "example61"])
    for part in ("family", "curve"):
        with open(f("example61_" + part), "w") as fh:
            json.dump(ex[part], fh)
    queries.update({
        # The Cantor graph and its family: a viable SDC that is not an
        # expanding couple, failing the distance condition (iii).
        "check ec cantor": (
            ["check", "ec", "--curve", f("cantor"), "--strat", f("cantor_family")],
            expect([1], ok=False, condition="iii")),
        "check sdc cantor": (
            ["check", "sdc", "--curve", f("cantor"), "--family", f("cantor_family")],
            expect([0], ok=True)),
        # Example 6.1: the stalling path is not a viable SDC.
        "check sdc example61": (
            ["check", "sdc", "--curve", f("example61_curve"), "--family", f("example61_family")],
            expect([1], ok=False)),
        "family check example61": (["family", "check", "--family", f("example61_family")],
                                   expect([0], connected=True)),
        # A log spiral r = e^(b phi) is a SEP iff b > b* ~ 0.2747, and planar
        # SEPs satisfy length <= pi * w(hull) (Manselli-Pucci).
        "check sep spiral": (["check", "sep", "--curve", f("spiral")], expect([0], ok=True)),
        "bounds length spiral": (["bounds", "length", "--curve", f("spiral")],
                                 expect([0], bound_ok=True)),
    })
    with open(f("spiral"), "w") as fh:
        json.dump({"dim": 2, "points": sep_spiral(rng, SPIRAL_POINTS).tolist()}, fh)
    return queries


SPIRAL_POINTS = 400


def sep_spiral(rng, m):
    """m points of a log spiral of 2.25 to 2.75 turns with b in [0.33, 0.45],
    at least 0.05 above b*, so a SEP; seeded scale and offset."""
    b = rng.uniform(0.33, 0.45)
    phi = np.linspace(-2.0 * math.pi * rng.uniform(2.25, 2.75), 0.0, m)
    r = rng.uniform(0.5, 2.0) * np.exp(b * phi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)]) + rng.uniform(-1.0, 1.0, 2)


def query_job(catalog, label):
    argv, exp = catalog[label]
    return {"kind": "query", "label": label, "argv": argv, "expect": {"query": exp},
            "unpinned": () if exp["fields"] else ("ok",)}


def query_cycle(rng, catalog):
    labels = sorted(catalog)
    return [query_job(catalog, labels[i]) for i in rng.permutation(len(labels))]


def run_query(job, call, wd):
    rc, out = call(job["argv"])
    return check(job["label"], rc, out, job["expect"]["query"]), [out]


# -- workload objects ------------------------------------------------------


class Workload:
    """The seeded job stream of one workload in a working directory."""

    def __init__(self, name, seed, wd):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.rng = np.random.default_rng([seed, WORKLOADS.index(name)])
        self.wd = wd
        self.catalog = None

    def setup(self, call):
        """Build what the workload queries (family_validation only)."""
        if self.name == "family_validation":
            self.catalog = build_store(self.rng, call, self.wd)

    def cycles(self, seconds, starts=0, cold_jobs=0):
        """Number of whole cycles a run of `seconds` measures besides `starts`
        cold starts and `cold_jobs` jobs run as fresh processes."""
        rest = seconds - starts * NOMINAL_START_S - cold_jobs * NOMINAL_COLD_JOB_S[self.name]
        return max(1, round(rest / NOMINAL_CYCLE_S[self.name]))

    def cycle(self):
        if self.name == "planar_pipeline":
            return pipeline_cycle(self.rng)
        return query_cycle(self.rng, self.catalog)

    def cold_jobs(self, k):
        """k jobs of one fixed stratum, for the fresh-process measurement."""
        if self.name == "planar_pipeline":
            return [pipeline_job(self.rng, *PLANAR_SIZES[1]) for _ in range(k)]
        # A query on a fixed fixture: its cost does not vary with the seed.
        return [query_job(self.catalog, "family check example61") for _ in range(k)]

    def run(self, job, call):
        """Run one job; returns (problems, stdout of every command)."""
        runner = {"pipeline": run_pipeline, "query": run_query}[job["kind"]]
        return runner(job, call, self.wd)
