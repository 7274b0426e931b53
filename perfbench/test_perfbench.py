"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import run  # pins BLAS threads before numpy loads
from run import InProcess, Tally, tail
from tracing import Tracer
from workloads import WORKLOADS, Workload

sys.path.insert(0, run.SRC)

import descent_geom.cli as cli  # noqa: E402
import descent_geom.family as family  # noqa: E402
import descent_geom.geom_core as geom_core  # noqa: E402


def cycles(name, seed, wd, count=3):
    w = Workload(name, seed, wd)
    w.setup(InProcess(cli))
    return [w.cycle() for _ in range(count)]


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_deterministic_and_seeded(name, tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for d in dirs:
        d.mkdir()
    a = cycles(name, 7, str(dirs[0]))
    b = cycles(name, 7, str(dirs[1]))
    c = cycles(name, 8, str(dirs[2]))
    def strip(cs):
        # Query jobs name files in their own store, so compare them by label.
        return json.dumps([[{k: v for k, v in j.items() if k != "argv"} for j in cyc]
                           for cyc in cs], sort_keys=True)

    assert strip(a) == strip(b)
    assert strip(a) != strip(c)
    if name == "family_validation":
        same = (dirs[0] / "chain3.json").read_text() == (dirs[1] / "chain3.json").read_text()
        other = (dirs[0] / "chain3.json").read_text() == (dirs[2] / "chain3.json").read_text()
        assert same and not other


def test_gate_counts_a_wrong_expected_verdict(tmp_path, capsys):
    w = Workload("planar_pipeline", 3, str(tmp_path))
    job = w.cycle()[0]
    tally = Tally()
    tally.run(w, job, InProcess(cli))
    assert (tally.attempted, tally.failed) == (1, 0)
    wrong = copy.deepcopy(job)
    wrong["expect"]["report"]["fields"]["checks.sep"] = False
    tally.run(w, wrong, InProcess(cli))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "report: checks.sep = True, expected False" in capsys.readouterr().out


def test_gate_counts_a_wrong_exit_code(tmp_path, capsys):
    w = Workload("planar_pipeline", 3, str(tmp_path))
    job = w.cycle()[0]
    job["expect"]["descend"]["rc"] = [1]
    tally = Tally()
    tally.run(w, job, InProcess(cli))
    assert tally.failed == 1
    assert "descend: exit 0" in capsys.readouterr().out


def test_traced_and_untraced_runs_agree(tmp_path):
    w = Workload("planar_pipeline", 5, str(tmp_path))
    job = w.cycle()[0]
    _, plain = w.run(job, InProcess(cli))
    original = geom_core.hull
    tracer = Tracer()
    tracer.install()
    try:
        assert family.hull is not original and geom_core.hull is not original
        _, traced = w.run(job, InProcess(cli, tracer))
    finally:
        tracer.uninstall()
    assert plain == traced
    assert geom_core.hull is original and family.hull is original
    # Self times of all spans add up to the root (CLI command) spans.
    total_self = sum(tracer.self_s.values())
    assert total_self == pytest.approx(tracer.root_seconds(), rel=1e-9)
    assert tracer.calls["cli.main"] == 3
    m = tracer.metrics(1.0, jobs=1)
    assert m["family.complete.calls"][0] == 1
    assert 0.0 < m["family.interp_yield"][0] < 1.0
    assert m["geom_core.qhull_calls"][0] > 0
    assert m["cli.json_bytes_in"][0] > 0 and m["cli.json_bytes_out"][0] > 0


def test_untraced_run_installs_no_wrapper():
    assert not hasattr(geom_core.hull, "__wrapped__")
    assert not hasattr(family.mean_width, "__wrapped__")


def test_tail_keeps_ten_samples_beyond():
    times = list(range(1, 21))
    value, pct, beyond = tail(times)
    assert (value, beyond) == (10, 10)
    assert pct == 50.0
    assert tail([3, 1, 2])[0] == 3


def test_missing_source_tree_exits_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "planar_pipeline",
                        "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                       capture_output=True, text=True, timeout=60)
    assert p.returncode != 0 and p.stdout == ""
