import argparse
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from descent_geom import cli
from descent_geom.cli import main, render_svg
from descent_geom.descent import disk_family
from descent_geom.family import family_from_dict, is_connected
from descent_geom.geom_core import hull


def run_cli(argv, stdin_text=None, capsys=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestPipelines:
    def test_fixture_cantor_check_sep(self, capsys, monkeypatch):
        code, out, _ = run_cli(["fixtures", "cantor", "--level", "3"], capsys=capsys)
        assert code == 0
        curve_json = out
        code, out, _ = run_cli(
            ["check", "sep"], stdin_text=curve_json, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_disks_descend_bounds(self, tmp_path, capsys, monkeypatch):
        code, fam_json, _ = run_cli(
            ["gen", "disks", "--n", "2", "--levels", "10"], capsys=capsys
        )
        assert code == 0
        fam_path = tmp_path / "fam.json"
        fam_path.write_text(fam_json)
        code, curve_json, _ = run_cli(
            ["descend", "--family", str(fam_path), "--endpoint", "1,0", "--knots", "16"],
            capsys=capsys,
        )
        assert code == 0
        code, out, _ = run_cli(
            ["bounds", "length"], stdin_text=curve_json, capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["bound_ok"] and rep["length"] <= np.pi * rep["w_hull"] + 1e-6

    def test_cantor_ec_fails_with_witness(self, tmp_path, capsys, monkeypatch):
        code, curve_json, _ = run_cli(["fixtures", "cantor", "--level", "5"], capsys=capsys)
        (tmp_path / "curve.json").write_text(curve_json)
        code, fam_json, _ = run_cli(
            ["fixtures", "cantor-family", "--level", "5"], capsys=capsys
        )
        (tmp_path / "fam.json").write_text(fam_json)
        code, out, _ = run_cli(
            [
                "check", "ec",
                "--curve", str(tmp_path / "curve.json"),
                "--strat", str(tmp_path / "fam.json"),
            ],
            capsys=capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        w = doc["witness"]
        assert {"x", "y", "x1", "dist_x_y", "dist_x1_y"} <= set(w)
        assert w["dist_x_y"] > w["dist_x1_y"]

    def test_family_complete_and_check(self, tmp_path, capsys, monkeypatch):
        strat = {
            "bodies": [
                {"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
                {"dim": 2, "vertices": [[-1, -1], [2, -1], [2, 2], [-1, 2]]},
            ]
        }
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(strat))
        code, fam_json, _ = run_cli(
            ["family", "complete", "--strat", str(spath), "--step", "0.4"], capsys=capsys
        )
        assert code == 0
        fpath = tmp_path / "f.json"
        fpath.write_text(fam_json)
        code, out, _ = run_cli(["family", "check", "--family", str(fpath)], capsys=capsys)
        assert code == 0
        assert json.loads(out)["connected"] is True

    def test_report_and_svg(self, tmp_path, capsys, monkeypatch):
        code, fam_json, _ = run_cli(
            ["gen", "disks", "--levels", "8"], capsys=capsys
        )
        fpath = tmp_path / "fam.json"
        fpath.write_text(fam_json)
        code, curve_json, _ = run_cli(
            ["descend", "--family", str(fpath), "--endpoint", "0.9,0.1", "--knots", "8"],
            capsys=capsys,
        )
        cpath = tmp_path / "c.json"
        cpath.write_text(curve_json)
        svg = tmp_path / "plot.svg"
        code, out, _ = run_cli(
            ["report", "--curve", str(cpath), "--family", str(fpath), "--svg", str(svg)],
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] and all(doc["checks"].values())
        assert svg.read_text().startswith("<svg")

    def test_cone_limit_report(self, tmp_path, capsys, monkeypatch):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"dim": 2, "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
        code, out, _ = run_cli(
            [
                "report", "cone-limit",
                "--body", str(body),
                "--p0", "1,0.5",
                "--u", "1,0",
                "--eps", "0.5,0.25,0.1",
                "--grid-size", "2000",
            ],
            capsys=capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["sandwich_ok"] and doc["metric_decreasing"]
        assert doc["metrics"] == sorted(doc["metrics"], reverse=True)

    def test_joint_csv(self, tmp_path, capsys, monkeypatch):
        code, fam_json, _ = run_cli(["gen", "disks", "--levels", "6"], capsys=capsys)
        fpath = tmp_path / "fam.json"
        fpath.write_text(fam_json)
        code, curve_json, _ = run_cli(
            ["descend", "--family", str(fpath), "--endpoint", "1,0", "--knots", "6"],
            capsys=capsys,
        )
        cpath = tmp_path / "c.json"
        cpath.write_text(curve_json)
        csv_path = tmp_path / "table.csv"
        code, out, _ = run_cli(
            [
                "bounds", "joint",
                "--curve", str(cpath),
                "--family", str(fpath),
                "--csv", str(csv_path),
            ],
            capsys=capsys,
        )
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "w,s,tau,z_rate"
        assert len(lines) == 7


class TestNegativeCoordinates:
    def test_descend_endpoint(self, tmp_path, capsys):
        code, fam_json, _ = run_cli(["gen", "disks", "--levels", "6"], capsys=capsys)
        fpath = tmp_path / "fam.json"
        fpath.write_text(fam_json)
        base = ["descend", "--family", str(fpath), "--knots", "6"]
        code, spaced, err = run_cli(base + ["--endpoint", "-1,0"], capsys=capsys)
        assert code == 0, err
        code, joined, _ = run_cli(base + ["--endpoint=-1,0"], capsys=capsys)
        assert code == 0
        assert spaced == joined
        assert json.loads(spaced)["points"][-1][0] < 0

    def test_cone_limit_p0_and_u(self, tmp_path, capsys):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"dim": 2, "vertices": [[-1, 0], [0, 0], [0, 1], [-1, 1]]}))
        base = ["report", "cone-limit", "--body", str(body), "--eps", "0.5,0.25,0.1",
                "--grid-size", "2000"]
        code, spaced, err = run_cli(base + ["--p0", "-1,0.5", "--u", "-1,0"], capsys=capsys)
        assert code == 0, err
        code, joined, _ = run_cli(base + ["--p0=-1,0.5", "--u=-1,0"], capsys=capsys)
        assert code == 0
        assert spaced == joined
        doc = json.loads(spaced)
        assert doc["sandwich_ok"] and doc["metric_decreasing"]


class TestErrorsAndDeterminism:
    def test_unknown_input_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["check", "sep", "--curve", "/nonexistent/file.json"], capsys=capsys
        )
        assert code == 2
        assert "error" in err

    def test_bad_json_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["check", "sep"], stdin_text="not json", capsys=capsys, monkeypatch=monkeypatch
        )
        assert code == 2

    def test_round_trip_bodies(self, capsys, monkeypatch):
        code, fam_json, _ = run_cli(["gen", "disks", "--levels", "5"], capsys=capsys)
        doc = json.loads(fam_json)
        from descent_geom.family import family_from_dict

        fam = family_from_dict(doc)
        redumped = json.dumps(fam.to_dict(), sort_keys=True)
        assert json.loads(redumped) == json.loads(json.dumps(doc, sort_keys=True))

    def test_deterministic_output(self, capsys, monkeypatch):
        a = run_cli(["gen", "random", "--levels", "4", "--seed", "5"], capsys=capsys)[1]
        b = run_cli(["gen", "random", "--levels", "4", "--seed", "5"], capsys=capsys)[1]
        assert a == b

    def test_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DESCENT_GEOM_SEED", "5")
        a = run_cli(["gen", "random", "--levels", "4", "--seed", "99"], capsys=capsys)[1]
        monkeypatch.delenv("DESCENT_GEOM_SEED")
        b = run_cli(["gen", "random", "--levels", "4", "--seed", "5"], capsys=capsys)[1]
        assert a == b

    def test_csv_curve_ingestion(self, tmp_path, capsys, monkeypatch):
        cpath = tmp_path / "curve.csv"
        cpath.write_text("0,0\n1,0\n1,1\n2,1\n")
        code, out, _ = run_cli(["check", "sep", "--curve", str(cpath)], capsys=capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestParserReuse:
    def test_options_do_not_leak_between_calls(self, tmp_path, capsys, monkeypatch):
        cpath = tmp_path / "curve.csv"
        cpath.write_text("0,0\n1,0\n1,1\n")
        check = ["check", "sep", "--curve", str(cpath)]
        monkeypatch.delenv("DESCENT_GEOM_SEED", raising=False)
        cli.build_parser.cache_clear()
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counted_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        seeds = []
        for argv in (check + ["--seed", "5"], check, ["--seed", "5"] + check, check):
            code, out, _ = run_cli(argv, capsys=capsys)
            assert code == 0
            seeds.append(json.loads(out)["config"]["seed"])
        assert seeds == [5, 0, 5, 0]
        assert built.count("descent-geom") == 1


class TestMalformedFamilies:
    @pytest.mark.parametrize("doc", [
        {},
        {"bodies": []},
        {"bodies": {"dim": 2}},
        [1, 2],
        {"bodies": [{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2]]}], "params": [1]},
        {"bodies": [{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}], "params": ["x"]},
    ])
    def test_family_check_exit_2(self, doc, capsys, monkeypatch):
        code, out, err = run_cli(["family", "check"], stdin_text=json.dumps(doc),
                                 capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("error: family JSON")

    @pytest.mark.parametrize("doc", [{}, {"bodies": []}, {"h": 0.1}, "chain"])
    def test_chain_loaders_exit_2(self, doc, tmp_path, capsys, monkeypatch):
        cpath = tmp_path / "curve.csv"
        cpath.write_text("0,0\n1,0\n")
        for argv in (["family", "complete"], ["check", "ec", "--curve", str(cpath)]):
            code, out, err = run_cli(argv, stdin_text=json.dumps(doc), capsys=capsys,
                                     monkeypatch=monkeypatch)
            assert code == 2 and out == ""
            assert err.startswith("error: family JSON")


class TestOneDimensional:
    def test_gen_random_in_r1(self, capsys):
        code, out, _ = run_cli(["gen", "random", "--n", "1", "--levels", "3"], capsys=capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["bodies"]) > 3 and all(b["dim"] == 1 for b in doc["bodies"])


def _record_quadrature(monkeypatch):
    """The grid size of every mean-width quadrature run, as it runs."""
    mean_width = importlib.import_module("descent_geom.mean_width")
    sizes = []
    real = mean_width.mean_width_quadrature

    def recorded(K, grid):
        sizes.append(grid.size)
        return real(K, grid)

    monkeypatch.setattr(mean_width, "mean_width_quadrature", recorded)
    return sizes


def _without_config(out):
    doc = json.loads(out)
    doc.pop("config", None)
    return doc


class TestConfigReach:
    # Mean widths are exact up to R^3, so the quadrature grid is reached in R^4.
    def test_grid_size_reaches_chain_and_family_check(self, tmp_path, capsys, monkeypatch):
        sizes = _record_quadrature(monkeypatch)
        code, fam_json, _ = run_cli(
            ["gen", "random", "--n", "4", "--levels", "3", "--npoints", "12",
             "--grid-size", "3000"], capsys=capsys)
        assert code == 0 and sizes
        fpath = tmp_path / "fam.json"
        fpath.write_text(fam_json)
        n_gen = len(sizes)
        code, _, _ = run_cli(["family", "check", "--family", str(fpath), "--grid-size", "3000"],
                             capsys=capsys)
        assert len(sizes) > n_gen
        assert set(sizes) == {3000}

    def test_grid_size_reaches_r4_disks(self, capsys, monkeypatch):
        sizes = _record_quadrature(monkeypatch)
        outs = {}
        for size in ("3000", "600"):
            sizes.clear()
            code, outs[size], _ = run_cli(["gen", "disks", "--n", "4", "--levels", "4",
                                           "--grid-size", size], capsys=capsys)
            assert code == 0 and len(sizes) == 4 and set(sizes) == {int(size)}
        assert outs["3000"] != outs["600"]

    def test_grid_size_reaches_annulus_and_ec(self, tmp_path, capsys, monkeypatch):
        sizes = _record_quadrature(monkeypatch)
        grid = ["--grid-size", "3000"]
        # Concentric balls: the EC verdict is fixed by construction in R^4 too.
        _, fam_json, _ = run_cli(["gen", "disks", "--n", "4", "--levels", "4"] + grid,
                                 capsys=capsys)
        fam = json.loads(fam_json)
        fpath, cpath, spath, mpath = (tmp_path / f for f in
                                      ("fam.json", "curve.json", "chain.json", "miss.json"))
        fpath.write_text(fam_json)
        spath.write_text(json.dumps({"bodies": fam["bodies"]}))  # widths recomputed
        top = np.array(fam["bodies"][-1]["vertices"])
        ep = ",".join(repr(float(x)) for x in top[0])
        code, _, _ = run_cli(["descend", "--family", str(fpath), "--knots",
                              str(len(fam["bodies"])), f"--endpoint={ep}",
                              "--out", str(cpath)] + grid, capsys=capsys)
        assert code == 0
        # a segment leaving the top body at a vertex meets no inner member
        miss = [top[0], top[0] + 0.2 * (top[0] - top.mean(axis=0))]
        mpath.write_text(json.dumps({"dim": 4, "points": np.array(miss).tolist()}))
        sizes.clear()
        code, out, _ = run_cli(["bounds", "annulus", "--curve", str(cpath), "--family",
                                str(fpath)] + grid, capsys=capsys)
        assert code == 0 and json.loads(out)["bound_ii_ok"]
        for strat in (["--family", str(fpath)], ["--strat", str(spath)]):
            code, _, _ = run_cli(["check", "ec", "--curve", str(cpath)] + strat + grid,
                                 capsys=capsys)
            assert code == 0
        code, out, _ = run_cli(["check", "ec", "--curve", str(mpath), "--strat", str(spath)]
                               + grid, capsys=capsys)
        assert code == 1 and json.loads(out)["condition"] == "i"
        assert len(sizes) >= 2 + 3 + 1 and set(sizes) == {3000}

    def test_r3_output_is_independent_of_grid_and_seed(self, tmp_path, capsys):
        # Every R^3 width is exact: the grid options change nothing but the
        # echoed config.
        opts = (["--grid-size", "600"], ["--grid-size", "3000"], ["--seed", "1"], ["--seed", "2"])
        gens = {"disks": ["gen", "disks", "--n", "3", "--levels", "4"],
                "example61": ["fixtures", "example61"],
                "random": ["gen", "random", "--n", "3", "--levels", "3", "--npoints", "12",
                           "--seed", "5"]}
        for name, argv in gens.items():
            # --seed also seeds the bodies of gen.
            outs = {run_cli(argv + o, capsys=capsys)[1] for o in opts[:4 if name == "example61" else 2]}
            assert len(outs) == 1
            doc = json.loads(outs.pop())
            (tmp_path / f"{name}.json").write_text(json.dumps(doc.get("family", doc)))
        top = json.loads((tmp_path / "random.json").read_text())["bodies"][-1]["vertices"]
        fam, curve = str(tmp_path / "random.json"), str(tmp_path / "curve.json")
        code, _, _ = run_cli(["descend", "--family", fam, "--knots", "4",
                              "--endpoint=" + ",".join(repr(x) for x in top[0]), "--out", curve],
                             capsys=capsys)
        assert code == 0
        queries = [["family", "check", "--family", str(tmp_path / f"{name}.json")] for name in gens]
        queries += [["check", "ec", "--curve", curve, "--family", fam],
                    ["bounds", "annulus", "--curve", curve, "--family", fam]]
        for argv in queries:
            runs = [run_cli(argv + o, capsys=capsys) for o in opts]
            assert len({code for code, _, _ in runs}) == 1
            assert all(_without_config(out) == _without_config(runs[0][1]) for _, out, _ in runs)


class TestQhullBudget:
    def test_check_ec_builds_one_hull_per_loaded_member(self, tmp_path, capsys, qhull_calls):
        fpath, cpath = tmp_path / "fam.json", tmp_path / "curve.json"
        code, fam_json, _ = run_cli(["gen", "random", "--n", "2", "--seed", "1"], capsys=capsys)
        fpath.write_text(fam_json)
        fam = json.loads(fam_json)
        ep = ",".join(repr(x) for x in fam["bodies"][-1]["vertices"][0])
        run_cli(["descend", "--family", str(fpath), "--knots", str(len(fam["bodies"])),
                 f"--endpoint={ep}", "--out", str(cpath)], capsys=capsys)
        qhull_calls.clear()
        code, _, _ = run_cli(["check", "ec", "--curve", str(cpath), "--family", str(fpath)],
                             capsys=capsys)
        assert code == 0
        assert len(fam["bodies"]) == 26 and len(qhull_calls) <= 27


class TestFamilyCheckTol:
    def test_tol_does_not_set_the_connectedness_factor(self, tmp_path, capsys):
        # Widths 0.0127 apart, a Hausdorff jump of 0.46: the width-gap bound
        # holds with factor 2, not with the fixed 1.5, so reading --tol 2 as
        # the factor would flip the verdict.
        doc = {"bodies": [
            {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
            {"vertices": [[0.45, 0], [1.46, 0], [1.46, 1.01], [0.45, 1.01]]}]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        assert is_connected(family_from_dict(doc), 2.0)
        verdicts = []
        for opts in ([], ["--tol", "2"]):
            code, out, _ = run_cli(["family", "check", "--family", str(path)] + opts,
                                   capsys=capsys)
            verdicts.append((code, json.loads(out)["connected"]))
        assert verdicts == [(1, False), (1, False)]


class TestExpandingCoupleTol:
    def test_tol_reaches_the_sep_check_of_bounds_and_report(self, tmp_path, capsys):
        # A curve from the centre out to a vertex of the top disk whose last
        # segment turns back by an inner product of -3.5e-3 against the
        # first point: a SEP at --tol 0.01, not at the default 1e-7.
        fam = disk_family(0.5, 1.0, 3)
        v = fam.bodies[-1].vertices[0]
        ang = math.atan2(v[1], v[0]) + math.acos((0.99 ** 2 - 5e-4) / (0.99 * np.linalg.norm(v)))
        fpath, cpath = tmp_path / "fam.json", tmp_path / "curve.json"
        fpath.write_text(json.dumps(fam.to_dict()))
        cpath.write_text(json.dumps({"dim": 2, "points": [
            [0.0, 0.0], [0.99 * math.cos(ang), 0.99 * math.sin(ang)], v.tolist()]}))
        common = ["--curve", str(cpath), "--family", str(fpath)]
        commands = (["bounds", "joint"], ["bounds", "annulus"],
                    ["bounds", "stability", "--curve2", str(cpath)], ["report"])
        for argv in commands:
            code, _, err = run_cli(argv + common, capsys=capsys)
            assert code == 2 and "not a self-expanding path" in err, argv
        code, out, _ = run_cli(["check", "sep", "--curve", str(cpath), "--tol", "0.01"],
                               capsys=capsys)
        assert code == 0 and json.loads(out)["ok"]
        for argv in commands:
            code, out, _ = run_cli(argv + common + ["--tol", "0.01"], capsys=capsys)
            assert code in (0, 1), argv
            if argv[0] == "report":
                assert json.loads(out)["checks"]["sep"]


    def test_one_point_curve_aligns_at_each_members_tolerance(self, tmp_path, capsys):
        # The corner (1, 1) of the top square lies 5e-7 * sqrt(2) from the
        # inner one: inside its alignment tolerance 1e-6 * (1 + diam), at
        # the default --tol as at a larger one.
        inner = [[0, 0], [1 - 5e-7, 0], [1 - 5e-7, 1 - 5e-7], [0, 1 - 5e-7]]
        fpath, cpath = tmp_path / "fam.json", tmp_path / "curve.json"
        fpath.write_text(json.dumps({"bodies": [hull(inner).to_dict(), hull(
            [[0, 0], [1, 0], [1, 1], [0, 1]]).to_dict()]}))
        cpath.write_text(json.dumps({"dim": 2, "points": [[1.0, 1.0]]}))
        for opts in ([], ["--tol", "0.01"]):
            for argv in (["bounds", "joint"], ["report"]):
                code, out, _ = run_cli(argv + ["--curve", str(cpath), "--family", str(fpath)]
                                       + opts, capsys=capsys)
                assert code == 0 and json.loads(out)["ok"], argv + opts


# One CLI command in a fresh interpreter; its last stderr line lists the
# scipy modules it loaded.
_FRESH = (
    "import json, sys\n"
    "from descent_geom import cli\n"
    "rc = cli.main(sys.argv[1:])\n"
    "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def _fresh(argv):
    """(exit code, stdout, scipy modules loaded) of a fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("DESCENT_GEOM_SEED", None)
    p = subprocess.run([sys.executable, "-c", _FRESH, *argv], env=env, capture_output=True,
                       text=True, timeout=120)
    return p.returncode, p.stdout, set(json.loads(p.stderr.splitlines()[-1]))


class TestColdStart:
    def test_fixtures_and_check_sep_never_load_scipy(self, tmp_path):
        spiral = tmp_path / "spiral.json"
        for argv in (["fixtures", "cantor", "--level", "0"], ["fixtures", "spiral"],
                     ["check", "sep", "--curve", str(spiral)]):
            code, out, scipy_mods = _fresh(argv)
            assert code == 0 and not scipy_mods, argv
            if argv[1] == "spiral":
                spiral.write_text(out)

    def test_planar_pipeline_never_loads_scipy_optimize(self, tmp_path):
        fam, curve = tmp_path / "fam.json", tmp_path / "curve.json"
        code, out, gen_mods = _fresh(["gen", "random", "--n", "2", "--npoints", "10",
                                      "--levels", "3", "--seed", "3"])
        assert code == 0
        fam.write_text(out)
        top = json.loads(out)["bodies"][-1]["vertices"]
        code, out, descend_mods = _fresh(["descend", "--family", str(fam), "--knots", "3",
                                          "--endpoint=" + ",".join(map(repr, top[0]))])
        assert code == 0
        curve.write_text(out)
        code, out, report_mods = _fresh(["report", "--curve", str(curve), "--family", str(fam)])
        assert code in (0, 1) and json.loads(out)["checks"]["sep"]
        for mods in (gen_mods, descend_mods, report_mods):
            assert "scipy.optimize" not in mods


    def test_planar_queries_never_load_scipy_spatial(self, tmp_path):
        # Planar facets are read off the ring and planar projection is closed
        # form, so only the generators (hull() of points) run Qhull.
        fam, curve = tmp_path / "fam.json", tmp_path / "curve.json"
        cantor, cantor_fam = tmp_path / "cantor.json", tmp_path / "cantor_fam.json"
        code, out, _ = _fresh(["gen", "random", "--n", "2", "--npoints", "10",
                               "--levels", "3", "--seed", "3"])
        assert code == 0
        fam.write_text(out)
        top = json.loads(out)["bodies"][-1]["vertices"]
        for path, argv in ((curve, ["descend", "--family", str(fam), "--knots", "3",
                                    "--endpoint=" + ",".join(map(repr, top[0]))]),
                           (cantor, ["fixtures", "cantor", "--level", "2"]),
                           (cantor_fam, ["fixtures", "cantor-family", "--level", "2"])):
            code, out, mods = _fresh(argv)
            assert code == 0 and (path is not curve or not mods), argv
            path.write_text(out)
        for argv in (["check", "sdc", "--curve", str(cantor), "--family", str(cantor_fam)],
                     ["check", "ec", "--curve", str(cantor), "--strat", str(cantor_fam)],
                     ["family", "check", "--family", str(fam)]):
            code, out, mods = _fresh(argv)
            assert code in (0, 1) and "scipy.spatial" not in mods, argv

    def test_report_cone_limit_never_loads_scipy_optimize(self, tmp_path):
        body = tmp_path / "cube.json"
        body.write_text(json.dumps(hull(list(itertools.product((0.0, 1.0), repeat=3))).to_dict()))
        code, out, mods = _fresh(["report", "cone-limit", "--body", str(body), "--p0=1,1,1",
                                  "--u=1,1,1"])
        assert code == 0 and json.loads(out)["sandwich_ok"]
        assert "scipy.spatial" in mods and "scipy.optimize" not in mods


class TestSvg:
    def test_flat_polygon_in_r3_draws_its_edges(self, tmp_path):
        ang = np.arange(24) * 2 * np.pi / 24
        K = hull(np.column_stack([np.cos(ang), np.sin(ang), 0.3 * np.cos(ang)]))
        assert K.dim_affine == 2
        path = tmp_path / "flat.svg"
        render_svg(path, bodies=(K,))
        assert path.read_text().count("<line") == 24

    def test_segment_in_r3_is_one_line(self, tmp_path):
        path = tmp_path / "seg.svg"
        render_svg(path, bodies=(hull([(0, 0, 0), (1, 2, 3)]),))
        assert path.read_text().count("<line") == 1
