import argparse
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from descent_geom import cli, sep
from descent_geom.cli import main, render_svg
from descent_geom.descent import (
    construct_descent,
    disk_family,
    is_expanding_couple,
    is_viable_sdc,
)
from descent_geom.family import family_from_dict
from descent_geom.geom_core import _Memo, hausdorff, hull
from descent_geom.mean_width import width_gap_constant
from descent_geom.sep import is_sep, polyline_from_dict


def _fresh_process():
    """Drop the documents kept by earlier commands, and with them the
    bodies built from them, as a fresh process starts."""
    cli._doc_memo.clear()


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

    def test_length_bound_of_report_does_not_recheck_sep(self, input_files, capsys, monkeypatch):
        # Only sep's own binding is counted: length_bound_check calls it,
        # report's own check and the couple's do not.
        calls = []
        real = sep.is_sep
        monkeypatch.setattr(sep, "is_sep", lambda *a: calls.append(1) or real(*a))
        argv = ["report", "--curve", input_files["curve"], "--family", input_files["family"]]
        code, out, _ = run_cli(argv, capsys=capsys)
        doc = json.loads(out)
        assert code == 0 and doc["checks"]["sep"] and doc["checks"]["length_bound"]
        assert not calls

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


class TestConeLimitOptions:
    @pytest.mark.parametrize("opts, option", [
        ("--p0 -1,0.5 --u -1,0 --eps abc", "--eps"),
        ("--p0 -1,0.5 --u -1,0 --eps 0.5,,0.1", "--eps"),
        ("--p0 -1,0.5 --u -1,0 --eps 0.5,nan", "--eps"),
        ("--p0 -1,0.5 --u -1,0 --eps inf,0.5", "--eps"),
        ("--u -1,0", "--p0"),
        ("--p0 -1,0.5", "--u"),
        ("--p0 -1,x --u -1,0", "--p0"),
        ("--p0 -1,0.5 --u nan,0", "--u"),
    ])
    def test_bad_value_exits_2_naming_the_option(self, opts, option, tmp_path, capsys):
        body = tmp_path / "body.json"
        body.write_text(json.dumps({"dim": 2, "vertices": [[-1, 0], [0, 0], [0, 1], [-1, 1]]}))
        code, out, err = run_cli(["report", "cone-limit", "--body", str(body)] + opts.split(),
                                 capsys=capsys)
        assert code == 2 and out == "" and err.startswith("error: ") and option in err

    def test_interior_p0_exits_2(self, tmp_path, capsys):
        body = tmp_path / "cube.json"
        body.write_text(json.dumps({"vertices": list(itertools.product((0, 1), repeat=3))}))
        code, out, err = run_cli(["report", "cone-limit", "--body", str(body), "--p0=0.5,0.5,0.5",
                                  "--u=1,0,0"], capsys=capsys)
        assert code == 2 and out == "" and "p0 must lie on the boundary of K" in err


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Paths of a planar disk family with a descent curve, an R^3 disk
    family, the unit cube and a segment in R^3, as JSON files."""
    d = tmp_path_factory.mktemp("inputs")
    fam = disk_family(levels=4)
    docs = {
        "family": fam.to_dict(),
        "curve": construct_descent(fam, fam.bodies[-1].vertices[0], 4).to_dict(),
        "family3": disk_family(levels=3, m=12, n=3).to_dict(),
        "cube": hull(list(itertools.product((0.0, 1.0), repeat=3))).to_dict(),
        "curve3": {"dim": 3, "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]},
    }
    for name, doc in docs.items():
        (d / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(d / f"{name}.json") for name in docs}


class TestErrorsAndDeterminism:
    @pytest.mark.parametrize("argv", [
        # a family of fewer than two bodies
        "gen disks --levels 1",
        "gen disks --levels 0",
        "fixtures cantor-disks --level 0",
        "fixtures cantor-family --level 0",
        # radii that cannot nest
        "gen disks --rmin 1 --rmax 0.5 --levels 3 --mesh 8",
        "gen disks --rmin -1 --rmax 1",
        # a negative level count, a planar mesh below 2
        "gen disks --levels -1",
        "gen disks --mesh 1 --levels 3",
        "gen disks --mesh 0 --levels 3",
        # a step that would make about 1e12 members: refused before any is built
        "gen random --step 1e-12",
        "gen squares --step 1e-12",
        "family complete --strat {family} --step 1e-12",
        # a step that is not a positive number, or so small the count overflows
        "gen random --step nan",
        "gen random --step 1e-320",
        "gen random --step inf",
        "gen random --step 0",
        "gen squares --step -1",
        "family complete --strat {family} --step inf",
        # a tolerance that is not a finite number >= 0
        "check sep --curve {curve} --tol nan",
        "check sep --curve {curve} --tol inf",
        "check sep --curve {curve} --tol -0.001",
        "report --curve {curve} --family {family} --tol nan",
        # a member index out of range
        "bounds annulus --curve {curve} --family {family} --k1-index 99",
        "bounds annulus --curve {curve} --family {family} --k1-index -99",
        # an empty direction grid, refused in every dimension
        "gen random --n 2 --grid-size 0",
        "gen random --n 3 --grid-size 0",
        "gen random --n 4 --grid-size 0",
        "gen random --n 3 --grid-size -5",
        "gen random --n 4 --grid-size -5",
        "family check --family {family3} --grid-size 0",
        "family check --family {family3} --grid-size -5",
        "report cone-limit --body {cube} --p0 1,1,1 --u 1,1,1 --grid-size 0",
        # a curve and a family in different dimensions, both ways
        "check ec --curve {curve} --family {family3}",
        "check sdc --curve {curve} --family {family3}",
        "report --curve {curve} --family {family3}",
        "check ec --curve {curve3} --family {family}",
        "check sdc --curve {curve3} --family {family}",
        "report --curve {curve3} --family {family}",
        # a spiral of no points
        "fixtures spiral --points -3",
        # a Cantor level above the maximum: refused before anything is built
        "fixtures cantor --level 11",
        "fixtures cantor --level 40",
    ])
    def test_out_of_range_options_exit_2(self, argv, input_files, capsys):
        code, _, err = run_cli(argv.format(**input_files).split(), capsys=capsys)
        assert code == 2 and err.startswith("error:") and "Traceback" not in err

    def test_unknown_input_exit_2(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["check", "sep", "--curve", "/nonexistent/file.json"], capsys=capsys
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("text, message", [
        ("not json", "error: "),
        ('{"points": []}', "error: expected a nonempty point list, got a list of 0 points"),
    ])
    def test_bad_json_exit_2(self, text, message, capsys, monkeypatch):
        for what in ("check sep", "bounds length"):
            code, out, err = run_cli(what.split(), stdin_text=text, capsys=capsys,
                                     monkeypatch=monkeypatch)
            assert code == 2 and out == "" and err.startswith(message), what

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


# A family document with one body: it has params and h, and still no gap.
ONE_BODY = {"bodies": [{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}], "params": [1.0],
            "h": 0.1}


class TestMalformedFamilies:
    @pytest.mark.parametrize("doc", [
        {},
        {"bodies": []},
        {"bodies": {"dim": 2}},
        [1, 2],
        {"bodies": [{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]},
                    {"dim": 2, "vertices": [[0, 0], [2, 0], [0, 2]]}], "params": [1]},
        {"bodies": [{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}], "params": ["x"]},
        ONE_BODY,
    ])
    def test_family_check_exit_2(self, doc, capsys, monkeypatch):
        code, out, err = run_cli(["family", "check"], stdin_text=json.dumps(doc),
                                 capsys=capsys, monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err.startswith("error: family JSON")

    def test_one_body_family_exits_2_in_every_loader(self, tmp_path, capsys):
        fpath, cpath = tmp_path / "fam.json", tmp_path / "curve.json"
        fpath.write_text(json.dumps(ONE_BODY))
        cpath.write_text(json.dumps({"dim": 2, "points": [[0.2, 0.2], [1.0, 0.0]]}))
        fam, curve = ["--family", str(fpath)], ["--curve", str(cpath)]
        for argv in (["family", "check"] + fam, ["descend", "--endpoint", "1,0"] + fam,
                     ["check", "sdc"] + curve + fam, ["check", "ec"] + curve + fam,
                     ["bounds", "annulus"] + curve + fam, ["report"] + curve + fam):
            code, out, err = run_cli(argv, capsys=capsys)
            assert code == 2 and out == "", argv
            assert err.startswith("error: family JSON"), argv

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
        # Each command starts as a fresh process does: no loaded document or
        # body keeps a width from an earlier command.
        _fresh_process()
        code, out, _ = run_cli(["bounds", "annulus", "--curve", str(cpath), "--family",
                                str(fpath)] + grid, capsys=capsys)
        assert code == 0 and json.loads(out)["bound_ii_ok"]
        for strat in (["--family", str(fpath)], ["--strat", str(spath)]):
            _fresh_process()
            code, _, _ = run_cli(["check", "ec", "--curve", str(cpath)] + strat + grid,
                                 capsys=capsys)
            assert code == 0
        _fresh_process()
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


def _record_grid_builds(monkeypatch):
    """(dimension, size) of every SphereGrid built, as it is built."""
    mean_width = importlib.import_module("descent_geom.mean_width")
    built = []
    real = mean_width.SphereGrid.make

    def recorded(cls, n, size=mean_width._DEFAULT_GRID_SIZE, seed=0):
        built.append((n, size))
        return real(n, size, seed)

    monkeypatch.setattr(mean_width.SphereGrid, "make", classmethod(recorded))
    return built


class TestGridBuilds:
    def test_r3_commands_build_no_sphere_grid(self, tmp_path, capsys, monkeypatch):
        # Every R^3 width is exact, so no command needs quadrature nodes.
        built = _record_grid_builds(monkeypatch)
        fam, curve = str(tmp_path / "fam.json"), str(tmp_path / "curve.json")
        code, out, _ = run_cli(["gen", "random", "--n", "3", "--levels", "3", "--npoints", "12"],
                               capsys=capsys)
        assert code == 0
        (tmp_path / "fam.json").write_text(out)
        top = json.loads(out)["bodies"][-1]["vertices"]
        code, _, _ = run_cli(["descend", "--family", fam, "--knots", "4", "--out", curve,
                              "--endpoint=" + ",".join(map(repr, top[0]))], capsys=capsys)
        assert code == 0
        for argv in (["family", "check", "--family", fam],
                     ["report", "--curve", curve, "--family", fam]):
            code, _, _ = run_cli(argv, capsys=capsys)
            assert code in (0, 1), argv
        assert built == []

    def test_r4_family_check_builds_one_grid_of_grid_size(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "fam.json"
        grid = ["--grid-size", "600"]
        code, out, _ = run_cli(["gen", "random", "--n", "4", "--levels", "3", "--npoints", "12"]
                               + grid, capsys=capsys)
        assert code == 0
        path.write_text(out)
        importlib.import_module("descent_geom.mean_width")._grid_cache.clear()
        built = _record_grid_builds(monkeypatch)
        code, _, _ = run_cli(["family", "check", "--family", str(path)] + grid, capsys=capsys)
        assert code in (0, 1)
        assert built == [(4, 600)]


class TestDescendNoSnap:
    @staticmethod
    def _descend(input_files, capsys, endpoint, *extra):
        return run_cli(["descend", "--family", input_files["family"], "--knots", "4",
                        "--endpoint=" + ",".join(map(repr, endpoint)), *extra], capsys=capsys)

    @staticmethod
    def _top(input_files):
        with open(input_files["family"]) as f:
            return json.load(f)["bodies"][-1]["vertices"]

    def test_top_vertex_is_the_last_point_bit_for_bit(self, input_files, capsys):
        top = self._top(input_files)
        code, out, err = self._descend(input_files, capsys, top[0], "--no-snap")
        assert code == 0, err
        assert json.loads(out)["points"][-1] == top[0]

    def test_snap_keeps_a_boundary_endpoint_bit_for_bit(self, tmp_path, capsys):
        # a vertex lies within rounding_floor(K) of the boundary: ray
        # shooting from the centroid used to move its y by one ulp here
        fpath = tmp_path / "fam.json"
        code, fam_json, _ = run_cli(["gen", "random", "--n", "2", "--seed", "1"], capsys=capsys)
        fpath.write_text(fam_json)
        for v in json.loads(fam_json)["bodies"][-1]["vertices"]:
            code, out, err = run_cli(["descend", "--family", str(fpath), "--knots", "4",
                                      "--endpoint=" + ",".join(map(repr, v))], capsys=capsys)
            assert code == 0, err
            assert json.loads(out)["points"][-1] == v

    def test_interior_endpoint_is_refused_unless_snapped(self, input_files, capsys):
        inside = np.mean(self._top(input_files), axis=0).tolist()
        code, _, err = self._descend(input_files, capsys, inside, "--no-snap")
        assert code == 2 and "endpoint must lie on the boundary" in err
        code, _, err = self._descend(input_files, capsys, inside)
        assert code == 0, err


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

    def test_planar_gen_runs_qhull_once(self, capsys, qhull_calls):
        # Only the first hull, of a point cloud: the scaled chain bodies and
        # every interpolant are clear rings, which hull() reads without Qhull.
        for seed, (npoints, levels) in itertools.product((1, 2, 3), ((10, 3), (16, 5))):
            qhull_calls.clear()
            code, _, _ = run_cli(["gen", "random", "--n", "2", "--seed", str(seed),
                                  "--npoints", str(npoints), "--levels", str(levels)],
                                 capsys=capsys)
            assert code == 0 and len(qhull_calls) == 1


class TestConeLimitBudget:
    def test_r3_cone_limit_runs_no_qhull_after_the_load(self, tmp_path, capsys, qhull_calls,
                                                        monkeypatch):
        # the cap cones are read off the loaded top's facets: no cap body is
        # built, so after the load no query runs Qhull
        cones = importlib.import_module("descent_geom.cones")
        caps, real = [], cones.cap_body
        monkeypatch.setattr(cones, "cap_body", lambda K, p: caps.append(1) or real(K, p))
        gens = [["gen", "random", "--n", "3", "--npoints", "16", "--levels", "4", "--seed", s]
                for s in ("1", "2", "3")] + [["gen", "disks", "--n", "3", "--levels", "6"]]
        for i, argv in enumerate(gens):
            code, out, _ = run_cli(argv, capsys=capsys)
            assert code == 0
            top = json.loads(out)["bodies"][-1]
            path = tmp_path / f"top{i}.json"
            path.write_text(json.dumps(top))
            V = np.array(top["vertices"])
            argvs = [["report", "cone-limit", "--body", str(path), "--p0=" + ",".join(map(repr, v.tolist())),
                      "--u=" + ",".join(map(repr, (v - V.mean(axis=0)).tolist()))] for v in V[:4]]
            run_cli(argvs[0], capsys=capsys)  # loads the body
            qhull_calls.clear()
            for argv in argvs:
                code, _, err = run_cli(argv, capsys=capsys)
                assert code == 0, err
            assert qhull_calls == []
        assert caps == []


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
        # (c0_2 / diam) * dist^2 / (width step): the factor the jump needs.
        fam = family_from_dict(doc)
        ratio = (width_gap_constant(2) / fam.bodies[-1].diameter()
                 * hausdorff(*fam.bodies) ** 2 / (fam.params[1] - fam.params[0]))
        assert 1.5 < ratio <= 2.0
        verdicts = []
        for opts in ([], ["--tol", "2"]):
            code, out, _ = run_cli(["family", "check", "--family", str(path)] + opts,
                                   capsys=capsys)
            verdicts.append((code, json.loads(out)["connected"]))
        assert verdicts == [(1, False), (1, False)]


class TestFamilyCheckDimensions:
    def test_mixed_dimensions_exit_2(self, tmp_path, capsys):
        # a planar triangle and a wider R^3 tetrahedron: honest widths and
        # step, so only the pair's distance meets the dimensions
        doc = {"bodies": [{"vertices": [[0, 0], [1, 0], [0, 1]]},
                          {"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]}]}
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["family", "check", "--family", str(path)], capsys=capsys)
        assert code == 2 and not out
        assert "bodies live in different dimensions" in err


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


def _report_inputs(tmp_path, capsys):
    """(name, curve path, family path) of the report inputs: Cantor level 4
    with its family, example 6.1, cantor-disks, and R^2 and R^3 gen random
    families with a descent curve to a vertex of the top member."""
    def write(name, doc):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def out(argv):
        return json.loads(run_cli(argv, capsys=capsys)[1])

    inputs = [("cantor", write("cantor", out(["fixtures", "cantor", "--level", "4"])),
               write("cantor_fam", out(["fixtures", "cantor-family", "--level", "4"])))]
    for kind in ("example61", "cantor-disks"):
        doc = out(["fixtures", kind])
        inputs.append((kind, write(kind, doc["curve"]), write(kind + "_fam", doc["family"])))
    for n, seed in ((2, 3), (3, 4)):
        fam = out(["gen", "random", "--n", str(n), "--levels", "3", "--seed", str(seed)])
        fpath = write(f"fam{n}", fam)
        v = ",".join(map(repr, fam["bodies"][-1]["vertices"][0]))
        curve = out(["descend", "--family", fpath, f"--endpoint={v}", "--knots", "8"])
        inputs.append((f"gen{n}", write(f"curve{n}", curve), fpath))
    return inputs


class TestReportCouple:
    def test_checks_equal_the_standalone_validators(self, tmp_path, capsys):
        seen = set()
        for name, cpath, fpath in _report_inputs(tmp_path, capsys):
            with open(cpath) as fc, open(fpath) as ff:
                curve, fam = polyline_from_dict(json.load(fc)), family_from_dict(json.load(ff))
            for tol in (1e-9, 1e-3):
                code, out, err = run_cli(["report", "--curve", cpath, "--family", fpath,
                                          "--tol", repr(tol)], capsys=capsys)
                assert code in (0, 1), (name, err)
                checks = json.loads(out)["checks"]
                expect = {
                    "sep": is_sep(curve, tol)["ok"],
                    "ec": is_expanding_couple(curve, fam, max(tol, 1e-7))["ok"],
                    "sdc": is_viable_sdc(curve, fam, max(tol, 1e-6))["ok"],
                }
                assert {k: checks[k] for k in expect} == expect, (name, tol)
                seen.add((name, checks["ec"], checks["sdc"]))
        # the corpus reaches both verdicts of both checks
        assert ("cantor", False, True) in seen and ("example61", True, False) in seen
        assert ("cantor-disks", True, True) in seen

    def test_one_alignment_and_two_sep_checks_per_report(self, tmp_path, capsys,
                                                         call_counter):
        fpath = tmp_path / "fam.json"
        fpath.write_text(run_cli(["gen", "random", "--levels", "3", "--seed", "3"],
                                 capsys=capsys)[1])
        fam = family_from_dict(json.loads(fpath.read_text()))
        v = ",".join(map(repr, fam.bodies[-1].vertices[0].tolist()))
        cpath = tmp_path / "curve.json"
        cpath.write_text(run_cli(["descend", "--family", str(fpath), f"--endpoint={v}"],
                                 capsys=capsys)[1])
        passes = call_counter("descent", "_candidates")
        seps = call_counter("sep", "is_sep")
        code, out, err = run_cli(["report", "--curve", str(cpath), "--family", str(fpath)],
                                 capsys=capsys)
        assert code == 0 and json.loads(out)["ok"], err
        assert len(fam) > 4
        assert len(passes) == 1 and len(seps) <= 2
        # At --tol >= 1e-7 the couple's SEP check is the one asked for.
        seps.clear()
        code, out, err = run_cli(["report", "--curve", str(cpath), "--family", str(fpath),
                                  "--tol", "1e-3"], capsys=capsys)
        assert code == 0 and json.loads(out)["checks"]["sep"], err
        assert len(seps) == 1

    def test_one_candidate_table_per_couple(self, tmp_path, capsys, call_counter):
        fpath = tmp_path / "fam.json"
        fpath.write_text(run_cli(["gen", "random", "--npoints", "13", "--levels", "4",
                                  "--seed", "5"], capsys=capsys)[1])
        fam = family_from_dict(json.loads(fpath.read_text()))
        v = ",".join(map(repr, fam.bodies[-1].vertices[0].tolist()))
        cpath = tmp_path / "curve.json"
        cpath.write_text(run_cli(["descend", "--family", str(fpath), f"--endpoint={v}",
                                  "--knots", str(len(fam))], capsys=capsys)[1])
        tables = call_counter("descent", "_candidates")
        stacks = call_counter("descent", "_stack")
        pair = ["--curve", str(cpath), "--family", str(fpath)]
        for argv in (["report"] + pair, *(["bounds", "annulus", "--k1-index", str(k)] + pair
                                          for k in (0, len(fam) // 2, -2))):
            tables.clear()
            stacks.clear()
            code, out, err = run_cli(argv, capsys=capsys)
            assert code == 0, (argv, err)
            # the annulus clip reads K1's row of the couple's table, and the
            # alignment reads the couple's stacked facet rows by member
            assert len(tables) == 1, argv
            assert len(stacks) == (2 if argv[0] == "report" else 1), argv

    def test_missed_member_is_named(self, tmp_path, capsys):
        code, out, _ = run_cli(["fixtures", "cantor-disks", "--level", "3"], capsys=capsys)
        doc = json.loads(out)
        fpath, cpath = tmp_path / "fam.json", tmp_path / "point.json"
        fpath.write_text(json.dumps(doc["family"]))
        # the curve's outer end alone lies on the top member only
        cpath.write_text(json.dumps({"dim": 2, "points": doc["curve"]["points"][-1:]}))
        n, p0 = len(doc["family"]["bodies"]), doc["family"]["params"][0]
        code, out, err = run_cli(["check", "sdc", "--curve", str(cpath), "--family", str(fpath)],
                                 capsys=capsys)
        assert code == 2 and out == ""
        assert err == f"error: alignment failure: member 0 of {n} (param {p0:.6g}) misses the curve\n"


class TestWidthMemoCli:
    def test_second_r4_family_check_runs_no_quadrature(self, tmp_path, capsys, call_counter):
        fpath = tmp_path / "fam.json"
        fpath.write_text(run_cli(["gen", "disks", "--n", "4", "--levels", "5"], capsys=capsys)[1])
        runs = call_counter("mean_width", "mean_width_quadrature")
        first = run_cli(["family", "check", "--family", str(fpath)], capsys=capsys)
        assert first[0] == 0 and len(runs) == 5  # one per loaded member
        runs.clear()
        second = run_cli(["family", "check", "--family", str(fpath)], capsys=capsys)
        assert second == first and runs == []


class TestDocumentMemo:
    """_load_json decodes each distinct text once per process, and the
    loaders build each family, chain, curve and body of it once."""

    def _files(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        fam.write_text(run_cli(["gen", "disks", "--levels", "4"], capsys=capsys)[1])
        doc = json.loads(fam.read_text())
        (tmp_path / "chain.json").write_text(json.dumps({"bodies": doc["bodies"]}))
        (tmp_path / "top.json").write_text(json.dumps(doc["bodies"][-1]))
        top = doc["bodies"][-1]["vertices"]
        curve = tmp_path / "curve.json"
        assert run_cli(["descend", "--family", str(fam), "--knots", "4", "--out", str(curve),
                        "--endpoint=" + ",".join(map(repr, top[0]))], capsys=capsys)[0] == 0
        return {name: str(tmp_path / f"{name}.json") for name in ("fam", "chain", "top", "curve")}

    QUERIES = [
        "family check --family {fam}",
        "family complete --strat {chain} --step 0.05",
        "check ec --curve {curve} --family {fam}",
        "check ec --curve {curve} --strat {chain}",
        "check sdc --curve {curve} --family {fam}",
        "check sep --curve {curve}",
        "bounds annulus --curve {curve} --family {fam}",
        "bounds stability --curve {curve} --curve2 {curve} --family {fam}",
        "report --curve {curve} --family {fam}",
        "report cone-limit --body {top} --p0={p0} --u={p0}",
    ]

    def test_second_run_decodes_and_builds_nothing(self, tmp_path, capsys, monkeypatch,
                                                   call_counter):
        files = self._files(tmp_path, capsys)
        p0 = ",".join(map(repr, json.loads((tmp_path / "top.json").read_text())["vertices"][0]))
        argvs = [q.format(p0=p0, **files).split() for q in self.QUERIES]
        first = [run_cli(argv, capsys=capsys) for argv in argvs]
        assert all(code in (0, 1) and err == "" for code, _, err in first)
        decodes = []
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda *a, **k: decodes.append(a) or loads(*a, **k))
        builds = [call_counter(module, name) for module, name in (
            ("geom_core", "body_from_dict"), ("sep", "polyline_from_dict"),
            ("family", "validate_stratification"))]
        second = [run_cli(argv, capsys=capsys) for argv in argvs]
        assert second == first
        assert decodes == [] and builds == [[]] * len(builds)

    def test_stdin_is_read_through_the_memo(self, capsys, monkeypatch, call_counter):
        text = json.dumps({"dim": 2, "points": [[0, 0], [1, 0], [1, 1]]})
        first = run_cli(["check", "sep"], stdin_text=text, capsys=capsys, monkeypatch=monkeypatch)
        builds = call_counter("sep", "polyline_from_dict")
        second = run_cli(["check", "sep"], stdin_text=text, capsys=capsys,
                         monkeypatch=monkeypatch)
        assert second == first and first[0] == 0 and builds == []

    def test_concurrent_loads_share_one_document_and_its_builds(self, tmp_path, capsys):
        files = self._files(tmp_path, capsys)
        args = cli.build_parser().parse_args(["family", "check", "--family", files["fam"]])
        args.seed = 0
        _fresh_process()

        def load():
            return [(cli._load_family(args, files["fam"]), cli._load_curve(files["curve"]))
                    for _ in range(20)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(6) as pool:
                runs = [pool.submit(load) for _ in range(6)]
                loaded = [pair for f in runs for pair in f.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert all(fam is loaded[0][0] and curve is loaded[0][1] for fam, curve in loaded)
        memo = cli._doc_memo
        assert len(memo.items) == 2 and memo.cost == sum(map(len, memo.items))

    def test_rewritten_file_loads_its_new_content(self, tmp_path, capsys):
        path = tmp_path / "curve.json"
        outs = []
        # a SEP, then a path that turns back toward its start
        for points in ([[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 0], [0, 0.1]]):
            path.write_text(json.dumps({"dim": 2, "points": points}))
            outs.append(run_cli(["check", "sep", "--curve", str(path)], capsys=capsys))
        assert [code for code, _, _ in outs] == [0, 1]
        _fresh_process()
        assert run_cli(["check", "sep", "--curve", str(path)], capsys=capsys) == outs[1]

    def test_grid_size_builds_a_separate_family(self, tmp_path, capsys, monkeypatch):
        sizes = _record_quadrature(monkeypatch)
        fpath = tmp_path / "fam.json"
        fpath.write_text(run_cli(["gen", "disks", "--n", "4", "--levels", "3",
                                  "--grid-size", "600"], capsys=capsys)[1])
        runs = {}
        for size in ("600", "700", "600", "700"):
            sizes.clear()
            code, out, _ = run_cli(["family", "check", "--family", str(fpath),
                                    "--grid-size", size], capsys=capsys)
            runs.setdefault(size, []).append((code, out, list(sizes)))
        # Each grid reaches the quadrature, on a miss and on a hit.
        for size, (a, b) in runs.items():
            assert a[:2] == b[:2] and a[2] and set(a[2] + b[2]) == {int(size)}
        built = cli._load_json(str(fpath)).built
        assert set(built) == {("family", 600, 0), ("family", 700, 0)}
        assert built[("family", 600, 0)] is not built[("family", 700, 0)]

    @pytest.mark.parametrize("text, built", [
        ("{", None),  # not JSON: not kept
        (json.dumps({"bodies": [{"vertices": [[0, 0], [1, 0], [0, 1]]}]}), set()),  # one member
        ("[1, 2]", set()),  # not an object: kept, nothing built on it
        # members in two dimensions: the family builds, is_connected raises
        (json.dumps({"bodies": [{"vertices": [[0, 0], [1, 0], [0, 1]]},
                                {"vertices": [[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]]}]}),
         {("family", 20000, 0)}),
    ])
    def test_malformed_document_exits_2_on_every_read(self, text, built, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        runs = [run_cli(["family", "check", "--family", str(path)], capsys=capsys)
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == 2 and runs[0][2].startswith("error:")
        kept = cli._doc_memo.items.get(text)
        assert (kept is None) if built is None else set(getattr(kept[0], "built", {})) == built

    def test_cost_stays_within_the_budget(self, tmp_path, capsys, monkeypatch):
        memo = _Memo(4000)
        monkeypatch.setattr(cli, "_doc_memo", memo)
        path = tmp_path / "curve.json"
        texts = []
        for k in range(12):  # about 600 characters each
            texts.append(json.dumps({"dim": 2, "points": [[i, (k + 1) * i * i / 7]
                                                          for i in range(40)]}))
            path.write_text(texts[-1])
            assert run_cli(["check", "sep", "--curve", str(path)], capsys=capsys)[0] == 0
            assert memo.cost == sum(len(t) for t in memo.items) <= memo.budget
        assert sum(map(len, texts)) > memo.budget
        assert list(memo.items) == texts[-len(memo.items):]  # least recent evicted


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
        # Planar facets are read off the ring, planar projection is closed
        # form and a planar path's widths come from one pass over its points,
        # so only the generators (hull() of points) run Qhull.
        fam, curve = tmp_path / "fam.json", tmp_path / "curve.json"
        cantor, cantor_fam = tmp_path / "cantor.json", tmp_path / "cantor_fam.json"
        code, out, _ = _fresh(["gen", "random", "--n", "2", "--npoints", "10",
                               "--levels", "3", "--seed", "3"])
        assert code == 0
        fam.write_text(out)
        bodies = json.loads(out)["bodies"]
        # One knot per member: the curve has collinear runs, so hull() of its
        # points is no clear ring and would run Qhull.
        for path, argv in ((curve, ["descend", "--family", str(fam), "--knots", str(len(bodies)),
                                    "--endpoint=" + ",".join(map(repr, bodies[-1]["vertices"][0]))]),
                           (cantor, ["fixtures", "cantor", "--level", "2"]),
                           (cantor_fam, ["fixtures", "cantor-family", "--level", "2"])):
            code, out, mods = _fresh(argv)
            assert code == 0 and (path is not curve or not mods), argv
            path.write_text(out)
        for argv in (["check", "sdc", "--curve", str(cantor), "--family", str(cantor_fam)],
                     ["check", "ec", "--curve", str(cantor), "--strat", str(cantor_fam)],
                     ["family", "check", "--family", str(fam)],
                     ["report", "--curve", str(curve), "--family", str(fam)],
                     ["bounds", "length", "--curve", str(curve)]):
            code, out, mods = _fresh(argv)
            assert code in (0, 1) and "scipy.spatial" not in mods, argv

    def test_report_cone_limit_never_loads_scipy_optimize(self, tmp_path):
        body = tmp_path / "cube.json"
        body.write_text(json.dumps(hull(list(itertools.product((0.0, 1.0), repeat=3))).to_dict()))
        code, out, mods = _fresh(["report", "cone-limit", "--body", str(body), "--p0=1,1,1",
                                  "--u=1,1,1"])
        assert code == 0 and json.loads(out)["sandwich_ok"]
        assert "scipy.spatial" in mods and "scipy.optimize" not in mods

    def test_planar_report_cone_limit_never_loads_scipy_spatial(self, tmp_path):
        # Planar cap bodies grow the body's ring: no Qhull run.
        body = tmp_path / "top.json"
        code, out, _ = _fresh(["gen", "random", "--n", "2"])
        assert code == 0
        top = json.loads(out)["bodies"][-1]
        body.write_text(json.dumps(top))
        V = np.array(top["vertices"])
        u = V[0] - V.mean(axis=0)
        code, out, mods = _fresh(["report", "cone-limit", "--body", str(body),
                                  "--p0=" + ",".join(map(repr, V[0].tolist())),
                                  "--u=" + ",".join(map(repr, u.tolist()))])
        assert code == 0 and json.loads(out)["sandwich_ok"]
        assert "scipy.spatial" not in mods


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
