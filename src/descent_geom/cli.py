"""Command-line front end: generators, validators, bound checkers and
report/SVG emitters.

Subcommands compose through JSON on stdin/stdout.  Exit codes: 0 when all
requested checks pass, 1 on a failed mathematical check (a witness is
emitted as JSON), 2 on input errors.
"""

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import DescentGeomError, InvalidInput
from .cones import normal_cone_limit_report
from .geom_core import _Memo, body_from_dict, hull, project, rel_depth_many, rounding_floor
from .mean_width import default_grid
from .sep import (
    hull_width,
    is_sep,
    length_bound_check,
    lipschitz_ratio,
    polyline_from_csv,
    polyline_from_dict,
)
from .family import (
    complete,
    family_from_dict,
    is_connected,
    stratification_from_dict,
    validate_stratification,
)
from .descent import (
    annulus_length_check,
    cantor_disks,
    cantor_family,
    cantor_graph,
    construct_descent,
    disk_family,
    example61_curve,
    example61_family,
    is_expanding_couple,
    is_viable_sdc,
    joint_parametrization,
    log_spiral,
    make_expanding_couple,
    rotated_squares,
    segment_inside_interval,
    stability_check,
)


def _emit(obj):
    def default(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.floating, np.integer)):
            return o.item()
        if isinstance(o, (np.bool_,)):
            return bool(o)
        raise TypeError(f"not serializable: {type(o)}")

    sys.stdout.write(json.dumps(obj, sort_keys=True, default=default) + "\n")


class _Doc(dict):
    """A decoded JSON object that _doc_memo keeps, with what the loaders
    built from it in built: {key: object}."""

    __slots__ = ("built",)


def _decode(text):
    doc = json.loads(text)
    if isinstance(doc, dict):
        doc = _Doc(doc)
        doc.built = {}
    return doc


# Keeps 2^19 characters of document text: the 20 documents of perfbench's
# family_validation store (about 250 K characters) fit, while a stream of new
# documents, as planar_pipeline writes, only cycles through it.
_doc_memo = _Memo(1 << 19)


def _load_json(path):
    """The JSON document at path (stdin for None or "-").  The text is read
    on every call and decoded once per distinct text while _doc_memo keeps
    it: later loads of that text return the same document, and what was
    built from it (_built).  A text that fails to decode is not kept."""
    if path in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(path) as f:
            text = f.read()
    return _doc_memo.get(text, len(text), lambda: _decode(text))


def _built(doc, key, make):
    """make(doc), kept on doc under key when _load_json keeps doc: the key
    names the builder and the options it reads.  A build that raises keeps
    nothing, so it raises again on the next load."""
    built = getattr(doc, "built", None)
    if built is None:
        return make(doc)
    value = built.get(key)
    if value is None:
        value = built.setdefault(key, make(doc))
    return value


def _load_curve(path):
    if path is not None and path.endswith(".csv"):
        return polyline_from_csv(path)
    return _built(_load_json(path), "curve", polyline_from_dict)


def _load_chain(args, doc, kind):
    """The family (kind "family") or stratification ("strat") of doc, on
    the CLI grid of its bodies."""
    load = family_from_dict if kind == "family" else stratification_from_dict
    return _built(doc, (kind, args.grid_size, args.seed),
                  lambda d: load(d, _doc_grid(args, d)))


def _load_family(args, path):
    return _load_chain(args, _load_json(path), "family")


def _parse_numbers(s, option):
    """The finite numbers of an option's comma-separated value."""
    if s is None:
        raise InvalidInput(f"{option} is required")
    try:
        x = [float(v) for v in s.split(",")]
    except ValueError:
        raise InvalidInput(f"cannot parse {option} {s!r}: expected comma-separated numbers")
    if not all(map(math.isfinite, x)):
        raise InvalidInput(f"{option} must list finite numbers, got {s!r}")
    return x


def _parse_point(s, option):
    return np.array(_parse_numbers(s, option))


def _check_options(args):
    """--tol must be a finite number >= 0, --step a finite number > 0 and
    --grid-size at least 1, in every dimension."""
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise InvalidInput(f"--tol must be a finite number >= 0, got {args.tol!r}")
    if args.grid_size < 1:
        raise InvalidInput(f"--grid-size must be at least 1, got {args.grid_size}")
    step = getattr(args, "step", None)
    if step is not None and not (math.isfinite(step) and step > 0.0):
        raise InvalidInput(f"--step must be a finite number > 0, got {step!r}")


def _config(args):
    cfg = {"seed": args.seed, "grid_size": args.grid_size, "tol": args.tol}
    if getattr(args, "step", None) is not None:
        cfg["step"] = args.step
    return cfg


def _grid_for(args, n):
    if n <= 3:  # exact widths: no CLI path reads a grid
        return None
    return default_grid(n, args.grid_size, args.seed)


def _doc_grid(args, doc):
    """The CLI grid for the bodies of a family or chain document."""
    try:
        n = len(doc["bodies"][0]["vertices"][0])
    except (KeyError, IndexError, TypeError):
        n = 0  # malformed: loading the bodies reports it
    return _grid_for(args, n)


def _snap_to_boundary(K, p):
    """Nearest boundary point of K to p (projection outside, ray shooting
    from the centroid inside); p itself, as given, when it lies within
    rounding_floor(K) of the relative boundary."""
    q = project(K, p)
    if np.linalg.norm(q - p) > 1e-12 * (1.0 + K.diameter()):
        return q
    if abs(rel_depth_many(K, p)[0][0]) <= rounding_floor(K):
        return p
    c = K.centroid()
    d = p - c
    nd = np.linalg.norm(d)
    if nd <= 1e-12:
        return K.vertices[0].copy()
    far = c + d / nd * (2.0 * K.diameter() + 1.0)
    iv = segment_inside_interval(K, c, far)
    if iv is None:
        return q
    return c + iv[1] * (far - c)


# -- svg -----------------------------------------------------------------------


def _svg_path(points, closed=False):
    d = "M " + " L ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return d + (" Z" if closed else "")


def render_svg(path, bodies=(), curves=()):
    """Write a simple SVG of 2-D bodies and curves (3-D inputs are drawn
    as xy-projected wireframes)."""
    pts = []
    for K in bodies:
        pts.append(K.vertices[:, :2])
    for g in curves:
        pts.append(g.points[:, :2])
    if not pts:
        raise InvalidInput("nothing to draw")
    allp = np.vstack(pts)
    lo = allp.min(axis=0)
    hi = allp.max(axis=0)
    span = max((hi - lo).max(), 1e-9)
    pad = 0.05 * span
    size = 640

    def tx(P):
        Q = (P[:, :2] - lo + pad) / (span + 2 * pad) * size
        Q[:, 1] = size - Q[:, 1]
        return Q

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for K in bodies:
        if K.dim == 2:
            parts.append(
                f'<path d="{_svg_path(tx(K.vertices), closed=True)}" fill="none" '
                'stroke="#4477aa" stroke-width="1"/>'
            )
        else:
            # a segment is its own edge; other bodies draw their facets' edges
            cells = K.facets.simplices if K.dim_affine >= 2 else [range(K.nvertices)]
            edges = set()
            for s in cells:
                for a in range(len(s)):
                    for b in range(a + 1, len(s)):
                        edges.add((min(s[a], s[b]), max(s[a], s[b])))
            Q = tx(K.vertices)
            for i, j in sorted(edges):
                parts.append(
                    f'<line x1="{Q[i,0]:.2f}" y1="{Q[i,1]:.2f}" x2="{Q[j,0]:.2f}" '
                    f'y2="{Q[j,1]:.2f}" stroke="#99bbdd" stroke-width="0.5"/>'
                )
    for g in curves:
        parts.append(
            f'<path d="{_svg_path(tx(g.points))}" fill="none" stroke="#cc3311" '
            'stroke-width="2"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(parts))


# -- subcommands ----------------------------------------------------------------


def _cmd_gen(args):
    rng = np.random.default_rng(args.seed)
    if args.kind == "disks":
        fam = disk_family(args.rmin, args.rmax, args.levels, m=args.mesh, n=args.n,
                          seed=args.seed, grid=_grid_for(args, args.n))
    elif args.kind == "squares":
        strat = rotated_squares(args.levels)
        dw = strat.params[-1] - strat.params[0]
        fam = complete(strat, args.step or dw / (2 * args.levels))
    elif args.kind == "random":
        pts = rng.standard_normal((args.npoints, args.n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        outer = hull(pts * (1.0 + 0.2 * rng.random(len(pts)))[:, None])
        bodies = [outer]
        for _ in range(args.levels - 1):
            K = bodies[-1]
            c = K.centroid()
            bodies.append(hull(c + (K.vertices - c) * (0.55 + 0.25 * rng.random())))
        grid = _grid_for(args, args.n)
        strat = validate_stratification(bodies, grid=grid)
        dw = strat.params[-1] - strat.params[0]
        fam = complete(strat, args.step or dw / (2 * args.levels), grid)
    else:
        raise InvalidInput(f"unknown generator {args.kind!r}")
    _emit(fam.to_dict())
    return 0


def _cmd_fixtures(args):
    if args.kind == "cantor":
        _emit(cantor_graph(args.level).to_dict())
    elif args.kind == "cantor-family":
        _emit(cantor_family(args.level).to_dict())
    elif args.kind == "cantor-disks":
        fam, curve = cantor_disks(args.level)
        _emit({"family": fam.to_dict(), "curve": curve.to_dict()})
    elif args.kind == "example61":
        fam = example61_family(grid=_grid_for(args, 3))
        curve = example61_curve(fam, radial=args.radial)
        _emit({"family": fam.to_dict(), "curve": curve.to_dict()})
    elif args.kind == "spiral":
        _emit(log_spiral(args.b, args.turns, args.points).to_dict())
    else:
        raise InvalidInput(f"unknown fixture {args.kind!r}")
    return 0


def _cmd_check(args):
    if args.what == "sep":
        curve = _load_curve(args.curve)
        res = is_sep(curve, args.tol)
        _emit({"check": "sep", "ok": res["ok"], "witness": res["witness"],
               "config": _config(args)})
        return 0 if res["ok"] else 1
    if args.what == "ec":
        curve = _load_curve(args.curve)
        doc = _load_json(args.strat or args.family)
        strat = _load_chain(args, doc, "family" if isinstance(doc, dict) and "h" in doc
                            else "strat")
        res = is_expanding_couple(curve, strat, args.tol, _doc_grid(args, doc))
        _emit({"check": "ec", "ok": res["ok"], "condition": res["condition"],
               "witness": res["witness"], "config": _config(args)})
        return 0 if res["ok"] else 1
    if args.what == "sdc":
        curve = _load_curve(args.curve)
        fam = _load_family(args, args.family)
        res = is_viable_sdc(curve, fam, args.tol)
        _emit({"check": "sdc", "ok": res["ok"], "witness": res["witness"],
               "n_failures": len(res["failures"]), "config": _config(args)})
        return 0 if res["ok"] else 1
    raise InvalidInput(f"unknown check {args.what!r}")


def _cmd_descend(args):
    fam = _load_family(args, args.family)
    endpoint = _parse_point(args.endpoint, "--endpoint")
    if args.snap:
        endpoint = _snap_to_boundary(fam.bodies[-1], endpoint)
    curve = construct_descent(fam, endpoint, args.knots)
    doc = curve.to_dict()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, sort_keys=True)
        print(args.out)
    else:
        _emit(doc)
    if args.svg:
        bodies = fam.bodies if fam.dim == 2 else (fam.bodies[0], fam.bodies[-1])
        render_svg(args.svg, bodies=bodies, curves=(curve,))
    return 0


def _cmd_bounds(args):
    if args.what == "length":
        curve = _load_curve(args.curve)
        grid = _grid_for(args, curve.dim)
        lip = lipschitz_ratio(curve, grid, args.tol) if curve.dim <= 2 else None
        # The last prefix width is the width of the path's hull.
        res = length_bound_check(curve, grid, args.tol, w_hull=lip["widths"][-1] if lip else None)
        res["lipschitz"] = lip["max_ratio"] if lip else None
        res["config"] = _config(args)
        _emit(res)
        return 0 if res["bound_ok"] else 1
    curve = _load_curve(args.curve)
    fam = _load_family(args, args.family)
    ec = make_expanding_couple(curve, fam, max(args.tol, 1e-7))
    if args.what == "annulus":
        res = annulus_length_check(ec, args.k1_index, grid=_grid_for(args, fam.dim))
        res["config"] = _config(args)
        _emit(res)
        return 0 if (res["bound_i_ok"] and res["bound_ii_ok"]) else 1
    if args.what == "joint":
        jp = joint_parametrization(ec)
        if args.csv:  # per member: w, s, tau and the rate |dz| / dtau since the previous one
            s, tau, z = jp["s_values"], jp["tau_grid"], jp["z_points"]
            with open(args.csv, "w") as f:
                f.write("w,s,tau,z_rate\n")
                for i, w in enumerate(fam.params):
                    dt = tau[i] - tau[i - 1]
                    rate = 0.0 if i == 0 or dt <= 0 else float(np.linalg.norm(z[i] - z[i - 1]) / dt)
                    f.write(",".join(map(repr, (w, s[i], tau[i], rate))) + "\n")
        ok = jp["lipschitz_estimate"] <= 1.0 + 1e-9
        _emit({"check": "joint", "ok": ok,
               "lipschitz_estimate": jp["lipschitz_estimate"],
               "config": _config(args)})
        return 0 if ok else 1
    if args.what == "stability":
        other = _load_curve(args.curve2)
        ec2 = make_expanding_couple(other, fam, max(args.tol, 1e-7))
        res = stability_check(ec, ec2, args.tol)
        res["config"] = _config(args)
        res.pop("distances")
        _emit(res)
        return 0 if res["ok"] else 1
    raise InvalidInput(f"unknown bound {args.what!r}")


def _cmd_family(args):
    if args.what == "complete":
        doc = _load_json(args.strat)
        fam = complete(_load_chain(args, doc, "strat"), args.step, _doc_grid(args, doc))
        _emit(fam.to_dict())
        return 0
    if args.what == "check":
        fam = _load_family(args, args.family)
        ok = is_connected(fam, grid=_grid_for(args, fam.dim))
        _emit({"check": "family", "connected": ok, "size": len(fam),
               "interval": list(fam.interval), "config": _config(args)})
        return 0 if ok else 1
    raise InvalidInput(f"unknown family action {args.what!r}")


def _cmd_report(args):
    if args.what == "cone-limit":
        body = _built(_load_json(args.body), "body", body_from_dict)
        rep = normal_cone_limit_report(
            body,
            _parse_point(args.p0, "--p0"),
            _parse_point(args.u, "--u"),
            _parse_numbers(args.eps, "--eps"),
            grid_size=min(args.grid_size, 10000),
            seed=args.seed,
        )
        rep["config"] = _config(args)
        _emit(rep)
        return 0 if (rep["sandwich_ok"] and rep["metric_decreasing"]) else 1
    curve = _load_curve(args.curve)
    fam = _load_family(args, args.family)
    grid = _grid_for(args, fam.dim)
    # Exits 2 unless the pair is a couple, which passes EC's sep and (i) checks;
    # its SEP check at max(--tol, 1e-7) is the one asked for when --tol >= 1e-7.
    ec = make_expanding_couple(curve, fam, max(args.tol, 1e-7))
    sep_ok = args.tol >= 1e-7 or is_sep(curve, args.tol)["ok"]
    out = {"config": _config(args), "checks": {
        "sep": sep_ok,
        "ec": ec.ec_conditions(max(args.tol, 1e-7))["ok"],
        "sdc": ec.sdc_verdict(max(args.tol, 1e-6))["ok"],
    }}
    if sep_ok:
        lb = length_bound_check(curve, grid, args.tol, w_hull=hull_width(curve, grid))
        out["checks"]["length_bound"] = lb["bound_ok"]
        out.update(length=lb["length"], w_hull=lb["w_hull"])
    jp = joint_parametrization(ec)
    out["checks"]["joint_lipschitz"] = jp["lipschitz_estimate"] <= 1.0 + 1e-9
    an = annulus_length_check(ec, 0, grid=grid)
    out["checks"]["annulus"] = bool(an["bound_i_ok"] and an["bound_ii_ok"])
    if args.svg and fam.dim == 2:
        render_svg(args.svg, bodies=fam.bodies, curves=(curve,))
    out["ok"] = all(out["checks"].values())
    _emit(out)
    return 0 if out["ok"] else 1


@functools.cache
def build_parser():
    """The CLI parser, built once per process; each parse_args call returns
    a fresh Namespace."""
    p = argparse.ArgumentParser(
        prog="descent-geom",
        description="Steepest-descent curves for nested convex families",
    )
    p.add_argument("--seed", type=int, default=None, help="RNG seed (env DESCENT_GEOM_SEED overrides)")
    p.add_argument("--grid-size", type=int, default=20000,
                   help="sphere-grid nodes for mean widths in R^4 and up, sector integrals "
                        "and report cone-limit for n >= 3 (which uses at most 10000)")
    p.add_argument("--tol", type=float, default=1e-9)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--grid-size", type=int, default=argparse.SUPPRESS)
    common.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate families", parents=[common])
    g.add_argument("kind", choices=["disks", "squares", "random"])
    g.add_argument("--n", type=int, default=2)
    g.add_argument("--levels", type=int, default=10)
    g.add_argument("--rmin", type=float, default=0.5)
    g.add_argument("--rmax", type=float, default=1.0)
    g.add_argument("--mesh", type=int, default=64)
    g.add_argument("--npoints", type=int, default=24)
    g.add_argument("--step", type=float, default=None)
    g.set_defaults(fn=_cmd_gen)

    f = sub.add_parser("fixtures", parents=[common], help="deterministic counterexample fixtures")
    f.add_argument("kind", choices=["cantor", "cantor-family", "cantor-disks",
                                    "example61", "spiral"])
    f.add_argument("--level", type=int, default=6)
    f.add_argument("--radial", type=float, default=0.55)
    f.add_argument("--b", type=float, default=0.28)
    f.add_argument("--turns", type=float, default=3.0)
    f.add_argument("--points", type=int, default=1500)
    f.set_defaults(fn=_cmd_fixtures)

    c = sub.add_parser("check", parents=[common], help="validate curves and couples")
    c.add_argument("what", choices=["sep", "ec", "sdc"])
    c.add_argument("--curve", default=None)
    c.add_argument("--strat", default=None)
    c.add_argument("--family", default=None)
    c.set_defaults(fn=_cmd_check)

    d = sub.add_parser("descend", parents=[common], help="construct a descent curve")
    d.add_argument("--family", default=None)
    d.add_argument("--endpoint", required=True)
    d.add_argument("--knots", type=int, default=16)
    d.add_argument("--out", default=None)
    d.add_argument("--svg", default=None)
    d.add_argument("--no-snap", dest="snap", action="store_false")
    d.set_defaults(fn=_cmd_descend)

    b = sub.add_parser("bounds", parents=[common], help="quantitative bound checks")
    b.add_argument("what", choices=["length", "annulus", "joint", "stability"])
    b.add_argument("--curve", default=None)
    b.add_argument("--curve2", default=None)
    b.add_argument("--family", default=None)
    b.add_argument("--k1-index", type=int, default=0)
    b.add_argument("--csv", default=None)
    b.set_defaults(fn=_cmd_bounds)

    fam = sub.add_parser("family", parents=[common], help="stratification utilities")
    fam.add_argument("what", choices=["complete", "check"])
    fam.add_argument("--strat", default=None)
    fam.add_argument("--family", default=None)
    fam.add_argument("--step", type=float, default=0.1)
    fam.set_defaults(fn=_cmd_family)

    r = sub.add_parser("report", parents=[common], help="run the full check battery")
    r.add_argument("what", nargs="?", choices=["battery", "cone-limit"],
                   default="battery")
    r.add_argument("--curve", default=None)
    r.add_argument("--family", default=None)
    r.add_argument("--svg", default=None)
    r.add_argument("--body", default=None)
    r.add_argument("--p0", default=None)
    r.add_argument("--u", default=None)
    r.add_argument("--eps", default="0.5,0.25,0.1,0.01")
    r.set_defaults(fn=_cmd_report)
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a separate "-1,0" for an option: join it to its flag.
    for i in reversed(range(1, len(argv))):
        if argv[i - 1] in ("--endpoint", "--p0", "--u") and argv[i][:1] == "-" \
                and argv[i][1:2] in "0123456789.":
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    env_seed = os.environ.get("DESCENT_GEOM_SEED")
    if env_seed is not None:
        args.seed = int(env_seed)
    elif args.seed is None:
        args.seed = 0
    try:
        _check_options(args)
        return args.fn(args)
    except (DescentGeomError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
