"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its assertions hold; run with
`pytest -s tests/test_acceptance.py` to see the summary.  Tolerances are
pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from descent_geom.cones import (
    cap_support_batch,
    cap_body,
    sector_integral_exact,
)
from descent_geom.geom_core import hull, unit_directions
from descent_geom.mean_width import (
    SphereGrid,
    cap_gradient,
    first_variation,
    mean_width,
    width_distance_bounds,
)
from descent_geom.sep import Polyline, is_sep, length_bound_check
from descent_geom.family import complete, validate_stratification
from descent_geom.descent import (
    cantor_disks,
    cantor_family,
    cantor_graph,
    construct_descent,
    curve_uniform_distance,
    disk_family,
    example61_curve,
    example61_family,
    is_expanding_couple,
    is_viable_sdc,
    joint_parametrization,
    log_spiral,
    make_expanding_couple,
    scaled_family,
    stability_check,
)

from .conftest import random_polytope
from .oracles import sector_flux_axis_quad, sep_bruteforce


def _report(num, ok, text):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


# ---------------------------------------------------------------------------
# shared corpora (module scope keeps the suite under the time budget)
# ---------------------------------------------------------------------------


def _random_scaled_family_2d(rng):
    K = random_polytope(rng, 2, int(rng.integers(8, 18)), scale=1.5)
    return scaled_family(
        K, s_min=0.35 + 0.2 * rng.random(), levels=int(rng.integers(130, 160))
    )


def _random_completed_family_2d(rng):
    outer = random_polytope(rng, 2, 12, scale=2.0)
    bodies = [outer]
    for _ in range(3):
        K = bodies[-1]
        c = K.centroid()
        bodies.append(hull(c + (K.vertices - c) * (0.55 + 0.25 * rng.random())))
    strat = validate_stratification(bodies)
    span = strat.params[-1] - strat.params[0]
    return complete(strat, h=span / 12)


@pytest.fixture(scope="module")
def family_corpus():
    rng = np.random.default_rng(23)
    fams2d = [_random_scaled_family_2d(rng) for _ in range(35)]
    fams2d += [_random_completed_family_2d(rng) for _ in range(15)]
    fams3d = [
        scaled_family(random_polytope(rng, 3, 14, scale=1.2), levels=140)
        for _ in range(5)
    ]
    return fams2d, fams3d


@pytest.fixture(scope="module")
def constructed(family_corpus):
    rng = np.random.default_rng(37)
    fams2d, fams3d = family_corpus
    out = []
    for fam in fams2d + fams3d:
        top = fam.bodies[-1]
        ep = top.vertices[int(rng.integers(top.nvertices))]
        curves = {m: construct_descent(fam, ep, m) for m in (4, 8, 16, 32, 64, 128)}
        out.append((fam, ep, curves))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_appendix_closed_forms():
    rng = np.random.default_rng(101)
    worst = {2: 0.0, 3: 0.0, 4: 0.0}
    for n in (2, 3, 4):
        for _ in range(20):
            delta = rng.uniform(0.02, math.pi / 2)
            err = abs(sector_integral_exact(n, delta) - sector_flux_axis_quad(n, delta))
            worst[n] = max(worst[n], err)
    ok = worst[2] < 1e-10 and worst[3] < 1e-3 and worst[4] < 1e-3
    _report(1, ok, f"sector integral vs quadrature, worst errors {worst}")


def test_criterion_2_cap_body_support():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(50):
        K = random_polytope(rng, 2, int(rng.integers(5, 16)))
        p = K.centroid() + rng.standard_normal(2) * (K.diameter() + 0.3)
        dirs = unit_directions(2, 500, int(rng.integers(10000)))
        cap = cap_body(K, p)
        got = cap_support_batch(K, p, dirs)
        want = np.max(dirs @ cap.vertices.T, axis=1)
        worst = max(worst, float(np.abs(got - want).max()))
    _report(2, worst < 1e-10, f"branch formula vs direct support, max error {worst:.2e}")


def test_criterion_3_first_variation():
    K = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    u = np.array([1.0, 1.0]) / math.sqrt(2)
    rates = []
    ok = True
    for k in range(5):
        eps = 0.2 / 2**k
        fv = first_variation(K, (1, 1), u, eps)
        ok &= fv["remainder"] >= -1e-8
        rates.append(fv["remainder"] / eps)
    ratios = [a / b for a, b in zip(rates, rates[1:])]
    # remainder/eps decays superlinearly: every halving shrinks it by a
    # factor approaching 2 from below, and 16x in eps gives >= 8x overall
    ok &= all(r >= 1.5 for r in ratios)
    ok &= rates[0] / rates[-1] >= 8.0
    grad_ok = True
    for p in (np.array([2.0, 2.0]), np.array([-0.8, 0.4])):
        grad = cap_gradient(K, p)
        h = 1e-5
        fd = np.array(
            [
                (mean_width(cap_body(K, p + h * e)) - mean_width(cap_body(K, p - h * e))) / (2 * h)
                for e in np.eye(2)
            ]
        )
        grad_ok &= np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4
    _report(
        3,
        ok and grad_ok,
        f"remainder >= -1e-8, per-halving ratios {[round(r, 3) for r in ratios]}, "
        f"total decay {rates[0] / rates[-1]:.1f}x, gradient matches FD to 1e-4",
    )


def test_criterion_4_distance_sandwich():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(200):
        B = random_polytope(rng, 2, int(rng.integers(6, 16)))
        c = B.centroid()
        A = hull(c + (0.2 + 0.6 * rng.random()) * (B.vertices - c))
        res = width_distance_bounds(A, B)
        ok &= res["lhs_lower"] <= res["delta_w_root"] + 1e-9
        ok &= res["delta_w"] <= res["upper"] + 1e-9
    g3 = SphereGrid.make(3, 20000, 0)
    for _ in range(50):
        B = random_polytope(rng, 3, 12)
        c = B.centroid()
        A = hull(c + (0.3 + 0.5 * rng.random()) * (B.vertices - c))
        res = width_distance_bounds(A, B, g3)
        ok &= res["lhs_lower"] <= res["delta_w_root"] + 1e-3
        ok &= res["delta_w"] <= res["upper"] + 1e-3
    closed_ok = True
    for nu in range(1, 9):
        a = float(nu**2)
        s, d = a / nu, 1.0 / nu
        K1 = hull([(-s / 2, 0), (s / 2, 0)])
        K2 = hull([(-s / 2, 0), (s / 2, 0), (0, d)])
        got = mean_width(K2) - mean_width(K1)
        want = (math.sqrt(4 + a**2) - a) / (math.pi * nu)
        closed_ok &= abs(got - want) < 1e-9
    _report(4, ok and closed_ok, "Eq8/Eq9 sandwich on 250 nested pairs; "
            "cap-over-segment width gap matches closed form to 1e-9")


def test_criterion_5_sep_equivalence(sep_corpus):
    disagreements = 0
    for g in sep_corpus:
        if is_sep(g)["ok"] != sep_bruteforce(g.points):
            disagreements += 1
    _report(
        5,
        disagreements == 0,
        f"segment criterion vs brute force on {len(sep_corpus)} polylines, "
        f"{disagreements} disagreements",
    )


def test_criterion_6_planar_sharp_constant(sep_corpus, constructed):
    ok = True
    for g in sep_corpus:
        if not is_sep(g)["ok"]:
            continue
        res = length_bound_check(g)
        ok &= res["length"] <= math.pi * res["w_hull"] + 1e-6
    for fam, _, curves in constructed:
        if fam.dim != 2:
            continue
        for curve in curves.values():
            res = length_bound_check(curve, tol=1e-6)
            ok &= res["length"] <= math.pi * res["w_hull"] + 1e-6
    th = np.linspace(0, np.pi, 200)
    half = Polyline.make(np.column_stack([np.cos(th), np.sin(th)]))
    res = length_bound_check(half)
    r_half = res["length"] / res["w_hull"]
    ok &= 1.5 <= r_half <= math.pi
    sp = log_spiral(0.28, 3.0, 1500)
    assert is_sep(sp)["ok"]
    res = length_bound_check(sp)
    r_spiral = res["length"] / res["w_hull"]
    ok &= r_spiral >= 2.9
    _report(
        6,
        ok,
        f"length <= pi*w on corpus and constructions; half-circle ratio "
        f"{r_half:.3f} in [1.5, pi]; near-extremal spiral ratio {r_spiral:.3f} >= 2.9",
    )


def test_criterion_7_existence_pipeline(constructed):
    all_ok = True
    monotone_count = 0
    flagged = []
    for fam, ep, curves in constructed:
        chk_curve = curves[16]
        all_ok &= is_sep(chk_curve, 1e-7)["ok"]
        all_ok &= is_expanding_couple(chk_curve, fam, 1e-7)["ok"]
        dists = [
            curve_uniform_distance(curves[m], curves[2 * m]) for m in (4, 8, 16, 32, 64)
        ]
        if all(a >= b - 1e-12 for a, b in zip(dists, dists[1:])):
            monotone_count += 1
        else:
            flagged.append([round(d, 5) for d in dists])
    frac = monotone_count / len(constructed)
    if flagged:
        print(f"  flagged non-monotone refinements ({len(flagged)}): {flagged}")
    _report(
        7,
        all_ok and frac >= 0.9,
        f"all 55 constructions pass SEP+EC; refinement distances monotone on "
        f"{frac:.0%} of families",
    )


def test_criterion_8_stability_uniqueness(family_corpus):
    rng = np.random.default_rng(808)
    fams2d, fams3d = family_corpus
    ok = True
    pairs = 0
    while pairs < 100:
        fam = (fams2d + fams3d)[int(rng.integers(len(fams2d) + len(fams3d)))]
        top = fam.bodies[-1]
        i, j = rng.integers(top.nvertices, size=2)
        ec1 = make_expanding_couple(construct_descent(fam, top.vertices[int(i)], 12), fam)
        ec2 = make_expanding_couple(construct_descent(fam, top.vertices[int(j)], 12), fam)
        res = stability_check(ec1, ec2, 1e-7)
        ok &= res["max_violation"] <= 1e-7 * (1 + top.diameter())
        if int(i) == int(j):
            ok &= float(res["distances"].max()) < 1e-9
        pairs += 1
    fam = fams2d[0]
    top = fam.bodies[-1]
    ec1 = make_expanding_couple(construct_descent(fam, top.vertices[0], 12), fam)
    ec2 = make_expanding_couple(construct_descent(fam, top.vertices[0], 12), fam)
    same = float(stability_check(ec1, ec2)["distances"].max())
    ok &= same < 1e-9
    _report(8, ok, f"knot-wise distance <= endpoint distance on 100 pairs; "
            f"identical endpoints coincide ({same:.1e} < 1e-9)")


def test_criterion_9_counterexample_fidelity():
    level = 6
    g = cantor_graph(level)
    fam = cantor_family(level)
    chk = is_expanding_couple(g, fam, 1e-7)
    ok = not chk["ok"]
    # the canonical witness: x on the curve, y in the member at 2/3, x1 the
    # endpoint, with distances 1/2 and 1/3
    x = np.array([2 / 3, 1 / 2])
    y = np.array([2 / 3, 1.0])
    x1 = np.array([1.0, 1.0])
    ok &= any(np.allclose(p, x, atol=1e-12) for p in g.points)
    widths = [K.vertices[:, 0].max() for K in fam.bodies]
    Q = fam.bodies[int(np.argmin(np.abs(np.array(widths) - 2 / 3)))]
    ok &= any(np.allclose(v, y, atol=1e-12) for v in Q.vertices)
    d_xy = float(np.linalg.norm(x - y))
    d_x1y = float(np.linalg.norm(x1 - y))
    ok &= abs(d_xy - 0.5) < 1e-6 and abs(d_x1y - 1 / 3) < 1e-6 and d_xy > d_x1y

    fam61 = example61_family()
    curve61 = example61_curve(fam61, radial=0.55)
    res = is_viable_sdc(curve61, fam61, tol=0.05)
    failing = {f["knot"] for f in res["failures"]}
    radii = np.linspace(0.2, 1.0, 5)
    stall = {i for i, r in enumerate(radii) if r > 0.55}
    ok &= not res["ok"] and failing == stall
    _report(
        9,
        ok,
        f"Cantor EC fails; witness distances ({d_xy:.6f}, {d_x1y:.6f}) = (1/2, 1/3); "
        f"viable-SDC fails exactly on the stall knots {sorted(stall)}",
    )


def test_criterion_10_joint_parametrization(constructed):
    ok = True
    worst = 0.0
    for fam, _, curves in constructed[:20]:
        ec = make_expanding_couple(curves[16], fam)
        r = joint_parametrization(ec)["lipschitz_estimate"]
        worst = max(worst, r)
        ok &= r <= 1 + 1e-9
    fam61 = example61_family()
    ec61 = make_expanding_couple(example61_curve(fam61, 0.55), fam61)
    r61 = joint_parametrization(ec61)["lipschitz_estimate"]
    famc, curvec = cantor_disks(7)
    ecc = make_expanding_couple(curvec, famc)
    rc = joint_parametrization(ecc)["lipschitz_estimate"]
    ok &= r61 <= 1 + 1e-9 and rc <= 1 + 1e-9
    worst = max(worst, r61, rc)
    _report(10, ok, f"z(tau) Lipschitz ratio <= 1+1e-9 on ECs and stalling "
            f"fixtures (worst {worst:.6f})")
