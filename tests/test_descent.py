import contextlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from descent_geom.errors import InvalidInput, PreconditionViolated
from descent_geom.geom_core import hausdorff, hull, includes
from descent_geom.mean_width import SphereGrid, lipschitz_constant, mean_width
from descent_geom.family import Family, complete, family_from_dict, is_connected
from descent_geom.sep import Polyline, is_sep, length_bound_check
from descent_geom.cli import main as cli_main
from descent_geom.descent import (
    FamilyPass,
    _bd_tol,
    _intervals,
    align_curve,
    annulus_length_check,
    cantor_disks,
    cantor_family,
    cantor_graph,
    clip_length_outside,
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
    on_rel_boundary,
    rel_depth_many,
    rotated_squares,
    scaled_family,
    stability_check,
)

from . import oracles
from .conftest import disk_polygon, embedded_polytope


@pytest.fixture(scope="module")
def disks():
    return disk_family(0.5, 1.0, 12)


@pytest.fixture(scope="module")
def squares_family():
    strat = rotated_squares(4)
    dw = strat.params[-1] - strat.params[0]
    return complete(strat, h=dw / 8)


@pytest.fixture(scope="module")
def ex61():
    fam = example61_family()
    return fam, example61_curve(fam, radial=0.55)


class TestConstruct:
    def test_disks_radial(self, disks):
        ep = disks.bodies[-1].vertices[0]
        curve = construct_descent(disks, ep, 6)
        dirs = curve.points / np.linalg.norm(curve.points, axis=1, keepdims=True)
        assert np.allclose(dirs, dirs[0])
        assert is_sep(curve, 1e-7)["ok"]
        assert np.allclose(curve.points[-1], ep)

    def test_off_boundary_endpoint_rejected(self, disks):
        with pytest.raises(PreconditionViolated):
            construct_descent(disks, (0.2, 0.2), 6)

    def test_squares_ec(self, squares_family):
        ep = squares_family.bodies[-1].vertices[0]
        curve = construct_descent(squares_family, ep, 16)
        assert is_sep(curve, 1e-7)["ok"]
        chk = is_expanding_couple(curve, squares_family, 1e-7)
        assert chk["ok"], chk

    def test_refinement_cauchy(self, squares_family):
        ep = squares_family.bodies[-1].vertices[0]
        curves = {m: construct_descent(squares_family, ep, m) for m in (4, 8, 16, 32, 64)}
        d = [
            curve_uniform_distance(curves[m], curves[2 * m])
            for m in (4, 8, 16, 32)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(d, d[1:]))
        assert d[-1] < 0.05

    def test_uniform_distance_bit_equal_to_per_point_loop(self, squares_family):
        ep = squares_family.bodies[-1].vertices[0]
        curves = [construct_descent(squares_family, ep, m) for m in (4, 9, 16)]
        curves += [cantor_graph(5), cantor_graph(6), log_spiral(m=300), Polyline.make([(0.2, 0.1)])]
        for c1, c2 in itertools.combinations(curves, 2):
            assert curve_uniform_distance(c1, c2) == oracles.curve_uniform_distance(c1, c2)
        # the curve keeps its arc lengths, read-only
        assert curves[0].arclengths is curves[0].arclengths
        assert not curves[0].arclengths.flags.writeable

    def test_example61_shape(self, ex61):
        fam, _ = ex61
        top = fam.bodies[-1]
        zmax = top.vertices[:, 2].max()
        ep = np.array([0.55, 0.0, zmax])
        curve = construct_descent(fam, ep, len(fam))
        P = curve.points
        # radial part in the plane, then vertical ascent at fixed radius
        assert np.allclose(P[0, 2], 0.0, atol=1e-9)
        vertical = P[np.abs(P[:, 2]) > 1e-9]
        assert np.allclose(vertical[:, :2], [0.55, 0.0], atol=1e-6)
        planar = P[np.abs(P[:, 2]) <= 1e-9]
        assert np.allclose(planar[:, 1], 0.0, atol=1e-9)
        assert is_sep(curve, 1e-7)["ok"]


class TestExpandingCouple:
    def test_radial_disks(self, disks):
        curve = construct_descent(disks, disks.bodies[-1].vertices[0], 8)
        assert is_expanding_couple(curve, disks, 1e-7)["ok"]

    def test_cantor_counterexample(self):
        level = 6
        g = cantor_graph(level)
        fam = cantor_family(level)
        chk = is_expanding_couple(g, fam, 1e-7)
        assert not chk["ok"]
        assert chk["condition"] == "iii"
        # the classical witness triple evaluates exactly at every level >= 1
        x = np.array([2 / 3, 1 / 2])
        y = np.array([2 / 3, 1.0])
        x1 = np.array([1.0, 1.0])
        assert any(np.allclose(p, x) for p in g.points)
        body = fam.bodies[int(np.argmin([abs(K.vertices[:, 0].max() - 2 / 3) for K in fam.bodies]))]
        assert any(np.allclose(v, y) for v in body.vertices)
        assert np.linalg.norm(x - y) == pytest.approx(0.5, abs=1e-6)
        assert np.linalg.norm(x1 - y) == pytest.approx(1 / 3, abs=1e-6)
        assert np.linalg.norm(x - y) > np.linalg.norm(x1 - y)

    def test_constructed_always_ec(self, rng, squares_family):
        for _ in range(5):
            v = rng.integers(squares_family.bodies[-1].nvertices)
            ep = squares_family.bodies[-1].vertices[v]
            curve = construct_descent(squares_family, ep, 12)
            assert is_expanding_couple(curve, squares_family, 1e-7)["ok"]


class TestViableSdc:
    def test_radial_disks(self, disks):
        curve = construct_descent(disks, disks.bodies[-1].vertices[0], len(disks))
        res = is_viable_sdc(curve, disks, tol=1e-6)
        assert res["ok"], res["failures"]

    def test_example61_fails_on_stall(self, ex61):
        fam, curve = ex61
        res = is_viable_sdc(curve, fam, tol=0.05)
        assert not res["ok"]
        failing = {f["knot"] for f in res["failures"]}
        # D-members at radii 0.2..1.0; the stall covers radii > 0.55
        radii = np.linspace(0.2, 1.0, 5)
        expected = {i for i, r in enumerate(radii) if r > 0.55}
        assert failing == expected
        assert all(f["condition"] == "i" for f in res["failures"])

    def test_example61_explicit_curve_is_ec(self, ex61):
        fam, curve = ex61
        assert is_expanding_couple(curve, fam, 1e-6)["ok"]

    def test_cantor_graph_is_viable(self):
        g = cantor_graph(5)
        fam = cantor_family(5)
        res = is_viable_sdc(g, fam, tol=1e-6)
        assert res["ok"], res["failures"][:3]


class TestBoundaryUniqueness:
    def test_each_boundary_met_at_most_once(self, disks, squares_family, ex61):
        # curve vertices on a member's relative boundary cluster to <= 1 point
        cases = []
        for fam in (disks, squares_family):
            ep = fam.bodies[-1].vertices[0]
            cases.append((construct_descent(fam, ep, 16), fam))
        fam61, curve61 = ex61
        cases.append((curve61, fam61))
        for curve, fam in cases:
            for Q in fam.bodies:
                tol = 1e-6 * (1.0 + Q.diameter())
                hits = [p for p in curve.points if on_rel_boundary(Q, p, tol)]
                clusters = []
                for p in hits:
                    if all(np.linalg.norm(p - q) > 10 * tol for q in clusters):
                        clusters.append(p)
                assert len(clusters) <= 1


class TestJointParametrization:
    def test_radial_disks_ratio(self, disks):
        curve = construct_descent(disks, disks.bodies[-1].vertices[0], len(disks))
        ec = make_expanding_couple(curve, disks)
        jp = joint_parametrization(ec)
        # s(w) = w/2 on concentric disks: ratio = 1/sqrt(1 + 4) < 1
        assert jp["lipschitz_estimate"] == pytest.approx(1 / math.sqrt(5), abs=1e-3)

    def test_stalling_fixture(self, ex61):
        fam, curve = ex61
        ec = make_expanding_couple(curve, fam)
        jp = joint_parametrization(ec)
        assert jp["lipschitz_estimate"] <= 1 + 1e-9
        # the stall shows up as a plateau of s(w)
        assert np.any(np.diff(jp["s_values"]) < 1e-9)

    def test_cantor_disks(self):
        fam, curve = cantor_disks(7)
        ec = make_expanding_couple(curve, fam)
        jp = joint_parametrization(ec)
        assert jp["lipschitz_estimate"] <= 1 + 1e-9

    def test_single_knot(self, disks):
        fam1 = Family(disks.bodies[-1:], disks.params[-1:], disks.h)
        curve = Polyline.make([disks.bodies[-1].vertices[0]])
        ec = make_expanding_couple(curve, fam1)
        jp = joint_parametrization(ec)
        assert jp["lipschitz_estimate"] == 0.0


class TestStability:
    def test_disk_radii(self, disks):
        top = disks.bodies[-1]
        c1 = construct_descent(disks, top.vertices[0], 10)
        c2 = construct_descent(disks, top.vertices[7], 10)
        ec1 = make_expanding_couple(c1, disks)
        ec2 = make_expanding_couple(c2, disks)
        res = stability_check(ec1, ec2, 1e-7)
        assert res["ok"]
        assert res["monotone"]

    def test_identical_endpoints(self, squares_family):
        ep = squares_family.bodies[-1].vertices[2]
        ec1 = make_expanding_couple(construct_descent(squares_family, ep, 12), squares_family)
        ec2 = make_expanding_couple(construct_descent(squares_family, ep, 12), squares_family)
        res = stability_check(ec1, ec2)
        assert float(res["distances"].max()) < 1e-9

    def test_families_loaded_apart_are_one_family(self, disks):
        doc = json.loads(json.dumps(disks.to_dict()))
        fam1, fam2 = family_from_dict(doc), family_from_dict(doc)
        assert fam1 is not fam2
        top = fam1.bodies[-1]
        ec1 = make_expanding_couple(construct_descent(fam1, top.vertices[0], 10), fam1)
        ec2 = make_expanding_couple(construct_descent(fam2, top.vertices[7], 10), fam2)
        res = stability_check(ec1, ec2, 1e-7)
        assert res["ok"] and res["monotone"]

    def test_family_mismatch(self, disks, squares_family):
        c1 = construct_descent(disks, disks.bodies[-1].vertices[0], 6)
        c2 = construct_descent(squares_family, squares_family.bodies[-1].vertices[0], 6)
        with pytest.raises(InvalidInput):
            stability_check(
                make_expanding_couple(c1, disks),
                make_expanding_couple(c2, squares_family),
            )


class TestAnnulus:
    def test_disks_numbers(self, disks):
        curve = construct_descent(disks, disks.bodies[-1].vertices[0], len(disks))
        ec = make_expanding_couple(curve, disks)
        res = annulus_length_check(ec, 0)
        assert res["len_outside"] == pytest.approx(0.5, abs=1e-6)
        assert res["dist12"] == pytest.approx(0.5, abs=1e-6)
        assert res["bound_i"] == pytest.approx(math.pi, abs=1e-5)
        assert res["bound_i_ok"] and res["bound_ii_ok"]

    def test_squares(self, squares_family):
        curve = construct_descent(squares_family, squares_family.bodies[-1].vertices[0], 24)
        ec = make_expanding_couple(curve, squares_family)
        for k in (0, len(squares_family) // 2):
            res = annulus_length_check(ec, k)
            assert res["bound_i_ok"] and res["bound_ii_ok"]

    def test_couple_row_clip_bit_equal_to_one_member_clip(self, oracle_corpus):
        # the pass's candidates are a superset of one member's own filter,
        # and _intervals rejects the extra ones
        pairs = 0
        for name, curve, fam in oracle_corpus:
            fp = FamilyPass.read(curve, fam)
            for k, K in enumerate(fam.bodies):
                assert fp.length_outside(k) == clip_length_outside(curve, K), (name, k)
                pairs += 1
            try:
                ec = make_expanding_couple(curve, fam)
            except (InvalidInput, PreconditionViolated):
                continue
            for k in (-2, -1):
                res = annulus_length_check(ec, k)
                assert res["len_outside"] == clip_length_outside(curve, fam.bodies[k]), name
                assert res == annulus_length_check(ec, k + len(fam)), name
        assert pairs > 500

    def test_counterexample_growth(self):
        # no diameter-free constant: dist / delta_w grows ~ pi nu^2 / 2
        ratios = []
        for nu in range(1, 9):
            a = float(nu**2)
            s, d = a / nu, 1.0 / nu
            K1 = hull([(-s / 2, 0), (s / 2, 0)])
            K2 = hull([(-s / 2, 0), (s / 2, 0), (0, d)])
            dw = mean_width(K2) - mean_width(K1)
            ratios.append(d / dw)
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 20
        assert ratios[-1] == pytest.approx(math.pi * 64 / 2, rel=1e-3)

    def test_clip_length_degenerate(self):
        seg = hull([(0.0, 0.0), (1.0, 0.0)])
        g = Polyline.make([(0.5, 0.0), (0.5, 2.0)])
        assert clip_length_outside(g, seg) == pytest.approx(2.0, abs=1e-7)


class TestQhullBudget:
    def test_validators_build_facets_once_per_member(self, qhull_calls):
        strat = rotated_squares(4)
        fam = complete(strat, h=(strat.params[-1] - strat.params[0]) / 8)
        curve = construct_descent(fam, fam.bodies[-1].vertices[0], len(fam))
        qhull_calls.clear()
        ec = make_expanding_couple(curve, fam)
        assert is_expanding_couple(curve, fam)["ok"]
        assert is_viable_sdc(curve, fam)["ok"]
        an = annulus_length_check(ec, 0)
        assert an["bound_i_ok"] and an["bound_ii_ok"]
        assert len(fam) > 4 and len(qhull_calls) <= len(fam)


def _align_reference(curve, K):
    """Last curve point inside K by clipping every segment from the end;
    None when the curve misses K."""
    P, cums = curve.points, curve.arclengths
    for i in reversed(range(len(P) - 1)):
        iv = oracles.segment_interval(K, P[i], P[i + 1])
        if iv is not None:
            return cums[i] + iv[1] * (cums[i + 1] - cums[i]), P[i] + iv[1] * (P[i + 1] - P[i])
    return None


def _grazing_curves():
    """(body, curves) whose segments end on a facet plane, lie in a facet,
    pass 1e-13 from a vertex, or have both ends just beyond one facet."""
    sq = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    u = np.array([1.0, -1.0]) / math.sqrt(2.0)
    near = np.array([1.0, 1.0]) + 1e-13 * np.array([1.0, 1.0]) / math.sqrt(2.0)
    sq_curves = [
        [(-1, 0.5), (0, 0.5), (0, 2)],              # ends on x = 0, then along it
        [(0.5, 0.5), (1, 0.5), (1, 1), (1, 3)],     # in the facet x = 1, then beyond
        [near - 50 * u, near + 50 * u],             # 1e-13 outside the vertex (1, 1)
        [near - 50 * u - 1e-13 * np.array([1, 1]), near + 50 * u - 1e-13 * np.array([1, 1])],
        [(0.5, 0.5), (0.2, 1 + 1e-10), (0.8, 1 + 1e-10)],  # beyond y = 1 by 1e-10
        [(0.5, 0.5), (0.2, 1 + 1e-7), (0.8, 1 + 1e-7)],    # beyond y = 1 by 1e-7
        [(2, 2), (3, 3), (0.25, 0.25), (0.5, -4), (-3, -3)],
    ]
    cube = hull(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
    cube_curves = [
        [(0.5, 0.5, -1), (0.5, 0.5, 0), (0.5, 2, 0)],        # on z = 0, then in it
        [(1, 1, 1 + 1e-13) - 20 * np.array([1, -1, 0.5]),
         (1, 1, 1 + 1e-13) + 20 * np.array([1, -1, 0.5])],   # grazing a vertex
        [(0.5, 0.5, 0.5), (0.5, 0.5, 1 + 1e-10), (3, 0.5, 1 + 1e-10)],
    ]
    flat = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    flat_curves = [[(0.2, 0.2, -1), (0.2, 0.2, 1)], [(-1, 0.5, 0), (2, 0.5, 0), (2, 2, 2)]]
    return [(sq, sq_curves), (cube, cube_curves), (flat, flat_curves)]


def _clip_corpus(rng):
    """(body, A, B) of segments A[j] -> B[j] to clip: around planar and R^3
    bodies of 4 to ~400 facets, flat bodies in R^3 to R^5 and bodies 1e7
    from the origin; parallel to a facet (on its plane, 1e-13 and 1e-11
    beyond it, inside) and within 1e-14 of parallel; crossing, inside and
    parallel to Aff(K) for the flat ones; and the _grazing_curves
    segments."""
    sphere = rng.standard_normal((200, 3))
    bodies = [hull([(0, 0), (1, 0), (1, 1), (0, 1)]), hull(rng.standard_normal((30, 2))),
              disk_polygon(2.0, m=400), hull(rng.standard_normal((40, 3))),
              hull(sphere / np.linalg.norm(sphere, axis=1)[:, None])]
    bodies += [embedded_polytope(rng, n, k, 12)
               for n, k in ((3, 1), (3, 2), (4, 2), (4, 3), (5, 3), (5, 4))]
    bodies += [hull(K.vertices + 1e7) for K in (bodies[1], bodies[3], bodies[6], bodies[7])]
    cases = []
    for K in bodies:
        c, B, eqs, _ = K.facets
        n, size = K.dim, 1.0 + K.diameter()
        A = [c + size * rng.standard_normal((40, n))]
        D = [size * rng.standard_normal((40, n))]
        for row in eqs[rng.choice(len(eqs), size=min(6, len(eqs)), replace=False)]:
            e, foot = row[:-1], c - (row[:-1] @ c + row[-1]) * row[:-1]
            along = rng.standard_normal((8, n)) @ B.T @ B
            along -= np.outer(along @ e, e)
            for depth in (0.0, 1e-13 * size, 1e-11 * size, -0.1 * size):
                A.append(foot + depth * e + 0.3 * along)
                D.append(along * size)
                A.append(np.tile(foot + depth * e, (8, 1)))
                D.append(along * size + 1e-14 * size * np.sign(depth or 1.0) * e)
        if len(B) < n:
            perp = rng.standard_normal(n) @ (np.eye(n) - B.T @ B)
            perp /= np.linalg.norm(perp)
            inside = c + (rng.standard_normal((8, n)) @ B.T @ B) * 0.1
            for lift in (0.0, 1e-13 * size, 1e-6):
                A.append(inside + lift * perp)
                D.append(rng.standard_normal((8, n)) @ B.T @ B)
            A.append(inside - perp)
            D.append(np.tile(2.0 * perp, (8, 1)))
        A, D = np.vstack(A), np.vstack(D)
        cases.append((K, A, A + D))
    for K, curves in _grazing_curves():
        P = np.vstack([np.asarray(g, dtype=float) for g in curves])
        cases.append((K, P[:-1], P[1:]))
    return cases


def _worst_iii_reference(P, bodies, tol):
    """Condition (iii) of is_expanding_couple by the per-point loop: the
    first strictly worst (gap, body, point, vertex, later point)."""
    worst = None
    scale = 1.0 + bodies[-1].diameter()
    for qi, Q in enumerate(bodies):
        D = cdist(P, Q.vertices)
        suffix = np.minimum.accumulate(D[::-1], axis=0)[::-1]
        depth, off = rel_depth_many(Q, P)
        outside = ~((off <= _bd_tol(Q)) & (depth > _bd_tol(Q)))
        for i in np.nonzero(outside[:-1])[0]:
            gap = D[i] - suffix[i + 1]
            j = int(np.argmax(gap))
            if gap[j] > tol * scale and (worst is None or gap[j] > worst[0]):
                worst = (float(gap[j]), qi, i, j, int(i + 1 + np.argmin(D[i + 1:, j])))
    return worst


def _cli_json(argv, capsys):
    cli_main(argv)
    return capsys.readouterr().out


class TestPrunedEquivalence:
    def test_align_curve_bit_equal_to_backward_clipping(self, rng):
        cases = _grazing_curves()
        for n in (2, 3, 4):
            K = hull(rng.standard_normal((14, n)))
            cases.append((K, [rng.standard_normal((12, n)) * 1.5 for _ in range(6)]))
        pairs = [(K, Polyline.make(np.asarray(c, dtype=float))) for K, curves in cases
                 for c in curves]
        pairs += [(Q, cantor_graph(5)) for Q in cantor_family(5).bodies]
        met = 0
        for Q, g in pairs:
            ref = _align_reference(g, Q)
            if ref is None:
                with pytest.raises(InvalidInput):
                    align_curve(g, [Q])
                continue
            s, x = align_curve(g, [Q])
            assert s[0] == ref[0] and np.array_equal(x[0], ref[1])
            met += 1
        assert met > 60

    def test_batched_clip_bit_equal_to_one_segment_clip(self, rng):
        cases = _clip_corpus(rng)
        seen = set()
        for K, A, B in cases:
            lo, hi, hit = _intervals((K,) * len(A), A, B)
            for j in range(len(A)):
                ref = oracles.segment_interval(K, A[j], B[j])
                assert hit[j] == (ref is not None)
                if ref is not None:
                    assert (lo[j], hi[j]) == ref
                    seen.add("cut" if ref[1] - ref[0] < 1.0 else "whole")
                else:
                    seen.add("miss")
        assert seen == {"cut", "whole", "miss"}
        # one call over the segments of every body of a dimension, padded to
        # the largest of their facet counts
        for n in (2, 3, 4, 5):
            group = [(K, A, B) for K, A, B in cases if K.dim == n]
            bodies = [K for K, A, _ in group for _ in A]
            lo, hi, hit = _intervals(bodies, *(np.vstack(x) for x in list(zip(*group))[1:]))
            one = [_intervals((K,) * len(A), A, B) for K, A, B in group]
            for got, want in zip((lo, hi, hit), zip(*one)):
                assert np.array_equal(got, np.concatenate(want))

    def test_condition_iii_witness_matches_per_point_loop(self, tmp_path, capsys):
        couples = [(cantor_graph(6), cantor_family(6))]
        # two R^3 descent curves that fail condition (iii)
        for seed, levels, knots, ep in (
                (919399049, 3, 9, "0.5638436132768596,-0.4282992638992561,0.9529779140901545"),
                (1484709635, 2, 6, "-1.01109357118367,0.14085506941196477,0.09581038875892059")):
            fam_path = tmp_path / f"fam{seed}.json"
            fam_path.write_text(_cli_json(["gen", "random", "--n", "3", "--npoints", "8",
                                           "--levels", str(levels), "--seed", str(seed)], capsys))
            curve = json.loads(_cli_json(["descend", "--family", str(fam_path), "--knots",
                                          str(knots), f"--endpoint={ep}"], capsys))
            fam = family_from_dict(json.loads(fam_path.read_text()))
            couples.append((Polyline.make(curve["points"]), fam))
        for g, fam in couples:
            res = is_expanding_couple(g, fam, 1e-7)
            assert res["condition"] == "iii"
            gap, qi, i, j, later = _worst_iii_reference(g.points, fam.bodies, 1e-7)
            w = res["witness"]
            assert w["violation"] == gap and w["body_index"] == qi
            assert np.array_equal(w["x"], g.points[i]) and np.array_equal(w["x1"], g.points[later])
            assert np.array_equal(w["y"], fam.bodies[qi].vertices[j])


def _cli_doc(argv):
    """The JSON document a CLI command writes to stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli_main(argv) == 0
    return json.loads(buf.getvalue())


def _descended(fam):
    """fam and its descent curve from the first vertex of the top member,
    one knot per member."""
    return construct_descent(fam, fam.bodies[-1].vertices[0], len(fam)), fam


def _turned(P, angle):
    """P with its final chord turned by angle about its start, in the plane
    of the chord and the coordinate axis least parallel to it."""
    v = P[-1] - P[-2]
    u = np.eye(P.shape[1])[int(np.argmin(np.abs(v)))]
    u = u - (u @ v) / (v @ v) * v
    u *= np.linalg.norm(v) / np.linalg.norm(u)
    Q = P.copy()
    Q[-1] = P[-2] + math.cos(angle) * v + math.sin(angle) * u
    return Q


@pytest.fixture(scope="module")
def oracle_corpus():
    """(name, curve, family) pairs: fixtures, constructed couples in R^2 to
    R^4, flat and point members, a point top member, one-point curves, and
    negatives (an interior point pushed 1e-3 diam off its member's boundary,
    inward and outward, the last point pushed into the top member by 1.5 and
    0.5 times its boundary tolerance _bd_tol, and the final chord turned
    2e-3 rad)."""
    cases = [(f"cantor{L}", cantor_graph(L), cantor_family(L)) for L in range(2, 8)]
    # every member twice: (iii) ties between members, and the first one wins
    fam = cantor_family(4)
    cases.append(("cantor4-doubled", cantor_graph(4), Family(
        tuple(K for K in fam.bodies for _ in "ab"), tuple(p for p in fam.params for _ in "ab"),
        fam.h)))
    for L in (4, 7):
        fam, curve = cantor_disks(L)
        cases.append((f"cantor-disks{L}", curve, fam))
    ex = example61_family()
    cases += [(f"example61-{r}", example61_curve(ex, radial=r), ex) for r in (0.3, 0.55)]
    strat = rotated_squares(4)
    built = {"squares": _descended(complete(strat, (strat.params[-1] - strat.params[0]) / 8))}
    for n, levels in ((2, 8), (3, 6), (4, 5)):
        built[f"disks-r{n}"] = _descended(disk_family(0.5, 1.0, levels, n=n))
    built["point-member"] = _descended(disk_family(0.0, 1.0, 6))
    built["segments"] = _descended(disk_family(0.2, 1.0, 6, m=2))
    tri = hull(np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [0.1, 1.0, -0.4]]) + 0.5)
    built["triangles-r3"] = _descended(scaled_family(tri, 0.3, 6))
    for n, npoints in ((2, 12), (3, 10)):
        for seed in range(1, 9):
            with tempfile.TemporaryDirectory() as wd:
                path = os.path.join(wd, "fam.json")
                doc = _cli_doc(["gen", "random", "--n", str(n), "--npoints", str(npoints),
                                "--levels", "3", "--seed", str(seed)])
                with open(path, "w") as f:
                    json.dump(doc, f)
                fam = family_from_dict(doc)
                ep = ",".join(map(repr, fam.bodies[-1].vertices[seed % 3].tolist()))
                curve = Polyline.make(_cli_doc(["descend", "--family", path, "--knots",
                                                str(len(fam)), f"--endpoint={ep}"])["points"])
            built[f"random-r{n}-{seed}"] = (curve, fam)
    for name, (curve, fam) in built.items():
        cases.append((name, curve, fam))
        P = curve.points
        top = fam.bodies[-1]
        if len(P) >= 3:
            j = len(P) // 2
            K = fam.bodies[min(j, len(fam) - 1)]
            u = (K.centroid() - P[j]) / max(np.linalg.norm(K.centroid() - P[j]), 1e-300)
            for step, tag in ((1e-3 * top.diameter(), "in"), (-1e-3 * top.diameter(), "out")):
                Q = P.copy()
                Q[j] += step * u
                cases.append((f"{name}-pushed-{tag}", Polyline.make(Q), fam))
        u = (top.centroid() - P[-1]) / np.linalg.norm(top.centroid() - P[-1])
        for f in (1.5, 0.5):
            Q = P.copy()
            Q[-1] += f * _bd_tol(top) * u
            cases.append((f"{name}-end-in-{f}tol", Polyline.make(Q), fam))
        if len(P) >= 2:
            cases.append((f"{name}-turned", Polyline.make(_turned(P, 2e-3)), fam))
        cases.append((f"{name}-top-point", Polyline.make(P[-1:]), fam))
        cases.append((f"{name}-inner-point", Polyline.make(P[:1]), fam))
    # a point top member: the curve at it is on its boundary, at depth 0
    point = hull([[0.3, 0.7]])
    cases.append(("point-top", Polyline.make(point.vertices),
                  Family((point, point), (0.0, 0.0), 1.0)))
    return cases


def _same(a, b):
    """a and b bit for bit: equal keys, lengths, array entries and scalars."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b


class TestFamilyPassAgainstPerMemberLoops:
    def test_verdicts_and_witnesses_bit_equal(self, oracle_corpus):
        seen = set()
        for name, curve, fam in oracle_corpus:
            ref = oracles.align_per_member(curve, fam.bodies)
            if any(r is None for r in ref):
                with pytest.raises(InvalidInput):
                    align_curve(curve, fam.bodies)
                with pytest.raises(InvalidInput):
                    is_viable_sdc(curve, fam)
                seen.add("miss")
            else:
                # (iii)'s mask, against rel_depth_many member by member
                inner = []
                for Q in fam.bodies:
                    depth, off = rel_depth_many(Q, curve.points)
                    inner.append((off <= _bd_tol(Q)) & (depth > _bd_tol(Q)))
                assert np.array_equal(FamilyPass.read(curve, fam).interior,
                                      np.column_stack(inner)), name
                s, x = align_curve(curve, fam.bodies)
                assert np.array_equal(s, [r[0] for r in ref]), name
                assert np.array_equal(x, [r[1] for r in ref]), name
                res = is_viable_sdc(curve, fam)
                exp = oracles.sdc_per_knot(curve, fam, s, x, 1e-6)
                assert _same(res, exp), name
                seen.update(("sdc",) + tuple(f["condition"] for f in res["failures"]))
            res = is_expanding_couple(curve, fam, 1e-7)
            assert _same(res, oracles.is_expanding_couple_per_member(curve, fam, 1e-7)), name
            seen.add(("ec", res["condition"]))
            try:
                ec = make_expanding_couple(curve, fam)
            except (InvalidInput, PreconditionViolated):
                continue
            seen.add("couple")
            assert _same(ec.ec_conditions(1e-7),
                         oracles.ec_tail_per_member(curve.points, fam.bodies, 1e-7)), name
            assert _same(ec.sdc_verdict(1e-6),
                         oracles.sdc_per_knot(curve, fam, ec.align_s, ec.align_x, 1e-6)), name
        assert {"miss", "sdc", "i", "ii", "couple", ("ec", None), ("ec", "i"), ("ec", "ii"),
                ("ec", "iii")} <= seen


class TestWorkBudget:
    def test_is_connected_projects_disks_3d(self, call_counter):
        fam = disk_family(n=3, m=64, levels=6)
        solver = call_counter("geom_core", "_nnls")
        rows = call_counter("geom_core", "_nearest")
        assert is_connected(fam)
        # every pair passes at its vertex sets' distance: nothing is projected
        assert not rows
        for A, B in zip(fam.bodies, fam.bodies[1:]):
            hausdorff(A, B)
        # every member is a 3-polytope: closed forms, one row per consecutive pair
        assert not solver
        assert sum(len(X) for _, X in rows) <= len(fam) - 1

    def test_is_connected_projects_example61(self, ex61, call_counter):
        fam, _ = ex61
        solver = call_counter("geom_core", "_nnls")
        rows = call_counter("geom_core", "_nearest")
        assert is_connected(fam)
        # every pair passes at its vertex sets' distance: nothing is projected
        assert not rows
        for A, B in zip(fam.bodies, fam.bodies[1:]):
            hausdorff(A, B)
        # flat disks and solids alike are measured in closed form
        assert rows and not solver
        assert sum(len(X) for _, X in rows) <= 60

    def test_viable_sdc_clips_cantor(self, call_counter):
        g, fam = cantor_graph(6), cantor_family(6)
        clips = call_counter("descent", "_intervals")
        assert is_viable_sdc(g, fam)["ok"]
        # segment rows clipped, at most two per member
        assert sum(len(A) for _, A, _ in clips) <= 2 * len(fam)

    def test_viable_sdc_example61_clips_exactly(self, ex61, call_counter):
        # five of the members are flat disks: clipped in Aff(K), never projected
        fam, curve = ex61
        projects = call_counter("geom_core", "_nearest")
        clips = call_counter("descent", "_intervals")
        res = is_viable_sdc(curve, fam)
        assert not res["ok"] and res["witness"]["knot"] == 2
        assert len(projects) == 0
        assert sum(len(A) for _, A, _ in clips) <= 2 * len(fam)


class TestFixtures:
    def test_cantor_level1(self):
        g = cantor_graph(1)
        assert g.npoints == 4
        assert is_sep(g)["ok"]

    def test_example61_nesting(self):
        fam = example61_family()
        for i in range(len(fam) - 1):
            assert includes(fam.bodies[i + 1], fam.bodies[i], 1e-9)

    def test_spiral_near_extremal(self):
        sp = log_spiral()
        res = length_bound_check(sp)
        assert res["bound_ok"]
        assert res["length"] / res["w_hull"] >= 2.9

    def test_scaled_family_connected_3d(self, rng):
        from descent_geom.family import is_connected

        base = hull(rng.standard_normal((20, 3)))
        fam = scaled_family(base, levels=10)
        assert is_connected(fam, grid=SphereGrid.make(3, 4000, 0))

    def test_boundary_predicate(self):
        sq = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert on_rel_boundary(sq, (1, 0.5))
        assert not on_rel_boundary(sq, (0.5, 0.5))
        flat = hull([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)])
        assert on_rel_boundary(flat, (1, 0.5, 0))
        assert not on_rel_boundary(flat, (0.5, 0.5, 0))
        assert not on_rel_boundary(flat, (0.5, 0.5, 0.5))
