import itertools
import json
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from descent_geom import family
from descent_geom.cli import main
from descent_geom.descent import (
    cantor_disks,
    cantor_family,
    disk_family,
    example61_family,
    rotated_squares,
)
from descent_geom.errors import (
    Degenerate,
    InvalidInput,
    NotAChain,
    NumericalFailure,
    PreconditionViolated,
)
from descent_geom.geom_core import (
    _hausdorff_upper,
    hausdorff,
    hull,
    includes,
    rel_depth_many,
    rounding_floor,
    unit_directions,
)
from descent_geom.mean_width import (
    SphereGrid,
    mean_width,
    width_distance_bounds,
    width_gap_constant,
)
from descent_geom.family import (
    Family,
    complete,
    family_distance,
    family_from_dict,
    interpolate,
    is_connected,
    outer_parallel,
    stratification_from_dict,
    validate_stratification,
)

from .conftest import cli_call, disk_polygon, load_workloads, nested_pair, random_polytope
from .oracles import (
    clip_polygon,
    in_convex_hull_lp,
    is_connected_per_pair,
    kept_per_pair,
    polygon_membership,
    segment_distance,
    solve_gap_eager,
)


def clipped_chain(rng, levels=8, npts=14):
    """Nested polygons generated by repeated corner clipping (inner-first)."""
    outer = random_polytope(rng, 2, npts, scale=2.0)
    bodies = [outer]
    for _ in range(levels - 1):
        K = bodies[-1]
        V = K.vertices
        nxt = np.roll(V, -1, axis=0)
        prv = np.roll(V, 1, axis=0)
        f = 0.25 + 0.1 * rng.random()
        clipped = np.vstack([V + f * (nxt - V), V + f * (prv - V)])
        bodies.append(hull(clipped))
    return list(reversed(bodies))


class TestValidate:
    def test_disks(self):
        s = validate_stratification([disk_polygon(r) for r in (0.5, 1.0, 2.0)])
        assert len(s) == 3
        assert list(s.params) == sorted(s.params)

    def test_unsorted_input_sorted(self):
        s = validate_stratification([disk_polygon(2.0), disk_polygon(0.5)])
        assert s.bodies[0].diameter() < s.bodies[1].diameter()

    def test_not_a_chain(self):
        A = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        B = A.translate((0.5, 0.0))
        with pytest.raises(NotAChain) as ei:
            validate_stratification([A, B])
        assert {ei.value.i, ei.value.j} == {0, 1}

    def test_degenerate(self, disk64):
        with pytest.raises(Degenerate):
            validate_stratification([disk64, disk64])

    def test_clipped_chains(self, rng):
        for _ in range(20):
            bodies = clipped_chain(rng, levels=6)
            s = validate_stratification(bodies)
            assert len(s) == 6

    def test_degenerate_minimum_allowed(self):
        seg = hull([(-1, 0), (1, 0)])
        tri = hull([(-1, 0), (1, 0), (0, 1)])
        s = validate_stratification([tri, seg, disk_polygon(2.0)])
        assert s.bodies[0].dim_affine == 1
        fam = complete(s, h=(s.params[-1] - s.params[0]) / 4)
        assert is_connected(fam)


class TestInterpolate:
    def test_disks_midpoint(self):
        A = interpolate(disk_polygon(1.0), disk_polygon(2.0), 0.5)
        assert mean_width(A) == pytest.approx(3.0, abs=1e-2)

    def test_endpoints(self):
        K1, K2 = disk_polygon(1.0), disk_polygon(2.0)
        assert hausdorff(interpolate(K1, K2, 0.0), K1) == 0.0
        assert hausdorff(interpolate(K1, K2, 1.0), K2) < 6e-3

    def test_monotone_in_f(self):
        K1, K2 = disk_polygon(1.0), disk_polygon(2.0)
        prev = K1
        for f in (0.25, 0.5, 0.75, 1.0):
            cur = interpolate(K1, K2, f)
            assert includes(cur, prev, 1e-9)
            prev = cur

    def test_rounded_square_against_lattice(self, unit_square):
        big = hull([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        f = 0.5
        A = interpolate(unit_square, big, f)
        r = f * hausdorff(unit_square, big)
        xs = np.linspace(-1.05, 2.05, 200)
        X, Y = np.meshgrid(xs, xs)
        pts = np.column_stack([X.ravel(), Y.ravel()])
        # oracle: in A iff in big and within r of the unit square
        d_sq = np.full(len(pts), np.inf)
        V = unit_square.vertices
        inside_sq = polygon_membership(V, pts)
        for i in range(len(V)):
            d_sq = np.minimum(d_sq, segment_distance(pts, V[i], V[(i + 1) % len(V)]))
        d_sq[inside_sq] = 0.0
        want = polygon_membership(big.vertices, pts) & (d_sq <= r)
        got = polygon_membership(A.vertices, pts)
        # disagreement only within the mesh tolerance band of the boundary
        band = np.abs(d_sq - r) < r * (1 - np.cos(np.pi / 32)) + 1e-6
        assert np.all((want == got) | band)

    def test_not_nested(self, unit_square):
        with pytest.raises(PreconditionViolated):
            interpolate(unit_square.translate((5, 0)), unit_square, 0.5)

    def test_3d(self):
        cube = hull(np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).T.reshape(-1, 3))
        big = cube.scale(3.0)
        mid = interpolate(cube, big, 0.5)
        assert includes(mid, cube, 1e-7)
        assert includes(big, mid, 1e-7)
        g = SphereGrid.make(3, 8000, 0)
        w1, wm, w2 = (mean_width(K, g) for K in (cube, mid, big))
        assert w1 < wm < w2


def _parallel_bodies(rng):
    """(K, r) pairs: random polygons at radii from 1e-6 to 10, squares with
    edges parallel to the polygon u's, a segment and a point."""
    pairs = []
    for _ in range(60):
        K = random_polytope(rng, 2, int(rng.integers(3, 30)))
        pairs.append((K, 10.0 ** rng.uniform(-6, 1)))
    square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
    c, s = np.cos(2 * np.pi / 32), np.sin(2 * np.pi / 32)
    pairs += [(square, 0.3), (hull(square.vertices @ np.array([[c, s], [-s, c]])), 0.3)]
    pairs += [(hull([(0, 0), (1, 0.3)]), 0.2), (hull([(0.5, 0.5)]), 0.2)]
    return pairs


def _clip_polygon_loop(subject, eqs, floor):
    """Sutherland-Hodgman one halfspace and one vertex at a time: the
    reference for family._clip_polygon."""
    out = np.asarray(subject, dtype=float)
    for a in eqs:
        if len(out) == 0:
            break
        r = a[-1] + sum(out[:, k] * a[k] for k in range(out.shape[1]))
        inside = r <= floor
        prev = np.roll(np.arange(len(out)), 1)
        crossing = inside != inside[prev]
        pieces = []
        for j in range(len(out)):
            if crossing[j]:
                k = prev[j]
                t = r[k] / (r[k] - r[j])
                pieces.append(out[k] + t * (out[j] - out[k]))
            if inside[j]:
                pieces.append(out[j])
        out = np.array(pieces) if pieces else np.zeros((0, out.shape[1]))
    return out


def _ring(rng, m):
    """A strictly convex m-gon: points of a random ellipse at sorted random
    angles."""
    ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, m))
    axes = rng.uniform(0.5, 1.5, 2)
    return rng.standard_normal(2) * 0.1 + np.column_stack([axes[0] * np.cos(ang),
                                                           axes[1] * np.sin(ang)])


def _clip_cases(rng):
    """(subject, eqs, floor) cases for the clip: rings of 3 to 64 vertices
    against 1 to 40 random halfspaces and against the facets of a rotated
    ring (many cuts), a vertex exactly at the floor, an empty result, and
    segment, point and R^1 subjects."""
    cases = []
    for _ in range(60):
        subject = _ring(rng, int(rng.integers(3, 65)))
        k = int(rng.integers(1, 41))
        a = unit_directions(2, k) @ np.array([[np.cos(1.0), np.sin(1.0)],
                                               [-np.sin(1.0), np.cos(1.0)]])
        eqs = np.column_stack([a, -rng.uniform(0.3, 1.2, k)])
        cases.append((subject, eqs, 1e-12))
        C = hull(_ring(rng, int(rng.integers(3, 41))))
        cases.append((subject, C.facets.equations, rounding_floor(C)))
        # the floor is exactly the residual of one vertex at the first halfspace
        res = eqs[0, -1] + sum(subject[:, j] * eqs[0, j] for j in range(2))
        cases.append((subject, eqs, float(res[int(rng.integers(len(subject)))])))
        cases.append((subject[:2], C.facets.equations, rounding_floor(C)))  # a segment
        cases.append((subject[:1], C.facets.equations, rounding_floor(C)))  # a point
        lo, hi = np.sort(rng.standard_normal(2))
        I = hull(rng.standard_normal((2, 1)))
        cases.append((np.array([[lo], [hi]]), I.facets.equations, rounding_floor(I)))  # R^1
    # 64 vertices against 40 halfspaces of a ring of about the same size
    subject = unit_directions(2, 64)
    C = hull(unit_directions(2, 40) @ np.array([[0.99, 0.0], [0.0, 1.01]]))
    cases.append((subject, C.facets.equations, rounding_floor(C)))
    cases.append((subject + 10.0, C.facets.equations, rounding_floor(C)))  # empty
    return cases


class TestPlanarRings:
    def test_minkowski_ring_equals_hull_of_all_sums(self, rng, qhull_calls):
        fast = []
        for K, r in _parallel_bodies(rng):
            for arc_points in (8, 32):
                mesh = r * unit_directions(2, arc_points)
                pts = (K.vertices[:, None, :] + mesh[None, :, :]).reshape(-1, 2)
                ring = family._minkowski_ring(K.vertices, arc_points)
                qhull_calls.clear()
                P = hull(pts[ring] if ring is not None else pts)
                fast.append(not qhull_calls)
                H = hull(pts)
                assert np.array_equal(P.vertices, H.vertices) and P.dim_affine == H.dim_affine
                if arc_points == 32:  # outer_parallel's regular polygon
                    assert np.array_equal(outer_parallel(K, r).vertices, P.vertices)
        assert sum(fast) >= 0.85 * len(fast)
        square = hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert family._minkowski_ring(square.vertices, 32) is None  # parallel edges

    def test_vectorised_clip_matches_loop(self, rng):
        cases = []
        for _ in range(40):
            A, B = random_polytope(rng, 2, 15), random_polytope(rng, 2, 15)
            cases += [(A.vertices, B), (B.vertices, A)]
            K = hull(0.5 * A.vertices)
            cases.append((outer_parallel(K, rng.uniform(0.05, 1.0)).vertices, A))
            cases.append((A.vertices[:2], B))  # a segment as the subject
            cases.append((A.vertices[:1], B))  # a point as the subject
            lo, hi = np.sort(rng.standard_normal(2))
            cases.append((np.array([[lo], [hi]]), hull(rng.standard_normal((2, 1)))))  # in R^1
        square = hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        cases.append((square.vertices + [0.5, 0.0], square))  # vertices on the clip lines
        cases.append((square.vertices + [3.0, 0.0], square))  # empty
        for subject, C in cases:
            eqs, floor = C.facets.equations, rounding_floor(C)
            assert np.array_equal(family._clip_polygon(subject, eqs, floor),
                                  _clip_polygon_loop(subject, eqs, floor))

    def test_clip_reads_the_facet_rounding_floor(self):
        # A vertex whose facet residual lies within rounding_floor of an edge
        # counts as inside, one beyond it as outside.
        C = hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        floor = rounding_floor(C)
        for depth, kept in ((0.5 * floor, True), (4.0 * floor, False)):
            S = hull([(0.2, 0.5), (1.0 + depth, 0.4), (1.0 + depth, 0.6)])
            pts = family._clip_polygon(S.vertices, C.facets.equations, floor)
            assert np.array_equal(pts, S.vertices) == kept
            assert np.all(rel_depth_many(C, pts)[0] >= -floor)

    def test_clip_equals_the_per_cut_table(self, rng):
        most = 0
        for subject, eqs, floor in _clip_cases(rng):
            cuts = []
            got = family._clip_polygon(subject, eqs, floor)
            want = clip_polygon(subject, eqs, floor, cuts)
            assert got.shape == want.shape and np.array_equal(got, want)
            most = max(most, len(cuts))
        assert most >= 20

    def test_uncut_intersection_is_the_subject(self, rng):
        square = hull([(-2.0, -2.0), (2.0, -2.0), (2.0, 2.0), (-2.0, 2.0)])
        A, B = nested_pair(rng)
        subjects = [(A, B), (outer_parallel(A, 0.01), B), (hull([(0.0, 0.0), (1.0, 0.5)]), square),
                    (hull([(0.5, -1.0)]), square), (hull([[0.0], [0.5]]), hull([[-1.0], [2.0]]))]
        for S, C in subjects:
            # the subject is the body of lower affine dimension, the first on a tie
            for args in ((S, C), (C, S))[:1 + (S.dim_affine < C.dim_affine)]:
                K = family._intersect_bodies(*args)
                assert K is S
                H = hull(K.vertices)
                assert np.array_equal(H.vertices, K.vertices) and H.dim_affine == K.dim_affine

    def test_completion_runs_no_qhull_per_interpolant(self, rng, monkeypatch, qhull_calls):
        ops = []
        real = family.outer_parallel

        def counted(*args, **kwargs):
            ops.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(family, "outer_parallel", counted)
        s = validate_stratification(clipped_chain(rng, levels=4))
        qhull_calls.clear()
        fam = complete(s, h=(s.params[-1] - s.params[0]) / 8)
        assert len(fam) > len(s) and len(ops) > 2 * len(s)
        assert len(qhull_calls) <= len(s)  # at most each chain body's facets


class TestIntersectBodies:
    def test_r1_takes_the_shared_clip(self, call_counter):
        clips = call_counter("family", "_clip_polygon")
        K = family._intersect_bodies(hull([[-1.0], [0.5]]), hull([[0.0], [2.0]]))
        assert len(clips) == 1
        assert K.dim_affine == 1 and np.allclose(K.vertices, [[0.0], [0.5]], rtol=0.0, atol=1e-15)
        P = family._intersect_bodies(hull([[0.25]]), hull([[0.0], [2.0]]))
        assert len(clips) == 2 and np.array_equal(P.vertices, [[0.25]])

    def test_lower_dimensional_subject(self, call_counter):
        clips = call_counter("family", "_clip_polygon")
        square = hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        seg = family._intersect_bodies(square, hull([(-1.0, 0.5), (2.0, 0.5)]))
        assert seg.dim_affine == 1
        assert np.allclose(seg.vertices, [(0.0, 0.5), (1.0, 0.5)], rtol=0.0, atol=1e-15)
        point = hull([(0.5, 0.25)])
        assert np.array_equal(family._intersect_bodies(square, point).vertices, point.vertices)
        assert len(clips) == 2

    def test_one_point_outside_is_empty(self):
        square = hull([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        for A, B in ((square, hull([(2.0, 0.5)])), (hull([[3.0]]), hull([[0.0], [1.0]]))):
            with pytest.raises(NumericalFailure, match="empty"):
                family._intersect_bodies(A, B)
            with pytest.raises(NumericalFailure, match="empty"):
                family._intersect_bodies(B, A)

    def test_needs_a_full_dimensional_body(self):
        a, b = hull([(0.0, 0.0), (1.0, 1.0)]), hull([(0.0, 1.0), (1.0, 0.0)])
        with pytest.raises(NumericalFailure, match="full-dimensional"):
            family._intersect_bodies(a, b)


class TestOuterParallel:
    def test_ball_grows_radius(self):
        P = outer_parallel(disk_polygon(1.0), 0.5)
        assert mean_width(P) == pytest.approx(3.0, abs=6e-3)

    def test_contains_original(self, rng):
        K = random_polytope(rng, 2, 10)
        P = outer_parallel(K, 0.3)
        assert includes(P, K, 1e-9)


class TestComplete:
    def test_disks_grid(self):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        fam = complete(s, h=0.2)
        assert isinstance(fam, Family)
        assert np.max(np.diff(fam.params)) <= 0.2 + 1e-9
        # widths of disks are 2r: the members' radii are ~linear in w
        for K, p in zip(fam.bodies, fam.params):
            assert mean_width(K) == pytest.approx(p, abs=1e-9)
        assert includes(fam.bodies[-1], fam.bodies[0], 1e-9)

    def test_squares_coarse(self, unit_square):
        big = hull([(-1, -1), (2, -1), (2, 2), (-1, 2)])
        s = validate_stratification([unit_square, big])
        dw = s.params[1] - s.params[0]
        fam = complete(s, h=dw / 4)
        assert len(fam) >= 5
        for i in range(len(fam) - 1):
            assert includes(fam.bodies[i + 1], fam.bodies[i], 1e-7)
        assert np.max(np.diff(fam.params)) <= dw / 4 + 1e-9

    def test_idempotent_on_dense(self):
        s = validate_stratification([disk_polygon(r) for r in np.linspace(1, 1.5, 11)])
        fam = complete(s, h=0.12)
        assert len(fam) == 11

    def test_eq8_eq9_sandwich_on_members(self):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(1.8)])
        fam = complete(s, h=0.25)
        for i in range(len(fam) - 1):
            res = width_distance_bounds(fam.bodies[i], fam.bodies[i + 1])
            assert res["lhs_lower"] <= res["delta_w_root"] + 1e-9
            assert res["delta_w"] <= res["upper"] + 1e-9

    def test_injective_params(self, rng):
        bodies = clipped_chain(rng, levels=4)
        s = validate_stratification(bodies)
        fam = complete(s, h=(s.params[-1] - s.params[0]) / 6)
        assert np.all(np.diff(fam.params) > 0)

    def test_member_count_is_checked_before_any_is_built(self, monkeypatch):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        gap = s.params[1] - s.params[0]
        monkeypatch.setattr(family, "_solve_gap", None)  # never reached
        # ceil(gap / 0.9h) = 100 000 pieces: one member more than allowed
        with pytest.raises(InvalidInput, match=r"would make 100001 members"):
            complete(s, h=gap / (0.9 * 99_999.5))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInput, match=r"h = 1e-12 would make 2\.\d+e\+12 members"):
                complete(s, h=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def random_chain_3d(rng, npts=8, levels=3):
    """Nested R^3 polytopes shrunk about their centroids (outer-first)."""
    pts = rng.standard_normal((npts, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    bodies = [hull(pts * (1.0 + 0.2 * rng.random(npts))[:, None])]
    for _ in range(levels - 1):
        K = bodies[-1]
        c = K.centroid()
        bodies.append(hull(c + (K.vertices - c) * (0.55 + 0.25 * rng.random())))
    return bodies


def _solver_chains(rng, g3):
    """(label, bodies, grid) chains for the width solver: corner-clipped
    polygons, polygons each in the interior of the next, intervals each in
    the interior of the next, the rotated squares and one chain in R^3."""
    chains = [("clipped", clipped_chain(rng, levels=4), None) for _ in range(3)]
    for _ in range(3):
        A, B = nested_pair(rng)
        c = B.centroid()
        chains.append(("inner polygons", [hull(c + 0.5 * (A.vertices - c)), A, B], None))
    for _ in range(3):
        ends = np.sort(rng.standard_normal(2))
        r = np.cumsum(rng.uniform(0.2, 1.0, 3))
        chains.append(("R1", [hull([[ends[0] - x], [ends[1] + x]]) for x in r], None))
    chains.append(("squares", list(rotated_squares(4).bodies), None))
    chains.append(("R3", random_chain_3d(rng), g3))
    return chains


class TestCompleteSolver:
    def test_members_hit_width_grid(self, rng):
        g3 = SphereGrid.make(3, 2000, 0)
        cases = [(clipped_chain(rng, levels=4), None) for _ in range(4)]
        cases.append((random_chain_3d(rng), g3))
        for bodies, grid in cases:
            s = validate_stratification(bodies, grid=grid)
            h = (s.params[-1] - s.params[0]) / 5
            fam = complete(s, h, grid)
            k = 0
            for K1, K2, w1, w2 in zip(s.bodies, s.bodies[1:], s.params, s.params[1:]):
                assert fam.bodies[k] is K1 and fam.params[k] == w1
                gap = w2 - w1
                pieces = int(np.ceil(gap / (0.9 * h))) if gap > h else 1
                for j in range(1, pieces):
                    K, p = fam.bodies[k + j], fam.params[k + j]
                    assert abs(p - (w1 + gap * j / pieces)) <= 1e-6 * gap
                    assert p == mean_width(K, grid)
                k += pieces
            assert k == len(fam) - 1 and fam.bodies[k] is s.bodies[-1]
            for A, B in zip(fam.bodies, fam.bodies[1:]):
                assert includes(B, A, 1e-7)

    @pytest.mark.parametrize("overstated", [False, True])
    def test_members_equal_the_eager_solver(self, rng, monkeypatch, overstated):
        # f = 1 bodies: outer_parallel calls at a gap's K1 and r = dist(K1, K2)
        tops, real = [], family.outer_parallel
        monkeypatch.setattr(family, "outer_parallel",
                            lambda K, r: tops.append((id(K), r)) or real(K, r))
        if overstated:
            # Newton steps on 1.7 times each slope land below their targets
            # time after time, owing Illinois halvings to the unread residual
            # at f = 1; a body with 3k vertices has no slope, so a step reads it.
            slope = family._width_slope
            monkeypatch.setattr(family, "_width_slope", lambda B, r, lines: (
                None if B.nvertices % 3 == 0 else 1.7 * (slope(B, r, lines) or 0.0) or None))
        g3 = SphereGrid.make(3, 2000, 0)
        for label, bodies, grid in _solver_chains(rng, g3):
            s = validate_stratification(bodies, grid=grid)
            h = (s.params[-1] - s.params[0]) / 9
            with monkeypatch.context() as m:
                m.setattr(family, "_solve_gap", solve_gap_eager)
                want = complete(s, h, grid)
            tops.clear()
            got = complete(s, h, grid)
            assert got.params == want.params, label
            for A, B in zip(got.bodies, want.bodies):
                assert np.array_equal(A.vertices, B.vertices) and A.dim_affine == B.dim_affine
            gaps = {(id(K1), hausdorff(K1, K2)) for K1, K2 in zip(s.bodies, s.bodies[1:])}
            built = sum(call in gaps for call in tops)
            if label in ("inner polygons", "R1") and not overstated:  # every step has a slope
                assert built == 0, label
            assert len(got) > len(s), label

    def test_evaluation_budget(self, rng, monkeypatch):
        calls = []
        real = family.outer_parallel

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(family, "outer_parallel", counted)
        added = 0
        for _ in range(6):
            s = validate_stratification(clipped_chain(rng, levels=4))
            fam = complete(s, h=(s.params[-1] - s.params[0]) / 8)
            added += len(fam) - len(s)
        assert added > 0
        assert len(calls) <= 3 * added

    def test_qhull_budget_3d(self, rng, monkeypatch, qhull_calls):
        # Per interpolant: the outer parallel body's hull and facets and the
        # intersection's hull; the outer chain body's facets once per gap.
        ops = []
        real = family.outer_parallel

        def counted(*args, **kwargs):
            ops.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(family, "outer_parallel", counted)
        grid = SphereGrid.make(3, 2000, 0)
        s = validate_stratification(random_chain_3d(rng), grid=grid)
        qhull_calls.clear()
        fam = complete(s, (s.params[-1] - s.params[0]) / 6, grid)
        assert len(fam) > len(s)
        assert len(qhull_calls) <= 3 * len(ops) + len(s) - 1

    def test_stalled_width_fails_with_context(self, monkeypatch):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        K1 = s.bodies[0]
        real = family._intersect_bodies
        # Every interpolant is K1: the f = 1 body is K1 as well, so completion
        # reports the width step it cannot close.
        monkeypatch.setattr(family, "_intersect_bodies", lambda A, B: K1)
        with pytest.raises(NumericalFailure, match="width step"):
            complete(s, h=0.2)
        # The f = 1 body is real but no iterate moves off K1's width: the
        # solver stops at its cap and names the gap, target and residual.
        # The f = 1 body is the first call on its parallel body (iterates
        # that close in on f = 1 come to share it).
        top = outer_parallel(K1, hausdorff(K1, s.bodies[1]))
        calls = []

        def stalled(A, B):
            calls.append(np.array_equal(A.vertices, top.vertices) and True not in calls)
            return real(A, B) if calls[-1] else K1

        monkeypatch.setattr(family, "_intersect_bodies", stalled)
        with pytest.raises(NumericalFailure) as ei:
            complete(s, h=0.2)
        msg = str(ei.value)
        assert "chain bodies 0 and 1" in msg and "after 200 steps" in msg
        assert "target 2.1657" in msg and "last residual -0.167" in msg
        # The first Newton step from K1 stays in the bracket; the second has
        # no slope and reads its upper end, the f = 1 body.
        assert len(calls) == 1 + 200 and calls.index(True) == 1


def _slope_pairs(rng):
    """(label, K1, K2) nested pairs: polygons (touching K2's boundary or in
    its interior), segments and points inside a polygon, and segments and a
    point inside a segment of R^1."""
    pairs = []
    for _ in range(3):
        K1, K2 = clipped_chain(rng, levels=3)[::2]
        c, V = K1.centroid(), K1.vertices
        pairs += [("polygon", K1, K2), ("segment", hull([V[0], c]), K2), ("point", hull([c]), K2),
                  ("inner polygon", *nested_pair(rng))]
    K2 = hull([[-1.0], [2.0]])
    for label, K1 in (("R1", hull([[0.0], [0.5]])), ("R1 at an end", hull([[-1.0], [0.5]])),
                      ("R1 point", hull([[0.3]]))):
        pairs.append((label, K1, K2))
    return pairs


class TestWidthSlope:
    def test_slope_is_the_width_difference_inside_one_piece(self, rng):
        for label, K1, K2 in _slope_pairs(rng):
            d = hausdorff(K1, K2)
            lines = family._parallel_lines(K1)

            def body(r):
                B = family._intersect_bodies(outer_parallel(K1, r), K2)
                return B, mean_width(B)

            dr, pieces = 1e-6 * d, 0
            # As r leaves 0: K1 + rP while that stays inside K2.
            first = family._first_slope(K1, K2, lines)
            inside = rel_depth_many(K2, K1.vertices)[0].min() > 0.0
            assert (first is not None) == inside, label
            if inside:
                assert first == pytest.approx((body(dr)[1] - mean_width(K1)) / dr, rel=1e-6), label
            for f in np.linspace(0.05, 0.95, 19):
                B, w = body(f * d)
                fwd = (body(f * d + dr)[1] - w) / dr
                bwd = (w - body(f * d - dr)[1]) / dr
                if abs(fwd - bwd) > 1e-6 * (1.0 + abs(fwd)):
                    continue  # a kink within dr
                pieces += 1
                s = family._width_slope(B, f * d, lines)
                assert (s or 0.0) == pytest.approx(fwd, rel=1e-6, abs=1e-6), (label, f)
            assert pieces >= 12, label

    def test_no_slope_in_space(self, rng):
        s = validate_stratification(random_chain_3d(rng))
        K1, K2 = s.bodies[:2]
        lines = family._parallel_lines(K1)
        B = family._intersect_bodies(outer_parallel(K1, 0.1), K2)
        assert lines is None
        assert family._width_slope(B, 0.1, lines) is None
        assert family._first_slope(K1, K2, lines) is None


class TestIsConnected:
    def test_completed_family(self):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        fam = complete(s, h=0.2)
        assert is_connected(fam)

    def test_annulus_gap(self):
        bad = Family((disk_polygon(1.0), disk_polygon(2.0)), (2.0, 2.05), 0.1)
        assert not is_connected(bad)

    def test_wide_step(self):
        K1, K2 = disk_polygon(1.0), disk_polygon(2.0)
        bad = Family((K1, K2), (mean_width(K1), mean_width(K2)), 0.1)
        assert not is_connected(bad)

    def test_complete_output_always_connected(self, rng):
        for _ in range(5):
            bodies = clipped_chain(rng, levels=4)
            s = validate_stratification(bodies)
            fam = complete(s, h=(s.params[-1] - s.params[0]) / 5)
            assert is_connected(fam)


    def test_exact_r3_widths_are_held_to_1e_6(self):
        fam = disk_family(n=3, levels=5)
        assert is_connected(fam)
        off = 1e-4 * (1.0 + fam.params[-1])
        assert not is_connected(Family(fam.bodies, tuple(p + off for p in fam.params), fam.h))


def _translated(fam, frac):
    """fam with its middle member translated by frac of the top member's
    diameter: honest widths and steps, a jump at that member."""
    i = len(fam) // 2
    t = np.zeros(fam.dim)
    t[0] = frac * fam.bodies[-1].diameter()
    bodies = fam.bodies[:i] + (fam.bodies[i].translate(t),) + fam.bodies[i + 1:]
    return Family(bodies, fam.params, fam.h)


@pytest.fixture(scope="module")
def connected_corpus():
    """(name, family, stored): the planar and R^3 pipeline families (gen
    random at the planar_pipeline sizes and at the R^3 pipeline's, seeds 1
    to 3), the stored families of family_validation at seeds 1 to 3
    (stored true), Cantor levels 2 to 7, cantor_disks at those levels,
    example61 and disks in R^2 to R^4."""
    wl = load_workloads()
    cases = []
    for seed in (1, 2, 3):
        for n, npoints, levels in [(2, *size) for size in wl.PLANAR_SIZES] + [(3, 16, 4)]:
            rc, out = cli_call(["gen", "random", "--n", str(n), "--npoints", str(npoints),
                                "--levels", str(levels), "--seed", str(seed)])
            assert rc == 0
            cases.append((f"gen-r{n}-{npoints}x{levels}-{seed}", family_from_dict(json.loads(out)),
                          False))
        with tempfile.TemporaryDirectory() as wd:
            w = wl.Workload("family_validation", seed, wd)
            w.setup(cli_call)
            for name in ("chain2", "chain3", "disks3", "disks4", "cantor_family",
                         "example61_family"):
                with open(os.path.join(wd, name + ".json")) as fh:
                    cases.append((f"store-{name}-{seed}", family_from_dict(json.load(fh)), True))
    for L in range(2, 8):
        cases.append((f"cantor{L}", cantor_family(L), False))
        cases.append((f"cantor-disks{L}", cantor_disks(L)[0], False))
    cases.append(("example61", example61_family(), False))
    for n in (2, 3, 4):
        cases.append((f"disks-r{n}", disk_family(0.5, 1.0, 6, n=n), False))
    return cases


def _jump_excess(fam):
    """lhs / rhs - 1 of is_connected's distance test on a two-member
    family, at the measured distance."""
    n = fam.dim
    fid = 1e-6 if n <= 3 else 1e-3
    lhs = width_gap_constant(n) / fam.bodies[-1].diameter() ** (n - 1) * hausdorff(*fam.bodies) ** n
    rhs = 1.5 * (fam.params[1] - fam.params[0]) + fid * (1.0 + abs(fam.params[-1]))
    return lhs / rhs - 1.0


class TestConnectedBounds:
    """is_connected decides a pair by the distance between the vertex sets
    where that bound passes, and measures the others."""

    def test_verdicts_match_the_per_pair_oracle(self, connected_corpus):
        seen = set()
        for name, fam, _ in connected_corpus:
            for label, F in ((name, fam), (f"{name}-jump", _translated(fam, 0.3)),
                             (f"{name}-nudge", _translated(fam, 1e-4))):
                got = is_connected(F)
                assert got == is_connected_per_pair(F), label
                seen.add((label.split("-")[-1], got))
        assert {("jump", False), ("nudge", True)} <= seen

    def test_stored_families_measure_no_distance(self, connected_corpus, call_counter):
        calls = call_counter("geom_core", "hausdorff")
        for name, fam, stored in connected_corpus:
            if stored:
                assert is_connected(fam), name
        assert not calls

    def test_bound_is_above_the_measured_distance(self, connected_corpus):
        for name, fam, _ in connected_corpus:
            for A, B in zip(fam.bodies, fam.bodies[1:]):
                assert hausdorff(A, B) <= _hausdorff_upper(A, B), name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_threshold_band_is_measured(self, n, call_counter):
        """A unit cube and its image under the homothety of ratio 1.01 about
        (cx, 0, ...): cx is bisected until the distance test's lhs lies
        within 1e-12 relative of its rhs, on each side."""
        cube = np.array(list(itertools.product((0.0, 1.0), repeat=n)))

        def fam_at(cx):
            c = np.zeros(n)
            c[0] = cx
            return family_from_dict({"bodies": [{"vertices": cube.tolist()},
                                                {"vertices": (c + 1.01 * (cube - c)).tolist()}]})

        lo, hi = 0.0, -1000.0  # lhs below rhs at lo, above it at hi
        assert _jump_excess(fam_at(lo)) < 0.0 < _jump_excess(fam_at(hi))
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if _jump_excess(fam_at(mid)) < 0.0:
                lo = mid
            else:
                hi = mid
        for cx, verdict in ((lo, True), (hi, False)):
            fam = fam_at(cx)
            assert abs(_jump_excess(fam)) <= 1e-12
            assert is_connected_per_pair(fam) is verdict
            calls = call_counter("geom_core", "hausdorff")
            assert is_connected(fam) is verdict
            assert len(calls) == 1

    def test_duplicates_match_the_per_pair_oracle(self, rng, call_counter):
        """validate_stratification keeps the bodies the measured duplicate
        test keeps, on homothetic chains in R^2 to R^4 with copies of a
        member moved by less and by more than TAU_PT; a chain with no
        copies measures no distance."""
        for n in (2, 2, 2, 3, 3, 4):
            base = random_polytope(rng, n, 12)
            c = base.centroid()
            chain = [hull(c + f * (base.vertices - c)) for f in (0.4, 0.6, 0.8, 1.0)]
            calls = call_counter("family", "hausdorff")
            validate_stratification(chain)
            assert not calls
            K = chain[int(rng.integers(len(chain)))]
            t = np.zeros(n)
            t[0] = 5e-10
            copies = [hull(K.vertices), K.translate(t),
                      hull(c + (1.0 + 2e-10) * (K.vertices - c)),
                      hull(c + (1.0 + 2e-9) * (K.vertices - c)),
                      hull(c + (1.0 + 1e-7) * (K.vertices - c))]
            bodies = [chain[i] for i in rng.permutation(len(chain))] + copies
            kept = kept_per_pair(bodies)
            s = validate_stratification(bodies)
            assert len(chain) < len(s.bodies) == len(kept) < len(bodies)
            assert all(a is bodies[i] for a, i in zip(s.bodies, kept))
        with pytest.raises(Degenerate):
            validate_stratification([K, K.translate(t)])


class TestR4Chains:
    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_random_r4_chain_nests(self, seed, capsys):
        """gen random in R^4 with its params stripped: the chain is
        re-validated by inclusion, and an LP agrees on the 16 vertices of
        each member closest to the boundary of the next (vertices of the
        inner member lie on the outer's facets)."""
        assert main(["gen", "random", "--n", "4", "--levels", "3", "--npoints", "12",
                     "--grid-size", "3000", "--seed", str(seed)]) == 0
        doc = json.loads(capsys.readouterr().out)
        s = stratification_from_dict({"bodies": doc["bodies"]})
        for A, B in zip(s.bodies, s.bodies[1:]):
            assert includes(B, A)
            c = B.vertices.mean(axis=0)
            shallow = A.vertices[np.argsort(rel_depth_many(B, A.vertices)[0])[:16]]
            assert all(in_convex_hull_lp(v - c, B.vertices - c) for v in shallow)


class TestFamilyDistance:
    def test_identity(self):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        fam = complete(s, h=0.25)
        assert family_distance(fam, fam) == 0.0

    def test_shifted_disks(self):
        f1 = Family(
            tuple(disk_polygon(r) for r in np.linspace(1, 2, 6)),
            tuple(mean_width(disk_polygon(r)) for r in np.linspace(1, 2, 6)),
            0.45,
        )
        f2 = Family(
            tuple(disk_polygon(r, center=(0.1, 0)) for r in np.linspace(1, 2, 6)),
            f1.params,
            0.45,
        )
        assert family_distance(f1, f2) == pytest.approx(0.1, abs=1e-9)

    def test_mismatched_interval(self):
        f1 = Family((disk_polygon(1.0), disk_polygon(2.0)), (2.0, 4.0), 2.1)
        f2 = Family((disk_polygon(1.0), disk_polygon(3.0)), (2.0, 6.0), 4.1)
        with pytest.raises(InvalidInput):
            family_distance(f1, f2)


class TestSerialization:
    def test_round_trip(self):
        s = validate_stratification([disk_polygon(1.0), disk_polygon(2.0)])
        fam = complete(s, h=0.3)
        fam2 = family_from_dict(fam.to_dict())
        assert len(fam2) == len(fam)
        assert np.allclose(fam2.params, fam.params)
        assert family_distance(fam, fam2) == 0.0
