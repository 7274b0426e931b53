import math

import numpy as np
import pytest

from descent_geom.errors import InvalidInput, PreconditionViolated
from descent_geom.cones import (
    CircularCone,
    cap_body,
    cap_support,
    cap_support_batch,
    cone_intersect_halfspace,
    in_normal_cone,
    normal_cone,
    normal_cone_limit_report,
    normal_cone_mask,
    sector_integral_exact,
    sector_integral_lower_bound,
    sphere_measure,
    tangent_cone,
)
from descent_geom.descent import disk_family
from descent_geom.geom_core import hull, support, unit_directions

from .conftest import disk_polygon, embedded_polytope, random_polytope
from .oracles import in_cone_lp, sector_flux_axis_quad, sector_flux_offaxis_quad


class TestSphereMeasure:
    def test_small_dims(self):
        assert sphere_measure(1) == pytest.approx(2.0)
        assert sphere_measure(2) == pytest.approx(2 * math.pi)
        assert sphere_measure(3) == pytest.approx(4 * math.pi)
        assert sphere_measure(4) == pytest.approx(2 * math.pi**2)


class TestNormalTangent:
    def test_square_corner(self, unit_square):
        N = normal_cone(unit_square, (1, 1))
        G = sorted(map(tuple, np.round(N.generators, 9)))
        assert G == [(0.0, 1.0), (1.0, 0.0)]

    def test_square_interior_zero(self, unit_square):
        assert normal_cone(unit_square, (0.5, 0.5)).is_zero

    def test_polygon_vertex_width(self):
        m = 64
        K = disk_polygon(1.0, m=m)
        q = K.vertices[0]
        N = normal_cone(K, q)
        # brute force the definition <x, v - q> <= 0 on sampled directions
        dirs = unit_directions(2, 4000, 11)
        by_def = np.max(dirs @ (K.vertices - q).T, axis=1) <= 1e-12
        by_cone = N.member_mask(dirs, tol=1e-9)
        assert np.array_equal(by_def, by_cone)
        ang = np.arctan2(N.generators[:, 1], N.generators[:, 0])
        width = abs(((ang.max() - ang.min()) + np.pi) % (2 * np.pi) - np.pi)
        assert width == pytest.approx(2 * np.pi / m, abs=1e-9)

    def test_tangent_square_origin(self, unit_square):
        T = tangent_cone(unit_square, (0, 0))
        assert T.contains((1, 0)) and T.contains((0, 1)) and T.contains((1, 2))
        assert not T.contains((-1, 0))

    def test_tangent_segment(self):
        seg = hull([(0, 0), (1, 0)])
        T = tangent_cone(seg, (0, 0))
        assert np.allclose(T.generators, [[1.0, 0.0]])
        assert np.linalg.matrix_rank(T.generators) == seg.dim_affine

    def test_tangent_spans_affine_hull(self, rng):
        # the tangent cone spans exactly the affine hull of the body
        for K in (
            random_polytope(rng, 2, 10),
            random_polytope(rng, 3, 12),
            hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]),
        ):
            q = K.vertices[0]
            T = tangent_cone(K, q)
            assert np.linalg.matrix_rank(T.generators, tol=1e-9) == K.dim_affine

    def test_outside_point_rejected(self, unit_square):
        with pytest.raises(InvalidInput):
            tangent_cone(unit_square, (2, 2))

    def test_support_gap_membership_matches_cone(self, rng):
        K = random_polytope(rng, 2, 12)
        q = K.vertices[0]
        N = normal_cone(K, q)
        for _ in range(200):
            d = rng.standard_normal(2)
            d /= np.linalg.norm(d)
            assert in_normal_cone(K, q, d, 1e-9) == N.contains(d, 1e-9)


def _cone_corpus(rng):
    """(K, q) pairs: vertices, edge, facet and interior points of random
    bodies in n = 2..5, of the cube (coplanar Qhull triangles) and of flat
    polygons in R^3 and R^4; ends and midpoints of segments; a point body."""
    cube = hull(np.array(np.meshgrid([0, 1], [0, 1], [0, 1])).reshape(3, -1).T)
    cases = [(cube, q) for q in ((1, 1, 1), (1, 1, 0.5), (1, 0.5, 0.5), (0.5, 0.5, 0.5))]
    bodies = [random_polytope(rng, n, 12) for n in (2, 3, 3, 4, 4, 5)]
    bodies += [embedded_polytope(rng, n, k, 9) for n, k in ((3, 2), (4, 2), (4, 3))]
    for K in bodies:
        V, s = K.vertices, K.facets.simplices[0]
        cases += [(K, V[0]), (K, V[-1]), (K, V[s[:2]].mean(axis=0)), (K, V[s].mean(axis=0)),
                  (K, V.mean(axis=0))]
    for seg in (hull([(0, 0), (1, 2)]), hull([(0, 0, 1), (1, 2, -1)])):
        cases += [(seg, seg.vertices[0]), (seg, seg.vertices.mean(axis=0))]
    cases.append((hull([(0.3, -1.2, 2.0)]), np.array([0.3, -1.2, 2.0])))
    return [(K, np.asarray(q, dtype=float)) for K, q in cases]


def _probes(rng, n, *gen_sets):
    """Unit directions: a sphere sample, nonnegative combinations of each
    generator set (inside its cone) and perturbations of them (mostly
    outside, well clear of the boundary)."""
    P = [unit_directions(n, 200, 7)]
    for G in gen_sets:
        if len(G):
            inside = rng.random((40, len(G))) @ G
            P += [inside, inside + 0.3 * rng.standard_normal(inside.shape)]
    P = np.vstack(P)
    r = np.linalg.norm(P, axis=1)
    return P[r > 1e-6] / r[r > 1e-6, None]


def _nnls_mask(C, P):
    return np.array([C.contains(x) for x in P])


class TestConeOracles:
    def test_normal_cone(self, rng):
        for K, q in _cone_corpus(rng):
            N = normal_cone(K, q)
            assert np.all(normal_cone_mask(K, q, N.generators))
            P = _probes(rng, K.dim, N.generators)
            want = normal_cone_mask(K, q, P)
            assert np.array_equal(_nnls_mask(N, P), want)
            assert np.array_equal(N.member_mask(P), want)
            # unit probes: tol * (1 + |x|) is the mask's tolerance
            assert np.array_equal([in_normal_cone(K, q, x, 0.5e-9) for x in P], want)

    def test_tangent_cone(self, rng):
        # the definition: T_K(q) is the cone spanned by K - q
        for K, q in _cone_corpus(rng):
            T = tangent_cone(K, q)
            P = _probes(rng, K.dim, T.generators)[::6]
            want = np.array([in_cone_lp(x, K.vertices - q) for x in P])
            assert np.array_equal(_nnls_mask(T, P), want)
            assert np.array_equal(T.member_mask(P), want)

    def test_halfspace_cut(self, rng):
        for K, q in _cone_corpus(rng):
            N = normal_cone(K, q)
            for u in (rng.standard_normal(K.dim), q - K.vertices.mean(axis=0) + 0.1):
                I = cone_intersect_halfspace(N, u)
                P = _probes(rng, K.dim, N.generators, I.generators)
                want = normal_cone_mask(K, q, P) & (P @ u >= 0.0)
                assert np.array_equal(_nnls_mask(I, P), want)
                assert np.array_equal(I.member_mask(P), want)
                for i, g in enumerate(I.generators):
                    assert not in_cone_lp(g, np.delete(I.generators, i, axis=0))


class TestWorkBudget:
    def test_r4_vertex_cones_do_not_grow_with_degree(self, monkeypatch):
        # vertex degrees on this top run from 8 to 19; enumerating the dual
        # of the tangent cone made one SVD per 3-subset of its generators
        top = disk_family(n=4, levels=6).bodies[-1]
        real, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        eps = [0.1, 0.01]
        for q in top.vertices:
            calls.clear()
            normal_cone(top, q)
            normal_cone_limit_report(top, q, q - top.centroid(), eps, grid_size=500)
            # at most one SVD per cone built (4 + len(eps)) and per cap hull
            assert len(calls) <= 4 + 2 * len(eps)


class TestDualCone:
    def test_circular_cone_law(self):
        c = CircularCone(np.array([0.0, 0.0, 1.0]), np.pi / 6)
        d = c.dual()
        assert d.opening == pytest.approx(np.pi / 2 - np.pi / 6)
        dirs = unit_directions(3, 2000, 4)
        # membership in the dual circular cone == nonneg products with cone
        inner = dirs[c.member_mask(dirs)]
        for u in dirs[d.member_mask(dirs)][:50]:
            assert np.all(inner @ u >= -1e-9)

    def test_intersect_halfspace(self, unit_square):
        C = normal_cone(unit_square, (1, 1))
        u = np.array([1.0, -1.0]) / np.sqrt(2)
        I = cone_intersect_halfspace(C, u)
        assert sorted(map(tuple, np.round(I.generators, 9))) == [
            (0.707106781, 0.707106781), (1.0, 0.0)]
        dirs = unit_directions(2, 720, 5)
        expected = C.member_mask(dirs) & (dirs @ u >= -1e-9)
        assert np.array_equal(I.member_mask(dirs), expected)


class TestCapBody:
    def test_segment_becomes_triangle(self):
        seg = hull([(0, 0), (1, 0)])
        tri = cap_body(seg, (0.5, 1.0))
        assert tri.nvertices == 3

    def test_inside_point_no_change(self, disk64):
        cap = cap_body(disk64, (0.1, 0.2))
        assert cap.nvertices == disk64.nvertices

    def test_support_in_apex_direction(self, disk64):
        cap = cap_body(disk64, (2, 0))
        assert support(cap, (1, 0)) == pytest.approx(2.0)

    def test_branch_formula_two_sides(self, disk64):
        assert cap_support(disk64, (2, 0), (1, 0)) == pytest.approx(2.0)
        assert cap_support(disk64, (2, 0), (-1, 0)) == pytest.approx(
            support(disk64, (-1, 0))
        )

    def test_branch_equals_direct_support(self, rng):
        # 500 directions x random (K, p) pairs
        for _ in range(20):
            K = random_polytope(rng, 2, 12)
            p = K.centroid() + rng.standard_normal(2) * (1.5 * K.diameter() + 0.5)
            cap = cap_body(K, p)
            dirs = unit_directions(2, 500, 17)
            got = cap_support_batch(K, p, dirs)
            want = np.max(dirs @ cap.vertices.T, axis=1)
            assert np.abs(got - want).max() < 1e-10


class TestSectorIntegrals:
    def test_exact_formula_values(self):
        assert sector_integral_exact(2, np.pi / 4) == pytest.approx(np.sqrt(2))
        assert sector_integral_exact(3, np.pi / 2) == pytest.approx(np.pi)

    def test_matches_quadrature(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(20):
                delta = rng.uniform(0.05, np.pi / 2)
                got = sector_integral_exact(n, delta)
                want = sector_flux_axis_quad(n, delta)
                tol = 1e-10 if n == 2 else 1e-3
                assert abs(got - want) < tol

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            sector_integral_exact(2, 2.0)
        with pytest.raises(InvalidInput):
            sector_integral_lower_bound(2, np.pi)

    def test_lower_bound_value(self):
        assert sector_integral_lower_bound(2, np.pi / 2) == pytest.approx(
            2 * np.sin(np.pi / 8) ** 2
        )

    def test_lower_bound_against_flux_2d(self, rng):
        # worst case u on the boundary of the dual cone
        for _ in range(50):
            alpha = rng.uniform(0.1, np.pi - 0.1)
            u_angle = np.pi / 2 - alpha / 2  # boundary of the dual cone
            flux = sector_flux_offaxis_quad(2, alpha / 2, u_angle)
            assert flux >= sector_integral_lower_bound(2, alpha) - 1e-12

    def test_lower_bound_against_flux_3d_axis(self):
        alpha = np.pi / 2
        axis_cone = CircularCone(np.array([0.0, 0.0, 1.0]), alpha / 2)
        # u = axis is in the dual cone when alpha/2 <= pi/4
        assert axis_cone.dual().contains(axis_cone.axis)
        flux = sector_flux_offaxis_quad(3, alpha / 2, 0.0)
        assert flux >= sector_integral_lower_bound(3, alpha) - 1e-12


class TestNormalConeLimit:
    def test_edge_point(self, unit_square):
        rep = normal_cone_limit_report(
            unit_square, (1, 0.5), (1, 0), [0.5, 0.25, 0.1, 0.01], grid_size=2000
        )
        assert rep["sandwich_ok"]
        assert rep["metric_decreasing"]
        assert rep["final_metric"] < 0.05

    def test_corner_diagonal(self, unit_square):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        rep = normal_cone_limit_report(
            unit_square, (1, 1), u, [0.5, 0.25, 0.1, 0.01], grid_size=2000
        )
        assert rep["sandwich_ok"]
        assert rep["metric_decreasing"]
        assert rep["final_metric"] < 0.05

    def test_inward_direction_rejected(self, unit_square):
        with pytest.raises(PreconditionViolated):
            normal_cone_limit_report(unit_square, (1, 0.5), (-1, 0), [0.1])

    def test_upper_semicontinuity(self, unit_square):
        # accumulation directions land in N_K(p0) (angular tol 1e-3)
        rep = normal_cone_limit_report(
            unit_square, (1, 1), (1.0, 0.5), [0.1, 0.01, 0.001], grid_size=1000
        )
        assert rep["rows"][-1]["max_angle_to_base_cone"] < 1e-3
