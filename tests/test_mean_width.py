import itertools
import math
import tracemalloc

import numpy as np
import pytest

from descent_geom.errors import (
    DimensionMismatch,
    InvalidInput,
    PreconditionViolated,
)
from descent_geom.cones import cap_body
from descent_geom.geom_core import _grid_cache, hull, unit_directions
from descent_geom.mean_width import (
    SphereGrid,
    _mean_width_3d,
    cap_gradient,
    default_grid,
    first_variation,
    lipschitz_constant,
    mean_width,
    mean_width_intrinsic,
    mean_width_quadrature,
    mean_width_ratio,
    normal_sector_flux,
    normal_sector_vector_flux,
    perimeter,
    width_distance_bounds,
    width_gap_constant,
)

from .conftest import disk_polygon, embedded_polytope, nested_pair, random_polytope
from .oracles import planar_sector_quad


class TestSphereGrid:
    def test_quadrature_is_normalized(self):
        # a segment of length L in R^n has mean width L * E|theta_1| =
        # L * Gamma(n/2) / (sqrt(pi) * Gamma((n+1)/2)); the R^4 nodes are a
        # Gaussian sample, so there the error is statistical (about 0.9 %
        # of the width at one standard error of 5 000 nodes)
        L = 2.0
        for n, rel in ((1, 1e-15), (2, 1e-6), (3, 1e-6), (4, 0.03)):
            g = SphereGrid.make(n, 5000, seed=1)
            assert np.allclose(np.linalg.norm(g.directions, axis=1), 1.0, atol=1e-12)
            seg = hull(np.vstack([np.zeros(n), L * np.eye(n)[0]]))
            exact = L * math.gamma(n / 2) / (math.sqrt(math.pi) * math.gamma((n + 1) / 2))
            assert mean_width_quadrature(seg, g) == pytest.approx(exact, rel=rel)

    def test_default_grid_cache_is_bounded(self):
        first = default_grid(3, 2000, 0)
        for seed in range(1, 40):
            default_grid(4, 20000, seed)
            assert _grid_cache.cost <= _grid_cache.budget
        assert len(_grid_cache.items) == _grid_cache.budget // 80000
        assert default_grid(4, 20000, 39) is default_grid(4, 20000, 39)
        again = default_grid(3, 2000, 0)  # evicted, made again
        assert again is not first and np.array_equal(again.directions, first.directions)


class TestMeanWidth:
    def test_disk(self, disk64):
        ideal = 2 * 64 * math.sin(math.pi / 64) / math.pi
        assert mean_width(disk64) == pytest.approx(ideal)

    def test_segment(self):
        L = 3.0
        assert mean_width(hull([(0, 0), (L, 0)])) == pytest.approx(2 * L / math.pi)

    def test_square_exact_and_quadrature(self):
        K = hull([(1, 1), (-1, 1), (-1, -1), (1, -1)])
        assert mean_width(K) == pytest.approx(8 / math.pi)
        g = SphereGrid.make(2, 20000, 0)
        assert mean_width_quadrature(K, g) == pytest.approx(8 / math.pi, abs=1e-3)

    def test_quadrature_agreement_random(self, rng):
        g = SphereGrid.make(2, 20000, 0)
        for _ in range(10):
            K = random_polytope(rng, 2, 15)
            assert mean_width_quadrature(K, g) == pytest.approx(
                mean_width(K), abs=1e-6 * (1 + K.diameter())
            )

    def test_translation_invariance(self, rng):
        K = random_polytope(rng, 2, 12)
        for _ in range(5):
            t = rng.standard_normal(2) * 10
            assert mean_width(K.translate(t)) == pytest.approx(
                mean_width(K), abs=1e-12 * (1 + np.abs(t).max())
            )

    def test_monotone_under_strict_inclusion(self, rng):
        for _ in range(10):
            A, B = nested_pair(rng)
            assert mean_width(A) < mean_width(B)

    def test_3d_ball(self):
        dirs = unit_directions(3, 600, 2)
        ball = hull(dirs)
        g = SphereGrid.make(3, 20000, 0)
        assert mean_width(ball, g) == pytest.approx(2.0, abs=2e-2)

    def test_dimension_mismatch(self):
        K = hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            mean_width_quadrature(K, SphereGrid.make(3, 100, 0))

    def test_quadrature_memory_does_not_grow_with_vertices(self):
        # 1 000 vertices on the default 20 000-node grid: the whole
        # directions x vertices matrix would take 160 MB
        K = hull(unit_directions(4, 1000, 3))
        assert K.nvertices == 1000
        default_grid(4)
        tracemalloc.start()
        try:
            w = mean_width(K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert w == pytest.approx(2.0, abs=0.05)


class TestExactWidth3d:
    def test_closed_forms(self, rng):
        cube = hull([(i, j, k) for i in (0, 1) for j in (0, 1) for k in (0, 1)])
        assert mean_width(cube) == pytest.approx(1.5, abs=1e-14)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        for m in (8, 256):
            ang = 2 * np.pi * np.arange(m) / m
            disk = hull(2.0 * np.column_stack([np.cos(ang), np.sin(ang), np.zeros(m)]) @ Q + 5.0)
            assert disk.dim_affine == 2
            perimeter = 2 * m * 2.0 * math.sin(math.pi / m)
            assert mean_width(disk) == pytest.approx(perimeter / 4, rel=1e-12)
        assert mean_width(disk) == pytest.approx(math.pi, rel=1e-4)  # pi r / 2
        assert mean_width(hull([(1, 2, 3), (2, 4, 5)])) == pytest.approx(1.5, rel=1e-14)
        assert mean_width(hull([(1, 2, 3)])) == 0.0

    def test_agrees_with_a_fine_grid(self, rng):
        g = SphereGrid.make(3, 400000, 0)
        bodies = [random_polytope(rng, 3, 30) for _ in range(6)]
        bodies += [embedded_polytope(rng, 3, 2, 12) for _ in range(3)]  # flat polygons
        bodies += [hull(rng.standard_normal((40, 3)) * [1.0, 2.0, 1e-3]) for _ in range(3)]  # slabs
        for K in bodies:
            w = mean_width(K)
            assert abs(w - mean_width_quadrature(K, g)) <= 1e-5 * (1 + w)

    def test_translation_invariance(self, rng):
        for K in (random_polytope(rng, 3, 20), embedded_polytope(rng, 3, 2, 10)):
            for scale in (1.0, 1e3):
                t = rng.standard_normal(3) * scale
                assert mean_width(hull(K.vertices + t)) == pytest.approx(
                    mean_width(K), abs=1e-9 * (1 + np.abs(t).max()))

    def test_body_from_its_extreme_points_makes_no_qhull_run(self, rng, qhull_calls):
        for K in (random_polytope(rng, 3, 25), embedded_polytope(rng, 3, 2, 12)):
            L = hull(K.vertices)
            qhull_calls.clear()
            mean_width(L)
            assert qhull_calls == []


class TestWidthMemo:
    def test_quadrature_runs_once_per_body_and_grid(self, rng, call_counter):
        K = random_polytope(rng, 4, 30)
        grid, other = SphereGrid.make(4, 3000, 1), SphereGrid.make(4, 3000, 2)
        runs = call_counter("mean_width", "mean_width_quadrature")
        w = mean_width(K, grid)
        assert mean_width(K, grid) == w and mean_width(K, grid) == w
        assert len(runs) == 1
        # a grid of another seed runs again, and gives its own value
        w2 = mean_width(K, other)
        assert len(runs) == 2 and w2 != w
        assert w2 == mean_width_quadrature(hull(K.vertices), other)
        # the slot keeps one grid: the first one comes back as a new run
        assert mean_width(K, grid) == w and len(runs) == 3

    def test_same_nodes_in_another_grid_object_run_again(self, rng, call_counter):
        K = random_polytope(rng, 4, 20)
        runs = call_counter("mean_width", "mean_width_quadrature")
        w = mean_width(K, SphereGrid.make(4, 2000, 3))
        assert mean_width(K, SphereGrid.make(4, 2000, 3)) == w and len(runs) == 2
        assert mean_width(K) == mean_width(K) and len(runs) == 3  # default_grid's one object

    def test_exact_widths_equal_the_formula(self, rng):
        planar = [random_polytope(rng, 2, 20), hull([(0.0, 1.0), (2.0, 3.5)]), hull([(1.0, 2.0)])]
        spatial = [random_polytope(rng, 3, 25), embedded_polytope(rng, 3, 2, 12),
                   hull([(1.0, 2.0, 3.0), (2.0, 4.0, 5.0)])]
        for K in planar + spatial:
            w = mean_width(K)
            assert mean_width(K) == w and mean_width(K, SphereGrid.make(K.dim, 500, 1)) == w
            L = hull(K.vertices)  # the same body, its width not yet kept
            exact = perimeter(L) / math.pi if K.dim == 2 else _mean_width_3d(L)
            assert w == exact


class TestMeanWidthRatio:
    def test_plane_value(self):
        assert mean_width_ratio(2, 1) == pytest.approx(math.pi / 2)

    def test_point_and_full_dimensional_bodies(self, rng):
        assert mean_width_intrinsic(hull([(0.3, -0.2, 1.0)])) == 0.0
        for n in (2, 3):
            K = random_polytope(rng, n, 10)
            assert K.dim_affine == n
            assert mean_width_intrinsic(K) == mean_width(K)

    def test_segment_in_plane(self):
        L = 1.7
        seg = hull([(0, 0), (L, 0)])
        w1 = mean_width_intrinsic(seg)
        assert w1 == pytest.approx(L)
        assert w1 / mean_width(seg) == pytest.approx(mean_width_ratio(2, 1))

    def test_planar_square_in_space(self):
        V = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
        K = hull(V)
        g = SphereGrid.make(3, 40000, 3)
        w3 = mean_width(K, g)
        w2 = mean_width_intrinsic(K)
        assert w2 / w3 == pytest.approx(mean_width_ratio(3, 2), rel=2e-2)

    def test_flat_body_of_dimension_four_on_the_ambient_grid(self, rng):
        # a unit 4-cube in a 4-flat of R^5, given a grid of R^5: its width
        # is taken on the R^4 grid of that size and seed, against the exact
        # 4 * E|theta_1| = 16 / (3 pi)
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        C = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
        K = hull(np.hstack([C, np.zeros((16, 1))]) @ Q + 3.0)
        assert K.dim_affine == 4
        widths = {(size, seed): mean_width_intrinsic(K, default_grid(5, size, seed))
                  for size in (2000, 4000) for seed in (3, 4)}
        for w in widths.values():
            assert w == pytest.approx(16 / (3 * math.pi), rel=1e-2)
        assert len(set(widths.values())) == 4  # size and seed both reach the R^4 grid

    def test_invalid(self):
        with pytest.raises(InvalidInput):
            mean_width_ratio(2, 2)


class TestFirstVariation:
    def test_edge_interior_ray_has_zero_first_term(self, unit_square):
        # the normal cone at an edge-interior point is a single ray, a
        # measure-zero sector: the whole increment is remainder
        fv = first_variation(unit_square, (1, 0.5), (1, 0), 0.1)
        assert fv["first_term"] == 0.0
        assert fv["delta_w"] > 0
        assert fv["remainder"] == pytest.approx(fv["delta_w"])

    def test_corner_remainder_superlinear(self, unit_square):
        u = np.array([1.0, 1.0]) / np.sqrt(2)
        rates = []
        for k in range(5):
            eps = 0.2 / 2**k
            fv = first_variation(unit_square, (1, 1), u, eps)
            assert fv["remainder"] >= -1e-8
            rates.append(fv["remainder"] / eps)
        assert all(a > b for a, b in zip(rates, rates[1:]))
        assert rates[0] / rates[-1] > 8.0

    def test_gradient_matches_finite_differences(self, unit_square):
        for p in (np.array([2.0, 2.0]), np.array([-1.0, 0.3]), np.array([0.5, 3.0])):
            grad = cap_gradient(unit_square, p)
            h = 1e-5
            fd = np.array(
                [
                    (
                        mean_width(cap_body(unit_square, p + h * e))
                        - mean_width(cap_body(unit_square, p - h * e))
                    )
                    / (2 * h)
                    for e in np.eye(2)
                ]
            )
            assert np.linalg.norm(grad - fd) / np.linalg.norm(fd) < 1e-4

    def test_preconditions(self, unit_square):
        with pytest.raises(PreconditionViolated):
            first_variation(unit_square, (1, 0.5), (-1, 0), 0.1)
        with pytest.raises(InvalidInput):
            first_variation(unit_square, (1, 0.5), (1, 0), -0.1)


class TestSectorIntegral:
    # Worst relative error of the vertex values below over seeds 0-3 of the
    # default 20 000-node grid: 6.3e-4 (1.1e-3 over seeds 0-7).
    CUBE_RTOL = 2e-3

    def test_unit_cube_closed_forms(self):
        # At a vertex the normal cone is an octant: its vector integral is
        # (pi/4)(1, 1, 1), and its flux through u = (1, 1, 1)/sqrt(3), which
        # cuts none of it, sqrt(3) pi/4.  The cones at an edge midpoint and
        # at a facet point have no area, so both vanish there.
        K = hull(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
        u = np.ones(3) / math.sqrt(3.0)
        for seed in range(4):
            grid = default_grid(3, seed=seed)
            v = normal_sector_vector_flux(K, (1, 1, 1), grid)
            assert np.allclose(v, math.pi / 4.0, rtol=self.CUBE_RTOL, atol=0.0)
            flux = normal_sector_flux(K, (1, 1, 1), u, grid)
            assert flux == pytest.approx(math.sqrt(3.0) * math.pi / 4.0, rel=self.CUBE_RTOL)
            for q in ((1, 1, 0.5), (1, 0.5, 0.5)):
                assert not normal_sector_vector_flux(K, q, grid).any()
                assert normal_sector_flux(K, q, u, grid) == 0.0
            # just beyond the vertex the cap body's cone is that octant
            g = cap_gradient(K, np.ones(3) + 1e-6 * u, grid)
            assert np.array_equal(g, 2.0 / (4.0 * math.pi) * v)
            fv = first_variation(K, (1, 1, 1), u, 1e-3, grid)
            assert 0.0 <= fv["remainder"] <= 1e-3 ** 2  # of second order in eps

    def test_planar_against_quadrature(self, rng):
        P = random_polytope(rng, 2, 12)
        V = P.vertices  # a counterclockwise ring
        seg = hull([(-0.4, 0.1), (1.2, 0.9)])
        cases = [
            (P, V[0]),  # a vertex
            (P, (V[2] + V[3]) / 2),  # an edge midpoint
            (P, V.mean(axis=0)),  # an interior point
            (seg, seg.vertices[0]),  # a segment end
            (seg, seg.vertices.mean(axis=0)),  # a segment midpoint
            (hull([(0.3, -0.2)]), (0.3, -0.2)),  # a point body
        ]
        us = np.vstack([rng.standard_normal((6, 2)), [V[0] - V.mean(axis=0)]])
        for K, q in cases:
            want = planar_sector_quad(K.vertices, q)
            assert np.allclose(normal_sector_vector_flux(K, q), want, rtol=0.0, atol=1e-12)
            for u in us:
                want = u @ planar_sector_quad(K.vertices, q, u)
                assert normal_sector_flux(K, q, u) == pytest.approx(want, abs=1e-12)


class TestWidthDistanceBounds:
    def test_constants(self):
        assert width_gap_constant(2) == pytest.approx(1.0 / (2 * math.pi))
        assert lipschitz_constant(2) == pytest.approx(math.pi)
        n = 3
        expected = 2 * 3 ** (3 / 2.0) * (4 * math.pi) / (2 * math.pi)
        assert lipschitz_constant(3) == pytest.approx(expected)

    def test_concentric_disks(self):
        res = width_distance_bounds(disk_polygon(1.0), disk_polygon(2.0))
        assert res["dist"] == pytest.approx(1.0, abs=2e-3)
        assert res["delta_w"] == pytest.approx(2.0, abs=2e-3)
        assert res["lhs_lower"] <= res["delta_w_root"] + 1e-12
        assert res["delta_w"] <= res["upper"] + 1e-12

    def test_equal_bodies(self, disk64):
        res = width_distance_bounds(disk64, disk64)
        assert res["delta_w"] == 0.0 and res["dist"] == 0.0

    def test_random_nested_2d(self, rng):
        for _ in range(50):
            A, B = nested_pair(rng)
            res = width_distance_bounds(A, B)
            assert res["lhs_lower"] <= res["delta_w_root"] + 1e-9
            assert res["delta_w"] <= res["upper"] + 1e-9

    def test_not_nested_rejected(self, unit_square):
        with pytest.raises(PreconditionViolated):
            width_distance_bounds(unit_square.translate((5, 0)), unit_square)

    def test_cap_over_segment_closed_form(self):
        # w(K2) - w(K1) = (1/(pi nu)) (sqrt(4 + a^2) - a) for the segment
        # of length a/nu capped by a point at distance 1/nu
        for nu in range(1, 9):
            a = float(nu**2)
            s, d = a / nu, 1.0 / nu
            K1 = hull([(-s / 2, 0), (s / 2, 0)])
            K2 = hull([(-s / 2, 0), (s / 2, 0), (0, d)])
            got = mean_width(K2) - mean_width(K1)
            want = (math.sqrt(4 + a**2) - a) / (math.pi * nu)
            assert got == pytest.approx(want, abs=1e-9)
