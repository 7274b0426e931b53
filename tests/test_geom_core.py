import functools
import itertools
import json
import pathlib
import re
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial.distance import cdist

from descent_geom import cli, geom_core
from descent_geom.descent import example61_family, rel_depth_many, segment_inside_interval
from descent_geom.errors import DimensionMismatch, InvalidInput
from descent_geom.family import _intersect_bodies, family_from_dict, outer_parallel
from descent_geom.geom_core import (
    ConvexBody,
    TAU_PT,
    body_from_dict,
    contains,
    dedup_points,
    distances,
    hausdorff,
    hull,
    includes,
    project,
    rounding_floor,
    support,
    support_many,
    unit_directions,
)
from descent_geom.sep import Polyline, prefix_hulls

from . import oracles
from .conftest import disk_polygon, embedded_polytope, joggled_bodies, nested_pair, random_polytope
from .oracles import (
    dedup_bruteforce,
    extreme_points_bruteforce,
    hausdorff_per_vertex,
    hausdorff_sampling,
    in_convex_hull_lp,
    includes_per_vertex,
    nearest_point_faces,
)


class TestHull:
    def test_interior_point_dropped(self):
        K = hull([(0, 0), (1, 0), (0.5, 0.25), (0, 1)])
        assert sorted(map(tuple, K.vertices)) == [(0, 0), (0, 1), (1, 0)]
        assert K.dim_affine == 2

    def test_singleton(self):
        K = hull([(3, 4)])
        assert K.nvertices == 1
        assert K.dim_affine == 0

    def test_collinear(self):
        K = hull([(0, 0), (1, 0), (2, 0), (0.7, 0)])
        assert K.dim_affine == 1
        assert sorted(map(tuple, K.vertices)) == [(0, 0), (2, 0)]

    def test_extreme_points_match_bruteforce(self, rng):
        pts = rng.standard_normal((100, 2)) * 0.6
        pts = pts[np.linalg.norm(pts, axis=1) <= 1.0]
        pts = np.vstack([pts, [(1, 0), (-1, 0), (0, 1), (0, -1)]])
        K = hull(pts)
        got = sorted(map(tuple, K.vertices))
        expected = sorted(tuple(pts[i]) for i in extreme_points_bruteforce(pts))
        assert got == pytest.approx(expected)
        for axis_pt in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
            assert any(np.allclose(v, axis_pt) for v in K.vertices)

    def test_idempotent(self, rng):
        for n in (2, 3, 4):
            K = random_polytope(rng, n, 30)
            K2 = hull(K.vertices)
            assert np.allclose(K.vertices, K2.vertices)

    def test_errors(self):
        with pytest.raises(InvalidInput):
            hull(np.zeros((0, 2)))
        with pytest.raises(InvalidInput):
            hull([(np.nan, 0.0)])

    def test_dedup(self):
        K = hull([(0, 0), (0, 1e-12), (1, 0), (0, 1)])
        assert K.nvertices == 3

    def test_rank_is_not_read_from_rounding_noise(self, rng):
        # Far from the origin the centred rows of two points carry rounding
        # noise of order eps * |c|: here a second singular value of 1.5e-10.
        c = np.array([1e6 + 0.1234567, 2e6 + 0.7654321])
        assert hull([c, c + [1e-3, 2e-3]]).dim_affine == 1
        for _ in range(200):
            c, d = rng.uniform(-1e6, 1e6, 2), rng.uniform(-1e-3, 1e-3, 2)
            assert hull([c, c + d]).dim_affine == 1
            K = hull(c + np.outer(np.arange(4), d))  # four collinear points
            assert K.dim_affine == 1 and K.nvertices == 2
            assert len(geom_core.affine_basis(np.array([c, c + d, c + 2 * d]))[1]) == 1


class TestSupport:
    def test_square(self):
        K = hull([(1, 1), (-1, 1), (-1, -1), (1, -1)])
        assert support(K, (1, 0)) == 1.0
        assert support(K, (1, 1)) == 2.0

    def test_segment(self):
        L = 2.5
        K = hull([(0, 0), (L, 0)])
        for th in np.linspace(0, 2 * np.pi, 17):
            x = (np.cos(th), np.sin(th))
            assert support(K, x) == pytest.approx(max(0.0, L * np.cos(th)))

    def test_homogeneous(self, rng):
        K = random_polytope(rng, 3, 12)
        x = rng.standard_normal(3)
        for lam in (0.0, 0.5, 2.0):
            assert support(K, lam * x) == pytest.approx(lam * support(K, x))

    def test_monotone_under_inclusion(self, rng):
        for _ in range(20):
            A, B = nested_pair(rng)
            dirs = unit_directions(2, 1000, 5)
            hA = np.max(dirs @ A.vertices.T, axis=1)
            hB = np.max(dirs @ B.vertices.T, axis=1)
            assert np.all(hA <= hB + 1e-12)

    def test_dimension_mismatch(self):
        K = hull([(0, 0), (1, 0), (0, 1)])
        with pytest.raises(DimensionMismatch):
            support(K, (1, 0, 0))


class TestSupportMany:
    def test_equal_to_the_whole_product(self, rng):
        # sizes on both sides of a block boundary (_PAIR_BLOCK // len(Y) rows);
        # BLAS may round a block's products differently from the whole
        # matrix's, within n eps |x| |y|
        eps = np.finfo(float).eps
        for n in range(1, 9):
            for m in (1, 3, 64, 300, geom_core._PAIR_BLOCK, geom_core._PAIR_BLOCK + 7):
                step = max(1, geom_core._PAIR_BLOCK // m)
                Y = rng.standard_normal((m, n)) * rng.uniform(0.1, 10.0)
                for k in sorted({0, 1, step - 1, step, step + 1, 2 * step + 1} - {-1}):
                    if k * m > 4 * geom_core._PAIR_BLOCK + m:
                        continue
                    X = rng.standard_normal((k, n))
                    want = np.max(X @ Y.T, axis=1, initial=-np.inf)
                    got = support_many(X, Y)
                    bound = 2 * n * eps * np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1).max()
                    assert got.shape == (k,) and np.all(np.abs(got - want) <= bound)

    def test_empty_point_set(self):
        assert support_many(np.ones((3, 2)), np.zeros((0, 2))).tolist() == [-np.inf] * 3
        assert support_many(np.zeros((0, 2)), np.zeros((0, 2))).shape == (0,)


class TestProject:
    def test_disk_exterior(self, disk64):
        q = project(disk64, (2, 0))
        assert np.linalg.norm(q - (1, 0)) < 2e-3  # polygonal discretization

    def test_interior_fixed(self, unit_square):
        p = np.array([0.3, 0.7])
        assert np.allclose(project(unit_square, p), p)

    def test_corner(self, unit_square):
        assert np.allclose(project(unit_square, (2, 2)), (1, 1))

    def test_certificate_random(self, rng):
        for n in (2, 3, 4, 5):
            K = random_polytope(rng, n, 25)
            for _ in range(15):
                p = rng.standard_normal(n) * 2.0
                q = project(K, p)
                gap = np.max((K.vertices - q) @ (p - q))
                assert gap <= 1e-8 * (1 + np.linalg.norm(p - q))

    def test_degenerate_3d(self):
        flat = hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        q = project(flat, np.array([0.5, 0.5, 2.0]))
        assert np.allclose(q, (0.5, 0.5, 0.0), atol=1e-8)


class TestContainsIncludes:
    def test_contains_tolerance_band(self, unit_square):
        assert contains(unit_square, (0.5, 0.5), 0.0)
        assert not contains(unit_square, (1 + 1e-3, 0.5), 1e-6)
        assert contains(unit_square, (1 + 1e-9, 0.5), 1e-6)

    def test_includes_balls(self):
        assert includes(disk_polygon(2.0, m=32), disk_polygon(1.0, m=32), 1e-9)

    def test_translated_squares(self, unit_square):
        other = unit_square.translate((2, 0))
        assert not includes(unit_square, other, 1e-9)
        assert not includes(other, unit_square, 1e-9)

    def test_nested_random_strict(self, rng):
        for _ in range(10):
            A, B = nested_pair(rng)
            # add one exterior vertex to B so the inclusion is strict
            far = B.centroid() + np.array([3.0, 0.0]) * (1 + B.diameter())
            B2 = hull(np.vstack([B.vertices, far]))
            assert includes(B2, A, 1e-9)
            assert not includes(A, B2, 1e-9)


    @pytest.mark.parametrize("off", [1e7, 1e8])
    def test_far_from_the_origin(self, off):
        # facet residuals of the bodies' own vertices round at ~eps * off
        rng = np.random.default_rng(0)
        for _ in range(30):
            K = hull(rng.standard_normal((25, 2)) + off * rng.standard_normal(2))
            assert includes(K, K)
            assert all(contains(K, v) for v in K.vertices)
            assert rounding_floor(K) > TAU_PT

    def test_rounding_floor_near_the_origin(self):
        assert rounding_floor(hull([(0, 0), (5e5, 0), (0, 1)])) < TAU_PT


class TestHausdorff:
    def test_concentric_disks(self):
        d = hausdorff(disk_polygon(1.0), disk_polygon(2.0))
        assert d == pytest.approx(1.0, abs=2e-3)

    def test_identity(self, rng):
        K = random_polytope(rng, 3, 15)
        assert hausdorff(K, K) == 0.0

    def test_translate(self, unit_square):
        for d in (0.25, 1.0, 3.0):
            assert hausdorff(unit_square, unit_square.translate((d, 0))) == pytest.approx(d)

    def test_agrees_with_direction_sampling_smooth_max(self, unit_square):
        # when the support-gap maximizer is not a kink, 1e4 directions
        # resolve the Hausdorff distance to 1e-6
        for d in (0.37, 1.3):
            B = unit_square.translate((d, 0))
            exact = hausdorff(unit_square, B)
            sampled = hausdorff_sampling(unit_square, B, ndirs=10000)
            assert abs(exact - sampled) < 1e-6

    def test_agrees_with_direction_sampling_random(self, rng):
        # kinked maximizers limit a 1e4-direction sample to O(grid step)
        for _ in range(5):
            A = random_polytope(rng, 2, 12)
            B = random_polytope(rng, 2, 12)
            exact = hausdorff(A, B)
            sampled = hausdorff_sampling(A, B, ndirs=10000)
            assert sampled <= exact + 1e-12
            assert exact - sampled < 1e-3 * (1 + exact)


class TestSerialization:
    def test_round_trip(self, rng):
        for n in (2, 3):
            K = random_polytope(rng, n, 18)
            K2 = body_from_dict(json.loads(json.dumps(K.to_dict())))
            assert np.allclose(K.vertices, K2.vertices)

    def test_canonicalize_on_load(self):
        K = body_from_dict({"dim": 2, "vertices": [[0, 0], [1, 0], [0.5, 0.2], [0, 1]]})
        assert K.nvertices == 3

    def test_loaded_bodies_are_read_only(self, rng):
        bodies = [body_from_dict(K.to_dict()) for K in (
            random_polytope(rng, 2, 20), random_polytope(rng, 3, 20),
            embedded_polytope(rng, 3, 2, 12))]
        fam = family_from_dict({"bodies": [disk_polygon(r).to_dict() for r in (0.5, 1.0)]})
        for L in bodies + list(fam.bodies):
            with pytest.raises(ValueError):
                L.vertices[0, 0] = 0.0
            with pytest.raises(ValueError):
                L.facets.equations[0, 0] = 0.0

    def test_family_load_raises_the_member_error(self):
        square = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}
        lists = [
            [square, {"vertices": []}],
            [square, {"vertices": [[0, 0], [1, float("nan")]]}],
            [square, {"dim": 3, "vertices": [[0, 0], [2, 0], [0, 2]]}],
            [square, {"points": [[0, 0]]}],
            [square, [[0, 0], [1, 1]]],
            [{"vertices": [[0] * 9]}, {"vertices": [[1] * 9]}],
        ]
        for docs in lists:
            with pytest.raises((InvalidInput, DimensionMismatch)) as one:
                [body_from_dict(d) for d in docs]
            with pytest.raises(type(one.value), match=re.escape(str(one.value))):
                family_from_dict({"bodies": docs})



class TestBodyLoad:
    """body_from_dict canonicalizes on every load and keeps nothing between
    loads: the CLI's document memo is what shares a loaded body."""

    def test_reload_canonicalizes_again(self, rng, qhull_calls):
        for K, runs in ((random_polytope(rng, 3, 25), 1), (embedded_polytope(rng, 4, 3, 16), 1),
                        (disk_polygon(), 0)):
            doc = json.loads(json.dumps(K.to_dict()))
            L = body_from_dict(doc)
            qhull_calls.clear()
            M = body_from_dict(json.loads(json.dumps(doc)))
            assert M is not L and len(qhull_calls) == runs  # a clear ring runs no Qhull
            assert np.array_equal(M.vertices, L.vertices) and M.dim_affine == L.dim_affine
            assert np.array_equal(M.facets.equations, L.facets.equations)

    def test_one_ulp_apart_is_another_body(self, rng):
        V = random_polytope(rng, 3, 25).vertices.copy()
        L = body_from_dict({"dim": 3, "vertices": V.tolist()})
        V[0, 0] = np.nextafter(V[0, 0], np.inf)
        M = body_from_dict({"dim": 3, "vertices": V.tolist()})
        assert np.array_equal(M.vertices, hull(V).vertices)
        assert not np.array_equal(M.vertices, L.vertices)
        V[0, 0] = np.nextafter(V[0, 0], -np.inf)
        assert np.array_equal(body_from_dict({"dim": 3, "vertices": V.tolist()}).vertices,
                              L.vertices)

    def test_load_leaves_the_input_array_alone(self, rng):
        # the loaded vertices are made read-only: never the caller's array
        for V in (random_polytope(rng, 2, 12).vertices.copy(),
                  random_polytope(rng, 3, 12).vertices.copy(), np.array([[0.5, 0.5]]),
                  np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])):
            W = V.copy()
            K = body_from_dict({"vertices": V})
            assert V.flags.writeable and not np.shares_memory(K.vertices, V)
            V += 1.0
            assert np.array_equal(K.vertices, hull(W).vertices)

    def test_concurrent_loads_match_a_serial_load(self):
        docs = [K.to_dict() for K in example61_family().bodies]  # R^3, five members flat
        serial = [hull(np.array(d["vertices"])) for d in docs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(lambda: [body_from_dict(d) for d in docs]) for _ in range(4)]
                loaded = [f.result(timeout=60) for f in runs]
        finally:
            sys.setswitchinterval(interval)
        for bodies in loaded:
            for K, S in zip(bodies, serial, strict=True):
                assert np.array_equal(K.vertices, S.vertices) and K.dim_affine == S.dim_affine
                assert np.array_equal(K.facets.equations, S.facets.equations)
                assert not K.vertices.flags.writeable

    def test_same_bodies_as_one_at_a_time(self, rng):
        docs = [json.loads(json.dumps(K.to_dict()))
                for K in (random_polytope(rng, 3, 20), embedded_polytope(rng, 3, 2, 9))]
        docs += [{"dim": 3, "vertices": [[0.5, 0.5, 0.5]]}, docs[0]]
        fam = family_from_dict({"bodies": docs, "params": [0.0, 1.0, 2.0, 3.0]})
        for K, d in zip(fam.bodies, docs, strict=True):
            L = body_from_dict(d)
            assert np.array_equal(K.vertices, L.vertices) and K.dim_affine == L.dim_affine
            assert not K.vertices.flags.writeable
        # a member listed twice is loaded twice
        assert fam.bodies[3] is not fam.bodies[0]
        assert np.array_equal(fam.bodies[3].vertices, fam.bodies[0].vertices)

    def test_mixed_dimensions_load_body_by_body(self):
        # loading does not compare members; family checks report the mismatch
        docs = [{"vertices": [[0, 0], [1, 0], [0, 1]]}, {"vertices": [[0, 0, 0], [1, 0, 0]]},
                {"vertices": [1.0, 2.0]}]
        fam = family_from_dict({"bodies": docs, "params": [0.0, 1.0, 2.0]})
        assert [K.dim for K in fam.bodies] == [2, 3, 2]
        assert [K.dim_affine for K in fam.bodies] == [2, 1, 0]


class TestDiameter:
    def test_equals_broadcast_formula(self, rng):
        # 1 and 2 vertices, and 300 vertices in two row blocks
        for n in range(1, 6):
            for m in (1, 2, 9, 300):
                K = hull(rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3))
                V = K.vertices
                d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
                assert K.diameter() == float(np.sqrt(d2.max()))

    def test_memory_is_bounded(self):
        # all 3 000 points are extreme; the m x m x n temporary takes 216 MB
        K = ConvexBody(unit_directions(3, 3000, 1), 3)
        tracemalloc.start()
        try:
            d = K.diameter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert d == pytest.approx(2.0, abs=1e-3)


def _facet_bodies(rng):
    bodies = [random_polytope(rng, n, 20) for n in (2, 3, 4, 5)]
    bodies += [embedded_polytope(rng, 3, 2, 12), embedded_polytope(rng, 4, 3, 16), embedded_polytope(rng, 3, 1, 5)]
    bodies.append(hull([(0.3, -1.2, 2.0)]))
    return bodies


@pytest.fixture
def tight_lp(monkeypatch):
    """The LP oracle at a 1e-10 feasibility tolerance: HiGHS's default
    (1e-7) cannot tell a point 1e-7 outside a facet from one on it."""
    monkeypatch.setattr(
        oracles, "linprog",
        functools.partial(linprog, options={"primal_feasibility_tolerance": 1e-10}))


class TestFacets:
    def test_shape_and_incidence(self, rng):
        dims = []
        for K in _facet_bodies(rng):
            c, B, eqs, simplices = K.facets
            k = K.dim_affine
            dims.append((K.dim, k))
            assert B.shape == (k, K.dim) and eqs.shape[1] == K.dim + 1
            assert np.allclose(B @ B.T, np.eye(k), atol=1e-12)
            assert len(eqs) == len(simplices) and (k > 0 or len(eqs) == 0)
            scale = 1.0 + np.abs(K.vertices).max()
            A = eqs[:, :-1]
            assert np.allclose(np.linalg.norm(A, axis=1), 1.0, atol=1e-12)
            assert np.allclose(A @ B.T @ B, A, atol=1e-12)  # normals in span(basis)
            vals = K.vertices @ A.T + eqs[:, -1]
            assert np.all(vals <= 1e-9 * scale)
            tight = np.abs(vals) <= 1e-9 * scale
            assert np.all(tight.sum(axis=0) >= k)
            for j, s in enumerate(simplices):
                assert np.all(tight[s, j])
        assert dims == [(2, 2), (3, 3), (4, 4), (5, 5), (3, 2), (4, 3), (3, 1), (3, 0)]

    def test_full_dimensional_equations_are_qhulls(self, rng):
        # In the plane they are the ring's edges instead, in ring order.
        for n in (2, 3, 4):
            K = random_polytope(rng, n, 25)
            eqs = K.facets.equations
            if n == 2:
                assert np.abs(eqs - _ring_equations(K.vertices)).max() <= 1e-15
            else:
                assert np.array_equal(eqs, ConvexHull(K.vertices).equations)

    def test_hull_of_its_own_vertices_keeps_its_facets(self, rng, qhull_calls):
        bodies = [random_polytope(rng, n, 25) for n in (2, 3, 4)]
        bodies += [embedded_polytope(rng, 3, 2, 12), embedded_polytope(rng, 4, 3, 16)]  # flat
        for K in bodies:
            fresh = ConvexBody(K.vertices.copy(), K.dim_affine).facets
            if K.dim_affine == K.dim > 2:
                assert np.array_equal(fresh.equations, ConvexHull(K.vertices).equations)
            qhull_calls.clear()
            for L in (hull(K.vertices), body_from_dict(K.to_dict())):
                assert np.array_equal(L.vertices, K.vertices)
                assert np.array_equal(L.facets.simplices, fresh.simplices)
                assert np.array_equal(L.facets.equations, fresh.equations)
            # One per hull() call and none for their facets; hull() reads a
            # planar body's ring without Qhull, and its facets off that ring.
            assert len(qhull_calls) == (0 if K.dim == 2 else 2)
            M = hull(np.vstack([K.vertices, K.centroid()]))  # an interior input point
            assert "facets" not in vars(M)

    # Sets of _near_flat_sets whose reload keeps another vertex set and, for
    # the second, another affine dimension: Qhull on the kept vertices'
    # affine hull drops a vertex that it kept on all points' (CHANGES.md).
    RELOAD_KEEPS_OTHER_VERTICES = (554, 3757)

    @staticmethod
    def _near_flat_sets(count):
        """Seeded point sets in R^2..R^4, flat to within 1e-7.5 or less in
        one or two coordinates, half of them far from the origin."""
        rng = np.random.default_rng(0)
        for _ in range(count):
            n, m = int(rng.integers(2, 5)), int(rng.integers(4, 14))
            P = rng.standard_normal((m, n))
            P[:, -1] *= 10 ** rng.uniform(-9.5, -7.5)
            if rng.random() < 0.3 and n >= 3:
                P[:, -2] *= 10 ** rng.uniform(-9.5, -7.5)
            if rng.random() < 0.5:
                P += 10 ** rng.uniform(0, 4) * rng.standard_normal(n)
            yield P

    def test_affine_dimension_is_the_kept_vertices(self):
        # the facets' basis has dim_affine rows, and a reload reads the same
        # dimension, on every set but the named ones
        for i, P in enumerate(self._near_flat_sets(4000)):
            K = hull(P)
            assert len(K.facets.basis) == K.dim_affine, i
            L = hull(K.vertices)
            if i not in self.RELOAD_KEEPS_OTHER_VERTICES:
                assert L.dim_affine == K.dim_affine, i
                assert np.array_equal(L.vertices, K.vertices), i

    def test_lifted_square_with_interior_points(self):
        # The interior grid flattens the affine hull of all points to a
        # plane, while the four corners alone span R^3.
        g = np.linspace(0.05, 0.95, 10)
        corners = [(0, 0, 1e-8), (1, 0, -1e-8), (1, 1, 1e-8), (0, 1, -1e-8)]
        K = hull(np.vstack([corners, [(x, y, 0.0) for x in g for y in g]]))
        L = hull(K.vertices)
        assert K.dim_affine == L.dim_affine == len(K.facets.basis) == 3
        assert np.array_equal(K.vertices, L.vertices) and len(K.facets.equations) == 4

    def test_reloaded_example61_runs_qhull_once_per_member(self, qhull_calls):
        # five of its members are flat disks in R^3
        fam = example61_family()
        qhull_calls.clear()
        for K in fam.bodies:
            body_from_dict(K.to_dict()).facets
        assert len(qhull_calls) == len(fam)

    def test_cached_and_independent_of_construction(self, rng, qhull_calls):
        K = random_polytope(rng, 3, 20)
        qhull_calls.clear()
        assert K.facets is K.facets
        assert len(qhull_calls) == 1
        L = ConvexBody(K.vertices.copy(), K.dim_affine)
        assert np.array_equal(L.facets.equations, K.facets.equations)

    def test_depth_sign_matches_lp(self, rng, tight_lp):
        for K in _facet_bodies(rng):
            c, B, eqs, simplices = K.facets
            k = len(B)
            if k == 0:
                depth, off = rel_depth_many(K, [K.vertices[0], K.vertices[0] + 1.0])
                assert np.array_equal(depth, [0.0, 0.0]) and off[1] == pytest.approx(np.sqrt(3))
                continue
            Y = (K.vertices - c) @ B.T
            span = Y.max(axis=0) - Y.min(axis=0)
            pts = [c + (Y.min(axis=0) - 0.25 * span + 1.5 * span * rng.random(k)) @ B
                   for _ in range(20)]
            for j in rng.choice(len(eqs), size=min(6, len(eqs)), replace=False):
                p = K.vertices[simplices[j]].mean(axis=0)
                pts += [p - 1e-7 * eqs[j, :-1], p + 1e-7 * eqs[j, :-1]]
            depth, off = rel_depth_many(K, pts)
            assert np.all(off <= 1e-12 * (1.0 + np.abs(c).max()))
            for x, d in zip(pts, depth):
                assert abs(d) > 1e-9 and (d > 0) == in_convex_hull_lp(x, K.vertices)

    def test_segment_interval_endpoints_lp(self, rng, tight_lp):
        def bodies():
            for n in (2, 3, 4, 5):
                yield random_polytope(rng, n, 20)
            # flat polygons in R^3 and R^4, a flat 3-polytope in R^4 and in
            # R^5, segments in R^2 and R^3
            for n, k, npts in ((3, 2, 12), (4, 2, 10), (4, 3, 16), (5, 3, 16),
                               (2, 1, 5), (3, 1, 5)):
                yield embedded_polytope(rng, n, k, npts)

        for K in bodies():
            c, B = K.facets.center, K.facets.basis
            k = len(B)
            R = 2.0 * K.diameter()
            for _ in range(6):
                # a segment inside Aff(K) (any segment when K is full-dimensional)
                u = rng.standard_normal(k) @ B
                u /= np.linalg.norm(u)
                a, b = c - R * u + 0.1 * rng.standard_normal(k) @ B, c + R * u
                t0, t1 = segment_inside_interval(K, a, b)
                assert 0.0 < t0 < t1 < 1.0
                step = 1e-6 / np.linalg.norm(b - a)
                for t, beyond in ((t0, t0 - step), (t1, t1 + step)):
                    assert in_convex_hull_lp(a + t * (b - a), K.vertices)
                    assert not in_convex_hull_lp(a + beyond * (b - a), K.vertices)

    def test_segment_interval_crossing_aff(self, rng, tight_lp):
        """A segment crossing Aff(K) of a lower-dimensional K meets K only
        near the crossing parameter, and only when it crosses inside K."""
        bodies = [embedded_polytope(rng, n, k, npts) for n, k, npts in
                  ((3, 2, 12), (4, 2, 10), (4, 3, 16), (5, 3, 16), (2, 1, 5), (3, 1, 5))]
        bodies += [hull([(0.3, -1.2)]), hull([(0.3, -1.2, 2.0)])]
        for K in bodies:
            c, B = K.facets.center, K.facets.basis
            N = null_space(B) if len(B) else np.eye(K.dim)  # normals of Aff(K)
            far = 3.0 * (1.0 + K.diameter())
            for _ in range(3):
                nu = N @ rng.standard_normal(N.shape[1])
                nu /= np.linalg.norm(nu)
                tau = rng.standard_normal(len(B)) @ B  # zero for a point body
                v = 2.0 * (nu + 0.3 * tau)
                t_cross = rng.uniform(0.2, 0.8)
                p = c + 0.05 * rng.standard_normal(len(B)) @ B
                assert in_convex_hull_lp(p, K.vertices)
                a, b = p - t_cross * v, p + (1.0 - t_cross) * v
                t0, t1 = segment_inside_interval(K, a, b)
                assert abs(t0 - t_cross) <= 1e-11 and abs(t1 - t_cross) <= 1e-11
                assert 0.0 <= t1 - t0 <= 1e-11
                assert in_convex_hull_lp(a + t0 * (b - a), K.vertices)
                if len(B):  # the same segment moved in Aff(K) to cross it outside K
                    q = c + far * tau / np.linalg.norm(tau)
                    assert segment_inside_interval(K, q - t_cross * v, q + (1 - t_cross) * v) is None
        pt = bodies[-1].vertices[0]
        off = pt + [1e-6, 0.0, 0.0]
        assert segment_inside_interval(bodies[-1], pt, pt) == (0.0, 1.0)
        assert segment_inside_interval(bodies[-1], off, off) is None
        assert segment_inside_interval(bodies[-1], off - [0, 0, 1], off + [0, 0, 1]) is None


def _pair_corpus(rng):
    """Seeded body pairs in n = 2..5: nested, identical, concentric (tied
    vertex distances), unrelated, flat, segments and points."""
    pairs = []
    for n in (2, 3, 4, 5):
        for _ in range(3):
            A, B = nested_pair(rng, n, 12 + 2 * n)
            c = B.centroid()
            pairs += [(A, B), (B, B), (B, hull(c + 1.5 * (B.vertices - c))),
                      (B, random_polytope(rng, n, 10))]
        cube = hull(np.array(list(itertools.product((-1.0, 1.0), repeat=n))))
        seg, pt = hull(rng.standard_normal((2, n))), hull(rng.standard_normal(n))
        pairs += [(cube, cube.scale(0.5)), (B, seg), (seg, pt), (B, pt), (pt, pt), (seg, seg)]
    for n, k in ((3, 2), (4, 2), (4, 3)):
        F = embedded_polytope(rng, n, k, 10)
        c = F.centroid()
        pairs += [(F, hull(c + 0.6 * (F.vertices - c))), (F, random_polytope(rng, n, 12)),
                  (F, F.translate(0.3 * rng.standard_normal(n))),
                  (hull(F.vertices[:2]), F)]
    return pairs


def _near_facet_pairs(rng, tol):
    """(A, B, inside): B's vertices lie tol/2 inside or outside A's facets
    (inside=True), or one of them 1.5 tol outside (inside=False)."""
    out = []
    for A in [random_polytope(rng, n, 14) for n in (2, 3, 4, 5)] + [embedded_polytope(rng, 3, 2, 8)]:
        c, _, eqs, simplices = A.facets
        mids = np.array([A.vertices[s].mean(axis=0) for s in simplices])
        shift = 0.5 * tol * rng.choice([-1.0, 1.0], size=len(eqs))
        P = mids + shift[:, None] * eqs[:, :-1]
        out.append((A, hull(P), True))
        P[0] = mids[0] + 1.5 * tol * eqs[0, :-1]
        out.append((A, hull(P), False))
    return out


class TestFacetPruning:
    def test_hausdorff_matches_per_vertex_projection(self, rng):
        pairs = _pair_corpus(rng) + [(A, B) for tol in (1e-9, 1e-3, 0.1)
                                     for A, B, _ in _near_facet_pairs(rng, tol)]
        for A, B in pairs:
            ref = hausdorff_per_vertex(A, B)
            assert abs(hausdorff(A, B) - ref) <= 1e-12 * (1.0 + ref)

    def test_includes_verdicts_match_per_vertex_projection(self, rng):
        pairs = _pair_corpus(rng)
        verdicts = []
        for tol in (1e-9, 1e-3, 0.1):
            for A, B in pairs:
                for X, Y in ((A, B), (B, A)):
                    got = includes(X, Y, tol)
                    assert got == includes_per_vertex(X, Y, tol)
                    verdicts.append(got)
            for A, B, inside in _near_facet_pairs(rng, tol):
                assert includes(A, B, tol) == includes_per_vertex(A, B, tol) == inside
        assert any(verdicts) and not all(verdicts)

    def test_negative_tol_rejected(self, unit_square):
        with pytest.raises(InvalidInput):
            includes(unit_square, unit_square, -1e-9)
        with pytest.raises(InvalidInput):
            contains(unit_square, (0.5, 0.5), -1e-9)

    def test_contains_matches_projection(self, rng):
        verdicts = []
        for K, pts in _containment_corpus(rng):
            for p in pts:
                d = np.linalg.norm(project(K, p) - p)
                for tol in (1e-9, 1e-6):
                    verdicts.append(contains(K, p, tol))
                    assert verdicts[-1] == (d <= tol)
        assert any(verdicts) and not all(verdicts)

    def test_contains_at_interior_points_does_not_project(self, rng, call_counter):
        K = random_polytope(rng, 3, 20)
        X = rng.dirichlet(np.ones(K.nvertices), size=50) @ K.vertices
        calls = call_counter("geom_core", "_nearest")
        assert all(contains(K, x) for x in X)
        assert sum(len(Y) for _, Y in calls) == 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_includes_matches_lp_on_completed_chains(self, capsys, n):
        """includes on the vertices of nested members of completed `gen
        random` chains, both ways round, against LP feasibility."""
        verdicts = []
        for seed in (1, 2, 3):
            B = _gen_random_chain(capsys, seed, n)
            for inner, outer in itertools.chain(zip(B, B[1:]), ((K, B[-1]) for K in B[:-2])):
                c = outer.centroid()
                for X, Y in ((outer, inner), (inner, outer)):
                    want = all(in_convex_hull_lp(v - c, X.vertices - c) for v in Y.vertices)
                    verdicts.append(includes(X, Y))
                    assert verdicts[-1] == want, (n, seed)
        assert any(verdicts) and not all(verdicts)


def _gen_random_chain(capsys, seed, n=3):
    """The members of `gen random --n n` at this seed, nested and
    completed."""
    assert cli.main(["gen", "random", "--n", str(n), "--npoints", "16", "--levels", "4",
                     "--seed", str(seed)]) == 0
    return family_from_dict(json.loads(capsys.readouterr().out)).bodies


def _solid_pair_corpus(rng, capsys):
    """Pairs whose Hausdorff distance measures vertices against bodies of
    affine dimension 3: consecutive and top-nested members of two
    `gen random --n 3` chains, consecutive members of example 6.1 (solids
    and flat disks), flat 3-polytopes in R^4 and R^5, and facet-triangle
    centroids and vertices moved +/-1e-16 off a body's facets."""
    pairs = []
    for seed in (1, 2):
        B = _gen_random_chain(capsys, seed)
        pairs += list(zip(B, B[1:])) + [(K, B[-1]) for K in B[:-2]]
    E = example61_family().bodies
    pairs += list(zip(E, E[1:]))
    for n in (4, 5):
        F = embedded_polytope(rng, n, 3, 12)
        c = F.centroid()
        pairs += [(F, hull(c + 0.6 * (F.vertices - c))), (F, random_polytope(rng, n, 12)),
                  (F, F.translate(0.3 * rng.standard_normal(n))), (F, embedded_polytope(rng, n, 3, 9))]
    for _ in range(3):
        A = random_polytope(rng, 3, 30)
        _, _, eqs, S = A.facets
        for shift in (1e-16, -1e-16):
            pairs.append((A, hull(A.vertices[S].mean(axis=1) + shift * eqs[:, :-1])))
            sign = rng.choice([-1.0, 1.0], size=(A.nvertices, 1))
            pairs.append((A, hull(A.vertices + shift * sign * (A.vertices - A.centroid()))))
    return pairs


class TestSolidHausdorff:
    """hausdorff with a body of affine dimension 3 on the far side is read
    off its facet triangles in closed form, with no least-distance
    program."""

    def test_matches_per_vertex_projection(self, rng, capsys, call_counter):
        pairs = _solid_pair_corpus(rng, capsys)
        assert sum(A.dim_affine == 3 and B.dim_affine == 3 for A, B in pairs) >= 40
        solver = call_counter("geom_core", "_nnls")
        got = []
        for A, B in pairs:
            runs = len(solver)
            got.append(hausdorff(A, B))
            # _nnls runs only for the solids of R^4 and R^5
            assert len(solver) == runs or max(A.dim_affine, B.dim_affine) >= 4
        assert solver
        for (A, B), d in zip(pairs, got):
            ref = hausdorff_per_vertex(A, B)
            assert abs(d - ref) <= 1e-12 * (1.0 + ref)

    def test_cubes_far_from_the_origin(self):
        # A nearest point formed at 1e7 is rounded to the ulp there, 1.9e-9,
        # so the reference is taken on the same cubes moved back to the
        # origin, a translation that is exact for these coordinates.
        far = np.array([1e7, -5e6, 3e6])
        cube = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        C = hull(far + cube)
        others = [far + 0.5 * cube, far + 0.75 * cube + [0.5, -0.25, 0.125],
                  far + cube + [0.25, 0.5, 3.0], far + 4.0 * np.vstack([np.zeros(3), np.eye(3)])]
        for P in others:
            B = hull(P)
            ref = hausdorff_per_vertex(C.translate(-far), B.translate(-far))
            assert abs(hausdorff(C, B) - ref) <= 1e-12 * (1.0 + ref)
            assert abs(hausdorff(B, C) - ref) <= 1e-12 * (1.0 + ref)

    def test_joggled_bodies_with_sliver_triangles(self, rng, joggled):
        # QJ's facet equations belong to the joggled points, not to the
        # stored vertices; the reference is face enumeration on the latter.
        bodies = joggled_bodies(rng, joggled)
        T = bodies[1].vertices[bodies[1].facets.simplices]
        E, F = T[:, 1] - T[:, 0], T[:, 2] - T[:, 0]
        gram = (E * E).sum(axis=1) * (F * F).sum(axis=1) - ((E * F).sum(axis=1)) ** 2
        assert gram.min() <= 1e-20  # a sliver: three collinear grid points
        for S in bodies:
            c = S.centroid()
            for B in (hull(c + 0.7 * (S.vertices - c)), S.translate(0.1 * rng.standard_normal(3)),
                      random_polytope(rng, 3, 12)):
                ref = max(np.linalg.norm(nearest_point_faces(Y.vertices, X.vertices) - X.vertices,
                                         axis=1).max() for X, Y in ((S, B), (B, S)))
                assert abs(hausdorff(S, B) - ref) <= 1e-12 * (1.0 + ref)
                assert abs(hausdorff(S, B) - hausdorff_per_vertex(S, B)) <= 1e-12 * (1.0 + ref)

    def test_project_onjoggled_bodies(self, rng, joggled):
        """project of the other body's vertices onto a body built under QJ
        is exact on its stored vertices, one vertex at a time (hausdorff is
        checked in the test above): a least-distance program on the joggled
        facet equations was off by up to 4.2e-11 on these bodies."""
        count = 0
        for S in joggled_bodies(rng, joggled):
            c = S.centroid()
            for B in (hull(c + 0.7 * (S.vertices - c)), S.translate(0.1 * rng.standard_normal(3)),
                      random_polytope(rng, 3, 12)):
                X = B.vertices
                for x, o in zip(X, nearest_point_faces(S.vertices, X)):
                    want = np.linalg.norm(o - x)
                    assert abs(np.linalg.norm(project(S, x) - x) - want) <= 1e-12 * (1.0 + want)
                    count += 1
        assert count > 100


def _containment_corpus(rng):
    """(K, points): full bodies in R^1..R^5, flat bodies and point bodies;
    their vertices (also 1e-10 beyond, away from the centroid), edge
    midpoints, facet centroids (also 1e-10 inside and outside the facet)
    and centroid, each of these also 1e-10 off Aff(K), and points far
    away."""
    bodies = [random_polytope(rng, n, 12) for n in (1, 2, 3, 4, 5)]
    bodies += [embedded_polytope(rng, n, k, 9) for n, k in
               ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 3))]
    bodies += [hull(rng.standard_normal((1, n))) for n in (1, 3)]
    out = []
    for K in bodies:
        c, B, eqs, simplices = K.facets
        V = K.vertices
        pts = [V, V.mean(axis=0)[None]]
        out_dir = V - V.mean(axis=0)
        r = np.linalg.norm(out_dir, axis=1, keepdims=True)
        pts.append(V + 1e-10 * np.divide(out_dir, r, out=np.zeros_like(V), where=r > 0))
        if len(eqs):
            pts += [np.array([V[s[:2]].mean(axis=0) for s in simplices]),
                    np.array([V[s].mean(axis=0) for s in simplices])]
            mids = pts[-1]
            pts += [mids + 1e-10 * eqs[:, :-1], mids - 1e-10 * eqs[:, :-1]]
        N = null_space(B).T if len(B) else np.eye(K.dim)  # normals of Aff(K)
        if len(N):
            base = np.vstack(pts)
            pts += [base + 1e-10 * N[rng.integers(len(N), size=len(base))]]
        far = rng.standard_normal((5, K.dim))
        far *= 10.0 * (1.0 + K.diameter()) / np.linalg.norm(far, axis=1, keepdims=True)
        pts.append(c + far)
        out.append((K, np.vstack(pts)))
    return out


def test_only_geom_core_references_convexhull():
    src = pathlib.Path(geom_core.__file__).parent
    users = sorted(p.name for p in src.glob("*.py") if "ConvexHull" in p.read_text())
    assert users == ["geom_core.py"]


def _ring_corpus(rng):
    """(label, planar point list) pairs for hull()'s ring reading, keyed by
    the kind of input; see TestRingHull."""
    cases = []
    for _ in range(120):
        V = random_polytope(rng, 2, int(rng.integers(3, 60)), scale=10.0 ** rng.uniform(-3, 3)).vertices
        cases.append(("random", np.roll(V, -int(rng.integers(len(V))), axis=0)))
    for _ in range(40):
        V = random_polytope(rng, 2, 20).vertices
        i = int(rng.integers(len(V)))
        for shift in (0.0, 1e-12, 5e-10, 3e-9, 1e-8):
            dup = V[i] + shift * rng.standard_normal(2)
            cases.append(("near-duplicate", np.insert(V, i + 1, dup, axis=0)))
        a, b = V[i], V[(i + 1) % len(V)]
        out = np.array([b[1] - a[1], a[0] - b[0]]) / np.linalg.norm(b - a)
        for bump in (0.0, 1e-16, 1e-13, 1e-10, 1e-8, 1e-6):
            mid = a + rng.uniform(0.2, 0.8) * (b - a) + bump * out
            cases.append(("near-collinear", np.insert(V, i + 1, mid, axis=0)))
    for size in (1.0, 1e-3):
        for d in (5e-10, 2e-9):
            # A thin rhombus and a thin pentagon whose non-adjacent vertices
            # (0, -d/2) and (0, d/2), or (0, 0) and (0, d), are within d.
            cases.append(("spike", np.array([[0, -d / 2], [size, 0], [0, d / 2], [-size, 0]])))
            cases.append(("spike", np.array(
                [[0, 0], [10 * size, 0], [5 * size, 0.6 * d], [0, d], [-5 * size, 0.5 * d]])))
    ang = 2 * np.pi * np.arange(5) / 5
    star = np.column_stack([np.cos(ang), np.sin(ang)])[[0, 2, 4, 1, 3]]
    cases.append(("pentagram", star))
    cases.append(("pentagram", np.vstack([star, star])))
    for _ in range(20):
        cases.append(("clockwise", random_polytope(rng, 2, 15).vertices[::-1]))
    for w in (1e-14, 1e-11, 1e-9, 1e-8, 3e-8, 1e-7):
        for length in (1.0, 1e3):
            cases.append(("sliver", np.array([[0, 0], [length, 0], [length / 2, w * length]])))
            cases.append(("sliver", np.array(
                [[0, 0], [length, 0], [length, w * length], [0, w * length]])))
    for P in ([[0.0, 0.0], [1.0, 1.0]], [[2.0, 3.0]], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]):
        cases.append(("sliver", np.array(P)))  # a segment, a point, collinear points
    for off in (1e3, 1e6, 1e8):
        for _ in range(10):
            V = random_polytope(rng, 2, 25).vertices
            cases.append(("far", V + off * rng.standard_normal(2)))
    # Thin triangles, rectangles and hexagons, turned and moved up to 1e5
    # from the origin, whose smaller singular value over the larger spans
    # _RANK_RTOL = 1e-8: rank_cut's relative cut.
    for off in (0.0, 1e3, 1e5):
        length = max(1e3, off)
        for w in np.geomspace(3e-9, 1e-7, 9):
            a = rng.uniform(0.0, 2.0 * np.pi)
            turn = length * np.array([[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]])
            u = rng.standard_normal(2)
            for Q in ([[0, 0], [1, 0], [0.5, w]], [[0, 0], [1, 0], [1, w], [0, w]],
                      [[0, 0], [0.3, -w / 2], [0.7, -w / 2], [1, 0], [0.7, w / 2], [0.3, w / 2]]):
                cases.append(("thin", np.array(Q) @ turn + off * u / np.linalg.norm(u)))
    return cases


def _qhull_ring(P):
    """Qhull's extreme points of the deduplicated planar points P,
    counterclockwise from the lexicographically smallest one."""
    P = dedup_points(P)
    V = P[ConvexHull(P).vertices]
    return np.roll(V, -int(np.lexsort((V[:, 1], V[:, 0]))[0]), axis=0)


class TestRingHull:
    def test_equals_hull_or_declines(self, rng, qhull_calls):
        read = {}
        for label, P in _ring_corpus(rng):
            qhull_calls.clear()
            K = hull(P)
            clear = any(geom_core._ring_margin(Q) > 0.0 and len(geom_core.affine_basis(Q)[1]) == 2
                        for Q in (P, P[::-1]))
            if K.dim_affine == 2:
                assert len(qhull_calls) == (0 if clear else 1), label
                assert np.array_equal(K.vertices, _qhull_ring(P)), label
            else:
                assert not clear and not qhull_calls, label
            read.setdefault(label, []).append(clear)
        assert all(read["random"] + read["clockwise"])
        assert not any(read["spike"] + read["pentagram"])
        for label in ("near-duplicate", "near-collinear", "sliver", "far", "thin"):
            assert 0 < sum(read[label]) < len(read[label]), label

    def test_rank_bound_skips_the_svd_on_clear_cut_rings(self, rng, monkeypatch):
        # A ring read off as it is whose smaller singular value is 32 times
        # rank_cut or more is proved to span the plane without an SVD;
        # nearer the cut the SVD decides, as test_equals_hull_or_declines
        # checks.
        real = geom_core.affine_basis
        svds = []
        monkeypatch.setattr(geom_core, "affine_basis", lambda P: svds.append(1) or real(P))
        clear_cut, opened = 0, 0
        for label, P in _ring_corpus(rng):
            rings = [Q for Q in (P, P[::-1]) if geom_core._ring_margin(Q) > 0.0]
            if not rings:
                continue
            s = np.linalg.svd(rings[0] - rings[0].mean(axis=0), compute_uv=False)
            cut = geom_core.rank_cut(s[0], np.abs(P).max(), len(P))
            svds.clear()
            K = hull(P)
            if s[1] >= 32.0 * cut:
                clear_cut += 1
                assert not svds and K.dim_affine == 2, label
            elif svds and s[1] > cut:
                opened += 1
                assert K.dim_affine == 2 and len(svds) == 1, label
        assert clear_cut > 150 and opened > 5

    def test_stored_planar_body_loads_without_qhull(self, rng, qhull_calls):
        bodies = [random_polytope(rng, 2, 30) for _ in range(5)] + [disk_polygon(2.0)]
        for K in bodies:
            K.facets
            qhull_calls.clear()
            L = body_from_dict(K.to_dict())
            assert not qhull_calls
            assert np.array_equal(L.vertices, K.vertices) and L.dim_affine == 2
            assert np.array_equal(L.facets.equations, K.facets.equations)
            assert not qhull_calls  # facets are read off the ring


def _ring_equations(V):
    """Facet rows of the counterclockwise polygon V, edge by edge, in
    complex arithmetic: the outer unit normal -i e / |e| of each edge e and
    its offset."""
    z = V[:, 0] + 1j * V[:, 1]
    e = np.roll(z, -1) - z
    nrm = -1j * e / np.abs(e)
    return np.column_stack([nrm.real, nrm.imag, -(nrm.conj() * z).real])


def _assert_ccw_ring_facets(K, label):
    """K's vertices form a strictly convex counterclockwise ring, and its
    facets are Qhull's facets of K.vertices, matched row for row."""
    V = K.vertices
    E = np.roll(V, -1, axis=0) - V
    turns = E[:, 0] * np.roll(E[:, 1], -1) - E[:, 1] * np.roll(E[:, 0], -1)
    assert np.all(turns > 0.0), label
    eqs, H = K.facets.equations, ConvexHull(V).equations
    match = np.argmax(eqs[:, :2] @ H[:, :2].T, axis=1)
    assert len(eqs) == len(H) and sorted(match) == list(range(len(H))), label
    assert np.abs(eqs[:, :2] - H[match, :2]).max() <= 1e-12, label
    assert np.abs(eqs[:, 2] - H[match, 2]).max() <= 1e-12 * (1.0 + np.abs(V).max()), label


def _planar_builds(rng):
    """(label, planar body) from every way of building one."""
    out = []
    for scale, off in ((1.0, 0.0), (1e-3, 0.0), (1e3, 0.0), (1.0, 1e6)):
        P = scale * rng.standard_normal((30, 2)) + off * rng.standard_normal(2)
        K = hull(P)
        out += [("hull", K), ("rotated ring", hull(np.roll(K.vertices, 3, axis=0))),
                ("body_from_dict", body_from_dict(K.to_dict()))]
        out += [("prefix_hulls", B) for B in prefix_hulls(Polyline.make(P))[3:]]
    for _ in range(5):
        A, B = random_polytope(rng, 2, 12), random_polytope(rng, 2, 12)
        out += [("clip", _intersect_bodies(A, B.translate(0.2 * rng.standard_normal(2)))),
                ("minkowski ring", outer_parallel(A, 0.3 * rng.random())),
                ("translate", A.translate(rng.standard_normal(2)))]
    return out


class TestRingFacets:
    def test_every_planar_build_is_a_ccw_ring_with_qhulls_facets(self, rng):
        built = _planar_builds(rng)
        assert {label for label, _ in built} == {
            "hull", "rotated ring", "body_from_dict", "prefix_hulls", "clip", "minkowski ring",
            "translate"}
        for label, K in built:
            assert K.dim_affine == 2
            _assert_ccw_ring_facets(K, label)

    def test_rows_equal_the_rolled_edge_formula(self, rng):
        for label, K in _planar_builds(rng):
            V = K.vertices
            E = np.roll(V, -1, axis=0) - V
            N = np.column_stack([E[:, 1], -E[:, 0]]) / np.sqrt((E * E).sum(axis=1))[:, None]
            i = np.arange(len(V))
            assert np.array_equal(K.facets.equations,
                                  np.column_stack([N, -(N * V).sum(axis=1)])), label
            assert np.array_equal(K.facets.simplices, np.column_stack([i, np.roll(i, -1)])), label


def _flat_corpus(rng):
    """Bodies of affine dimension 0, 1 and 2 in R^1..R^4: points, segments,
    random polygons (also 1e6 from the origin) and polygons embedded in R^3
    and R^4."""
    bodies = []
    for n in (1, 2, 3, 4):
        bodies += [hull(rng.standard_normal((1, n))), hull(rng.standard_normal((2, n)))]
    bodies += [hull([[1e6], [1e6 + 2.5]]), hull([(1e6, 1e6), (1e6 + 1.0, 1e6 + 3.0)])]
    for _ in range(6):
        m = int(rng.integers(3, 40))
        bodies.append(random_polytope(rng, 2, m, scale=10.0 ** rng.uniform(-2, 2)))
        bodies.append(hull(1e6 * rng.standard_normal(2) + rng.standard_normal((m, 2))))
    for n in (3, 4):
        for npts in (3, 8, 20):
            bodies.append(embedded_polytope(rng, n, 2, npts))
        bodies.append(embedded_polytope(rng, n, 1, 5))
        F = embedded_polytope(rng, n, 2, 10)
        bodies.append(F.translate(1e6 * rng.standard_normal(n)))
    return bodies


def _flat_queries(rng, K):
    """Points inside K, at facet depth +-1e-16 and -1e-10, off Aff(K) and
    far away."""
    c, B, eqs, simplices = K.facets
    V = K.vertices
    inside = rng.dirichlet(np.ones(len(V)), size=6) @ V
    pts = [V, inside]
    if len(eqs):
        mids = np.array([V[s].mean(axis=0) for s in simplices])
        pts += [mids + 1e-16 * eqs[:, :-1], mids - 1e-16 * eqs[:, :-1]]
        pts += [mids + 1e-10 * eqs[:, :-1], mids + 0.3 * (1.0 + K.diameter()) * eqs[:, :-1]]
    N = null_space(B).T if len(B) else np.eye(K.dim)  # normals of Aff(K)
    if len(N):
        base = np.vstack(pts)
        pts.append(base + rng.standard_normal((len(base), len(N))) @ N)
    far = rng.standard_normal((6, K.dim))
    far *= 10.0 * (1.0 + K.diameter()) / np.linalg.norm(far, axis=1, keepdims=True)
    pts.append(V.mean(axis=0) + far)
    return np.vstack(pts)


def _plane_distance(K, p):
    """dist(p, K) for K of affine dimension <= 2, in coordinates of Aff(K)
    from V[0]: the in-plane distance (oracles.polygon_membership and
    segment_distance) and the off-plane part."""
    V = K.vertices
    y, W = p - V[0], V - V[0]
    if len(V) == 1:
        return float(np.linalg.norm(y))
    _, _, Ut = np.linalg.svd(W)
    U = Ut[:min(K.dim_affine, 2)]
    yp, Wp = y @ U.T, W @ U.T
    off = np.linalg.norm(y - yp @ U)
    if len(U) == 1:
        d = oracles.segment_distance(yp[None], Wp.min(axis=0), Wp.max(axis=0))[0]
        return float(np.hypot(off, d))
    ring = Wp[np.argsort(np.arctan2(*(Wp - Wp.mean(axis=0)).T[::-1]))]  # counterclockwise
    if oracles.polygon_membership(ring, yp[None])[0]:
        return float(off)
    d = min(oracles.segment_distance(yp[None], a, b)[0]
            for a, b in zip(ring, np.roll(ring, -1, axis=0)))
    return float(np.hypot(off, d))


class TestClosedFormProjection:
    def test_matches_plane_oracle_without_iteration(self, rng, call_counter):
        """Bodies of affine dimension <= 2 against the plane oracle, and
        3-polytopes against face enumeration: closed forms, no _nnls run."""
        solver = call_counter("geom_core", "_nnls")
        count = 0
        for K in _flat_corpus(rng):
            assert K.dim_affine <= 2
            c = K.vertices.mean(axis=0)
            for p in _flat_queries(rng, K):
                q = project(K, p)
                want = _plane_distance(K, p)
                assert abs(np.linalg.norm(q - p) - want) <= 1e-12 * (1.0 + np.linalg.norm(p))
                assert in_convex_hull_lp(q - c, K.vertices - c)
                count += 1
        solids = [K for K in _solid_corpus(rng) if K.dim_affine == 3]
        assert {K.dim for K in solids} == {3, 4}
        for K in solids:
            c = K.vertices.mean(axis=0)
            P = _solid_queries(rng, K)
            for p, o in zip(P, nearest_point_faces(K.vertices, P)):
                q = project(K, p)
                want = np.linalg.norm(o - p)
                assert abs(np.linalg.norm(q - p) - want) <= 1e-12 * (1.0 + np.linalg.norm(p - c))
                assert in_convex_hull_lp(q - c, K.vertices - c)
                count += 1
        assert count > 2000 and not solver


def _solid_corpus(rng):
    """Bodies of affine dimension 3 to 5 in R^3..R^5: random bodies, unit
    cubes, the solids of example 6.1, a 3-polytope in R^4 and a cube 1e7
    from the origin."""
    bodies = [random_polytope(rng, n, m) for n in (3, 4, 5) for m in (n + 2, 12, 24)]
    bodies += [hull(list(itertools.product((0.0, 1.0), repeat=n))) for n in (3, 4, 5)]
    bodies += [K for K in example61_family().bodies if K.dim_affine == 3][::2]
    bodies += [embedded_polytope(rng, 4, 3, 12),
               hull(1e7 + np.array(list(itertools.product((0.0, 1.0), repeat=3))))]
    return bodies


def _solid_queries(rng, K):
    """Points at facet depth +-1e-16, 1e-11, 1e-8 and 1e-3, next to
    vertices, inside, and 1e3 to 1e6 diameters away; for a flat K, the
    same points moved off Aff(K) too."""
    c, B, eqs, simplices = K.facets
    V = K.vertices
    rows = rng.choice(len(eqs), size=min(len(eqs), 10), replace=False)
    mids = np.array([V[s].mean(axis=0) for s in simplices[rows]])
    pts = [mids + d * eqs[rows, :-1] for d in (1e-16, 1e-11, 1e-8, 1e-3) for d in (d, -d)]
    near = V[rng.choice(len(V), size=min(len(V), 10), replace=False)]
    u = rng.standard_normal(near.shape)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts += [near + 1e-9 * u, near + 1e-3 * u]
    pts += [rng.dirichlet(np.ones(len(V)), size=4) @ V, V.mean(axis=0)[None]]
    far = rng.standard_normal((8, K.dim))
    far *= (K.diameter() * 10.0 ** np.repeat(np.arange(3, 7), 2) / np.linalg.norm(far, axis=1))[:, None]
    pts.append(V.mean(axis=0) + far)
    P = np.vstack(pts)
    if K.dim_affine < K.dim:
        N = null_space(B).T
        P = np.vstack([P, P + rng.standard_normal((len(P), len(N))) @ N])
    return P


class TestProjectionOracle:
    def test_matches_face_enumeration(self, rng):
        count = 0
        for K in _solid_corpus(rng):
            assert 3 <= K.dim_affine <= K.dim <= 5
            c = K.vertices.mean(axis=0)
            P = _solid_queries(rng, K)
            bound = 1e-12 if K.dim_affine == 3 else 1e-10
            for p, o in zip(P, oracles.nearest_point_faces(K.vertices, P)):
                q = project(K, p)
                err = abs(np.linalg.norm(q - p) - np.linalg.norm(o - p))
                assert err <= bound * (1.0 + np.linalg.norm(p - c)), (K, p, err)
                assert in_convex_hull_lp(q - c, K.vertices - c)
                count += 1
        assert count > 1000

    def test_thin_slabs_in_high_dimension(self, rng):
        """Slabs 1e-3 thick in R^6..R^8 (hundreds to thousands of facets,
        nearly parallel at the vertices): points 1e-6 from a vertex and 1e3
        to 1e8 diameters away project into K, no farther than the nearest
        vertex."""
        for n in (6, 7, 8):
            K = hull(rng.standard_normal((4 * n + 4, n)) * np.r_[np.ones(n - 1), 1e-3])
            V, c = K.vertices, K.vertices.mean(axis=0)
            u = rng.standard_normal((40, n))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            far = K.diameter() * 10.0 ** rng.uniform(3, 8, 40)
            P = np.vstack([V[rng.integers(len(V), size=40)] + 1e-6 * u, c + far[:, None] * u])
            for p in P:
                q = project(K, p)
                assert np.linalg.norm(q - p) <= np.linalg.norm(V - p, axis=1).min() * (1.0 + 1e-12)
                assert in_convex_hull_lp(q - c, V - c)

    def test_long_boxes_near_a_vertex(self, rng):
        """Rotated boxes 1e4 long in R^3..R^5: from points within 3e-6 of a
        vertex, the far end's facets (residual ~ -1e4) must not hide the
        facets that bind."""
        for n in (3, 4, 5):
            box = np.array(list(itertools.product((0.0, 1.0), repeat=n)))
            box[:, 0] *= 1e4
            R, _ = np.linalg.qr(rng.standard_normal((n, n)))
            K = hull(box @ R.T)
            P = rng.uniform(-1e-6, 1e-6, (100, n))
            P[np.arange(100), 1 + rng.integers(n - 1, size=100)] = 3e-6
            for p in P @ R.T:
                q = project(K, p)
                assert np.linalg.norm(q - p) <= np.linalg.norm(p) * (1.0 + 1e-12)


class TestOneDimensional:
    def test_hausdorff_and_includes_on_segments(self):
        A = hull([[0.0], [1.0]])
        assert hausdorff(A, hull([[0.25], [2.0]])) == pytest.approx(1.0)
        assert hausdorff(A, hull([[-0.5], [1.0]])) == pytest.approx(0.5)
        assert hausdorff(A, hull([[3.0]])) == pytest.approx(3.0)
        assert includes(A, hull([[0.2], [0.8]]))
        assert includes(A, A)
        assert not includes(A, hull([[0.5], [1.1]]))
        assert not includes(hull([[0.5]]), A)
        assert includes(A, hull([[1.0]]))


def _dedup_kdtree(P, tol=TAU_PT):
    """The k-d tree deduplication dedup_points replaced: pairs within tol in
    the order query_pairs returns them."""
    drop = np.zeros(len(P), dtype=bool)
    for i, j in cKDTree(P).query_pairs(tol, output_type="ndarray"):
        lo, hi = (i, j) if i < j else (j, i)
        if not drop[lo]:
            drop[hi] = True
    return P[~drop]


def _dedup_corpus(rng):
    """Seeded (P, has_chain) in R^1..R^8 with 1..8 points: planted
    near-duplicates (0.5 tol away), clusters (within 0.4 tol of a centre),
    chains (steps of 0.7 tol, so the ends are 1.4 tol apart) and points
    1.5 tol away, shuffled.  has_chain: some point is within tol of two
    others."""
    out = []
    for n in range(1, 9):
        for _ in range(250):
            m = int(rng.integers(1, 9))
            P = list(rng.standard_normal((int(rng.integers(1, m + 1)), n)))
            while len(P) < m:
                base, u = P[int(rng.integers(len(P)))], rng.standard_normal(n)
                u /= np.linalg.norm(u)
                kind = rng.integers(4)
                if kind == 0:
                    P.append(base + 0.5 * TAU_PT * u)
                elif kind == 1:
                    P += [base + 0.4 * TAU_PT * rng.random() * v / np.linalg.norm(v)
                          for v in rng.standard_normal((3, n))]
                elif kind == 2:
                    P += [base + 0.7 * TAU_PT * u, base + 1.4 * TAU_PT * u]
                else:
                    P.append(base + 1.5 * TAU_PT * u)
            P = np.array(P[:m])[rng.permutation(m)]
            close = cdist(P, P) <= TAU_PT
            out.append((P, bool((close.sum(axis=1) > 2).any())))
    return out


class TestDedupPoints:
    def test_matches_bruteforce_oracle(self, rng):
        corpus = _dedup_corpus(rng)
        assert sum(chain for _, chain in corpus) > 100
        for P, _ in corpus:
            assert np.array_equal(dedup_points(P), dedup_bruteforce(P, TAU_PT))

    def test_matches_bruteforce_in_small_blocks_along_every_direction(self, rng, monkeypatch):
        # Every sweep direction is tried and at most 4 pairs are measured at once.
        monkeypatch.setattr(geom_core, "_SWEEP_PAIRS", 0)
        monkeypatch.setattr(geom_core, "_PAIR_BLOCK", 4)
        for P, _ in _dedup_corpus(rng):
            assert np.array_equal(dedup_points(P), dedup_bruteforce(P, TAU_PT))

    def test_matches_kdtree_without_chains(self, rng):
        corpus = _dedup_corpus(rng)
        for P, chain in corpus:
            if not chain:
                assert np.array_equal(dedup_points(P), _dedup_kdtree(P))
        assert sum(not chain and len(dedup_points(P)) < len(P) for P, chain in corpus) > 100

    def test_chain_keeps_both_ends(self):
        u = np.array([0.6, 0.8])
        P = np.array([[1.0, 2.0]]) + np.array([[0.0], [0.7], [1.4]]) * TAU_PT * u
        assert np.array_equal(dedup_points(P), P[[0, 2]])
        assert np.array_equal(dedup_points(P[::-1]), P[[2, 0]])

    def test_plane_and_lattice_are_fast(self, rng):
        plane = np.column_stack([np.zeros(1000), rng.standard_normal((1000, 2))])
        lattice = np.array(list(itertools.product(range(12), repeat=3)), dtype=float)
        for P in (plane, lattice):
            copies = np.vstack([P, P[rng.integers(len(P), size=200)]])
            t0 = time.perf_counter()
            kept = dedup_points(copies)
            assert time.perf_counter() - t0 < 0.25
            assert np.array_equal(kept, P)


    @staticmethod
    def _measured(monkeypatch):
        """Sizes of the batches of pairs dedup_points measures."""
        sizes, real = [], geom_core._sq_dists

        def counted(X, Y):
            sizes.append(len(X))
            return real(X, Y)

        monkeypatch.setattr(geom_core, "_sq_dists", counted)
        return sizes

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hyperplane_across_the_sweep_switches_direction(self, rng, monkeypatch, n):
        # 600 points on the hyperplane orthogonal to the first sweep direction
        # share one window of it: 180 000 pairs along that direction.
        d = geom_core._SWEEP[n - 1][0]
        Y = rng.standard_normal((600, n))
        Y -= (Y @ d)[:, None] * d
        P = np.vstack([Y, Y[rng.integers(600, size=50)]])
        sizes = self._measured(monkeypatch)
        assert np.array_equal(dedup_points(P), Y)
        assert sum(sizes) <= geom_core._SWEEP_PAIRS * len(P)

    def test_crowded_windows_are_measured_in_blocks(self, rng, monkeypatch):
        # A third of the points on a hyperplane orthogonal to each sweep
        # direction of R^3: every direction has 60 000 pairs in its window.
        groups = []
        for d in geom_core._SWEEP[2]:
            Y = rng.standard_normal((400, 3))
            groups.append(Y - (Y @ d)[:, None] * d)
        Y = np.vstack(groups)
        P = np.vstack([Y, Y[rng.integers(len(Y), size=50)]])
        monkeypatch.setattr(geom_core, "_PAIR_BLOCK", 5000)
        sizes = self._measured(monkeypatch)
        assert np.array_equal(dedup_points(P), Y)
        assert sum(sizes) > 60000 and max(sizes) <= 5000


class TestDistances:
    def test_equal_to_cdist(self, rng):
        for n in range(1, 9):
            X, Y = rng.standard_normal((30, n)) * 10.0, rng.standard_normal((20, n))
            assert np.array_equal(distances(X, Y), cdist(X, Y))

    def test_nearest_vertex_equal_to_kdtree(self, rng):
        # In R^8 a k-d tree sums the squares in blocks of four.
        for n in range(1, 8):
            X, Y = rng.standard_normal((30, n)) * 10.0, rng.standard_normal((20, n))
            assert np.array_equal(distances(X, Y).min(axis=1), cKDTree(Y).query(X)[0])
