import itertools
import json
import math

import numpy as np
import pytest

from descent_geom import cones, geom_core
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
    PolyCone,
    sector_angular_hausdorff,
    sector_integral_exact,
    sector_integral_lower_bound,
    sphere_measure,
    tangent_cone,
)
from descent_geom.descent import disk_family
from descent_geom.mean_width import first_variation
from descent_geom.geom_core import (
    body_from_dict,
    contains,
    default_grid,
    hull,
    support,
    support_many,
    unit_directions,
)

from .conftest import (
    cli_call,
    disk_polygon,
    embedded_polytope,
    joggled_bodies,
    load_workloads,
    random_polytope,
)
from .oracles import (
    in_cone_lp,
    nnls_kkt_gap,
    nnls_scipy,
    planar_sector_hausdorff_sampling,
    sector_flux_axis_quad,
    sector_flux_offaxis_quad,
)


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


def _lp_mask(C, P):
    """Membership by LP feasibility on the generators, independent of the
    rows that contains and member_mask read."""
    return np.array([in_cone_lp(x, C.generators) for x in P])


class TestConeOracles:
    def test_normal_cone(self, rng):
        for K, q in _cone_corpus(rng):
            N = normal_cone(K, q)
            assert np.all(normal_cone_mask(K, q, N.generators))
            P = _probes(rng, K.dim, N.generators)
            want = normal_cone_mask(K, q, P)
            assert np.array_equal(_lp_mask(N, P), want)
            assert np.array_equal(N.member_mask(P), want)
            # unit probes: tol * (1 + |x|) is the mask's tolerance
            assert np.array_equal([in_normal_cone(K, q, x, 0.5e-9) for x in P], want)

    def test_tangent_cone(self, rng):
        # the definition: T_K(q) is the cone spanned by K - q
        for K, q in _cone_corpus(rng):
            T = tangent_cone(K, q)
            P = _probes(rng, K.dim, T.generators)[::6]
            want = np.array([in_cone_lp(x, K.vertices - q) for x in P])
            assert np.array_equal(_lp_mask(T, P), want)
            assert np.array_equal(T.member_mask(P), want)

    def test_halfspace_cut(self, rng):
        for K, q in _cone_corpus(rng):
            N = normal_cone(K, q)
            for u in (rng.standard_normal(K.dim), q - K.vertices.mean(axis=0) + 0.1):
                I = cone_intersect_halfspace(N, u)
                P = _probes(rng, K.dim, N.generators, I.generators)
                want = normal_cone_mask(K, q, P) & (P @ u >= 0.0)
                assert np.array_equal(_lp_mask(I, P), want)
                assert np.array_equal(I.member_mask(P), want)
                for i, g in enumerate(I.generators):
                    assert not in_cone_lp(g, np.delete(I.generators, i, axis=0))


def _nnls_corpus(rng):
    """(A, b) in R^1..R^8 with up to 40 columns, a duplicate and a parallel
    column, half of them pointed cones around a unit e; b inside the cone,
    anywhere, and -e (in the polar of the pointed ones), at scales 1e-3..1e3."""
    for n in range(1, 9):
        for _ in range(60):
            k = int(rng.integers(1, 41))
            e = rng.standard_normal(n)
            e /= np.linalg.norm(e)
            A = rng.standard_normal((n, k))
            if rng.random() < 0.5:
                A += (np.abs(A.T @ e) + rng.uniform(0.1, 1.0, k)) * e[:, None]
            if k > 2:
                A[:, rng.integers(k)] = A[:, 0]
                A[:, rng.integers(k)] = A[:, 1] * rng.uniform(0.1, 3.0)
            A *= rng.uniform(0.2, 5.0, k)
            lam = np.where(rng.random(k) < 0.3, rng.random(k), 0.0)
            scale = 10.0 ** rng.uniform(-3, 3)
            for b in (A @ lam, rng.standard_normal(n), -e):
                yield A, scale * b


class TestNnls:
    def test_matches_scipy(self, rng):
        polar = 0
        for A, b in _nnls_corpus(rng):
            x, res = cones._nnls(A, b)
            _, want = nnls_scipy(A, b)
            nb = np.linalg.norm(b)
            assert abs(res - want) <= 1e-12 * (1.0 + nb)
            assert res == np.linalg.norm(A @ x - b)
            assert x.min() >= 0.0 and nnls_kkt_gap(A, b, x) <= 1e-12
            polar += not x.any() and nb > 0
        assert polar >= 200

    def test_zero_and_single_column(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        x, res = cones._nnls(A, np.zeros(2))
        assert not x.any() and res == 0.0
        x, res = cones._nnls(np.array([[2.0], [0.0]]), np.array([3.0, 4.0]))
        assert x.tolist() == [1.5] and res == 4.0
        x, res = cones._nnls(np.array([[2.0], [0.0]]), np.array([-3.0, 4.0]))
        assert x.tolist() == [0.0] and res == 5.0

    def test_lineality_pair_with_b_in_the_polar(self):
        # Generators +-w with b orthogonal to w up to rounding and in the
        # polar of the rest: x = 0 is optimal, and the residual is |b|.
        w = np.array([0.0, -0.124, -0.849, 0.513])
        w /= np.linalg.norm(w)
        a = np.array([0.754, -0.37, 0.319, 0.439])
        a -= (a @ w) * w
        b = -a + np.array([1e-3, 5e-4, 0.0, 0.0])
        b -= (b @ w) * w
        A = np.column_stack([a, w, -w])
        x, res = cones._nnls(A, b)
        assert nnls_kkt_gap(A, b, x) <= 1e-12
        assert res == pytest.approx(np.linalg.norm(b), rel=1e-12)


def _solver_cases(rng):
    """Cones of _cone_corpus with a cut direction u and probe directions."""
    cases = []
    for K, q in _cone_corpus(rng):
        N, T = normal_cone(K, q), tangent_cone(K, q)
        cases.append((K, q, rng.standard_normal(K.dim), _probes(rng, K.dim, N.generators,
                                                               T.generators)))
    return cases


def _cone_answers(cases):
    out = []
    for K, q, u, P in cases:
        N, T = normal_cone(K, q), tangent_cone(K, q)
        for C in (N, T, cones.cone_intersect_halfspace(N, u)):
            out.append((C, P, [C.contains(x) for x in P], np.array([C.angle_to(x) for x in P]),
                        cones._reduce_generators(np.vstack([C.generators, P[:10]]))))
    return out


class TestSolverVerdicts:
    def test_same_as_with_scipy_nnls(self, rng, monkeypatch):
        # angle_to and _reduce_generators (cone_intersect_halfspace) on cones
        # of random, flat and segment bodies in R^2..R^5; contains reads the
        # rows, not the solver, so it must not move either
        cases = _solver_cases(rng)
        got, solve = _cone_answers(cases), cones._nnls
        monkeypatch.setattr(cones, "_nnls", nnls_scipy)
        want = _cone_answers(cases)
        for (C, P, inside, angle, kept), (C2, _, inside2, angle2, kept2) in zip(got, want):
            assert np.array_equal(C.generators, C2.generators)
            assert inside == inside2 and np.array_equal(kept, kept2)
            close = np.abs(angle - angle2) <= 1e-12
            # near 0, acos turns one rounding unit of its argument into ~1.5e-8
            close |= np.abs(np.cos(angle) - np.cos(angle2)) <= 4 * np.finfo(float).eps
            for x in P[~close] / np.linalg.norm(P[~close], axis=1, keepdims=True):
                # scipy's answer is not optimal there (10 probes, all at a
                # lineality pair +-w with x in the polar), ours is
                A = C.generators.T
                assert nnls_kkt_gap(A, x, nnls_scipy(A, x)[0]) > 1e-3
                assert nnls_kkt_gap(A, x, solve(A, x)[0]) <= 1e-12


class TestFarFromOrigin:
    @pytest.mark.parametrize("off", [1e7, 1e8])
    def test_vertex_normal_cones(self, off):
        rng = np.random.default_rng(0)
        for _ in range(30):
            K = hull(rng.standard_normal((25, 2)) + off * rng.standard_normal(2))
            for v in K.vertices:
                N = normal_cone(K, v)
                assert len(N.generators) == 2
                assert np.all(normal_cone_mask(K, v, N.generators))


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


class TestVertexCones:
    def test_facet_neighbours_give_the_all_vertex_cones(self, rng, joggled):
        bodies = [random_polytope(rng, n, 14) for n in (2, 3, 3, 4)]
        bodies += [embedded_polytope(rng, n, k, 10) for n, k in ((3, 2), (4, 2), (4, 3))]
        bodies += joggled_bodies(rng, joggled)
        fewer = 0
        for K in bodies:
            dirs = unit_directions(K.dim, 10000, 5)
            for q in K.vertices:
                D = cones._unit(K.vertices - q)  # the directions to every other vertex
                N, T = normal_cone(K, q), tangent_cone(K, q)
                N_all, T_all = PolyCone(K.dim, N.generators, -D), PolyCone(K.dim, D, T.rows)
                assert np.array_equal(N.member_mask(dirs), N_all.member_mask(dirs))
                assert np.array_equal(T.member_mask(dirs), T_all.member_mask(dirs))
                assert np.array_equal(N.rows, -T.generators)
                # the same extreme rays
                mine, every = cones._reduce_generators(T.generators), cones._reduce_generators(D)
                assert sorted(map(tuple, mine)) == sorted(map(tuple, every))
                fewer += len(T.generators) < len(D)
        assert fewer > 50


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


def _cap_cone_corpus(rng):
    """(K, p) pairs with p outside K: random bodies and cubes (coplanar
    facet triangles) in R^2 to R^4, p at 1e-6 to 5 from a vertex, and in
    R^3 the tops of the stored recipes (gen random --n 3 --npoints 16 at
    seeds 1 to 3, gen disks --n 3 --levels 6)."""
    bodies = [hull(np.array(list(itertools.product((-1.0, 1.0), repeat=n)))) for n in (2, 3, 4)]
    bodies += [random_polytope(rng, n, m) for n in (2, 3, 4) for m in (n + 3, 20)]
    for seed in (1, 2, 3):  # cli._cmd_gen's outer body, the chain's top
        r = np.random.default_rng(seed)
        pts = r.standard_normal((16, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        bodies.append(hull(pts * (1.0 + 0.2 * r.random(16))[:, None]))
    bodies.append(disk_family(n=3, levels=6).bodies[-1])
    cases = []
    for K in bodies:
        for v in K.vertices[rng.permutation(K.nvertices)[:4]]:
            for dist in (1e-6, 1e-3, 0.1, 5.0):
                u = v - K.centroid() + 0.3 * rng.standard_normal(K.dim)
                p = v + dist * u / np.linalg.norm(u)
                if not contains(K, p):
                    cases.append((K, p))
    return cases


def _same_rows(A, B, tol):
    """A and B hold the same rows, each within tol of one of the other's."""
    if A.shape != B.shape:
        return False
    d = np.linalg.norm(A[:, None, :] - B[None, :, :], axis=2)
    return bool(d.min(axis=1).max() <= tol and d.min(axis=0).max() <= tol)


def _report_by_cap_bodies(K, p0, u, eps_list, dirs):
    """The rows of normal_cone_limit_report with every cap body built: its
    normal cone at the apex, the lower sandwich test on its vertices, the
    angle to N_K(p0) measured for every generator, and for n >= 3 every
    sample row measured against the other sample."""
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    N0 = normal_cone(K, p0)
    limit = cone_intersect_halfspace(N0, u)
    G = limit.generators
    rows = []
    for eps in eps_list:
        pe = p0 + eps * u
        cap = cap_body(K, pe)
        Ne = normal_cone(cap, pe)
        upper_ok = Ne.is_zero or bool(np.all(Ne.generators @ u >= -1e-9))
        lower_ok = limit.is_zero or bool(
            normal_cone_mask(cap, pe, G, 1e-8 * (1.0 + np.linalg.norm(G, axis=1))).all())
        if K.dim == 2:
            metric = sector_angular_hausdorff(Ne, limit, None)
        else:
            S = [np.vstack([dirs[C.member_mask(dirs, tol=1e-9)], C.generators]) for C in (Ne, limit)]
            metric = max(float(np.arccos(np.clip(support_many(P, Q), -1.0, 1.0)).max())
                         for P, Q in (S, S[::-1]))
        rows.append({"eps": eps, "sandwich_ok": upper_ok and lower_ok, "metric": metric,
                     "max_angle_to_base_cone": 0.0 if Ne.is_zero else
                     max(N0.angle_to(g) for g in Ne.generators)})
    return rows


class TestCapConeFromFacets:
    def test_matches_the_cap_body_cone(self, rng):
        # bound 1e-9 on every generator and row; 7.6e-12 measured
        cases = _cap_cone_corpus(rng)
        assert len(cases) > 200
        for K, p in cases:
            C = cones._cap_cone(K, cones._ridges(K), p)
            assert C is not None
            want = normal_cone(cap_body(K, p), p)
            assert _same_rows(C.generators, want.generators, 1e-9), (K, p)
            assert _same_rows(C.rows, want.rows, 1e-9), (K, p)

    def test_declines_and_the_report_is_unchanged(self, rng, joggled):
        cube = hull(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
        flat = embedded_polytope(rng, 3, 2, 9)
        q = flat.vertices[0]
        cases = [
            # a flat K
            (flat, q, q - flat.centroid() + np.cross(*flat.facets.basis), [0.5, 0.1]),
            # p on the plane of the facet y = 1, from a point of the edge x = y = 1
            (cube, np.array([1.0, 1.0, 0.5]), np.array([1.0, 0.0, 0.0]), [0.5, 0.1]),
            # p equal to p0
            (cube, np.ones(3), np.ones(3), [0.5, 1e-300]),
        ]
        for K in joggled_bodies(rng, joggled):
            assert cones._ridges(K) is None
            cases.append((K, K.vertices[0], K.vertices[0] - K.centroid(), [0.5, 0.1]))
        assert cones._ridges(flat) is None
        dirs = unit_directions(3, 2000, 0)
        for K, p0, u, eps in cases:
            pe = p0 + eps[-1] * u / np.linalg.norm(u)
            assert cones._cap_cone(K, cones._ridges(K), pe) is None
            rep = normal_cone_limit_report(K, p0, u, eps, grid_size=2000)
            assert rep["rows"] == _report_by_cap_bodies(K, p0, u, eps, dirs)


class TestMaxAngleToBaseCone:
    def test_pruned_max_is_the_full_max(self, rng):
        bodies = [random_polytope(rng, n, 14) for n in (2, 3, 3, 4)]
        bodies += [embedded_polytope(rng, n, k, 10) for n, k in ((3, 2), (4, 3))]
        measured = 0
        for K in bodies:
            for q in K.vertices[:5]:
                N0 = normal_cone(K, q)
                u = q - K.centroid()
                X = [N0.generators, unit_directions(K.dim, 200, 3)]
                if K.dim_affine == K.dim:
                    for eps in (0.5, 0.01):
                        X.append(cones._cap_cone(K, cones._ridges(K), q + eps * u).generators)
                X = np.vstack(X)
                assert cones._max_angle(N0, X) == max(N0.angle_to(x) for x in X)
                measured += 1
        assert measured >= 25


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

    @pytest.mark.parametrize("K, p0, u, message", [
        # 5e-8 and 5e-7 beyond the edge x = 2 of [0, 2] x [0, 1], and inside
        ("rect", (2 + 5e-8, 0.5), (1, 0), "p0 must lie in K"),
        ("rect", (2 + 5e-7, 0.5), (1, 0), "p0 must lie in K"),
        ("rect", (1, 0.5), (1, 0), "p0 must lie on the boundary of K"),
        ("rect", (2, 0.5), (-1, 0.3), "u lies in the tangent cone at p0"),
        # 5e-8 beyond a face of the unit cube
        ("cube", (1 + 5e-8, 0.5, 0.5), (1, 0.3, 0.2), "p0 must lie in K"),
    ])
    def test_one_precondition_check_for_both_callers(self, K, p0, u, message):
        K = {"rect": hull([(0, 0), (2, 0), (2, 1), (0, 1)]),
             "cube": hull(list(itertools.product((0, 1), repeat=3)))}[K]
        for call in (lambda: normal_cone_limit_report(K, p0, u, [0.1], grid_size=100),
                     lambda: first_variation(K, p0, u, 0.1)):
            with pytest.raises(PreconditionViolated) as e:
                call()
            assert str(e.value) == message

    def test_upper_semicontinuity(self, unit_square):
        # accumulation directions land in N_K(p0) (angular tol 1e-3)
        rep = normal_cone_limit_report(
            unit_square, (1, 1), (1.0, 0.5), [0.1, 0.01, 0.001], grid_size=1000
        )
        assert rep["rows"][-1]["max_angle_to_base_cone"] < 1e-3


def _unit_at(*degrees):
    a = np.radians(degrees)
    return np.column_stack([np.cos(a), np.sin(a)])


def _planar_cone_pairs(rng):
    """Planar cones by their generators: the zero cone, rays, sectors,
    half-planes, a line, the whole plane, arcs sharing an endpoint, and
    disjoint arcs whose distance is taken at the antipode of one arc's
    middle; then seeded random sectors."""
    zero, ray = np.zeros((0, 2)), _unit_at(30)
    half, line, plane = _unit_at(10, 100, 190), _unit_at(45, 225), _unit_at(0, 120, 240)
    pairs = [(zero, zero), (zero, ray), (plane, zero), (ray, ray), (ray, _unit_at(75)),
             (ray, _unit_at(210)), (half, ray), (half, _unit_at(280)),
             (plane, ray), (plane, half), (plane, plane), (line, ray), (line, half),
             (line, _unit_at(135)), (line, plane),
             (_unit_at(0, 40), _unit_at(40, 70)),  # share an endpoint
             (_unit_at(0, 90), _unit_at(0, 30)),
             (_unit_at(-20, 20), _unit_at(20, 160)),
             (_unit_at(0, 170), _unit_at(260, 280)),  # the antipode of 270 decides
             (_unit_at(100, 260), _unit_at(-10, 10)),
             (half, _unit_at(250, 310))]
    for _ in range(6):
        a, b = rng.uniform(0.0, 360.0, 2)
        pairs.append((_unit_at(a, a + rng.uniform(0.0, 179.0)), _unit_at(b, b + rng.uniform(0.0, 179.0))))
    return pairs


def _full_sample_hausdorff(A, B, dirs):
    """sector_angular_hausdorff for n >= 3 with every row of each sample
    measured against the whole other sample."""
    S = [np.vstack([dirs[C.member_mask(dirs, tol=1e-9)], C.generators]) for C in (A, B)]
    return max(float(np.arccos(np.clip(support_many(P, Q), -1.0, 1.0)).max())
               for P, Q in (S, S[::-1]))


class TestSampledSectorHausdorff:
    def test_matches_the_full_sample(self, rng):
        # cap-body normal cones against their limits in R^3 and R^4, and
        # each cone against itself, where every grid node is in both samples
        for n, size in ((3, 4000), (3, 4000), (4, 4000), (4, 4000), (3, 10000)):
            K = random_polytope(rng, n=n, npts=25)
            p0 = K.vertices[0]
            u = (p0 - K.centroid()) / np.linalg.norm(p0 - K.centroid())
            limit = cone_intersect_halfspace(normal_cone(K, p0), u)
            dirs = unit_directions(n, size, seed=n)
            for eps in (0.5, 0.05):
                Ne = normal_cone(cap_body(K, p0 + eps * u), p0 + eps * u)
                for A, B in ((Ne, limit), (limit, Ne), (Ne, Ne)):
                    got = sector_angular_hausdorff(A, B, dirs)
                    assert got == pytest.approx(_full_sample_hausdorff(A, B, dirs), abs=1e-15)

    def test_cone_limit_on_the_stored_tops(self, tmp_path):
        # report cone-limit on the R^3 and R^4 tops of family_validation's
        # store, against every sample row measured on _cap_cone's cones
        wl = load_workloads()
        wl.Workload("family_validation", 3, str(tmp_path)).setup(cli_call)
        eps = [0.5, 0.25, 0.1, 0.01]  # report cone-limit's default --eps
        checked = 0
        for name in ("chain3", "disks3", "disks4"):
            path = str(tmp_path / f"{name}_top.json")
            with open(path) as fh:
                K = body_from_dict(json.load(fh))
            dirs = unit_directions(K.dim, 10000, 0)  # the CLI's grid, --grid-size capped
            for p0 in K.vertices[:2]:
                u = p0 - K.vertices.mean(axis=0)
                rc, out = cli_call(["report", "cone-limit", "--body", path,
                                    f"--p0={wl.fmt_point(p0)}", f"--u={wl.fmt_point(u)}"])
                assert rc in (0, 1)
                u /= np.linalg.norm(u)
                limit = cone_intersect_halfspace(normal_cone(K, p0), u)
                for e, row in zip(eps, json.loads(out)["rows"]):
                    Ne = cones._cap_cone(K, cones._ridges(K), p0 + e * u)
                    assert Ne is not None
                    want = _full_sample_hausdorff(Ne, limit, dirs)
                    assert row["metric"] == pytest.approx(want, abs=1e-15), (name, e)
                    checked += 1
        assert checked == 24


class TestPlanarSectorHausdorff:
    def test_matches_a_million_directions(self, rng):
        spacing = 2.0 * math.pi / 10**6
        antipodal = False
        for GA, GB in _planar_cone_pairs(rng):
            A, B = PolyCone(2, GA, np.zeros((0, 2))), PolyCone(2, GB, np.zeros((0, 2)))
            got = sector_angular_hausdorff(A, B, None)
            assert got == sector_angular_hausdorff(B, A, None)
            ref = planar_sector_hausdorff_sampling(GA, GB)
            assert abs(got - ref) <= spacing, (GA, GB)
            antipodal |= got > math.radians(150.0) and len(GA) == len(GB) == 2
        assert antipodal

    def test_distance_at_an_arcs_far_end(self, rng):
        # a sector [a, a + L] against the ray at a, and against the sector
        # [a, a + M] sharing its first edge: the distance, L and L - M, is
        # reached only at the far end a + L, whose angle is rounded
        spacing = 2.0 * math.pi / 10**5
        for _ in range(40):
            a, L = rng.uniform(0.0, 360.0), rng.uniform(1.0, 179.0)
            M = rng.uniform(0.0, L)
            sector = _unit_at(a, a + L)
            for G, want in ((_unit_at(a), L), (_unit_at(a, a + M), L - M)):
                A, B = PolyCone(2, sector, np.zeros((0, 2))), PolyCone(2, G, np.zeros((0, 2)))
                got = sector_angular_hausdorff(A, B, None)
                assert got == sector_angular_hausdorff(B, A, None)
                assert got == pytest.approx(math.radians(want), abs=1e-12)
                assert abs(got - planar_sector_hausdorff_sampling(sector, G, 10**5)) <= spacing

    def test_reads_no_direction_grid(self, unit_square):
        C = normal_cone(unit_square, (1, 1))
        assert sector_angular_hausdorff(C, C, None) == 0.0
        N = normal_cone(unit_square, (1, 0.5))
        assert sector_angular_hausdorff(C, N, None) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_cone_limit_makes_each_grid_once(self, monkeypatch):
        made = []
        real = geom_core.unit_directions
        monkeypatch.setattr(geom_core, "unit_directions", lambda *a: made.append(a) or real(*a))
        cube = hull(np.array(list(itertools.product((0.0, 1.0), repeat=3))))
        reps = [normal_cone_limit_report(cube, (1, 1, 1), (1, 2, 3), [0.5, 0.1], grid_size=size)
                for size in (3000, 3000, 2000)]
        assert made == [(3, 3000, 0), (3, 2000, 0)]
        assert reps[0] == reps[1]
        with pytest.raises(ValueError):
            default_grid(3, 3000, 0).directions[0, 0] = 1.0  # kept read-only

    def test_cone_limit_builds_no_grid_in_the_plane(self, unit_square, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a direction grid was built")

        monkeypatch.setattr(geom_core, "unit_directions", refuse)
        rep = normal_cone_limit_report(unit_square, (1, 0.5), (1, 0), [0.5, 0.1, 0.01])
        assert rep["sandwich_ok"] and rep["metric_decreasing"]
        # the cap cone at p0 + eps u is the sector of half-angle atan(2 eps)
        # about u; the limit is the ray u
        for row in rep["rows"]:
            assert row["metric"] == pytest.approx(math.atan(2.0 * row["eps"]), abs=1e-15)
