"""Independent oracles used to freeze expected values.

Everything here is deliberately naive: LP feasibility for extreme points,
1-D adaptive quadrature for sector integrals, dense sampling for distances
and memberships, face enumeration for nearest points.  None of it shares
code paths with the library routines it checks, except two families.  The
per-vertex projection oracles call geom_core.project once per vertex, and
project reads the same nearest-point kernel (geom_core._nearest) as
hausdorff and includes: they check the bounds, ranking and batching of
those two, not the kernel; nearest_point_faces is the kernel's independent
check.  The exact segment clipping the library batches
(descent._intervals) lives here as it was written for one segment at a
time, a loop over the facets (segment_interval), and the per-member
validators walk one member or knot at a time through it.  The per-pair
connectedness and duplicate tests (is_connected_per_pair, kept_per_pair)
measure every pair by geom_core.hausdorff: they check the bounds that
spare the library most of those measurements, not hausdorff.  Completion
keeps two forms: the clip that forms every residual again at each cut
(clip_polygon), the library's own algorithm, here also counting the cuts,
and the width solver that built the f = 1 body of each gap before its first
target (solve_gap_eager).  The solver shares
the library's interpolants and slopes: it checks when the library builds
which interpolant, not the interpolants.
"""

import itertools
import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog, nnls


def in_convex_hull_lp(point, points, tol=1e-9):
    """LP feasibility: point is a convex combination of the given points."""
    m = len(points)
    A_eq = np.vstack([np.asarray(points).T, np.ones(m)])
    b_eq = np.concatenate([np.asarray(point), [1.0]])
    res = linprog(np.zeros(m), A_eq=A_eq, b_eq=b_eq, bounds=[(0, None)] * m,
                  method="highs")
    return res.status == 0 and res.success


def nearest_point_faces(points, X):
    """Nearest points of conv(points) to the rows of X in R^n, n <= 5, by
    enumeration; affine dimension at least 2.

    In coordinates of the affine hull (by SVD, rank cut 1e-9 relative; the
    ambient ones when full-dimensional): a row's own projection when
    Qhull's equations there put it inside, else the nearest of the
    candidates over every face of every facet simplex of Qhull's
    triangulation: the vertices, each edge's nearest point (clipped to the
    edge) and, on each larger face, the affine projection of the row when
    it lands inside the face.
    """
    from scipy.spatial import ConvexHull

    V, X = np.asarray(points, dtype=float), np.atleast_2d(np.asarray(X, dtype=float))
    c = V.mean(axis=0)
    _, s, Ut = np.linalg.svd(V - c)
    U = Ut[:int(np.sum(s > 1e-9 * s[0]))]
    if len(U) == V.shape[1]:
        U = np.eye(len(U))
    Y, Z = (V - c) @ U.T, (X - c) @ U.T
    h = ConvexHull(Y)
    faces = {f for S in h.simplices for r in range(1, len(S) + 1)
             for f in itertools.combinations(sorted(S.tolist()), r)}
    cands, dists = [], []
    for size in range(1, Y.shape[1] + 1):
        F = Y[np.array([f for f in faces if len(f) == size])]  # (faces, size, k)
        Q = Z[:, None, :] - F[None, :, 0]
        if size == 1:
            C, ok = np.broadcast_to(F[:, 0], Q.shape), True
        elif size == 2:
            d = F[:, 1] - F[:, 0]
            t = np.clip((Q * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
            C, ok = F[:, 0] + t[..., None] * d, True
        else:
            D = F[:, 1:] - F[:, :1]
            lam = np.einsum("fik,mfk->mfi", np.linalg.pinv(D.transpose(0, 2, 1)), Q)
            C = F[:, 0] + np.einsum("mfi,fik->mfk", lam, D)
            ok = (lam.min(axis=-1) >= 0.0) & (lam.sum(axis=-1) <= 1.0)
        cands.append(C)
        dists.append(np.where(ok, np.linalg.norm(Z[:, None, :] - C, axis=-1), np.inf))
    C, dist = np.concatenate(cands, axis=1), np.concatenate(dists, axis=1)
    near = C[np.arange(len(Z)), dist.argmin(axis=1)]
    inside = np.all(Z @ h.equations[:, :-1].T + h.equations[:, -1] <= 0.0, axis=1)
    near[inside] = Z[inside]
    return c + near @ U


def in_cone_lp(x, gens):
    """LP feasibility: x is a nonnegative combination of the rows of gens."""
    G = np.asarray(gens, dtype=float)
    if len(G) == 0:
        return not np.any(x)
    res = linprog(np.zeros(len(G)), A_eq=G.T, b_eq=np.asarray(x), bounds=[(0, None)] * len(G),
                  method="highs")
    return res.status == 0 and res.success


def nnls_scipy(A, b):
    """Nonnegative least squares by scipy.optimize.nnls: (x, |Ax - b|), the
    residual computed from x rather than taken from nnls."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    x, _ = nnls(A, b)
    return x, float(np.linalg.norm(A @ x - b))


def nnls_kkt_gap(A, b, x):
    """Largest violation of the optimality conditions of nonnegative least
    squares at x >= 0: the gradient w = A^T (b - Ax) is <= 0, and 0 where
    x > 0; per column, relative to |a_j| (1 + |b|)."""
    w = A.T @ (b - A @ x)
    w = w / (np.linalg.norm(A, axis=0) * (1.0 + np.linalg.norm(b)))
    return max(float(w.max()), float(np.abs(w[x > 0]).max(initial=0.0)))


def dedup_bruteforce(points, tol):
    """First-occurrence deduplication by all O(m^2) pairs: in (i, j) order,
    i < j, drop point j when point i is kept and within tol of it."""
    P = np.asarray(points, dtype=float)
    drop = np.zeros(len(P), dtype=bool)
    for i, j in itertools.combinations(range(len(P)), 2):
        if not drop[i] and math.dist(P[i], P[j]) <= tol:
            drop[j] = True
    return P[~drop]


def extreme_points_bruteforce(points, tol=1e-9):
    """A point is extreme iff it is not in the hull of the others."""
    P = np.asarray(points, dtype=float)
    out = []
    for i in range(len(P)):
        others = np.delete(P, i, axis=0)
        if not in_convex_hull_lp(P[i], others, tol):
            out.append(i)
    return out


def _refine_polyline(P, refine):
    if len(P) < 2 or refine <= 1:
        return P
    chunks = []
    for i in range(len(P) - 1):
        t = np.linspace(0.0, 1.0, refine + 1)[:-1, None]
        chunks.append(P[i] + t * (P[i + 1] - P[i]))
    chunks.append(P[-1:])
    return np.vstack(chunks)


def sep_bruteforce(points, refine=4, tol=1e-9):
    """Direct decision of the self-expanding property |x2-x1| <= |x3-x1|
    over the whole curve, not just its vertices.

    The distance from a fixed earlier point to a moving point of a later
    segment attains its minimum at the clamped foot of the perpendicular,
    so comparing that exact minimum against the distance at the segment
    start detects any interior dip; earlier points are sampled densely for
    redundancy (linearity makes vertex checks sufficient).
    """
    P = np.asarray(points, dtype=float)
    if len(P) < 3:
        return True
    scale = 1.0 + float(np.abs(P).max())
    Y = _refine_polyline(P, refine)
    per_seg = refine if refine > 1 else 1
    for j in range(len(P) - 1):
        a, b = P[j], P[j + 1]
        ys = Y[: j * per_seg + 1]
        start = np.linalg.norm(ys - a, axis=1)
        low = segment_distance(ys, a, b)
        if np.any(low < start - tol * scale):
            return False
    return True


def sector_flux_axis_quad(n, delta):
    """Flux of <theta, v> over the circular sector of opening delta about
    its own axis v, by 1-D quadrature of the polar slice measure."""
    if n == 2:
        val, _ = quad(math.cos, -delta, delta)
        return val
    from descent_geom.cones import sphere_measure

    om = sphere_measure(n - 1)
    val, _ = quad(lambda p: math.cos(p) * math.sin(p) ** (n - 2), 0.0, delta)
    return om * val


def sector_flux_offaxis_quad(n, opening, u_angle):
    """Flux of <theta, u> over the sector of a circular cone when u makes
    angle u_angle with the axis (azimuthal cross terms integrate to zero)."""
    if n == 2:
        val, _ = quad(lambda p: math.cos(p - u_angle), -opening, opening)
        return val
    return math.cos(u_angle) * sector_flux_axis_quad(n, opening)


def planar_sector_quad(vertices, q, u=None):
    """Vector integral of theta over the planar directions with
    <theta, v - q> <= 0 for every given vertex v, and <theta, u> >= 0 when
    u is given, by quadrature over the angle.  The angle is split where
    some <theta, v - q> or <theta, u> changes sign, and a piece counts
    when its middle direction passes the test."""
    D = np.asarray(vertices, dtype=float) - np.asarray(q, dtype=float)
    D = D[np.linalg.norm(D, axis=1) > 1e-12]
    cuts = list(D) + ([np.asarray(u, dtype=float)] if u is not None else [])
    breaks = {0.0, 2 * math.pi}
    for c in cuts:
        for s in (-0.5 * math.pi, 0.5 * math.pi):
            breaks.add((math.atan2(c[1], c[0]) + s) % (2 * math.pi))
    breaks = sorted(breaks)
    out = np.zeros(2)
    for a, b in zip(breaks, breaks[1:]):
        m = 0.5 * (a + b)
        t = np.array([math.cos(m), math.sin(m)])
        if np.all(D @ t <= 0.0) and (u is None or t @ u >= 0.0):
            out += [quad(math.cos, a, b)[0], quad(math.sin, a, b)[0]]
    return out


def hausdorff_per_vertex(A, B):
    """Hausdorff distance with every vertex of each body projected onto the
    other by geom_core.project, one at a time: no bounds, no ranking, no
    batching."""
    from descent_geom.geom_core import project

    d = 0.0
    for X, Y in ((A, B), (B, A)):
        for v in X.vertices:
            d = max(d, float(np.linalg.norm(project(Y, v) - v)))
    return d


def includes_per_vertex(A, B, tol):
    """Every vertex of B within tol of A, by geom_core.project."""
    from descent_geom.geom_core import project

    return all(np.linalg.norm(project(A, v) - v) <= tol for v in B.vertices)


def polyline_keep(points, tau):
    """Indices of the points Polyline.make keeps, by the point loop: a point
    is kept when it lies farther than tau from the last kept one."""
    keep = [0]
    for i in range(1, len(points)):
        if np.linalg.norm(points[i] - points[keep[-1]]) > tau:
            keep.append(i)
    return keep


def step_ratios_loop(points, widths):
    """lipschitz_ratio's (max_ratio, stalled) by the step loop over the
    points and their prefix-hull widths."""
    stalled, max_ratio = [], 0.0
    scale = max(widths[-1], 1.0)
    for i in range(len(points) - 1):
        dw = widths[i + 1] - widths[i]
        step = float(np.linalg.norm(points[i + 1] - points[i]))
        if dw <= 1e-12 * scale:
            stalled.append(i)
            continue
        max_ratio = max(max_ratio, step / dw)
    return max_ratio, stalled


def sep_segment_loop(points, tol=1e-9):
    """sep.is_sep's criterion one segment at a time: per segment with start
    a and unit direction d, the earlier vertex y of least slack
    <d, a - y> + tol |a - y|; the first segment of least negative slack is
    the witness, in is_sep's output form."""
    P = np.asarray(points, dtype=float)
    worst = None
    for i in range(len(P) - 1):
        d = P[i + 1] - P[i]
        nd = np.linalg.norm(d)
        if nd <= 1e-9 or i == 0:
            continue
        d = d / nd
        rel = P[i] - P[:i]
        slack = rel @ d + tol * np.linalg.norm(rel, axis=1)
        j = int(np.argmin(slack))
        if slack[j] < 0.0 and (worst is None or slack[j] < worst[0]):
            worst = (float(slack[j]), i, j, d)
    if worst is None:
        return {"ok": True, "witness": None}
    _, i, j, d = worst
    return {"ok": False, "witness": {
        "y": P[j].tolist(), "a": P[i].tolist(), "d": d.tolist(), "segment_index": i,
        "earlier_index": j, "inner_product": float(d @ (P[i] - P[j]))}}


def planar_sector_hausdorff_sampling(GA, GB, ndirs=10**6):
    """Angular Hausdorff distance between the unit-circle parts of the
    planar cones spanned by the rows of GA and GB, on ndirs equally spaced
    directions plus the generators: a direction is in a cone when it is a
    nonnegative combination of one generator or of two (Caratheodory in the
    plane), solved pair by pair at tolerance 1e-12.  Within 2 pi / ndirs of
    the exact distance; pi when exactly one cone is zero."""
    theta = 2.0 * math.pi * np.arange(ndirs) / ndirs
    X = np.column_stack([np.cos(theta), np.sin(theta)])

    def sample(G):
        G = np.asarray(G, dtype=float).reshape(-1, 2)
        member = np.zeros(ndirs, dtype=bool)
        for i, j in itertools.combinations_with_replacement(range(len(G)), 2):
            a, b = G[i], G[j]
            det = a[0] * b[1] - a[1] * b[0]
            if abs(det) > 1e-12:
                s = (X[:, 0] * b[1] - X[:, 1] * b[0]) / det
                t = (a[0] * X[:, 1] - a[1] * X[:, 0]) / det
                member |= (s >= -1e-12) & (t >= -1e-12)
            else:
                member |= (X @ a >= 0.0) & (np.abs(X[:, 0] * a[1] - X[:, 1] * a[0]) <= 1e-12)
        return np.sort(np.concatenate([theta[member], np.arctan2(G[:, 1], G[:, 0]) % (2.0 * math.pi)]))

    SA, SB = sample(GA), sample(GB)
    if len(SA) == 0 or len(SB) == 0:
        return 0.0 if len(SA) == len(SB) else math.pi

    def circular(x):
        x = np.abs(x) % (2.0 * math.pi)
        return np.minimum(x, 2.0 * math.pi - x)

    def directed(P, Q):
        k = np.searchsorted(Q, P) % len(Q)
        return float(np.minimum(circular(P - Q[k]), circular(P - Q[k - 1])).max())

    return max(directed(SA, SB), directed(SB, SA))


def hausdorff_sampling(A, B, ndirs=10000, seed=3):
    """Support-gap estimate of the Hausdorff distance on sampled directions."""
    from descent_geom.geom_core import unit_directions

    dirs = unit_directions(A.dim, ndirs, seed)
    hA = np.max(dirs @ A.vertices.T, axis=1)
    hB = np.max(dirs @ B.vertices.T, axis=1)
    return float(np.abs(hA - hB).max())


def polygon_membership(V, pts, tol=1e-12):
    """Vectorized point-in-convex-polygon test for CCW vertices V."""
    V = np.asarray(V, dtype=float)
    E = np.roll(V, -1, axis=0) - V
    X = np.asarray(pts, dtype=float)
    cross = (
        E[None, :, 0] * (X[:, None, 1] - V[None, :, 1])
        - E[None, :, 1] * (X[:, None, 0] - V[None, :, 0])
    )
    return np.all(cross >= -tol, axis=1)


def segment_distance(pts, a, b):
    """Distances from points to the segment a-b."""
    d = b - a
    dd = float(d @ d)
    X = np.asarray(pts, dtype=float)
    if dd == 0.0:
        return np.linalg.norm(X - a, axis=1)
    t = np.clip((X - a) @ d / dd, 0.0, 1.0)
    proj = a + t[:, None] * d
    return np.linalg.norm(X - proj, axis=1)


# -- the per-member validators the family pass replaced ------------------------
#
# descent's family pass reads a curve against all members at once.  These are
# the loops it replaced, one member or knot at a time, with their own
# candidate filter and the one-segment clipping (segment_interval) that
# descent._intervals batches.


def segment_interval(K, a, b):
    """Inside interval (t0, t1) of the segment a->b, or None: exact
    clipping by K's facet equations, one facet at a time.  No equations (a
    point body) give [0, 1].

    For a lower-dimensional K the facets bound the cylinder over K, so the
    interval is also cut to the parameters where the segment lies within
    eps = 1e-12 * (1 + max|a - c|) of Aff(K).  With o0 and o1 the parts of
    a - c and b - a orthogonal to Aff(K), that band is the interval of
    half-width sqrt(eps^2 - r^2) / |o1| around the parameter t* nearest to
    Aff(K), r = |o0 + t* o1|; a segment parallel to Aff(K) is in the band
    everywhere or nowhere.
    """
    c, B, eqs, _ = K.facets
    d = b - a
    alpha = eqs[:, :-1] @ a + eqs[:, -1]
    beta = eqs[:, :-1] @ d
    lo, hi = 0.0, 1.0
    scale = 1.0 + np.abs(alpha).max(initial=0.0)
    for al, be in zip(alpha.tolist(), beta.tolist()):
        if abs(be) <= 1e-14 * scale:
            if al > 1e-12 * scale:
                return None
            continue
        t = -al / be
        if be > 0:
            hi = min(hi, t)
        else:
            lo = max(lo, t)
    if lo > hi + 1e-12:
        return None
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    if len(B) == K.dim:
        return lo, hi
    y = a - c
    o0 = y - (y @ B.T) @ B
    o1 = d - (d @ B.T) @ B
    scale = 1.0 + np.abs(y).max()
    eps = 1e-12 * scale
    n1 = np.linalg.norm(o1)
    if n1 <= 1e-14 * scale:
        return (lo, hi) if np.linalg.norm(o0) <= eps else None
    ts = -(o0 @ o1) / (n1 * n1)
    r = np.linalg.norm(o0 + ts * o1)
    if r > eps:
        return None
    hw = math.sqrt(eps * eps - r * r) / n1
    lo, hi = max(lo, ts - hw), min(hi, ts + hw)
    if lo > hi:
        return None
    return lo, hi


def candidate_segments(K, P):
    """Indices i, rising, of the segments P[i] -> P[i+1] that may meet K.

    A segment is dropped when both its ends lie beyond one facet (of K, or
    of the cylinder over a lower-dimensional K) by 1e-9 * (1 + the largest
    |residual| at either end), which segment_interval rejects as well, so
    clipping the remaining segments gives the same answers.
    """
    eqs = K.facets.equations
    R = P @ eqs[:, :-1].T + eqs[:, -1]
    scale = 1.0 + np.abs(R).max(axis=1, initial=0.0)
    margin = 1e-9 * np.maximum(scale[:-1], scale[1:])[:, None]
    return np.nonzero(~((R[:-1] > margin) & (R[1:] > margin)).any(axis=1))[0]


def align_per_member(curve, bodies, tol=0.0):
    """Per body, (arc length, point) of the last curve point inside it, or
    None: the last segment kept by candidate_segments that
    segment_interval clips, walking back from the end.  A one-point curve
    meets a body within max(tol, _bd_tol) of it."""
    from descent_geom.descent import _bd_tol
    from descent_geom.geom_core import contains

    P, cums = curve.points, curve.arclengths
    out = []
    for K in bodies:
        found = None
        if len(P) == 1:
            if contains(K, P[0], max(tol, _bd_tol(K))):
                found = (0.0, P[0].copy())
        else:
            for i in candidate_segments(K, P)[::-1]:
                iv = segment_interval(K, P[i], P[i + 1])
                if iv is not None:
                    found = (cums[i] + iv[1] * (cums[i + 1] - cums[i]),
                             P[i] + iv[1] * (P[i + 1] - P[i]))
                    break
        out.append(found)
    return out


def ec_tail_per_member(P, bodies, tol):
    """Conditions (ii) and (iii) of is_expanding_couple, one member at a
    time: the first member with the strictly largest gap, its first row,
    and in that row its first vertex."""
    from descent_geom.descent import _bd_tol
    from descent_geom.geom_core import distances, rel_depth_many

    top = bodies[-1]
    btol = max(tol, _bd_tol(top))
    depth, off = rel_depth_many(top, P)
    if not np.any((off <= btol) & (np.abs(depth) <= btol)):
        return {"ok": False, "condition": "ii", "witness": None}
    worst = None
    scale = 1.0 + top.diameter()
    for qi, Q in enumerate(bodies):
        D = distances(P, Q.vertices)  # m x q
        suffix = np.minimum.accumulate(D[::-1], axis=0)[::-1]
        depth, off = rel_depth_many(Q, P)
        outside = ~((off <= _bd_tol(Q)) & (depth > _bd_tol(Q)))
        rows = np.nonzero(outside[:-1])[0]
        if len(rows) == 0:
            continue
        gap = D[rows] - suffix[rows + 1]
        best = gap.max(axis=1)
        r = int(np.argmax(best))
        if best[r] > tol * scale and (worst is None or best[r] > worst[0]):
            i, j = int(rows[r]), int(np.argmax(gap[r]))
            later = int(i + 1 + np.argmin(D[i + 1:, j]))
            worst = (float(best[r]), qi, i, j, later)
    if worst is None:
        return {"ok": True, "condition": None, "witness": None}
    gap, qi, i, j, later = worst
    y = bodies[qi].vertices[j]
    return {"ok": False, "condition": "iii", "witness": {
        "body_index": qi, "x": P[i].copy(), "y": y.copy(), "x1": P[later].copy(),
        "dist_x_y": float(np.linalg.norm(P[i] - y)),
        "dist_x1_y": float(np.linalg.norm(P[later] - y)),
        "violation": gap,
    }}


def is_expanding_couple_per_member(gamma, strat, tol=1e-7, grid=None):
    """is_expanding_couple by align_per_member and ec_tail_per_member."""
    from descent_geom.mean_width import mean_width
    from descent_geom.sep import is_sep

    chk = is_sep(gamma, tol)
    if not chk["ok"]:
        return {"ok": False, "condition": "sep", "witness": chk["witness"]}
    for Q, found in zip(strat.bodies, align_per_member(gamma, strat.bodies, tol)):
        if found is None:
            return {"ok": False, "condition": "i", "witness": {"body_width": mean_width(Q, grid)}}
    return ec_tail_per_member(gamma.points, strat.bodies, tol)


def sdc_per_knot(gamma, fam, s, x, tol):
    """is_viable_sdc's verdict from the alignment (s, x), one knot at a
    time: on_rel_boundary, then in_normal_cone for each one-sided curve
    direction at the knot."""
    from descent_geom.cones import in_normal_cone
    from descent_geom.descent import _bd_tol, on_rel_boundary
    from descent_geom.geom_core import TAU_PT

    P, cums = gamma.points, gamma.arclengths
    failures = []
    for k, (K, sk, xk) in enumerate(zip(fam.bodies, s, x)):
        if not on_rel_boundary(K, xk, _bd_tol(K)):
            failures.append({"knot": k, "param": fam.params[k], "x": xk, "condition": "i"})
            continue
        dirs = []
        if len(P) >= 2:
            stol = 1e-9 * (1.0 + cums[-1])
            i = int(np.searchsorted(cums, sk + stol)) - 1
            i = max(0, min(i, len(P) - 2))
            segs = [i]  # the segment at sk, and the other one at a curve vertex
            if i > 0 and abs(sk - cums[i]) <= stol:
                segs.append(i - 1)
            if abs(sk - cums[i + 1]) <= stol and i + 2 < len(P):
                segs.append(i + 1)
            for j in segs:
                d = P[j + 1] - P[j]
                nd = np.linalg.norm(d)
                if nd > TAU_PT:
                    dirs.append(d / nd)
        if not dirs:
            continue
        if not any(in_normal_cone(K, xk, d, tol) for d in dirs):
            failures.append({"knot": k, "param": fam.params[k], "x": xk, "condition": "ii"})
    return {"ok": not failures, "witness": failures[0] if failures else None,
            "failures": failures}



def point_at(curve, s):
    """Point at arc length s of the curve (clamped), its arc lengths formed
    afresh at every call."""
    P = curve.points
    if len(P) == 1:
        return P[0].copy()
    cums = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(P, axis=0), axis=1))])
    s = min(max(s, 0.0), cums[-1])
    i = min(int(np.searchsorted(cums, s, side="right")) - 1, len(P) - 2)
    seg = cums[i + 1] - cums[i]
    t = 0.0 if seg <= 0 else (s - cums[i]) / seg
    return (1 - t) * P[i] + t * P[i + 1]


def curve_uniform_distance(c1, c2):
    """descent.curve_uniform_distance one point at a time (point_at)."""
    t = np.linspace(0.0, 1.0, 200)
    p1 = np.array([point_at(c1, ti * c1.length()) for ti in t])
    p2 = np.array([point_at(c2, ti * c2.length()) for ti in t])
    return float(np.linalg.norm(p1 - p2, axis=1).max())


def is_connected_per_pair(fam, grid=None):
    """family.is_connected with every consecutive Hausdorff distance
    measured by geom_core.hausdorff, as it was before the vertex-set bound
    decided most pairs."""
    from descent_geom.geom_core import TAU_PT, hausdorff
    from descent_geom.mean_width import mean_width, width_gap_constant

    n = fam.dim
    fid = 1e-6 if n <= 3 else 1e-3
    diam = fam.bodies[-1].diameter()
    scale = 1.0 + abs(fam.params[-1])
    for K, p in zip(fam.bodies, fam.params):
        if abs(mean_width(K, grid) - p) > fid * scale:
            return False
    c0 = width_gap_constant(n) if n >= 2 else 1.0
    for i in range(len(fam) - 1):
        dp = fam.params[i + 1] - fam.params[i]
        if dp <= 0:
            return False
        if dp > fam.h * (1.0 + 1e-6) + fid * scale:
            return False
        dist = hausdorff(fam.bodies[i], fam.bodies[i + 1])
        lhs = c0 / max(diam, TAU_PT) ** (n - 1) * dist**n
        if lhs > 1.5 * dp + fid * scale:
            return False
    return True


def kept_per_pair(bodies, grid=None):
    """Indices of the bodies validate_stratification keeps, in order of
    mean width, every duplicate test measured by geom_core.hausdorff."""
    from descent_geom.geom_core import TAU_PT, hausdorff
    from descent_geom.mean_width import mean_width

    ws = [mean_width(K, grid) for K in bodies]
    kept = []
    for i in sorted(range(len(bodies)), key=lambda i: ws[i]):
        if kept and hausdorff(bodies[kept[-1]], bodies[i]) <= TAU_PT:
            continue
        kept.append(i)
    return kept


def clip_polygon(subject, eqs, floor, cuts=None):
    """family._clip_polygon: the residual of every point of the ring at
    every remaining halfspace, formed again at each cut.  cuts, when given,
    gains the row of eqs of each halfspace that cuts the ring."""
    out = np.asarray(subject, dtype=float)
    while len(eqs) and len(out):
        r = eqs[:, -1] + sum(out[:, k:k + 1] * eqs[:, k] for k in range(out.shape[1]))
        inside = r <= floor
        cut = np.flatnonzero(~inside.all(axis=0))
        if len(cut) == 0:
            break
        i = cut[0]
        if cuts is not None:
            cuts.append(eqs[i])
        r, inside = r[:, i], inside[:, i]
        prev = np.arange(-1, len(out) - 1)
        j = np.flatnonzero(inside != inside[prev])
        k = prev[j]
        t = r[k] / (r[k] - r[j])
        # Row 2j is the crossing point on the edge into vertex j, row 2j + 1
        # the vertex itself.
        rows = np.empty((2 * len(out), out.shape[1]))
        rows[2 * j] = out[k] + t[:, None] * (out[j] - out[k])
        rows[1::2] = out
        keep = np.zeros(2 * len(out), dtype=bool)
        keep[2 * j] = True
        keep[1::2] = inside
        out = rows[keep]
        eqs = eqs[i + 1:]
    return out


def solve_gap_eager(K1, K2, idx, w1, w2, targets, grid=None):
    """family._solve_gap as it built the f = 1 body before the gap's first
    target and took it as the member of every target at or above its width
    less the tolerance."""
    from descent_geom import family
    from descent_geom.errors import NumericalFailure
    from descent_geom.geom_core import hausdorff
    from descent_geom.mean_width import mean_width

    d = hausdorff(K1, K2)
    lines = family._parallel_lines(K1)

    def body_at(f):
        B = family._intersect_bodies(family.outer_parallel(K1, f * d), K2)
        return f, B, mean_width(B, grid)

    tol = 1e-6 * (w2 - w1)
    top = body_at(1.0)
    w_top = top[2]
    last = (0.0, K1, w1)
    f_lo, w_lo = 0.0, w1
    members = []
    for target in targets:
        if target >= w_top - tol:
            members.append(top[1:])
            continue
        fa, ra, fb, rb, side = f_lo, w_lo - target, 1.0, w_top - target, 0
        for step in range(1, family._SOLVE_MAX_STEPS + 1):
            fl, Bl, wl = last
            if fl > 0.0:
                s = family._width_slope(Bl, fl * d, lines)
            else:
                s = family._first_slope(K1, K2, lines)
            f = fl + (target - wl) / (d * s) if s else fa
            if not fa < f < fb:
                f = (fa * rb - fb * ra) / (rb - ra) if rb > ra else fa
            if not fa < f < fb:
                f = 0.5 * (fa + fb)
            last = body_at(f)
            r = last[2] - target
            if abs(r) <= tol:
                break
            if r < 0:
                if side < 0:
                    rb *= 0.5
                fa, ra, side = f, r, -1
            else:
                if side > 0:
                    ra *= 0.5
                fb, rb, side = f, r, 1
        else:
            raise NumericalFailure(f"width solve between chain bodies {idx} and {idx + 1} "
                                   f"missed target {target:.12g} after {step} steps")
        members.append(last[1:])
        f_lo, w_lo = f, last[2]
    return members
