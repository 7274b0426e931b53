"""Convex stratifications and sampled quasi-convex families.

A stratification is a strictly nested chain of bodies; a family is a
stratification indexed by mean width on a grid of resolution h.  Gaps are
filled by interpolation: the body at fraction f between nested K1 and K2
is K2 intersected with the outer parallel body of K1 at distance
f * dist(K1, K2), realized as a V-polytope.  In the plane both steps end
in a counterclockwise ring that hull() reads off with no Qhull run: the
parallel body as a merge of two edge sequences, the intersection as a
Sutherland-Hodgman clip by the facet halfspaces of the larger body, with
the rounding floor its facet depths are read at.  Completion solves for
the fraction at each target width; for n <= 2 that width is piecewise
affine in f, and each interpolant yields the exact slope of its own piece,
so a Newton step lands on the target inside one piece.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    Degenerate,
    DimensionMismatch,
    InvalidInput,
    NotAChain,
    NumericalFailure,
    PreconditionViolated,
)
from .geom_core import (
    TAU_PT,
    ConvexBody,
    _hausdorff_upper,
    body_from_dict,
    hausdorff,
    hull,
    includes,
    rel_depth_many,
    ring_normals,
    rounding_floor,
    support_many,
    unit_directions,
)
from .mean_width import SphereGrid, mean_width, width_gap_constant


@dataclass(frozen=True)
class Stratification:
    """Bodies strictly ordered by inclusion, smallest first."""

    bodies: tuple
    params: tuple

    @property
    def dim(self):
        return self.bodies[0].dim

    def __len__(self):
        return len(self.bodies)

    def to_dict(self):
        return {"bodies": [K.to_dict() for K in self.bodies], "params": list(self.params)}


@dataclass(frozen=True)
class Family(Stratification):
    """Stratification whose params are mean widths on a grid of step <= h."""

    h: float

    @property
    def interval(self):
        return (self.params[0], self.params[-1])

    def body_at(self, w: float) -> ConvexBody:
        """Member whose mean-width parameter is nearest to w."""
        i = int(np.argmin(np.abs(np.asarray(self.params) - w)))
        return self.bodies[i]

    def to_dict(self):
        return {
            "interval": [self.params[0], self.params[-1]],
            "h": self.h,
            "params": list(self.params),
            "bodies": [K.to_dict() for K in self.bodies],
        }


def _bodies_from_dict(d):
    bodies = d.get("bodies") if isinstance(d, dict) else None
    if not isinstance(bodies, list) or not bodies:
        raise InvalidInput("family JSON must be an object with a nonempty 'bodies' list")
    return [body_from_dict(b) for b in bodies]


def stratification_from_dict(d, grid: SphereGrid = None) -> Stratification:
    return validate_stratification(_bodies_from_dict(d), grid=grid)


def family_from_dict(d, grid: SphereGrid = None) -> Family:
    bodies = _bodies_from_dict(d)
    if len(bodies) < 2:
        raise Degenerate("family JSON must list at least two bodies")
    params = d.get("params")
    if params is None:
        params = [mean_width(K, grid) for K in bodies]
    elif not isinstance(params, list) or len(params) != len(bodies):
        raise InvalidInput(f"family JSON 'params' must list one number per body ({len(bodies)})")
    try:
        h = float(d.get("h", max(np.diff(params), default=0.0)))
        return Family(tuple(bodies), tuple(float(p) for p in params), h)
    except (TypeError, ValueError):
        raise InvalidInput("family JSON 'params' and 'h' must be numbers")


def _inclusion_tol(K: ConvexBody):
    return 1e-9 * (1.0 + K.diameter())


def _widths_apart(A: ConvexBody, B: ConvexBody, wa, wb) -> bool:
    """True when the mean widths wa of A and wb of B show hausdorff(A, B)
    > TAU_PT without a measurement.

    |w(A) - w(B)| <= 2 d_H(A, B), since the support values differ by at
    most d_H in every direction; that holds for quadrature widths too, an
    average over nodes.  So a width gap above 2 TAU_PT shows it, once it
    also clears the widths' rounding, a few eps per term of their sums at
    the scale 1 + max |v|: the margin TAU_PT (1 + max |v|) of each body lies
    far above that.
    """
    vmax = float(np.abs(A.vertices).max()) + float(np.abs(B.vertices).max())
    return abs(wa - wb) > TAU_PT * (4.0 + vmax)


def validate_stratification(bodies, grid: SphereGrid = None) -> Stratification:
    """Sort bodies into an inclusion chain and verify strict nesting.

    A body within TAU_PT of the last one kept, in order of mean width, is
    dropped as a duplicate.  The widths decide most pairs distinct
    (_widths_apart); only the others measure hausdorff.
    Raises NotAChain(i, j) (original indices) on an incomparable pair and
    Degenerate when fewer than two distinct bodies remain.
    """
    if len(bodies) < 2:
        raise Degenerate("a stratification needs at least two bodies")
    dims = {K.dim for K in bodies}
    if len(dims) != 1:
        raise DimensionMismatch("bodies live in different dimensions")
    ws = [mean_width(K, grid) for K in bodies]
    order = sorted(range(len(bodies)), key=lambda i: ws[i])
    kept_idx = []
    for i in order:
        if kept_idx:
            A, B = bodies[kept_idx[-1]], bodies[i]
            if not _widths_apart(A, B, ws[kept_idx[-1]], ws[i]) and hausdorff(A, B) <= TAU_PT:
                continue  # duplicate body at tolerance
        kept_idx.append(i)
    if len(kept_idx) < 2:
        raise Degenerate("minimum and maximum coincide")
    for a, b in zip(kept_idx, kept_idx[1:]):
        if not includes(bodies[b], bodies[a], _inclusion_tol(bodies[b])):
            raise NotAChain(a, b)
    chain = tuple(bodies[i] for i in kept_idx)
    params = tuple(ws[i] for i in kept_idx)
    return Stratification(chain, params)


# -- outer parallel bodies and interpolation ----------------------------------


def outer_parallel(K: ConvexBody, r: float) -> ConvexBody:
    """V-polytope approximation of K + r*B: the hull of the sums of K's
    vertices and the vertices of a polytope inscribed in r*B.

    In the plane that polytope is the regular 32-gon, so the body is
    inscribed in the true parallel body.  As the sum of two convex polygons
    its vertices are selected in O(m) as a merge of their edge sequences,
    a ring that hull() reads without Qhull when it is clear; for parallel
    edges the selection is declined and hull() takes all the sums.
    """
    if r < 0:
        raise InvalidInput("r must be nonnegative")
    if r == 0.0:
        return K
    n = K.dim
    mesh = r * _parallel_mesh(n)
    pts = (K.vertices[:, None, :] + mesh[None, :, :]).reshape(-1, n)
    ring = _minkowski_ring(K.vertices, 32) if n == 2 else None
    return hull(pts[ring] if ring is not None else pts)


def _parallel_mesh(n):
    """Vertices of the polytope P inscribed in the unit ball for which
    outer_parallel(K, r) is K + rP: the regular 32-gon in the plane."""
    if n == 2:
        return unit_directions(2, 32)
    return unit_directions(n, max(32, 2 * n), seed=1)


# w(P) of that polytope in R^1 and the plane, where _first_slope reads it.
_MESH_WIDTH = {n: mean_width(hull(_parallel_mesh(n))) for n in (1, 2)}


def _minkowski_ring(V, arc_points):
    """Indices into the sums V[i] + u_j (row i * arc_points + j) of the
    vertices of conv(V) + conv(u), counterclockwise, for a canonical planar
    vertex list V and the regular polygon u of unit_directions(2, arc_points).

    The normals of u_j form the arc [j, j + 1] * step, those of V[i] the arc
    between the outer normals of its two edges; V[i] + u_j is kept iff the
    two arcs overlap.  None when an edge normal of V lies within 1e-9 of an
    arc end (the sum then has collinear points, as for parallel edges).
    """
    m = len(V)
    if m == 1:
        return np.arange(arc_points)
    step = 2.0 * np.pi / arc_points
    E = np.diff(V, axis=0, append=V[:1])
    a = np.arctan2(-E[:, 0], E[:, 1]) / step % arc_points  # edge normals, in arcs
    if np.any(np.abs(a - np.round(a)) * step < 1e-9):
        return None
    start = a[np.arange(-1, m - 1)]
    first = np.floor(start)
    count = (np.ceil(start + (a - start) % arc_points) - first).astype(int)
    if count.sum() != m + arc_points:  # not one turn: V is not a convex ring
        return None
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    j = (np.repeat(first.astype(int), count) + offset) % arc_points
    return np.repeat(np.arange(m), count) * arc_points + j


def _clip_polygon(subject, eqs, floor):
    """Sutherland-Hodgman: clip a ring by the halfspaces a.x + b <= 0 of the
    rows (a, b) of eqs, a point counting as inside while its residual
    a.x + b is at most floor.  The subject array itself comes back when no
    halfspace cuts it.

    The ring is tested against every remaining halfspace at once; a
    halfspace with every vertex inside leaves it as it is, and the first
    one with a vertex outside cuts it.  Residuals sum the products over the
    coordinates in order, so each is the same whatever halfspaces remain.
    Each edge (k, j) that crosses the cut line contributes
    out[k] + t * (out[j] - out[k]), t = r[k] / (r[k] - r[j]).
    """
    out = np.asarray(subject, dtype=float)
    while len(eqs) and len(out):
        r = eqs[:, -1] + sum(out[:, k:k + 1] * eqs[:, k] for k in range(out.shape[1]))
        inside = r <= floor
        cut = np.flatnonzero(~inside.all(axis=0))
        if len(cut) == 0:
            break
        i = cut[0]
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


def _intersect_bodies(A: ConvexBody, B: ConvexBody) -> ConvexBody:
    """Intersection of two V-polytopes.

    For n <= 2, the ring of the body of lower affine dimension (A on a tie)
    is clipped by the facet halfspaces of the other, which must be
    full-dimensional; a point is inside a halfspace when its residual is at
    most that body's rounding_floor.  When no halfspace cuts the ring, that
    body itself is the intersection: hull() of its vertices would be equal
    to it.  For n >= 3, the halfspace intersection of two full-dimensional
    bodies.
    """
    n = A.dim
    if n <= 2:
        S, C = (A, B) if A.dim_affine <= B.dim_affine else (B, A)
        if C.dim_affine < n:
            raise NumericalFailure("intersection requires a full-dimensional body for n <= 2")
        pts = _clip_polygon(S.vertices, C.facets.equations, rounding_floor(C))
        if pts is S.vertices:
            return S
        if len(pts) == 0:
            raise NumericalFailure("empty intersection")
        return hull(pts)
    if A.dim_affine < n or B.dim_affine < n:
        raise NumericalFailure(
            "halfspace intersection requires full-dimensional bodies in n >= 3"
        )
    from scipy.spatial import HalfspaceIntersection, QhullError

    halfspaces = np.vstack([A.facets.equations, B.facets.equations])
    interior = None
    for cand in (B.centroid(), 0.5 * (A.centroid() + B.centroid()), A.centroid()):
        margins = halfspaces[:, :-1] @ cand + halfspaces[:, -1]
        if np.all(margins < -1e-10):
            interior = cand
            break
    if interior is None:
        raise NumericalFailure("no interior point found for halfspace intersection")
    try:
        hi = HalfspaceIntersection(halfspaces, interior)
    except QhullError as e:
        raise NumericalFailure(f"halfspace intersection failed: {e}")
    return hull(hi.intersections)


def interpolate(K1: ConvexBody, K2: ConvexBody, f: float) -> ConvexBody:
    """Body at normalized fraction f in [0, 1] between nested K1 and K2:
    K2 intersected with the outer parallel body of K1 at f * dist(K1, K2).

    f = 0 reproduces K1 exactly; f = 1 fills K2 up to the mesh tolerance of
    the parallel body; the result is monotone in f.
    """
    if K1.dim != K2.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    if not includes(K2, K1, _inclusion_tol(K2)):
        raise PreconditionViolated("K1 must be included in K2")
    if not -1e-12 <= f <= 1.0 + 1e-12:
        raise InvalidInput("fraction must lie in [0, 1]")
    f = min(max(f, 0.0), 1.0)
    if f == 0.0:
        return K1
    d = hausdorff(K1, K2)
    if d <= TAU_PT:
        return K2
    par = outer_parallel(K1, f * d)
    return _intersect_bodies(par, K2)


# -- completion to a connected family -----------------------------------------

# Steps _solve_gap takes per target width before it gives up.
_SOLVE_MAX_STEPS = 200
# Members complete() builds at most.
_MAX_MEMBERS = 100_000


def _parallel_lines(K1):
    """(N, h1, hP) for n <= 2, else None: the outer unit normals N of the
    edges of K1 + rP for every r > 0 (the ends in R^1), and the support
    values of K1 and of outer_parallel's polytope P at them.

    In the plane N is the edge normals of K1's ring and of P, so the edge
    of K1 + rP with normal N[i] lies on the line <N[i], x> = h1[i] + r hP[i].
    """
    n = K1.dim
    if n > 2:
        return None
    P = _parallel_mesh(n)
    if n == 1:
        N = np.array([[1.0], [-1.0]])
    else:
        N = np.vstack([ring_normals(V) for V in (K1.vertices, P) if len(V) > 1])
    return N, support_many(N, K1.vertices), support_many(N, P)


def _width_slope(B, r, lines):
    """dw/dr of K2 ∩ (K1 + rP) on the affine piece of w(r) that holds B,
    the body at r; None when there is none to read (n >= 3, B not
    full-dimensional) or it is not positive.

    Moving the line of one edge of a polygon out by dh lengthens its
    perimeter by (tan(a/2) + tan(b/2)) dh, a and b the turning angles at
    the edge's ends, and the line of the edge with normal N[i] of K1 + rP
    moves by hP[i] dr.  The sum runs over the edges of B on such a line; in
    R^1 each end on one adds 1.
    """
    if lines is None or B.dim_affine < B.dim:
        return None
    N, h1, hP = lines
    V = B.vertices
    if B.dim == 1:
        A, X, weight = N, V[::-1], np.ones(2)  # V is [lo, hi]
    else:
        A, X = ring_normals(V), V  # edge i runs from V[i]
        Ap = A[np.arange(-1, len(A) - 1)]
        # tan of half the turning angle at each vertex, from its two edges
        T = (Ap[:, 0] * A[:, 1] - Ap[:, 1] * A[:, 0]) / (1.0 + (Ap * A).sum(axis=1))
        weight = (T + np.append(T[1:], T[:1])) / math.pi
    C = A @ N.T
    j = np.argmax(C, axis=1)
    on = (C[np.arange(len(A)), j] >= 1.0 - 1e-12) & (
        np.abs((X * N[j]).sum(axis=1) - h1[j] - r * hP[j]) <= TAU_PT * (1.0 + np.abs(V).max()))
    s = float((hP[j] * weight)[on].sum())
    return s if 0.0 < s < math.inf else None


def _first_slope(K1, K2, lines):
    """dw/dr of K2 ∩ (K1 + rP) as r leaves 0 for n <= 2: the mean width of
    P when K1 lies in K2's interior, so that the body is K1 + rP at first;
    else None."""
    if lines is None or rel_depth_many(K2, K1.vertices)[0].min() <= 0.0:
        return None
    return _MESH_WIDTH[K1.dim]


def _solve_gap(K1, K2, idx, w1, w2, targets, grid):
    """(body, width) at each sorted target width in the gap (w1, w2)
    between chain bodies idx and idx + 1.

    The width of interpolate(K1, K2, f) is monotone in f: target j is
    bracketed by target j - 1's solution and f = 1, and solved to 1e-6 of
    the gap.  For n <= 2 that width is piecewise affine in f, and each
    iterate gives the slope of its own piece (_width_slope): a Newton step
    from the last iterate is exact inside one piece.  The first target's
    last iterate is K1 at f = 0, with the slope _first_slope.  When the
    step leaves the bracket, or there is no slope, the step is Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 1971).  The width is concave
    in f (B(f) contains the Minkowski mean of the bodies at any two
    fractions around f), so a Newton step from either side lands at or
    below the target.

    So the f = 1 body is built only when a step first reads the residual
    at the bracket's upper end, f = 1: when there is no slope (at the first
    step for n >= 3) or a Newton step lands at or beyond f = 1.  Illinois
    halvings of that residual before then are applied when it is read;
    halving is exact, so the steps are those of a solver that built the
    f = 1 body first.  From then on, a target at or above its width less
    the tolerance takes it as its member, as every later target does.
    """
    d = hausdorff(K1, K2)
    lines = _parallel_lines(K1)

    def body_at(f):
        B = _intersect_bodies(outer_parallel(K1, f * d), K2)
        return f, B, mean_width(B, grid)

    tol = 1e-6 * (w2 - w1)
    top = None  # body_at(1.0), once a step has read its residual
    last = (0.0, K1, w1)

    def solve(target, fa, ra):
        """The member (f, B, w) at target in the bracket [fa, 1], ra the
        residual at fa."""
        nonlocal top, last
        if top is not None and target >= top[2] - tol:
            return top
        # rb is None while the residual at fb = 1 is unread, and owed holds
        # the Illinois halvings it is owed by then.
        fb, rb, owed, side = 1.0, None, 1.0, 0
        for step in range(1, _SOLVE_MAX_STEPS + 1):
            # The Newton step from the last iterate (fa when it has no
            # slope), else Illinois, else the midpoint.
            fl, Bl, wl = last
            s = _width_slope(Bl, fl * d, lines) if fl > 0.0 else _first_slope(K1, K2, lines)
            f = fl + (target - wl) / (d * s) if s else fa
            if not fa < f < fb:
                if rb is None:
                    if top is None:
                        top = body_at(1.0)
                        if target >= top[2] - tol:
                            return top
                    rb = (top[2] - target) * owed
                f = (fa * rb - fb * ra) / (rb - ra) if rb > ra else fa
            if not fa < f < fb:
                f = 0.5 * (fa + fb)
            last = body_at(f)
            r = last[2] - target
            if abs(r) <= tol:
                return last
            # Illinois: when f replaces the same end twice in a row, halve
            # the residual of the end that was kept.
            if r < 0:
                if side < 0 and rb is None:
                    owed *= 0.5
                elif side < 0:
                    rb *= 0.5
                fa, ra, side = f, r, -1
            else:
                if side > 0:
                    ra *= 0.5
                fb, rb, side = f, r, 1
        raise NumericalFailure(
            f"width solve between chain bodies {idx} and {idx + 1} missed "
            f"target {target:.12g} after {step} steps: last residual {r:.3g}, "
            f"tolerance {tol:.3g}"
        )

    members = []
    f_lo, w_lo = 0.0, w1
    for target in targets:
        # Once a target takes the f = 1 body, every later one does.
        f_lo, B, w_lo = solve(target, f_lo, w_lo - target)
        members.append((B, w_lo))
    return members


def complete(strat: Stratification, h: float, grid: SphereGrid = None) -> Family:
    """Fill a stratification into a sampled connected family of step <= h.

    Original bodies appear at their own mean widths; each gap wider than h
    is subdivided, and the interpolation fraction of each new member is
    solved in a warm bracket (_solve_gap: Newton steps on the piecewise
    affine width for n <= 2, else Illinois regula falsi) so it hits the
    width grid.
    """
    if not h > 0:
        raise InvalidInput("resolution h must be positive")
    ws = [mean_width(K, grid) for K in strat.bodies]
    # A gap wider than h is cut into ceil(gap / 0.9h) pieces.  They are
    # counted in floats (a tiny h counts inf) before any member is built.
    pieces = [np.ceil((w2 - w1) / (0.9 * h)) if w2 - w1 > h else 1.0
              for w1, w2 in zip(ws, ws[1:])]
    members = 1.0 + sum(pieces)
    if members > _MAX_MEMBERS:
        raise InvalidInput(
            f"resolution h = {h:.6g} would make {members:.6g} members "
            f"(at most {_MAX_MEMBERS})"
        )
    bodies = []
    params = []
    for idx in range(len(ws) - 1):
        K1, K2 = strat.bodies[idx], strat.bodies[idx + 1]
        w1, w2 = ws[idx], ws[idx + 1]
        bodies.append(K1)
        params.append(w1)
        if pieces[idx] == 1.0:
            continue
        gap, k = w2 - w1, int(pieces[idx])
        targets = [w1 + gap * j / k for j in range(1, k)]
        for B, w in _solve_gap(K1, K2, idx, w1, w2, targets, grid):
            bodies.append(B)
            params.append(w)
    bodies.append(strat.bodies[-1])
    params.append(ws[-1])
    for a, b in zip(params, params[1:]):
        if b - a > h * (1.0 + 1e-6) + 1e-9:
            raise NumericalFailure(
                f"completion left a width step of {b - a:.3g} > h = {h:.3g}"
            )
    return Family(tuple(bodies), tuple(params), h)


def is_connected(fam: Family, grid: SphereGrid = None) -> bool:
    """Resolution-relative connectedness surrogate.

    Checks that params are honest mean widths, steps do not exceed h, and
    each consecutive Hausdorff jump obeys the width-gap lower bound
    (c0_n / diam^{n-1}) * dist^n <= 1.5 * delta_param.  A flat-zone jump
    (large Hausdorff distance at a small parameter gap) fails.  Widths are
    exact for n <= 3 and held to 1e-6 relative; quadrature widths (n >= 4)
    to 1e-3.

    Each jump is bounded first by the Hausdorff distance between the two
    members' vertex sets, with a margin for hausdorff's rounding
    (geom_core._hausdorff_upper).  A pair that passes at that bound passes;
    only the others measure hausdorff and take the test at its value, so
    every False comes from a measured distance.
    """
    n = fam.dim
    fid = 1e-6 if n <= 3 else 1e-3
    diam = fam.bodies[-1].diameter()
    scale = 1.0 + abs(fam.params[-1])
    for K, p in zip(fam.bodies, fam.params):
        if abs(mean_width(K, grid) - p) > fid * scale:
            return False
    c0 = width_gap_constant(n) if n >= 2 else 1.0
    coef = c0 / max(diam, TAU_PT) ** (n - 1)
    for i in range(len(fam) - 1):
        dp = fam.params[i + 1] - fam.params[i]
        if dp <= 0:
            return False
        if dp > fam.h * (1.0 + 1e-6) + fid * scale:
            return False
        A, B = fam.bodies[i], fam.bodies[i + 1]
        rhs = 1.5 * dp + fid * scale
        if coef * _hausdorff_upper(A, B) ** n <= rhs:
            continue
        if coef * hausdorff(A, B) ** n > rhs:
            return False
    return True


def family_distance(F: Family, G: Family) -> float:
    """Sup over a common width grid of the Hausdorff distance between the
    members of two families sharing the same width interval (up to 1e-3 of
    its length)."""
    if F.dim != G.dim:
        raise DimensionMismatch("families live in different dimensions")
    a1, b1 = F.interval
    a2, b2 = G.interval
    slack = 1e-3 * max(b1 - a1, b2 - a2, TAU_PT)
    if abs(a1 - a2) > slack or abs(b1 - b2) > slack:
        raise InvalidInput("families cover different mean-width intervals")
    ws = sorted(set(F.params) | set(G.params))
    lo, hi = max(a1, a2), min(b1, b2)
    d = 0.0
    for w in ws:
        if w < lo - slack or w > hi + slack:
            continue
        d = max(d, hausdorff(F.body_at(w), G.body_at(w)))
    return d

