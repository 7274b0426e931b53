"""Convex stratifications and sampled quasi-convex families.

A stratification is a strictly nested chain of bodies; a family is a
stratification indexed by mean width on a grid of resolution h.  Gaps are
filled by interpolation: the body at fraction f between nested K1 and K2
is K2 intersected with the outer parallel body of K1 at distance
f * dist(K1, K2), realized as a V-polytope.  In the plane both steps read
their result off as a counterclockwise ring (geom_core.ring_hull), with no
Qhull run: the parallel body as a merge of two edge sequences, the
intersection as the output of a Sutherland-Hodgman clip.
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
    body_from_dict,
    hausdorff,
    hull,
    includes,
    ring_hull,
    unit_directions,
)
from .mean_width import SphereGrid, mean_width, width_gap_constant


@dataclass(frozen=True)
class Stratification:
    """Bodies strictly ordered by inclusion, smallest first."""

    bodies: tuple
    params: tuple = None

    @property
    def dim(self):
        return self.bodies[0].dim

    def __len__(self):
        return len(self.bodies)

    def to_dict(self):
        d = {"bodies": [K.to_dict() for K in self.bodies]}
        if self.params is not None:
            d["params"] = list(self.params)
        return d


@dataclass(frozen=True)
class Family(Stratification):
    """Stratification whose params are mean widths on a grid of step <= h."""

    h: float = 0.0

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


def _inclusion_tol(K: ConvexBody, tol):
    return max(tol, 1e-9 * (1.0 + K.diameter()))


def validate_stratification(bodies, tol=TAU_PT, grid: SphereGrid = None) -> Stratification:
    """Sort bodies into an inclusion chain and verify strict nesting.

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
        if kept_idx and hausdorff(bodies[kept_idx[-1]], bodies[i]) <= tol:
            continue  # duplicate body at tolerance
        kept_idx.append(i)
    if len(kept_idx) < 2:
        raise Degenerate("minimum and maximum coincide")
    for a, b in zip(kept_idx, kept_idx[1:]):
        if not includes(bodies[b], bodies[a], _inclusion_tol(bodies[b], tol)):
            raise NotAChain(a, b)
    chain = tuple(bodies[i] for i in kept_idx)
    params = tuple(ws[i] for i in kept_idx)
    return Stratification(chain, params)


# -- outer parallel bodies and interpolation ----------------------------------


def outer_parallel(K: ConvexBody, r: float, arc_points: int = 32) -> ConvexBody:
    """V-polytope approximation of K + r*B: the hull of the sums of K's
    vertices and the vertices of a polytope inscribed in r*B.

    In the plane that polytope is the regular arc_points-gon, so the body is
    inscribed in the true parallel body.  As the sum of two convex polygons
    it is read off in O(m) as a merge of their edge sequences, or, for
    parallel edges or a ring that is not clearly convex, as the hull of all
    the sums.
    """
    if r < 0:
        raise InvalidInput("r must be nonnegative")
    if r == 0.0:
        return K
    n = K.dim
    if n == 2:
        mesh = r * unit_directions(2, arc_points)
    else:
        mesh = r * unit_directions(n, max(arc_points, 2 * n), seed=1)
    pts = (K.vertices[:, None, :] + mesh[None, :, :]).reshape(-1, n)
    if n == 2:
        ring = _minkowski_ring(K.vertices, arc_points)
        if ring is not None:
            return ring_hull(pts[ring], pts)
    return hull(pts)


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


def _clip_polygon(subject, clip, eps=1e-12):
    """Sutherland-Hodgman: clip a polygon ring by a convex CCW polygon.

    The ring is tested against every remaining clip edge at once; an edge
    with every vertex inside leaves it as it is, and the first edge with a
    vertex outside cuts it.
    """
    out = np.asarray(subject, dtype=float)
    e = np.concatenate((clip[1:], clip[:1])) - clip
    floor = -eps * (1.0 + float(np.abs(clip).max()))
    edges = np.flatnonzero(np.sqrt(np.einsum("ij,ij->i", e, e)) > TAU_PT)
    while len(edges) and len(out):
        a, d = clip[edges], e[edges]
        s = d[:, :1] * (out[:, 1] - a[:, 1:]) - d[:, 1:] * (out[:, 0] - a[:, :1])
        inside = s >= floor
        cut = np.flatnonzero(~inside.all(axis=1))
        if len(cut) == 0:
            break
        i = cut[0]
        out = _clip_ring(out, s[i], inside[i])
        edges = edges[i + 1:]
    return out


def _clip_ring(out, s, inside):
    """The ring out cut to the vertices with inside set, at signed
    distances s to the clip line: each edge (k, j) that crosses the line
    contributes out[k] + t * (out[j] - out[k]), t = s[k] / (s[k] - s[j])."""
    prev = np.arange(-1, len(out) - 1)
    j = np.flatnonzero(inside != inside[prev])
    k = prev[j]
    t = s[k] / (s[k] - s[j])
    # Row 2j is the crossing point on the edge into vertex j, row 2j + 1 the
    # vertex itself.
    rows = np.empty((2 * len(out), 2))
    rows[2 * j] = out[k] + t[:, None] * (out[j] - out[k])
    rows[1::2] = out
    keep = np.zeros(2 * len(out), dtype=bool)
    keep[2 * j] = True
    keep[1::2] = inside
    return rows[keep]


def _intersect_bodies(A: ConvexBody, B: ConvexBody) -> ConvexBody:
    """Intersection of two V-polytopes (A full-dimensional in the plane,
    halfspace intersection in higher dimensions)."""
    n = A.dim
    if n == 1:
        lo = max(A.vertices.min(), B.vertices.min())
        hi = min(A.vertices.max(), B.vertices.max())
        if lo > hi:
            raise NumericalFailure("empty intersection")
        return hull([[lo], [hi]])
    if n == 2:
        if B.nvertices == 1:
            return B
        if B.dim_affine == 2:
            pts = _clip_polygon(A.vertices, B.vertices)
        else:
            pts = _clip_polygon(B.vertices, A.vertices)
        if len(pts) == 0:
            raise NumericalFailure("empty intersection")
        return ring_hull(pts)
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
    if not includes(K2, K1, _inclusion_tol(K2, TAU_PT)):
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

# Regula falsi steps _solve_gap takes per target width before it gives up.
_SOLVE_MAX_STEPS = 200


def _solve_gap(K1, K2, idx, w1, w2, targets, grid):
    """(body, width) at each sorted target width in the gap (w1, w2)
    between chain bodies idx and idx + 1.

    The width of interpolate(K1, K2, f) is monotone in f: target j is
    bracketed by target j - 1's solution and f = 1, and solved to 1e-6 of
    the gap by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).
    """
    d = hausdorff(K1, K2)

    def body_at(f):
        B = _intersect_bodies(outer_parallel(K1, f * d), K2)
        return B, mean_width(B, grid)

    tol = 1e-6 * (w2 - w1)
    top, w_top = body_at(1.0)
    f_lo, w_lo = 0.0, w1
    members = []
    for target in targets:
        if target >= w_top - tol:
            members.append((top, w_top))
            continue
        fa, ra, fb, rb, side = f_lo, w_lo - target, 1.0, w_top - target, 0
        for step in range(1, _SOLVE_MAX_STEPS + 1):
            f = (fa * rb - fb * ra) / (rb - ra) if rb > ra else fa
            if not fa < f < fb:
                f = 0.5 * (fa + fb)
            B, w = body_at(f)
            r = w - target
            if abs(r) <= tol:
                break
            # Illinois: when f replaces the same end twice in a row, halve
            # the residual of the end that was kept.
            if r < 0:
                if side < 0:
                    rb *= 0.5
                fa, ra, side = f, r, -1
            else:
                if side > 0:
                    ra *= 0.5
                fb, rb, side = f, r, 1
        else:
            raise NumericalFailure(
                f"width solve between chain bodies {idx} and {idx + 1} missed "
                f"target {target:.12g} after {step} steps: last residual {r:.3g}, "
                f"tolerance {tol:.3g}"
            )
        members.append((B, w))
        f_lo, w_lo = f, w
    return members


def complete(strat: Stratification, h: float, grid: SphereGrid = None) -> Family:
    """Fill a stratification into a sampled connected family of step <= h.

    Original bodies appear at their own mean widths; each gap wider than h
    is subdivided, and the interpolation fraction of each new member is
    solved by warm-bracketed Illinois regula falsi so it hits the width grid.
    """
    if h <= 0:
        raise InvalidInput("resolution h must be positive")
    ws = [mean_width(K, grid) for K in strat.bodies]
    bodies = []
    params = []
    for idx in range(len(ws) - 1):
        K1, K2 = strat.bodies[idx], strat.bodies[idx + 1]
        w1, w2 = ws[idx], ws[idx + 1]
        bodies.append(K1)
        params.append(w1)
        gap = w2 - w1
        if gap <= h:
            continue
        pieces = int(math.ceil(gap / (0.9 * h)))
        targets = [w1 + gap * j / pieces for j in range(1, pieces)]
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


def is_connected(fam: Family, tol: float = 1.5, grid: SphereGrid = None) -> bool:
    """Resolution-relative connectedness surrogate.

    Checks that params are honest mean widths, steps do not exceed h, and
    each consecutive Hausdorff jump obeys the width-gap lower bound
    (c0_n / diam^{n-1}) * dist^n <= tol * delta_param.  A flat-zone jump
    (large Hausdorff distance at a small parameter gap) fails.
    """
    n = fam.dim
    fid = 1e-6 if n <= 2 else 1e-3
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
        if lhs > tol * dp + fid * scale:
            return False
    return True


def family_distance(F: Family, G: Family, interval_tol: float = 1e-3) -> float:
    """Sup over a common width grid of the Hausdorff distance between the
    members of two families sharing the same width interval."""
    if F.dim != G.dim:
        raise DimensionMismatch("families live in different dimensions")
    a1, b1 = F.interval
    a2, b2 = G.interval
    span = max(b1 - a1, b2 - a2, TAU_PT)
    if abs(a1 - a2) > interval_tol * span or abs(b1 - b2) > interval_tol * span:
        raise InvalidInput("families cover different mean-width intervals")
    ws = sorted(set(F.params) | set(G.params))
    lo, hi = max(a1, a2), min(b1, b2)
    d = 0.0
    for w in ws:
        if w < lo - interval_tol * span or w > hi + interval_tol * span:
            continue
        d = max(d, hausdorff(F.body_at(w), G.body_at(w)))
    return d


def bracket_body(fam: Family, K: ConvexBody, tol=TAU_PT):
    """Indices (i1, i2) of the largest member inside K and the smallest
    member containing K; either may be None when no member qualifies."""
    i1 = None
    i2 = None
    for i, Q in enumerate(fam.bodies):
        if includes(K, Q, _inclusion_tol(K, tol)):
            i1 = i
    for i in reversed(range(len(fam))):
        if includes(fam.bodies[i], K, _inclusion_tol(fam.bodies[i], tol)):
            i2 = i
    return i1, i2
