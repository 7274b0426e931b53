"""Expanding couples and steepest-descent curve synthesis.

Curves are built backward from a boundary endpoint by successive nearest-
point projection onto the members of a connected family; the resulting
polyline is a self-expanding path and forms an expanding couple with the
family.  The module also hosts the validation predicates (expanding
couple, viable steepest-descent curve), the joint parametrization with its
Lipschitz certificate, stability and annulus-length bounds, and the
counterexample fixtures (Cantor graph, revolved-pancake family,
near-extremal spirals).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionViolated
from .geom_core import (
    TAU_PT,
    ConvexBody,
    as_point,
    contains,
    distances,
    hausdorff,
    hull,
    project,
    rel_depth_many,
    unit_directions,
)
from .cones import in_normal_cone
from .family import Family, Stratification, validate_stratification
from .mean_width import SphereGrid, lipschitz_constant, mean_width, width_gap_constant
from .sep import Polyline, is_sep


def _bd_tol(K: ConvexBody) -> float:
    return 1e-6 * (1.0 + K.diameter())


def on_rel_boundary(K: ConvexBody, x, tol=None) -> bool:
    """Two-sided band test: on Aff(K), inside K up to tol, within tol of
    the relative boundary."""
    tol = _bd_tol(K) if tol is None else tol
    depth, off = rel_depth_many(K, as_point(x, K.dim))
    return off[0] <= tol and abs(depth[0]) <= tol


# -- segment / body clipping ---------------------------------------------------


def _segment_inside_interval_eqs(eqs, a, b):
    """Parameter interval of {t in [0,1] : a + t(b-a) in K} from facet
    equations; None when the segment misses K.  No equations (a point
    body) give [0, 1]."""
    d = b - a
    alpha = eqs[:, :-1] @ a + eqs[:, -1]
    beta = eqs[:, :-1] @ d
    lo, hi = 0.0, 1.0
    scale = 1.0 + np.abs(alpha).max(initial=0.0)
    # on a polygon's few facets a loop over floats beats array operations
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
    return max(lo, 0.0), min(hi, 1.0)


def _segment_interval(K: ConvexBody, a, b):
    """Inside interval (t0, t1) of the segment a->b, or None: exact
    clipping by K's facet equations.

    For a lower-dimensional K the facets bound the cylinder over K, so the
    interval is also cut to the parameters where the segment lies within
    eps = 1e-12 * (1 + max|a - c|) of Aff(K).  With o0 and o1 the parts of
    a - c and b - a orthogonal to Aff(K), that band is the interval of
    half-width sqrt(eps^2 - r^2) / |o1| around the parameter t* nearest to
    Aff(K), r = |o0 + t* o1|; a segment parallel to Aff(K) is in the band
    everywhere or nowhere.
    """
    c, B, eqs, _ = K.facets
    iv = _segment_inside_interval_eqs(eqs, a, b)
    if iv is None or len(B) == K.dim:
        return iv
    y, d = a - c, b - a
    o0 = y - (y @ B.T) @ B
    o1 = d - (d @ B.T) @ B
    scale = 1.0 + np.abs(y).max()
    eps = 1e-12 * scale
    n1 = np.linalg.norm(o1)
    if n1 <= 1e-14 * scale:
        return iv if np.linalg.norm(o0) <= eps else None
    ts = -(o0 @ o1) / (n1 * n1)
    r = np.linalg.norm(o0 + ts * o1)
    if r > eps:
        return None
    hw = math.sqrt(eps * eps - r * r) / n1
    lo, hi = max(iv[0], ts - hw), min(iv[1], ts + hw)
    if lo > hi:
        return None
    return lo, hi


def _candidate_segments(K: ConvexBody, P):
    """Indices i, rising, of the segments P[i] -> P[i+1] that may meet K.

    A segment is dropped when both its ends lie beyond one facet (of K, or
    of the cylinder over a lower-dimensional K) by 1e-9 * (1 + the largest
    |residual| at either end), which _segment_inside_interval_eqs rejects
    as well, so clipping the remaining segments gives the same answers.
    """
    eqs = K.facets.equations
    R = P @ eqs[:, :-1].T + eqs[:, -1]
    scale = 1.0 + np.abs(R).max(axis=1, initial=0.0)
    margin = 1e-9 * np.maximum(scale[:-1], scale[1:])[:, None]
    return np.nonzero(~((R[:-1] > margin) & (R[1:] > margin)).any(axis=1))[0]


def segment_inside_interval(K: ConvexBody, a, b):
    """Interval of the segment a->b lying inside K ((t0, t1) or None)."""
    return _segment_interval(K, as_point(a, K.dim), as_point(b, K.dim))


def clip_length_outside(gamma: Polyline, K: ConvexBody) -> float:
    """Length of the part of the curve outside K, by exact segment
    clipping (lower-dimensional K within a relative 1e-12 of Aff(K))."""
    P = gamma.points
    if len(P) < 2:
        return 0.0
    total = gamma.length()
    inside = 0.0
    for i in range(len(P) - 1):
        a, b = P[i], P[i + 1]
        seglen = float(np.linalg.norm(b - a))
        if seglen <= 0:
            continue
        iv = _segment_interval(K, a, b)
        if iv is not None:
            inside += (iv[1] - iv[0]) * seglen
    return total - inside


# -- expanding couples ---------------------------------------------------------


@dataclass(frozen=True)
class ExpandingCouple:
    """A curve, a family, and the joint alignment x(t) = last curve point
    inside each member (as (arclength, point) rows, one per member)."""

    curve: Polyline
    family: Family
    align_s: np.ndarray
    align_x: np.ndarray


def _last_inside(K: ConvexBody, P, cums, tol):
    """(arc length, point) of the last point of the polyline P inside K, or
    None.  Segments are clipped exactly; tol is the membership tolerance of
    a one-point curve."""
    if len(P) == 1:
        return (0.0, P[0].copy()) if contains(K, P[0], tol) else None
    for i in _candidate_segments(K, P)[::-1]:
        iv = _segment_interval(K, P[i], P[i + 1])
        if iv is not None:
            return cums[i] + iv[1] * (cums[i + 1] - cums[i]), P[i] + iv[1] * (P[i + 1] - P[i])
    return None


def align_curve(curve: Polyline, bodies, tol=None):
    """Last curve point (by arc length) inside each body.

    Returns (s_values, points); raises InvalidInput when some body contains
    no point of the curve.  tol (default _bd_tol(K)) is the membership
    tolerance of a one-point curve.
    """
    P, cums = curve.points, curve.arclengths()
    s_out, x_out = [], []
    for K in bodies:
        found = _last_inside(K, P, cums, _bd_tol(K) if tol is None else tol)
        if found is None:
            raise InvalidInput("alignment failure: a family member misses the curve")
        s_out.append(found[0])
        x_out.append(found[1])
    return np.array(s_out), np.array(x_out)


def make_expanding_couple(curve: Polyline, fam: Family, tol=None) -> ExpandingCouple:
    """A SEP curve (at tolerance tol, default 1e-7) ending on the boundary
    of the largest member (tol floors _bd_tol there), aligned to every
    member at its own _bd_tol."""
    chk = is_sep(curve, 1e-7 if tol is None else tol)
    if not chk["ok"]:
        raise PreconditionViolated(f"curve is not a self-expanding path: {chk['witness']}")
    top = fam.bodies[-1]
    if not on_rel_boundary(top, curve.points[-1], max(tol or 0.0, _bd_tol(top))):
        raise PreconditionViolated("curve must end on the boundary of max(family)")
    s, x = align_curve(curve, fam.bodies)
    if np.any(np.diff(s) < -1e-9 * (1.0 + s[-1])):
        raise InvalidInput("alignment is not monotone along the curve")
    return ExpandingCouple(curve, fam, s, x)


def construct_descent(fam: Family, endpoint, m: int, tol=None) -> Polyline:
    """Backward successive-projection construction of a descent curve.

    Picks m mean-width knots from the family grid (uniform subsample,
    endpoints included), sets p_m = endpoint on the boundary of the largest
    member and p_{j-1} = projection of p_j onto the member at knot j-1.
    Zero-length steps (constancy intervals) collapse.  The result is
    reported from the innermost point outward and is a self-expanding path
    forming an expanding couple with the family.
    """
    if m < 2:
        raise InvalidInput("need at least two knots")
    endpoint = as_point(endpoint, fam.dim)
    top = fam.bodies[-1]
    btol = _bd_tol(top) if tol is None else tol
    if not on_rel_boundary(top, endpoint, btol):
        raise PreconditionViolated("endpoint must lie on the boundary of max(family)")
    idx = np.unique(np.round(np.linspace(0, len(fam) - 1, m)).astype(int))
    pts = [endpoint]
    cur = endpoint
    for j in reversed(idx[:-1]):
        cur = project(fam.bodies[j], cur)
        pts.append(cur)
    return Polyline.make(list(reversed(pts)))


def is_expanding_couple(gamma: Polyline, strat: Stratification, tol: float = 1e-7,
                        grid: SphereGrid = None):
    """Decide whether (gamma, strat) is an expanding couple.

    Checks the SEP property, that the curve meets every member and the
    relative boundary of the largest one, and the distance monotonicity:
    for every member Q, vertex y of Q and curve vertex x outside the
    relative interior of Q, no later curve vertex is closer to y.  The
    witness of a distance failure is the worst offending triple; that of a
    missed member is its mean width on grid.
    """
    sep_chk = is_sep(gamma, tol)
    if not sep_chk["ok"]:
        return {"ok": False, "condition": "sep", "witness": sep_chk["witness"]}
    P, cums = gamma.points, gamma.arclengths()
    top = strat.bodies[-1]
    for Q in strat.bodies:
        if _last_inside(Q, P, cums, max(tol, _bd_tol(Q))) is None:
            return {"ok": False, "condition": "i", "witness": {"body_width": mean_width(Q, grid)}}
    btol = max(tol, _bd_tol(top))
    depth, off = rel_depth_many(top, P)
    if not np.any((off <= btol) & (np.abs(depth) <= btol)):
        return {"ok": False, "condition": "ii", "witness": None}
    worst = None
    scale = 1.0 + top.diameter()
    for qi, Q in enumerate(strat.bodies):
        D = distances(P, Q.vertices)  # m x q
        suffix = np.minimum.accumulate(D[::-1], axis=0)[::-1]
        depth, off = rel_depth_many(Q, P)
        outside = ~((off <= _bd_tol(Q)) & (depth > _bd_tol(Q)))
        rows = np.nonzero(outside[:-1])[0]
        if len(rows) == 0:
            continue
        # worst over this body: the first row, and in it the first vertex,
        # of the largest gap; it replaces an earlier body's only if larger
        gap = D[rows] - suffix[rows + 1]
        best = gap.max(axis=1)
        r = int(np.argmax(best))
        if best[r] > tol * scale and (worst is None or best[r] > worst[0]):
            i, j = int(rows[r]), int(np.argmax(gap[r]))
            later = int(i + 1 + np.argmin(D[i + 1 :, j]))
            worst = (float(best[r]), qi, i, j, later)
    if worst is None:
        return {"ok": True, "condition": None, "witness": None}
    gap, qi, i, j, later = worst
    return {
        "ok": False,
        "condition": "iii",
        "witness": {
            "body_index": qi,
            "x": P[i].copy(),
            "y": strat.bodies[qi].vertices[j].copy(),
            "x1": P[later].copy(),
            "dist_x_y": float(np.linalg.norm(P[i] - strat.bodies[qi].vertices[j])),
            "dist_x1_y": float(np.linalg.norm(P[later] - strat.bodies[qi].vertices[j])),
            "violation": gap,
        },
    }


def is_viable_sdc(gamma: Polyline, fam: Family, tol: float = 1e-6, bd_tol=None):
    """Discrete viable steepest-descent check against a sampled family.

    At each knot the aligned point must lie on the relative boundary of the
    member, and some one-sided curve direction there must belong to the
    member's normal cone (support-gap membership at tolerance tol).  The
    witness is the first failing knot.
    """
    s, x = align_curve(gamma, fam.bodies, bd_tol)
    P = gamma.points
    cums = gamma.arclengths()
    failures = []
    for k, (K, sk, xk) in enumerate(zip(fam.bodies, s, x)):
        bt = _bd_tol(K) if bd_tol is None else bd_tol
        if not on_rel_boundary(K, xk, bt):
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
    return {
        "ok": not failures,
        "witness": failures[0] if failures else None,
        "failures": failures,
    }


def joint_parametrization(ec: ExpandingCouple):
    """Graph-length reparametrization of an expanding couple.

    With s(w) the curve arc length inside the member of width w, the new
    parameter is the arc length tau of the planar graph (w, s(w)); the
    aligned points z(tau) are then 1-Lipschitz in tau.
    """
    w = np.asarray(ec.family.params, dtype=float)
    s = ec.align_s
    if len(w) == 1:
        return {"tau_grid": np.zeros(1), "z_points": ec.align_x.copy(),
                "s_values": s.copy(), "lipschitz_estimate": 0.0}
    steps = np.sqrt(np.diff(w) ** 2 + np.diff(s) ** 2)
    tau = np.concatenate([[0.0], np.cumsum(steps)])
    dz = np.linalg.norm(np.diff(ec.align_x, axis=0), axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(steps > 0, dz / steps, 0.0)
    return {
        "tau_grid": tau,
        "z_points": ec.align_x.copy(),
        "s_values": s.copy(),
        "lipschitz_estimate": float(ratios.max()) if len(ratios) else 0.0,
    }


def stability_check(ec1: ExpandingCouple, ec2: ExpandingCouple, tol: float = 1e-9):
    """Knot-wise distance control of two couples over one family: never
    above the endpoint distance, and non-decreasing along the knots."""
    if ec1.family is not ec2.family and not (
        len(ec1.family) == len(ec2.family)
        and np.allclose(ec1.family.params, ec2.family.params)
    ):
        raise InvalidInput("expanding couples must share their family")
    d = np.linalg.norm(ec1.align_x - ec2.align_x, axis=1)
    end_gap = float(np.linalg.norm(ec1.curve.points[-1] - ec2.curve.points[-1]))
    max_violation = float(np.max(d - end_gap, initial=0.0))
    monotone = bool(np.all(np.diff(d) >= -tol * (1.0 + end_gap)))
    return {
        "ok": max_violation <= tol * (1.0 + end_gap) and monotone,
        "max_violation": max_violation,
        "monotone": monotone,
        "distances": d,
    }


def annulus_length_check(ec: ExpandingCouple, K1_index: int, tol: float = 1e-9,
                         grid: SphereGrid = None):
    """Length of the curve outside an inner member against the two
    annulus bounds: 2*c1_n*dist(K1, K2) and the diameter-dependent
    width-gap bound c * (w(K2) - w(K1))^{1/n}, widths on grid."""
    K1 = ec.family.bodies[K1_index]
    K2 = ec.family.bodies[-1]
    n = K1.dim
    c1 = lipschitz_constant(n)
    len_outside = clip_length_outside(ec.curve, K1)
    dist12 = hausdorff(K1, K2)
    delta_w = mean_width(K2, grid) - mean_width(K1, grid)
    bound_i = 2.0 * c1 * dist12
    if n >= 2 and K2.diameter() > 0:
        c_diam = 2.0 * c1 * (K2.diameter() ** (n - 1) / width_gap_constant(n)) ** (1.0 / n)
    else:
        c_diam = 2.0 * c1
    bound_ii = c_diam * max(delta_w, 0.0) ** (1.0 / n)
    slack = tol * (1.0 + K2.diameter())
    return {
        "len_outside": len_outside,
        "dist12": dist12,
        "delta_w": delta_w,
        "bound_i": bound_i,
        "bound_ii": bound_ii,
        "bound_i_ok": len_outside <= bound_i + slack,
        "bound_ii_ok": len_outside <= bound_ii + slack,
    }


def curve_uniform_distance(c1: Polyline, c2: Polyline, samples: int = 200) -> float:
    """Uniform distance between two curves at common normalized arc length."""
    t = np.linspace(0.0, 1.0, samples)
    l1, l2 = c1.length(), c2.length()
    p1 = np.array([c1.point_at(ti * l1) for ti in t])
    p2 = np.array([c2.point_at(ti * l2) for ti in t])
    return float(np.linalg.norm(p1 - p2, axis=1).max())


# -- fixtures ------------------------------------------------------------------


def _width_family(bodies, grid: SphereGrid = None) -> Family:
    """Family of the given bodies, params their mean widths on grid and h
    just above the largest param step."""
    bodies = tuple(bodies)
    params = tuple(mean_width(K, grid) for K in bodies)
    h = float(np.max(np.diff(params)))
    return Family(bodies, params, h * (1.0 + 1e-9))


def cantor_points(level: int):
    """Breakpoints of the level-L polyline approximation of the Cantor
    function graph on [0, 1]."""
    if level < 0:
        raise InvalidInput("level must be >= 0")
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    for _ in range(level):
        left = pts * [1.0 / 3.0, 0.5]
        right = pts * [1.0 / 3.0, 0.5] + [2.0 / 3.0, 0.5]
        pts = np.vstack([left, right])
    return pts


def cantor_graph(level: int = 8) -> Polyline:
    """Graph of the Cantor function at finite level: a planar SEP whose
    natural parametrization is not absolutely continuous."""
    return Polyline.make(cantor_points(level))


def cantor_family(level: int = 6) -> Family:
    """Members co{(x1, x2): 0 <= x1 <= t, g(x1) <= x2 <= 1} at the level
    breakpoints: the quasi-convex family for which the Cantor graph is a
    viable steepest-descent curve but not an expanding couple."""
    pts = cantor_points(level)
    return _width_family(
        hull(np.vstack([pts[: k + 1], [[pts[k, 0], 1.0], [0.0, 1.0]]])) for k in range(1, len(pts))
    )


def disk_polygon(r: float, center=(0.0, 0.0), m: int = 64) -> ConvexBody:
    ang = (np.arange(m) + 0.5) * 2.0 * math.pi / m
    return hull(np.asarray(center) + r * np.column_stack([np.cos(ang), np.sin(ang)]))


def cantor_disks(level: int = 8, m: int = 64):
    """Concentric circles of radius (g(t) + t)/2 at the Cantor breakpoints,
    with the radial curve toward a fixed boundary point: a viable
    steepest-descent curve whose t-parametrization is not absolutely
    continuous, repaired by the mean-width parametrization."""
    pts = cantor_points(level)
    radii = (pts[:, 0] + pts[:, 1]) / 2.0
    radii = radii[radii > 0.0]
    fam = _width_family(disk_polygon(r, m=m) for r in radii)
    bodies = fam.bodies
    # all polygons share vertex angles, so each r * xbar is a vertex of its body
    xbar = bodies[-1].vertices[0] / np.linalg.norm(bodies[-1].vertices[0])
    curve = Polyline.make(np.outer(radii, xbar))
    return fam, curve


def log_spiral(b: float = 0.28, turns: float = 3.0, m: int = 1500) -> Polyline:
    """Logarithmic spiral r = e^{b phi}; self-expanding for b above the
    critical rate b* ~ 0.2747 where b = e^{-3 pi b / 2}."""
    phi = np.linspace(-2.0 * math.pi * turns, 0.0, m)
    r = np.exp(b * phi)
    return Polyline.make(np.column_stack([r * np.cos(phi), r * np.sin(phi)]))


def example61_family(n_psi: int = 24, n_phi: int = 9, d_steps: int = 5,
                     e_steps: int = 5, t_min: float = 0.2,
                     grid: SphereGrid = None) -> Family:
    """Revolved-pancake family in R^3: flat disks D_t (radius t, plane
    x3 = 0) followed by solids of revolution E_t with rim radius t and
    thickness 2(t - 1); the connected family admitting no viable steepest
    descent curve from generic top endpoints.  Params are mean widths on
    grid."""
    psi = (np.arange(n_psi) + 0.5) * 2.0 * math.pi / n_psi
    ring = np.column_stack([np.cos(psi), np.sin(psi)])
    bodies = []
    for t in np.linspace(t_min, 1.0, d_steps):
        pts = np.column_stack([t * ring, np.zeros(n_psi)])
        bodies.append(hull(pts))
    phi = np.linspace(-math.pi / 2.0, math.pi / 2.0, n_phi)
    for t in np.linspace(1.0, 2.0, e_steps + 1)[1:]:
        r = 1.0 + (t - 1.0) * np.cos(phi)
        z = (t - 1.0) * np.sin(phi)
        pts = np.concatenate(
            [np.column_stack([ri * ring, np.full(n_psi, zi)]) for ri, zi in zip(r, z)]
        )
        bodies.append(hull(pts))
    return _width_family(bodies, grid)


def example61_curve(fam: Family, radial: float = 0.55, angle: float = 0.0) -> Polyline:
    """The canonical stalling path for the revolved-pancake family: radial
    segment to radius r, stall, then vertical ascent to the top face."""
    top = fam.bodies[-1]
    zmax = float(top.vertices[:, 2].max())
    xy = radial * np.array([math.cos(angle), math.sin(angle)])
    return Polyline.make(
        [
            [0.0, 0.0, 0.0],
            [xy[0], xy[1], 0.0],
            [xy[0], xy[1], zmax],
        ]
    )


def rotated_squares(levels: int = 4, step_angle: float = math.radians(15.0),
                    growth: float = 1.3) -> Stratification:
    """Nested squares, each rotated and scaled from the previous one.

    Nesting needs growth >= sqrt(2) * cos(pi/4 - step_angle); 1.3 leaves a
    margin at the default 15 degree step.
    """
    bodies = []
    base = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * 0.5
    for j in range(levels):
        a = j * step_angle
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        bodies.append(hull((growth**j) * base @ R.T))
    return validate_stratification(bodies)


def disk_family(r_min=0.5, r_max=1.0, levels=10, m=64, n=2, seed=0,
                grid: SphereGrid = None) -> Family:
    """Concentric balls (polygon / mesh approximations); params are mean
    widths on grid."""
    radii = np.linspace(r_min, r_max, levels)
    if n == 2:
        return _width_family((disk_polygon(r, m=m) for r in radii), grid)
    dirs = unit_directions(n, max(m, 32), seed)
    return _width_family((hull(r * dirs) for r in radii), grid)


def scaled_family(K: ConvexBody, s_min=0.4, s_max=1.0, levels=12, center=None) -> Family:
    """Family of scaled copies of one body; widths scale linearly, so the
    grid is exact without any interpolation."""
    c = K.centroid() if center is None else as_point(center, K.dim)
    scales = np.linspace(s_min, s_max, levels)
    return _width_family(ConvexBody(c + s * (K.vertices - c), K.dim_affine) for s in scales)


def fixtures():
    """Named deterministic fixture builders."""
    return {
        "cantor_graph": cantor_graph,
        "cantor_family": cantor_family,
        "cantor_disks": cantor_disks,
        "example61_family": example61_family,
        "example61_curve": example61_curve,
        "log_spiral": log_spiral,
        "rotated_squares": rotated_squares,
        "disk_family": disk_family,
        "scaled_family": scaled_family,
    }
