"""Polyhedral cones for V-polytopes: tangent and normal cones, cap bodies,
circular cones, and the closed-form spherical sector integrals used by the
quantitative bounds.

A cone is taken at a point q of a body K and carries both of its
representations, read off K: generators (unit vectors, nonnegative hull)
and rows (x in C iff <x, row> >= 0).  They come from the facets of K
through q and from the directions to its vertices, so nothing is ever
dualised; the halfspace cut of the cone-limit study is one
double-description step.  The normal cone of a lower-dimensional body
carries the complement of its affine hull as +/- generator pairs.
Without building a cone, x in N_K(q) is one support-gap test, <x, v - q>
small for every vertex v: normal_cone_mask, of which in_normal_cone is
one row; cap_support_batch makes it at the apex of the cap body.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidInput, PreconditionViolated
from .geom_core import (
    TAU_PT,
    ConvexBody,
    as_point,
    contains,
    dedup_points,
    hull,
    unit_directions,
)

_MEMBER_TOL = 1e-8


def sphere_measure(k: int) -> float:
    """Surface measure of the unit sphere S^{k-1} in R^k (omega_k)."""
    if k < 1:
        raise InvalidInput("sphere dimension must be >= 1")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _unit(G):
    """Rows of G scaled to unit length; rows shorter than TAU_PT dropped."""
    r = np.linalg.norm(G, axis=1)
    return G[r > TAU_PT] / r[r > TAU_PT, None]


@dataclass
class PolyCone:
    """Polyhedral cone at a body point, in both of its representations.

    generators: unit vectors whose nonnegative hull is the cone (none for
    the zero cone).  rows: x lies in the cone iff <x, row> >= 0 for every
    row (none for the whole space).  The apex records where the cone was
    taken; both live at the origin.
    """

    dim: int
    generators: np.ndarray
    rows: np.ndarray
    apex: np.ndarray = None

    def __post_init__(self):
        if self.apex is None:
            self.apex = np.zeros(self.dim)
        self.generators = np.asarray(self.generators, dtype=float).reshape(-1, self.dim)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.dim)

    @property
    def is_zero(self):
        return self.generators.shape[0] == 0

    def contains(self, x, tol=_MEMBER_TOL) -> bool:
        """Membership by nonnegative least squares residual."""
        x = as_point(x, self.dim)
        nx = np.linalg.norm(x)
        if self.is_zero:
            return nx <= tol
        _, res = nnls(self.generators.T, x)
        return res <= tol * (1.0 + nx)

    def member_mask(self, dirs, tol=_MEMBER_TOL):
        """Vectorized membership of many directions, by the rows."""
        return np.all(np.asarray(dirs, dtype=float) @ self.rows.T >= -tol, axis=1)

    def angle_to(self, x) -> float:
        """Angular distance from direction x to the cone (radians)."""
        x = as_point(x, self.dim)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        x = x / nx
        if self.is_zero:
            return math.pi / 2.0
        lam, _ = nnls(self.generators.T, x)
        p = self.generators.T @ lam
        npn = np.linalg.norm(p)
        if npn <= 1e-14:
            return math.pi / 2.0
        return float(math.acos(np.clip(x @ (p / npn), -1.0, 1.0)))


def _reduce_generators(G, tol=1e-10):
    """Drop generators lying in the cone of the others (Farkas-redundant)."""
    m = len(G)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        others = G[keep & (np.arange(m) != i)]
        if len(others) == 0:
            continue
        _, res = nnls(others.T, G[i])
        if res <= tol:
            keep[i] = False
    return G[keep]


def cone_intersect_halfspace(C: PolyCone, u) -> PolyCone:
    """C intersected with the halfspace {x : <x, u> >= 0}.

    One double-description step: the generators on the kept side, plus
    the crossing (g.u) h - (h.u) g of every pair on opposite sides,
    pruned to a minimal generating set; the rows gain u.
    """
    u = as_point(u, C.dim)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return C
    u = u / nu
    G = C.generators
    s = G @ u
    pos, neg = s > 1e-12, s < -1e-12
    cross = s[pos, None, None] * G[None, neg] - s[None, neg, None] * G[pos, None]
    gens = _unit(np.vstack([G[~neg], cross.reshape(-1, C.dim)]))
    return PolyCone(C.dim, _reduce_generators(gens), np.vstack([C.rows, u]), C.apex.copy())


def _body_at(K: ConvexBody, q, tol):
    """What K looks like from its point q: q as a vector, the unit outer
    normals A of the facets through q, an orthonormal basis W of
    Aff(K)^perp, and the unit directions D from q to the other vertices.

    N_K(q) = cone(A, +/-W) = {x : <x, d> <= 0 for d in D}, and the tangent
    cone T_K(q) = cone(D) = {x : <x, a> <= 0 for a in A, x perp W}.
    """
    q, tol = as_point(q, K.dim), max(tol, TAU_PT)
    if not contains(K, q, tol):
        raise InvalidInput("q is not a point of K")
    _, B, eqs, _ = K.facets
    n, k = K.dim, len(B)
    A = dedup_points(eqs[eqs[:, :-1] @ q + eqs[:, -1] >= -tol, :-1])
    W = np.linalg.svd(np.eye(n) - B.T @ B)[0][:, : n - k].T if k < n else B[:0]
    return q, A, W, _unit(K.vertices - q)


def tangent_cone(K: ConvexBody, q, tol=TAU_PT) -> PolyCone:
    """Tangent (support) cone of K at q: closure of rays from q through K."""
    q, A, W, D = _body_at(K, q, tol)
    return PolyCone(K.dim, D, np.vstack([-A, W, -W]), q)


def normal_cone(K: ConvexBody, q, tol=TAU_PT) -> PolyCone:
    """Normal cone of K at q: outward directions x with <x, y - q> <= 0 on K.

    Spanned by the outer normals of the facets through q and, for a
    lower-dimensional K, the complement of its affine hull; the zero cone
    at interior points of a full-dimensional body.
    """
    q, A, W, D = _body_at(K, q, tol)
    return PolyCone(K.dim, np.vstack([A, W, -W]), -D, q)


def in_normal_cone(K: ConvexBody, q, x, tol=1e-8) -> bool:
    """Membership of one direction x in N_K(q): normal_cone_mask at
    tolerance tol * (1 + |x|)."""
    x = as_point(x, K.dim)
    return bool(normal_cone_mask(K, q, x[None], tol * (1.0 + np.linalg.norm(x)))[0])


def normal_cone_mask(K: ConvexBody, q, dirs, tol=1e-9):
    """Vectorized membership of directions in N_K(q) by the support gap:
    d is in N_K(q) iff <d, v - q> <= tol * (1 + diam K) for every vertex v."""
    gaps = np.asarray(dirs) @ (K.vertices - as_point(q, K.dim)).T
    return np.max(gaps, axis=1) <= tol * (1.0 + K.diameter())


def cap_body(K: ConvexBody, p) -> ConvexBody:
    """Hull of K and the point p; equals K whenever p already lies in K."""
    p = as_point(p, K.dim)
    return hull(np.vstack([K.vertices, p[None, :]]))


def cap_support(K: ConvexBody, p, x, tol=1e-9) -> float:
    """Two-branch support formula of the cap body K^p.

    Returns <x, p> when x lies in the normal cone of K^p at p, and the
    support of K otherwise; agrees with support(cap_body(K, p), x).
    """
    x = as_point(x, K.dim)
    return float(cap_support_batch(K, p, x[None], tol)[0])


def cap_support_batch(K: ConvexBody, p, dirs, tol=1e-9):
    """Vectorized cap_support over rows of dirs: d is in the normal cone of
    K^p at p iff <d, v - p> <= tol * (1 + |d|) * (1 + diam K) for every
    vertex v of K^p other than p."""
    p = as_point(p, K.dim)
    dirs = np.asarray(dirs, dtype=float)
    rel = cap_body(K, p).vertices - p
    rel = rel[np.linalg.norm(rel, axis=1) > TAU_PT]
    hK = np.max(dirs @ K.vertices.T, axis=1)
    if rel.shape[0] == 0:
        return hK
    scale = (1.0 + np.linalg.norm(dirs, axis=1)) * (1.0 + K.diameter())
    in_np = np.max(dirs @ rel.T, axis=1) <= tol * scale
    return np.where(in_np, dirs @ p, hK)


@dataclass(frozen=True)
class CircularCone:
    """Circular cone of given unit axis and opening angle (0, pi/2)."""

    axis: np.ndarray
    opening: float

    def __post_init__(self):
        a = as_point(self.axis)
        na = np.linalg.norm(a)
        if na == 0.0:
            raise InvalidInput("axis must be nonzero")
        object.__setattr__(self, "axis", a / na)
        if not 0.0 < self.opening < math.pi / 2.0:
            raise InvalidInput("opening must lie in (0, pi/2)")

    @property
    def dim(self):
        return self.axis.size

    def contains(self, x, tol=1e-12) -> bool:
        x = as_point(x, self.dim)
        nx = np.linalg.norm(x)
        if nx <= tol:
            return True
        return float(x @ self.axis) >= nx * (math.cos(self.opening) - tol)

    def member_mask(self, dirs, tol=1e-12):
        dirs = np.asarray(dirs, dtype=float)
        return dirs @ self.axis >= math.cos(self.opening) - tol

    def dual(self) -> "CircularCone":
        return CircularCone(self.axis.copy(), math.pi / 2.0 - self.opening)


def sector_integral_exact(n: int, delta: float) -> float:
    """Flux of <theta, v> over the spherical sector of a circular cone.

    Equals omega_{n-1}/(n-1) * sin^{n-1}(delta) for opening delta in
    (0, pi/2].
    """
    if n < 2:
        raise InvalidInput("n must be >= 2")
    if not 0.0 < delta <= math.pi / 2.0 + 1e-12:
        raise InvalidInput("delta must lie in (0, pi/2]")
    return sphere_measure(n - 1) / (n - 1) * math.sin(delta) ** (n - 1)


def sector_integral_lower_bound(n: int, alpha: float) -> float:
    """Lower bound omega_{n-1}/(n-1) * sin^n(alpha/4) for the flux of a
    dual-cone direction over the sector of opening alpha/2."""
    if n < 2:
        raise InvalidInput("n must be >= 2")
    if not 0.0 < alpha < math.pi:
        raise InvalidInput("alpha must lie in (0, pi)")
    return sphere_measure(n - 1) / (n - 1) * math.sin(alpha / 4.0) ** n


def sector_angular_hausdorff(A: PolyCone, B: PolyCone, dirs, tol=1e-9):
    """Angular Hausdorff distance between the unit-sphere sectors of two
    cones, estimated on a fixed direction grid augmented by the cones' own
    generators."""
    dirs = np.asarray(dirs, dtype=float)

    def sample(C):
        pts = dirs[C.member_mask(dirs, tol=max(tol, 1e-9))]
        if not C.is_zero:
            pts = np.vstack([pts, C.generators])
        return pts

    SA, SB = sample(A), sample(B)
    if len(SA) == 0 and len(SB) == 0:
        return 0.0
    if len(SA) == 0 or len(SB) == 0:
        return math.pi

    def directed(P, Q):
        worst = 0.0
        for i in range(0, len(P), 512):
            dots = P[i : i + 512] @ Q.T
            best = np.clip(dots.max(axis=1), -1.0, 1.0)
            worst = max(worst, float(np.arccos(best).max()))
        return worst

    return max(directed(SA, SB), directed(SB, SA))


def normal_cone_limit_report(
    K: ConvexBody,
    p0,
    u,
    eps_list,
    grid_size=10000,
    seed=0,
    tol=1e-7,
):
    """Numeric study of the cap-body normal cones N_{K^{p_eps}}(p_eps).

    For p_eps = p0 + eps*u the cones are sandwiched between N_K(p0) n {u}*
    and {u}*, and converge (in angular Hausdorff distance of sectors) to
    the lower envelope as eps -> 0.  Requires p0 on the boundary of K and
    u outside the tangent cone there.
    """
    p0 = as_point(p0, K.dim)
    u = as_point(u, K.dim)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise InvalidInput("u must be nonzero")
    u = u / nu
    if not contains(K, p0, max(TAU_PT, tol)):
        raise PreconditionViolated("p0 must lie in K")
    T0 = tangent_cone(K, p0)
    if T0.contains(u, tol=1e-8):
        raise PreconditionViolated("u lies in the tangent cone at p0")
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise InvalidInput("eps_list must be nonempty and positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInput("eps_list must be strictly decreasing")
    N0 = normal_cone(K, p0)
    limit = cone_intersect_halfspace(N0, u)
    dirs = unit_directions(K.dim, grid_size, seed)
    rows = []
    for eps in eps_list:
        pe = p0 + eps * u
        cap = cap_body(K, pe)
        Ne = normal_cone(cap, pe)
        upper_ok = bool(np.all(Ne.generators @ u >= -1e-9)) if not Ne.is_zero else True
        lower_ok = limit.is_zero or all(
            in_normal_cone(cap, pe, g, tol=1e-8) for g in limit.generators
        )
        metric = sector_angular_hausdorff(Ne, limit, dirs)
        base_angle = (
            0.0
            if Ne.is_zero
            else max(N0.angle_to(g) for g in Ne.generators)
        )
        rows.append(
            {
                "eps": eps,
                "sandwich_ok": upper_ok and lower_ok,
                "metric": metric,
                "max_angle_to_base_cone": base_angle,
            }
        )
    metrics = [r["metric"] for r in rows]
    return {
        "eps": eps_list,
        "rows": rows,
        "sandwich_ok": all(r["sandwich_ok"] for r in rows),
        "metrics": metrics,
        "metric_decreasing": all(a >= b - 1e-12 for a, b in zip(metrics, metrics[1:])),
        "final_metric": metrics[-1] if metrics else 0.0,
    }
