"""Polyhedral cones for V-polytopes: tangent and normal cones, dual-cone
enumeration, cap bodies, circular cones, and the closed-form spherical
sector integrals used by the quantitative bounds.

Cones are stored by finite generator sets (nonnegative hull of unit
vectors); membership is decided by nonnegative least squares.  Dual cones
are enumerated by the active-set method: every extreme ray of
{y : <g_i, y> >= 0} lies on a rank-(d-1) subset of active constraints.
Non-pointed cones carry their lineality space as +/- generator pairs.
"""

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import nnls

from .errors import InvalidInput, PreconditionViolated
from .geom_core import (
    TAU_PT,
    ConvexBody,
    as_point,
    contains,
    hull,
    support,
    unit_directions,
)

_MEMBER_TOL = 1e-8


def sphere_measure(k: int) -> float:
    """Surface measure of the unit sphere S^{k-1} in R^k (omega_k)."""
    if k < 1:
        raise InvalidInput("sphere dimension must be >= 1")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _unit_rows(G, tol=TAU_PT):
    G = np.asarray(G, dtype=float)
    if G.size == 0:
        return G.reshape(0, G.shape[1] if G.ndim == 2 else 0)
    norms = np.linalg.norm(G, axis=1)
    G = G[norms > tol] / norms[norms > tol, None]
    out = []
    for g in G:
        if all(np.linalg.norm(g - h) > tol for h in out):
            out.append(g)
    return np.array(out) if out else G[:0]


@dataclass
class PolyCone:
    """Polyhedral cone spanned by nonnegative combinations of unit generators.

    The apex records where the cone was taken; generators live at the origin.
    An empty generator list is the zero cone.
    """

    dim: int
    generators: np.ndarray
    apex: np.ndarray = None
    _dual_rows: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.apex is None:
            self.apex = np.zeros(self.dim)
        self.generators = np.asarray(self.generators, dtype=float).reshape(-1, self.dim)

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
        """Vectorized membership of many directions, via dual inequalities."""
        dirs = np.asarray(dirs, dtype=float)
        if self.is_zero:
            return np.linalg.norm(dirs, axis=1) <= tol
        rows = self.dual_rows()
        if rows.shape[0] == 0:
            return np.ones(len(dirs), dtype=bool)
        return np.min(dirs @ rows.T, axis=1) >= -tol

    def dual_rows(self):
        """Generators of the dual cone (x in C iff <x, row> >= 0 for all rows)."""
        if self._dual_rows is None:
            self._dual_rows = dual_cone(self).generators
        return self._dual_rows

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


def cone_from_generators(gens, dim=None, apex=None):
    G = np.asarray(gens, dtype=float)
    if G.size == 0:
        if dim is None:
            raise InvalidInput("dimension required for a zero cone")
        return PolyCone(dim, np.zeros((0, dim)), apex)
    if G.ndim == 1:
        G = G[None, :]
    return PolyCone(G.shape[1], _unit_rows(G), apex)


def _reduce_generators(G, tol=1e-10):
    """Drop generators lying in the cone of the others (Farkas-redundant)."""
    m = len(G)
    if m <= 2:
        return G
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        others = G[keep & (np.arange(m) != i)]
        if len(others) == 0:
            continue
        _, res = nnls(others.T, G[i])
        if res <= tol:
            keep[i] = False
    return G[keep]


def dual_cone(C: PolyCone) -> PolyCone:
    """Dual cone C* = {y : <y, g> >= 0 for every generator g of C}.

    Splits off the lineality space null(G), then enumerates the extreme
    rays of the pointed part in the row space of G.  C** == C holds at
    tolerance for every closed convex cone handled here.
    """
    n = C.dim
    G = C.generators
    if G.shape[0] == 0:
        eye = np.eye(n)
        return PolyCone(n, np.vstack([eye, -eye]), C.apex.copy())
    _, s, Vt = np.linalg.svd(G, full_matrices=True)
    r = int(np.sum(s > 1e-10 * s[0]))
    W = Vt[:r]          # row space: pointed part of C* lives here
    L = Vt[r:]          # null space: lineality of C*
    G2 = _unit_rows(G @ W.T)
    if G2.shape[0] > max(12, 3 * r):
        G2 = _reduce_generators(G2)
    rays = []
    if r == 1:
        if np.all(G2[:, 0] >= -1e-12):
            rays.append(np.array([1.0]))
        elif np.all(G2[:, 0] <= 1e-12):
            rays.append(np.array([-1.0]))
    else:
        m = len(G2)
        cand = []
        for idx in combinations(range(m), r - 1):
            A = G2[list(idx)]
            _, sa, Va = np.linalg.svd(A, full_matrices=True)
            rank = int(np.sum(sa > 1e-9 * max(sa[0], 1.0))) if sa.size else 0
            if rank != r - 1:
                continue
            z = Va[r - 1]
            vals = G2 @ z
            lo, hi = vals.min(), vals.max()
            if lo >= -1e-9:
                cand.append(z)
            elif hi <= 1e-9:
                cand.append(-z)
        for z in cand:
            if all(np.linalg.norm(z - y) > 1e-8 for y in rays):
                rays.append(z)
    gens = [z @ W for z in rays]
    for l in L:
        gens.append(l)
        gens.append(-l)
    if not gens:
        return PolyCone(n, np.zeros((0, n)), C.apex.copy())
    return PolyCone(n, _unit_rows(np.array(gens)), C.apex.copy())


def cone_intersect_halfspace(C: PolyCone, u) -> PolyCone:
    """C intersected with the halfspace {x : <x, u> >= 0}, by double duality."""
    u = as_point(u, C.dim)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return C
    D = dual_cone(C)
    aug = cone_from_generators(
        np.vstack([D.generators, u / nu]) if not D.is_zero else u[None, :] / nu,
        dim=C.dim,
    )
    out = dual_cone(aug)
    out.apex = C.apex.copy()
    return out


def _vertex_adjacency_dirs(K: ConvexBody, vi: int):
    """Unit directions from vertex vi to the vertices sharing a facet with it."""
    S = K.facets.simplices
    nb = np.unique(S[np.any(S == vi, axis=1)])
    return _unit_rows(K.vertices[nb[nb != vi]] - K.vertices[vi])


def tangent_cone(K: ConvexBody, q, tol=TAU_PT) -> PolyCone:
    """Tangent (support) cone of K at q: closure of rays from q through K."""
    q = as_point(q, K.dim)
    if not contains(K, q, max(tol, TAU_PT)):
        raise InvalidInput("q is not a point of K")
    V = K.vertices
    if K.dim_affine == 0:
        return PolyCone(K.dim, np.zeros((0, K.dim)), q)
    d2 = np.linalg.norm(V - q, axis=1)
    vi = int(np.argmin(d2))
    if d2[vi] <= TAU_PT and K.dim_affine >= 2 and len(V) > 3:
        gens = _vertex_adjacency_dirs(K, vi)
    else:
        mask = d2 > TAU_PT
        gens = _unit_rows(V[mask] - q)
    return PolyCone(K.dim, gens, q)


def normal_cone(K: ConvexBody, q, tol=TAU_PT) -> PolyCone:
    """Normal cone of K at q: outward directions x with <x, y - q> <= 0 on K.

    Computed as -T_K(q)*; reduces to the zero cone at interior points of a
    full-dimensional body.
    """
    T = tangent_cone(K, q, tol)
    D = dual_cone(T)
    N = PolyCone(K.dim, -D.generators, T.apex)
    return N


def in_normal_cone(K: ConvexBody, q, x, tol=1e-8) -> bool:
    """Direct membership test x in N_K(q) via the support gap (no enumeration)."""
    q = as_point(q, K.dim)
    x = as_point(x, K.dim)
    gap = support(K, x) - float(x @ q)
    return gap <= tol * (1.0 + np.linalg.norm(x)) * (1.0 + K.diameter())


def normal_cone_mask(K: ConvexBody, q, dirs, tol=1e-9):
    """Vectorized membership of directions in N_K(q), by <d, v - q> <= tol."""
    q = as_point(q, K.dim)
    rel = K.vertices - q
    gaps = np.asarray(dirs) @ rel.T
    scale = 1.0 + K.diameter()
    return np.max(gaps, axis=1) <= tol * scale


def cap_body(K: ConvexBody, p) -> ConvexBody:
    """Hull of K and the point p; equals K whenever p already lies in K."""
    p = as_point(p, K.dim)
    return hull(np.vstack([K.vertices, p[None, :]]))


def _cap_normal_data(K: ConvexBody, p):
    cap = cap_body(K, p)
    rel = cap.vertices - as_point(p, K.dim)
    keep = np.linalg.norm(rel, axis=1) > TAU_PT
    return cap, rel[keep]


def cap_support(K: ConvexBody, p, x, tol=1e-9) -> float:
    """Two-branch support formula of the cap body K^p.

    Returns <x, p> when x lies in the normal cone of K^p at p, and the
    support of K otherwise; agrees with support(cap_body(K, p), x).
    """
    p = as_point(p, K.dim)
    x = as_point(x, K.dim)
    _, rel = _cap_normal_data(K, p)
    scale = (1.0 + np.linalg.norm(x)) * (1.0 + K.diameter())
    if rel.shape[0] == 0 or np.max(rel @ x) <= tol * scale:
        return float(x @ p)
    return support(K, x)


def cap_support_batch(K: ConvexBody, p, dirs, tol=1e-9):
    """Vectorized cap_support over rows of dirs."""
    p = as_point(p, K.dim)
    dirs = np.asarray(dirs, dtype=float)
    _, rel = _cap_normal_data(K, p)
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
