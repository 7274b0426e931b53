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
one row; cap_support_batch makes it at the apex of the cap body, against
K's own vertices.
Membership in a cone and the angle to it are nonnegative least squares
problems on its generators, solved in numpy (geom_core._nnls).  The
angular Hausdorff distance of the cone-limit study is exact in the plane,
where a cone's directions are arcs read off its generators, and measured
on a direction grid for n >= 3.
The study builds no cap body K^p for a full-dimensional K: the normal
cone of K^p at p is read off K's cached facets, from the horizon ridges
that the facets p sees share with those it does not (the beneath-beyond
step), and the lower sandwich test is the support gap on K's vertices.
Its two searches, the largest angle to N_K(p0) and the farthest sample
direction, bound every candidate from both sides and measure only those
the bounds leave open.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionViolated
from .geom_core import (
    _EPS,
    TAU_PT,
    ConvexBody,
    _Memo,
    _nnls,
    _row_norms,
    as_point,
    contains,
    dedup_points,
    extend_hull,
    rounding_floor,
    support_many,
    unit_directions,
)

_MEMBER_TOL = 1e-8
# A row left open by the bounds of max_angle_to_base_cone and of
# sector_angular_hausdorff is measured unless its bound clears the others'
# by this margin (radians there, support values here): it covers the
# rounding of arccos near 0, about sqrt(eps) ~ 1.5e-8, and of the bounds.
_ANGLE_MARGIN = 1e-6
_SUPPORT_MARGIN = 1e-9
# sector_angular_hausdorff bounds a row's support on a sample from below by
# its support on every _SAMPLE_STRIDE-th grid direction of the sample.
_SAMPLE_STRIDE = 16
# Direction grids of the cone-limit study, read-only, bounded in direction
# coordinates as mean_width's quadrature grids are.
_dirs_cache = _Memo(1 << 20)


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
    row (none for the whole space).  Both live at the origin, whatever
    point of the body the cone was taken at.
    """

    dim: int
    generators: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        self.generators = np.asarray(self.generators, dtype=float).reshape(-1, self.dim)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.dim)

    @property
    def is_zero(self):
        return self.generators.shape[0] == 0

    def contains(self, x, tol=_MEMBER_TOL) -> bool:
        """Membership by the residual of nonnegative least squares on the
        generators (_nnls): at most tol * (1 + |x|)."""
        x = as_point(x, self.dim)
        nx = np.linalg.norm(x)
        if self.is_zero:
            return nx <= tol
        _, res = _nnls(self.generators.T, x)
        return res <= tol * (1.0 + nx)

    def member_mask(self, dirs, tol=_MEMBER_TOL):
        """Vectorized membership of many directions, by the rows: <d, row> >=
        -tol for every row, i.e. max over the rows of <d, -row> <= tol."""
        return support_many(dirs, -self.rows) <= tol

    def angle_to(self, x) -> float:
        """Angular distance from direction x to the cone (radians)."""
        x = as_point(x, self.dim)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            return 0.0
        x = x / nx
        if self.is_zero:
            return math.pi / 2.0
        lam, _ = _nnls(self.generators.T, x)
        p = self.generators.T @ lam
        npn = np.linalg.norm(p)
        if npn <= 1e-14:
            return math.pi / 2.0
        return float(math.acos(np.clip(x @ (p / npn), -1.0, 1.0)))


def _reduce_generators(G):
    """Drop generators lying in the cone of the others (Farkas-redundant):
    those at _nnls residual at most 1e-10."""
    m = len(G)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        others = G[keep & (np.arange(m) != i)]
        if len(others) == 0:
            continue
        _, res = _nnls(others.T, G[i])
        if res <= 1e-10:
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
    return PolyCone(C.dim, _reduce_generators(gens), np.vstack([C.rows, u]))


def _body_at(K: ConvexBody, q, tol):
    """What K looks like from its point q: q as a vector, the unit outer
    normals A of the facets through q, an orthonormal basis W of
    Aff(K)^perp, and the unit directions D from q to the other vertices.

    N_K(q) = cone(A, +/-W) = {x : <x, d> <= 0 for d in D}, and the tangent
    cone T_K(q) = cone(D) = {x : <x, a> <= 0 for a in A, x perp W}.  At a
    vertex q of a K of dimension >= 2, D keeps the vertices that share a
    facet simplex with q (the edges at q span T_K(q)), unless a vertex lies
    beyond a facet by more than rounding_floor(K), as under Qhull's QJ.
    """
    q, tol = as_point(q, K.dim), max(tol, TAU_PT, rounding_floor(K))
    if not contains(K, q, tol):
        raise InvalidInput("q is not a point of K")
    _, B, eqs, S = K.facets
    n, k = K.dim, len(B)
    A = dedup_points(eqs[eqs[:, :-1] @ q + eqs[:, -1] >= -tol, :-1])
    W = np.linalg.svd(np.eye(n) - B.T @ B)[0][:, : n - k].T if k < n else B[:0]
    V, at = K.vertices, (S[..., None] == np.flatnonzero((K.vertices == q).all(axis=1))).any(axis=(1, 2))
    if k >= 2 and at.any() and (V @ eqs[:, :-1].T + eqs[:, -1]).max() <= rounding_floor(K):
        V = V[np.unique(S[at])]
    return q, A, W, _unit(V - q)


def tangent_cone(K: ConvexBody, q, tol=TAU_PT) -> PolyCone:
    """Tangent (support) cone of K at q: closure of rays from q through K."""
    q, A, W, D = _body_at(K, q, tol)
    return PolyCone(K.dim, D, np.vstack([-A, W, -W]))


def normal_cone(K: ConvexBody, q) -> PolyCone:
    """Normal cone of K at q: outward directions x with <x, y - q> <= 0 on K.

    Spanned by the outer normals of the facets through q and, for a
    lower-dimensional K, the complement of its affine hull; the zero cone
    at interior points of a full-dimensional body.
    """
    q, A, W, D = _body_at(K, q, TAU_PT)
    return PolyCone(K.dim, np.vstack([A, W, -W]), -D)


def in_normal_cone(K: ConvexBody, q, x, tol=1e-8) -> bool:
    """Membership of one direction x in N_K(q): normal_cone_mask at
    tolerance tol * (1 + |x|)."""
    x = as_point(x, K.dim)
    return bool(normal_cone_mask(K, q, x[None], tol * (1.0 + np.linalg.norm(x)))[0])


def normal_cone_mask(K: ConvexBody, q, dirs, tol=1e-9):
    """Vectorized membership of directions in N_K(q) by the support gap:
    d is in N_K(q) iff <d, v - q> <= tol * (1 + diam K) for every vertex v."""
    gaps = support_many(dirs, K.vertices - as_point(q, K.dim))
    return gaps <= tol * (1.0 + K.diameter())


def cap_body(K: ConvexBody, p) -> ConvexBody:
    """Hull of K and the point p; equals K whenever p already lies in K.  A
    planar K takes p into its ring without Qhull (geom_core.extend_hull)."""
    return extend_hull(K, [as_point(p, K.dim)])[0]


def _ridges(K: ConvexBody):
    """The ridges of K's facet triangulation, each a facet simplex less one
    vertex (vertex indices, one row a ridge), with the two facets through
    it: (ridges, first facets, second facets).  None when K is not
    full-dimensional, or its facets are not exact on its vertices (Qhull's
    QJ), or some ridge is not shared by exactly two facets: the cap cones
    are then not read off them."""
    n = K.dim
    if K.dim_affine != n or n < 2:
        return None
    _, _, eqs, S = K.facets
    if (K.vertices @ eqs[:, :-1].T + eqs[:, -1]).max() > rounding_floor(K):
        return None
    R = np.sort(np.stack([np.delete(S, j, axis=1) for j in range(n)], axis=1), axis=2)
    R = R.reshape(-1, n - 1)  # row i: facet i // n less its vertex i % n
    order = np.lexsort(R.T[::-1])
    Q = R[order]
    # in lexicographic order, each ridge is two equal rows, then another
    if not ((Q[0::2] == Q[1::2]).all() and (Q[1:-1:2] != Q[2::2]).any(axis=1).all()):
        return None
    pairs = order.reshape(-1, 2) // n
    return Q[0::2], pairs[:, 0], pairs[:, 1]


def _cap_cone(K: ConvexBody, ridges, p):
    """N_{K^p}(p) for p outside K, read off K's facets with no cap body
    built (the beneath-beyond step): the facets of K^p through p are the
    hulls of p and the horizon ridges, shared by a facet p sees (residual
    > 0) and one it does not.  The generators are their unit outer normals,
    deduplicated as _body_at does; the rows are the negated unit directions
    from p to the horizon vertices, the vertices of K^p that share a facet
    simplex with p.  None where _ridges declined, or when a residual of p
    lies within the clearance of K^p's rounding_floor (TAU_PT at least), or
    p sees no facet: normal_cone(cap_body(K, p), p) then decides."""
    if ridges is None:
        return None
    R, fa, fb = ridges
    c, _, eqs, _ = K.facets
    r = eqs[:, :-1] @ p + eqs[:, -1]
    clear = max(TAU_PT, rounding_floor(K), 8.0 * _EPS * (1.0 + float(np.abs(p).max())))
    seen = r > 0.0
    if np.abs(r).min() <= clear or not seen.any():
        return None
    H = R[seen[fa] != seen[fb]]
    E = K.vertices[H] - p  # per horizon ridge, its vertices less p
    n = K.dim
    if n == 3:  # cross products
        a, b = E[:, 0], E[:, 1]
        N = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
    else:  # the cofactors of the rows of E, a normal to each
        minors = E[:, :, [np.delete(np.arange(n), j) for j in range(n)]].transpose(0, 2, 1, 3)
        N = np.linalg.det(minors) * (-1.0) ** np.arange(n)
    N *= np.where(N @ (c - p) > 0.0, -1.0, 1.0)[:, None]  # K's centre lies below
    return PolyCone(n, dedup_points(N / _row_norms(N)[:, None]), -_unit(K.vertices[np.unique(H)] - p))


def cap_support(K: ConvexBody, p, x) -> float:
    """Two-branch support formula of the cap body K^p.

    Returns <x, p> when x lies in the normal cone of K^p at p, and the
    support of K otherwise; agrees with support(cap_body(K, p), x).
    """
    x = as_point(x, K.dim)
    return float(cap_support_batch(K, p, x[None])[0])


def cap_support_batch(K: ConvexBody, p, dirs):
    """Vectorized cap_support over rows of dirs: d is in the normal cone of
    K^p at p iff <d, v - p> <= 1e-9 * (1 + |d|) * (1 + diam K) for every
    vertex v of K farther than TAU_PT from p.  No cap body is built: a
    vertex of K that is not one of K^p lies in their hull with p, so its
    gap <d, v - p> is at most the largest of theirs or 0."""
    p = as_point(p, K.dim)
    dirs = np.asarray(dirs, dtype=float)
    rel = K.vertices - p
    rel = rel[np.linalg.norm(rel, axis=1) > TAU_PT]
    hK = support_many(dirs, K.vertices)
    if rel.shape[0] == 0:
        return hK
    scale = (1.0 + np.linalg.norm(dirs, axis=1)) * (1.0 + K.diameter())
    in_np = support_many(dirs, rel) <= 1e-9 * scale
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


def _arcs(C: PolyCone, tol=1e-9):
    """The unit circle's part of a planar cone, read off its generators as
    closed arcs (start angle, length): none for the zero cone, one of length
    at most pi for a ray, a sector or a half-plane, two points for a line,
    and the whole circle when no gap between consecutive generators reaches
    pi - tol."""
    if C.is_zero:
        return []
    theta = np.sort(np.arctan2(C.generators[:, 1], C.generators[:, 0]))
    gaps = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    k = int(np.argmax(gaps))
    if gaps[k] < np.pi - tol:
        return [(0.0, 2.0 * np.pi)]
    start, length = float(theta[(k + 1) % len(theta)]), float(2.0 * np.pi - gaps[k])
    off = np.mod(theta - start, 2.0 * np.pi)
    if abs(length - np.pi) <= tol and not np.any((off > tol) & (off < length - tol)):  # a line
        return [(start, 0.0), (start + length, 0.0)]
    return [(start, length)]


def _arc_distance(x, arcs):
    """Angular distance from the angles x to a union of closed arcs."""
    d = np.full(len(x), np.inf)
    for start, length in arcs:
        off = np.mod(x - start, 2.0 * np.pi)  # from the arc's start, counterclockwise
        d = np.minimum(d, np.where(off <= length, 0.0,
                                   np.minimum(off - length, 2.0 * np.pi - off)))
    return d


def _directed_arcs(P, Q):
    """max over the union of arcs P of the angular distance to the union Q:
    attained at an end of an arc of P or at the middle of a gap of Q, where
    the distance to Q peaks (for one arc of Q, its middle's antipode).  The
    ends belong to P by construction, whatever the rounding of s + L, so
    only the gap middles are tested for membership in P."""
    ends = [a for s, L in P for a in (s, s + L)]
    Q = sorted((s % (2.0 * np.pi), L) for s, L in Q)
    mid = []
    for (s, L), (t, _) in zip(Q, Q[1:] + [(Q[0][0] + 2.0 * np.pi, 0.0)]):
        gap = t - (s + L)
        if gap > 0.0:
            mid.append(s + L + 0.5 * gap)
    mid = np.array(mid)
    x = np.concatenate([ends, mid[_arc_distance(mid, P) == 0.0]])
    return float(_arc_distance(x, Q).max())


def sector_angular_hausdorff(A: PolyCone, B: PolyCone, dirs):
    """Angular Hausdorff distance between the unit-sphere sectors of two
    cones (pi when exactly one is the zero cone).

    In the plane it is exact: each sector is a union of arcs read off the
    cone's generators (_arcs), and dirs is not read (it may be None).  For
    n >= 3 it is estimated on the direction grid dirs augmented by the
    cones' own generators, a direction counting as a member at tolerance
    1e-9.  Of one sample, only the rows that bounds leave a candidate for
    the farthest from the other are measured against all of it."""
    if A.dim == 2:
        PA, PB = _arcs(A), _arcs(B)
        if not PA or not PB:
            return 0.0 if PA == PB else math.pi
        return max(_directed_arcs(PA, PB), _directed_arcs(PB, PA))
    dirs = np.asarray(dirs, dtype=float)
    return _sampled_hausdorff(A, B, dirs, support_many(dirs, -B.rows))


def _sampled_hausdorff(A: PolyCone, B: PolyCone, dirs, gB):
    """sector_angular_hausdorff for n >= 3, given gB, each grid direction's
    largest violation of B's rows (member_mask at 1e-9 is gB <= 1e-9)."""
    gA = support_many(dirs, -A.rows)
    mA, mB = gA <= 1e-9, gB <= 1e-9

    def sample(C, m):
        return np.vstack([dirs[m], C.generators])

    SA, SB = sample(A, mA), sample(B, mB)
    if len(SA) == 0 and len(SB) == 0:
        return 0.0
    if len(SA) == 0 or len(SB) == 0:
        return math.pi

    def directed(C, m, g, D, S, mS):
        # The support h(x) of a unit row x on S is at least its support on
        # every _SAMPLE_STRIDE-th grid row of S and D's generators, and at
        # most sqrt(1 - t^2) + delta, where t = -<x, w> for a row w of D and
        # every row of S meets w to within delta (the mask's 1e-9, or D's
        # own generators' worst gap); a row whose lower bound exceeds the
        # least upper bound is not the farthest, and is not measured.
        only = m & ~mS
        X = sample(C, only)
        t = np.concatenate([g[only], support_many(C.generators, -D.rows)])
        delta = max(1e-9, support_many(D.generators, -D.rows).max(initial=-np.inf))
        upper = np.sqrt(1.0 - np.clip(t, 0.0, 1.0) ** 2) + delta
        lower = support_many(X, np.vstack([dirs[np.flatnonzero(mS)[::_SAMPLE_STRIDE]],
                                           D.generators]))
        h = support_many(X[lower <= upper.min(initial=np.inf) + _SUPPORT_MARGIN], S)
        # a direction x in both samples has support at least <x, x> on S
        # (less its rounding, which the factor 1 - 1e-12 covers), so it
        # cannot be the farthest while another row's support is below that;
        # it is measured only when none is
        both = dirs[m & mS]
        if len(both) and (1.0 - 1e-12) * np.einsum("ij,ij->i", both, both).min() < h.min(initial=np.inf):
            h = np.concatenate([h, support_many(both, S)])
        return float(np.arccos(np.clip(h, -1.0, 1.0)).max())

    return max(directed(A, mA, gB, B, SB, mB), directed(B, mB, gA, A, SA, mA))


def _max_angle(C: PolyCone, X) -> float:
    """max over the rows x of X of C.angle_to(x), measuring only the rows
    whose bounds leave them a candidate.  The angle from x to C is at most
    its angle to C's nearest generator, and at least asin(-<x, w>) for a
    row w that every generator of C meets (to within 1e-9); in decreasing
    order of the upper bound, the rows are measured until that bound falls
    below the largest lower bound or the largest angle measured, less
    _ANGLE_MARGIN.  0 when X is empty."""
    upper = np.arccos(np.clip(support_many(X, C.generators), -1.0, 1.0))
    W = C.rows[support_many(-C.rows, C.generators) <= 1e-9]
    best = float(np.arcsin(np.clip(support_many(X, -W), 0.0, 1.0)).max(initial=0.0))
    top = 0.0
    for i in np.argsort(-upper, kind="stable").tolist():
        if upper[i] < max(best, top) - _ANGLE_MARGIN:
            break
        top = max(top, C.angle_to(X[i]))
    return top


def _directions(n, size, seed):
    """unit_directions(n, size, seed), read-only, made once while
    _dirs_cache keeps it."""
    def make():
        D = unit_directions(n, size, seed)
        D.flags.writeable = False
        return D

    return _dirs_cache.get((n, size, seed), n * size, make)


def normal_cone_limit_report(
    K: ConvexBody,
    p0,
    u,
    eps_list,
    grid_size=10000,
    seed=0,
):
    """Numeric study of the cap-body normal cones N_{K^{p_eps}}(p_eps).

    For p_eps = p0 + eps*u the cones are sandwiched between N_K(p0) n {u}*
    and {u}*, and converge (in angular Hausdorff distance of sectors) to
    the lower envelope as eps -> 0.  Requires p0 on the boundary of K and
    u outside the tangent cone there.  Each cap cone is read off K's facets
    (_cap_cone), with no cap body built, where that does not decline.  The
    distance is exact in the plane (sector_angular_hausdorff), where no
    direction grid is built; for n >= 3 it is measured on grid_size
    directions of unit_directions(seed), made once while a memo keeps them.
    """
    p0 = as_point(p0, K.dim)
    u = as_point(u, K.dim)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        raise InvalidInput("u must be nonzero")
    u = u / nu
    if not contains(K, p0, 1e-7):
        raise PreconditionViolated("p0 must lie in K")
    p0, A, W, D = _body_at(K, p0, TAU_PT)
    N0 = PolyCone(K.dim, np.vstack([A, W, -W]), -D)  # normal_cone(K, p0)
    if N0.is_zero:
        raise PreconditionViolated("p0 must lie on the boundary of K")
    if PolyCone(K.dim, D, np.vstack([-A, W, -W])).contains(u, tol=1e-8):  # tangent_cone
        raise PreconditionViolated("u lies in the tangent cone at p0")
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise InvalidInput("eps_list must be nonempty and positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInput("eps_list must be strictly decreasing")
    limit = cone_intersect_halfspace(N0, u)
    dirs = None if K.dim == 2 else _directions(K.dim, grid_size, seed)
    gL = None if dirs is None else support_many(dirs, -limit.rows)
    ridges = _ridges(K)
    G = limit.generators
    rows = []
    for eps in eps_list:
        pe = p0 + eps * u
        Ne = _cap_cone(K, ridges, pe)
        if Ne is None:
            Ne = normal_cone(cap_body(K, pe), pe)
        upper_ok = bool(np.all(Ne.generators @ u >= -1e-9)) if not Ne.is_zero else True
        # G in N_{K^pe}(pe) by the support gap on K's vertices less pe, at
        # in_normal_cone's tolerance 1e-8 * (1 + |g|) * (1 + diam K^pe): a
        # vertex of K that is not one of K^pe lies in the hull of the others
        # with pe, so its gap is at most the largest of theirs or 0.
        rel = K.vertices - pe
        diam = max(K.diameter(), float(_row_norms(rel).max()))
        lower_ok = limit.is_zero or bool(
            (support_many(G, rel) <= 1e-8 * (1.0 + _row_norms(G)) * (1.0 + diam)).all())
        rows.append(
            {
                "eps": eps,
                "sandwich_ok": upper_ok and lower_ok,
                "metric": (sector_angular_hausdorff(Ne, limit, dirs) if dirs is None
                           else _sampled_hausdorff(Ne, limit, dirs, gL)),
                "max_angle_to_base_cone": _max_angle(N0, Ne.generators),
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
