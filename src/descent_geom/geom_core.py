"""V-polytope geometry: convex hulls, support functions, nearest-point
projection, containment and Hausdorff distance.

Bodies are stored canonically as the extreme points of their convex hull;
each builds its facet structure (`ConvexBody.facets`) once, on first use.
In R^n, n >= 3, hull() takes its input in canonical order, so a body built
from its own extreme points keeps Qhull's facets.  A planar body's
counterclockwise ring is its only boundary: it is read off a clear ring
without Qhull (ring_hull), grown one point at a time (ClearRing), and its
facets are the ring's edges.  Relative depth (rel_depth_many) is read off
the facets; containment and distances ask it first and project only the
points it leaves open, in closed form for bodies of affine dimension <= 2.
Apart from a ClearRing, which its owner grows, everything here is a pure
function over immutable arrays; nothing keeps global state, so concurrent
use on shared bodies is safe.

Qhull (scipy.spatial) is imported by _qhull on its first run; the rest is
numpy, so planar bodies from rings, their facets and projections,
deduplication (a sweep along generic directions), distances and support
values load no scipy.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalFailure

# Point-identity tolerance used by canonicalization and deduplication.
TAU_PT = 1e-9

# Rank threshold factor for affine-hull dimension detection.
_RANK_RTOL = 1e-8
_EPS = np.finfo(float).eps

MAX_DIM = 8

# Iteration cap of each cycle of Wolfe's min-norm method (_min_norm_point).
_WOLFE_MAX_ITER = 10000

# Sweep directions of dedup_points, the n rows of _SWEEP[n - 1] in R^n: unit
# vectors with irrational ratios, so that no coordinate plane or lattice row
# projects onto one value and no two of them are parallel.
_PRIMES = [p for p in range(2, 320) if all(p % q for q in range(2, math.isqrt(p) + 1))]
_SWEEP = [D / np.linalg.norm(D, axis=1, keepdims=True) for D in (
    np.sqrt(_PRIMES[:n * n]).reshape(n, n) % 1.0 for n in range(1, MAX_DIM + 1))]
# dedup_points sweeps along the next direction while the window holds more
# pairs than this per point, and measures at most _PAIR_BLOCK pairs at once.
_SWEEP_PAIRS = 8
_PAIR_BLOCK = 1 << 16


def as_point(x, dim=None):
    """Coerce to a finite 1-D float vector, optionally checking its dimension."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInput(f"expected a coordinate vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise InvalidInput("coordinates must be finite")
    if p.size > MAX_DIM:
        raise InvalidInput(f"dimension {p.size} exceeds supported maximum {MAX_DIM}")
    if dim is not None and p.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {p.size}")
    return p


def as_points(pts):
    """Coerce to a nonempty (m, n) float array of finite points."""
    try:
        P = np.asarray(pts, dtype=float)
    except ValueError:
        raise DimensionMismatch("points have mixed dimensions")
    if P.ndim == 1:
        P = P[None, :]
    if P.ndim != 2 or P.shape[0] == 0 or P.shape[1] == 0:
        raise InvalidInput(f"expected a nonempty point list, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise InvalidInput("coordinates must be finite")
    if P.shape[1] > MAX_DIM:
        raise InvalidInput(f"dimension {P.shape[1]} exceeds supported maximum {MAX_DIM}")
    return P


def _sq_dists(X, Y):
    """Squared distances between the rows of X and Y, broadcast against each
    other, the squares summed over the coordinates in order."""
    s = (X[..., 0] - Y[..., 0]) ** 2
    for k in range(1, X.shape[-1]):
        s += (X[..., k] - Y[..., k]) ** 2
    return s


def distances(X, Y):
    """Matrix of the Euclidean distances between the rows of X and of Y."""
    return np.sqrt(_sq_dists(X[:, None, :], Y[None, :, :]))


def dedup_points(P, tol=TAU_PT):
    """Drop points within tol of an already-kept point (first occurrence wins):
    the pairs within tol are taken in (lo, hi) order, and hi is dropped
    unless lo already is.

    Two points within tol are within tol along any unit direction, so only
    the pairs in a window of width tol along a sweep direction are measured.
    Points crowded in that window (on a hyperplane orthogonal to it) are
    swept along the next direction, and the pairs are measured in blocks,
    so memory stays bounded.
    """
    m, n = P.shape
    if m < 2:
        return P
    # widened by a bound on the rounding of the projections
    w = tol + 4.0 * n * n * _EPS * float(np.abs(P).max())
    sweeps = []
    for d in _SWEEP[n - 1]:
        t = P @ d
        order = np.argsort(t, kind="stable")
        t = t[order]
        count = np.searchsorted(t, t + w, side="right") - np.arange(1, m + 1)
        sweeps.append((int(count.sum()), order, count))
        if sweeps[-1][0] <= _SWEEP_PAIRS * m:
            break
    total, order, count = min(sweeps, key=lambda s: s[0])
    if not total:
        return P
    ends = np.cumsum(count)
    lo, hi = [], []
    start = 0
    while start < m:
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - count[start] + _PAIR_BLOCK,
                                                  side="right")))
        c = count[start:stop]
        a = np.repeat(np.arange(start, stop), c)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(c) - c, c)
        i, j = order[a], order[b]
        close = _sq_dists(P[i], P[j]) <= tol * tol
        lo.append(np.minimum(i, j)[close])
        hi.append(np.maximum(i, j)[close])
        start = stop
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    k = np.lexsort((hi, lo))
    drop = np.zeros(m, dtype=bool)
    for p, q in zip(lo[k].tolist(), hi[k].tolist()):
        if not drop[p]:
            drop[q] = True
    return P[~drop]


def rank_cut(s_max, scale, m):
    """Singular values at or below this do not count towards the rank of m
    centred rows with top singular value s_max and coordinates up to scale:
    the relative cut _RANK_RTOL * s_max, or the rounding floor of the
    centring, whichever is larger."""
    return max(_RANK_RTOL * s_max, 4.0 * _EPS * scale * math.sqrt(m))


def affine_basis(P):
    """Orthonormal basis of the affine hull of the rows of P.

    Returns (centroid, basis) where basis has shape (k, n) and k is the
    affine dimension: the singular values of the centred rows above
    rank_cut, and at most m - 1 for m rows.
    """
    m = len(P)
    c = P.mean(axis=0)
    _, s, Vt = np.linalg.svd(P - c, full_matrices=False)
    k = int(np.sum(s > rank_cut(s[0], np.abs(P).max(), m)))
    return c, Vt[:min(k, m - 1)]


class Facets(NamedTuple):
    """Facet structure of a body inside its affine hull Aff(K).

    center and basis (orthonormal rows) span Aff(K).  Each row (a, b) of
    equations, in ambient coordinates, is a facet halfspace a.x + b <= 0 of
    the cylinder over K, with a unit normal a in span(basis).  simplices
    holds, per row, the indices into K.vertices of the vertices on that
    facet: the edges [i, i + 1] of the ring of a full-dimensional planar
    body, Qhull's triangulation for any other body of dimension >= 2.
    """

    center: np.ndarray
    basis: np.ndarray
    equations: np.ndarray
    simplices: np.ndarray


def _qhull(P):
    from scipy.spatial import ConvexHull, QhullError

    try:
        return ConvexHull(P)
    except QhullError:
        try:
            return ConvexHull(P, qhull_options="QJ")
        except QhullError as e:  # pragma: no cover - pathological data
            raise NumericalFailure(f"convex hull computation failed: {e}")


def _full_facets(V, h) -> Facets:
    """Facets of a full-dimensional body from Qhull run on its vertices V."""
    return Facets(V.mean(axis=0), np.eye(V.shape[1]), h.equations, h.simplices)


def _lifted_facets(c, B, inplane, simplices) -> Facets:
    """Facets of a body of lower dimension from equations inplane in the
    coordinates (x - c) @ B.T of its affine hull."""
    normals = inplane[:, :-1] @ B
    return Facets(c, B, np.column_stack([normals, inplane[:, -1] - normals @ c]), simplices)


def _ring_facets(V) -> Facets:
    """Facets of a full-dimensional planar body from its counterclockwise
    ring V: edge i runs from V[i] to V[i + 1] and has the outer unit normal
    (e_y, -e_x) / |e|."""
    E = np.roll(V, -1, axis=0) - V
    N = np.column_stack([E[:, 1], -E[:, 0]]) / np.sqrt((E * E).sum(axis=1))[:, None]
    i = np.arange(len(V))
    return Facets(V.mean(axis=0), np.eye(2), np.column_stack([N, -(N * V).sum(axis=1)]),
                  np.column_stack([i, np.roll(i, -1)]))


def _facets(V, k) -> Facets:
    n = V.shape[1]
    if k != n or n == 1:
        c, B = affine_basis(V)
        k = B.shape[0]
    if k == n > 1:  # in the plane from the ring, else Qhull in original coordinates
        return _ring_facets(V) if n == 2 else _full_facets(V, _qhull(V))
    if k == 0:
        return Facets(c, B, np.zeros((0, n + 1)), np.zeros((0, 1), dtype=int))
    if k == 1:
        t = (V - c) @ B[0]
        lo, hi = int(np.argmin(t)), int(np.argmax(t))
        return _lifted_facets(c, B, np.array([[1.0, -t[hi]], [-1.0, t[lo]]]), np.array([[hi], [lo]]))
    h = _qhull((V - c) @ B.T)
    return _lifted_facets(c, B, h.equations, h.simplices)


@dataclass(frozen=True)
class ConvexBody:
    """Convex body given by the extreme points of its hull (canonical form).

    In ambient dimension 2 the vertices are stored in counterclockwise
    order starting from the lexicographically smallest one; in other
    dimensions rows are sorted lexicographically.
    """

    vertices: np.ndarray
    dim_affine: int = field(default=-1)

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def nvertices(self):
        return self.vertices.shape[0]

    @cached_property
    def facets(self) -> Facets:
        """The body's Facets, computed on first use and kept."""
        return _facets(self.vertices, self.dim_affine)

    def centroid(self):
        return self.vertices.mean(axis=0)

    @cached_property
    def _diameter(self) -> float:
        V = self.vertices
        d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
        return float(np.sqrt(d2.max()))

    def diameter(self):
        """Largest distance between two vertices, computed on first use and
        kept."""
        return self._diameter

    def translate(self, t):
        return ConvexBody(self.vertices + as_point(t, self.dim), self.dim_affine)

    def scale(self, s, center=None):
        c = self.centroid() if center is None else as_point(center, self.dim)
        return hull(c + s * (self.vertices - c))

    def to_dict(self):
        return {"dim": int(self.dim), "vertices": self.vertices.tolist()}

    def __repr__(self):
        return f"ConvexBody(dim={self.dim}, nvertices={self.nvertices}, dim_affine={self.dim_affine})"


def body_from_dict(d):
    """Load a body from its JSON object form, re-canonicalizing.

    A planar vertex list is read as a counterclockwise ring (ring_hull), so
    a stored planar body loads without Qhull.
    """
    try:
        verts = d["vertices"]
    except (KeyError, TypeError):
        raise InvalidInput("body JSON must have a 'vertices' field")
    P = as_points(verts)
    if "dim" in d and int(d["dim"]) != P.shape[1]:
        raise DimensionMismatch("declared dim does not match vertex data")
    return ring_hull(P)


def _canonical_order(V, n):
    if n == 2 and len(V) >= 2:
        # V arrives in CCW order (from Qhull or a ring); rotate to start at
        # the lex-min.
        start = np.lexsort((V[:, 1], V[:, 0]))[0]
        return np.concatenate((V[start:], V[:start]))
    order = np.lexsort(V.T[::-1])
    return V[order]


def hull(points) -> ConvexBody:
    """Convex hull of a point set as a canonical ConvexBody.

    The stored vertex list is exactly the set of extreme points, so
    hull(hull(P).vertices) == hull(P).
    """
    P = dedup_points(as_points(points))
    n = P.shape[1]
    if n >= 3:
        # In canonical order, a point set that is all extreme points is
        # K.vertices itself, and K keeps Qhull's facets (below).
        P = _canonical_order(P, n)
    c, B = affine_basis(P)
    k = B.shape[0]
    if k == 0:
        return ConvexBody(P[:1].copy(), 0)
    if k == 1:
        t = (P - c) @ B[0]
        V = np.vstack([P[np.argmin(t)], P[np.argmax(t)]])
        return ConvexBody(_canonical_order(V, n), 1)
    h = _qhull(P if k == n else (P - c) @ B.T)  # full-dimensional: original coordinates
    V = _canonical_order(P[h.vertices], n)
    K = ConvexBody(np.ascontiguousarray(V), k)
    if n >= 3 and np.array_equal(V, P):
        # Qhull ran on K.vertices itself (a canonical body reloaded), and
        # affine_basis(P) is affine_basis(K.vertices): keep its facets rather
        # than building the same hull again on first use.  (A planar body
        # reads its facets off its ring.)
        K.__dict__["facets"] = (
            _full_facets(K.vertices, h) if k == n else _lifted_facets(c, B, h.equations, h.simplices)
        )
    return K


def _cross(U, V):
    """Cross products of planar vectors, row by row."""
    return U[..., 0] * V[..., 1] - U[..., 1] * V[..., 0]


def _ring_margin(P) -> float:
    """The least edge length and vertex height of the planar points P, in
    the given order, if they clearly form a strictly convex counterclockwise
    ring; else 0.

    Clearly: every edge, and every vertex's height over the chord of its two
    neighbours, exceeds a few TAU_PT at the scale of P; every turn has sine
    above 1e-9; the turns add up to one revolution (not a star).  A
    non-adjacent vertex lies beyond that chord, so no two vertices are
    within TAU_PT of each other either.
    """
    if len(P) < 3:
        return 0.0
    W = np.concatenate((P[-1:], P, P[:1]))
    D = W[1:] - W[:-1]
    Ep, E = D[:-1], D[1:]  # edge into and out of each vertex
    cross = _cross(Ep, E)
    L = np.hypot(D[:, 0], D[:, 1])
    C = Ep + E  # chord between the two neighbours
    chord = np.hypot(C[:, 0], C[:, 1])
    tol = 4.0 * TAU_PT * (1.0 + np.abs(P).max())
    least = L.min()  # L[0] is L[-1]
    if not (least > tol and np.all(cross > 1e-9 * L[1:] * L[:-1])
            and np.all(cross > tol * chord)
            and np.arctan2(cross, (Ep * E).sum(axis=1)).sum() < 3.0 * np.pi):
        return 0.0
    return min(float(least), float((cross / chord).min()))


class ClearRing:
    """A planar body whose vertices form a clear ring (_ring_margin), grown
    one point at a time exactly as hull() grows it.  It keeps the bounding
    box of the points seen and lower bounds on its width and on every edge
    and vertex height its ring has had (0 if K has no clear ring)."""

    def __init__(self, K):
        self.K, self.width = K, 0.0
        self.least = _ring_margin(K.vertices) if K.dim == 2 else 0.0
        self.box = K.vertices.min(axis=0).tolist() + K.vertices.max(axis=0).tolist()

    def insert(self, p):
        """hull() of the ring and p, kept as the new ring; None unless that
        is clearly decided.

        While the cross products cr of p with the edges keep min|cr| / diam
        above the clearance tol, every side is decided exactly, p replaces
        the run of edges it sees, and the new edges and heights are at least
        min|cr| / diam.  Rank 2 holds while the width floor exceeds an upper
        bound on affine_basis's cut.  The ring starts at its
        lexicographically smallest vertex: p or the old one."""
        if not self.least:
            return None
        R = self.K.vertices
        m = len(R)
        x, y = p.tolist()
        b = self.box
        b[:] = min(b[0], x), min(b[1], y), max(b[2], x), max(b[3], y)
        scale, diam = max(-b[0], -b[1], b[2], b[3]), math.hypot(b[2] - b[0], b[3] - b[1])
        # s_max <= sqrt(m + 1) * diam, s_min >= width / sqrt(2)
        cut = 4.0 * rank_cut(math.sqrt(m + 1) * diam, scale, m + 1)
        if self.width <= cut:
            # At most the width of the triangle of R[0], the vertex farthest
            # from it and the vertex farthest from their line.
            d = R[np.argmax(((R - R[0]) ** 2).sum(axis=1))] - R[0]
            self.width = np.abs(_cross(d, R - R[0])).max() / (2.0 * math.hypot(*d))
        D = R - p
        cr = _cross(D, np.concatenate((D[1:], D[:1])))  # negative on the edges p sees
        least = min(self.least, np.abs(cr).min() / diam)
        if least <= 4.0 * TAU_PT * (1.0 + scale) or self.width <= cut:
            return None
        seen = cr < 0.0
        if not seen.any():
            return self.K  # p lies clearly inside
        a = int(np.argmax(seen > seen[np.arange(-1, m - 1)]))  # the first edge p sees
        j = a + int(seen.sum())  # R[a + 1] .. R[j - 1] are cut off
        if j > m:  # R[0] is cut off, so p is below it
            V = np.vstack((p, R[j - m:a + 1]))
        elif (x, y) < tuple(R[0].tolist()):
            V = np.vstack((p, R[j:], R[:a + 1]))
        else:
            V = np.vstack((R[:a + 1], p, R[j:]))
        self.least, self.K = least, ConvexBody(V, 2)
        return self.K


def ring_hull(ring, points=None) -> ConvexBody:
    """hull(points) for planar points whose extreme points are the ring,
    listed counterclockwise (points defaults to the ring itself).

    When the ring clearly is strictly convex (see _ring_margin) and
    affine_basis finds rank 2, it is hull()'s vertex list up to rotation, so
    the same canonical body is read off in O(m) without Qhull; its facets
    are built on first use, like those of any other body.  Otherwise, and
    for points in another dimension, this is hull(points).
    """
    P = as_points(ring)
    if P.shape[1] == 2 and _ring_margin(P) > 0.0 and len(affine_basis(P)[1]) == 2:
        return ConvexBody(_canonical_order(P, 2), 2)
    return hull(P if points is None else points)


def support(K: ConvexBody, x) -> float:
    """Support value of K in direction x: the max inner product over K."""
    x = as_point(x, K.dim)
    return float(np.max(K.vertices @ x))


def support_many(X, Y):
    """Per row x of X, max over the rows y of Y of <x, y>: the support
    function of conv(Y) at each x (-inf when Y is empty).

    The products are formed over row blocks of X, at most _PAIR_BLOCK at
    once, so memory stays bounded for any grid and point count.  A block is
    laid out with its longer side along rows, which numpy reduces fastest.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    h = np.full(len(X), -np.inf)
    if len(Y):
        step = max(1, _PAIR_BLOCK // len(Y))
        wide = len(Y) <= step
        for i in range(0, len(X), step):
            if wide:
                np.max(Y @ X[i:i + step].T, axis=0, out=h[i:i + step])
            else:
                np.max(X[i:i + step] @ Y.T, axis=1, out=h[i:i + step])
    return h


def _min_norm_point(P, eps):
    """Wolfe's algorithm: the minimum-norm point of conv(rows of P).

    Active-set method; each major cycle adds the vertex most violating the
    optimality condition <x, p_i> >= |x|^2, each minor cycle restores the
    affinely-independent positive-weight support set.
    """
    m = P.shape[0]
    norms = np.einsum("ij,ij->i", P, P)
    scale = 1.0 + float(np.sqrt(norms.max()))
    j = int(np.argmin(norms))
    S = [j]
    lam = np.array([1.0])
    x = P[j].copy()
    for _ in range(_WOLFE_MAX_ITER):
        dots = P @ x
        xx = x @ x
        j = int(np.argmin(dots))
        if dots[j] >= xx - eps * scale:
            return x
        if j in S:
            return x  # numerically stalled at optimum
        S.append(j)
        lam = np.append(lam, 0.0)
        for _ in range(_WOLFE_MAX_ITER):
            B = P[S]
            k = len(S)
            A = np.empty((k + 1, k + 1))
            A[:k, :k] = B @ B.T
            A[:k, k] = 1.0
            A[k, :k] = 1.0
            A[k, k] = 0.0
            rhs = np.zeros(k + 1)
            rhs[k] = 1.0
            try:
                a = np.linalg.solve(A, rhs)[:k]
            except np.linalg.LinAlgError:
                a = np.linalg.lstsq(A, rhs, rcond=None)[0][:k]
            if np.all(a > 1e-13):
                lam = a
                x = a @ B
                break
            neg = a <= 1e-13
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = lam[neg] / (lam[neg] - a[neg])
            theta = float(np.min(steps[np.isfinite(steps)], initial=1.0))
            theta = min(max(theta, 0.0), 1.0)
            lam = theta * a + (1.0 - theta) * lam
            lam[lam < 1e-13] = 0.0
            keep = lam > 0.0
            if not np.any(keep):
                keep[int(np.argmax(lam))] = True
            S = [s for s, kp in zip(S, keep) if kp]
            lam = lam[keep]
            lam = lam / lam.sum()
        else:  # pragma: no cover
            raise NumericalFailure("minor cycle of min-norm solver did not terminate")
    raise NumericalFailure("min-norm point solver exceeded its iteration cap")


def project(K: ConvexBody, p):
    """Nearest point of K to p.

    Closed form for a body of affine dimension k <= 2 in any R^n: the
    projection of p onto Aff(K) (p itself when k = n) if p violates no facet
    equation, else the nearest point of the facet simplices (vertices or
    edges).  For k >= 3, Wolfe's min-norm active-set method; its result q
    satisfies <p - q, v - q> <= 1e-8 * (1 + |p - q|) over all vertices v,
    or NumericalFailure is raised rather than returning.
    """
    p = as_point(p, K.dim)
    k = K.dim_affine if K.dim_affine >= 0 else len(K.facets.basis)
    if k <= 2:
        c, B, eqs, S = K.facets
        if np.all(p @ eqs[:, :-1].T + eqs[:, -1] <= 0.0):
            return p.copy() if k == K.dim else c + ((p - c) @ B.T) @ B
        A = K.vertices[S[:, 0]]
        D = K.vertices[S[:, -1]] - A
        dd = np.einsum("ij,ij->i", D, D)
        t = np.clip(np.einsum("ij,ij->i", p - A, D) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
        X = A + t[:, None] * D
        return X[int(np.argmin(_sq_dists(X, p)))]
    x = _min_norm_point(K.vertices - p, eps=1e-10)
    q = p + x
    gap = float(np.max((K.vertices - q) @ (p - q)))
    if gap > 1e-8 * (1.0 + np.linalg.norm(p - q)):
        raise NumericalFailure(f"projection certificate violated (gap {gap:.3e})")
    return q


def rel_depth_many(K: ConvexBody, X):
    """Per point: (depth, offplane) relative to K.

    depth is the signed distance below the relative boundary measured
    inside Aff(K) (positive strictly inside); offplane is the distance to
    Aff(K) itself.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    c, B, eqs, _ = K.facets
    Y = X - c
    off = np.linalg.norm(Y - (Y @ B.T) @ B, axis=1)
    if len(eqs) == 0:
        return np.zeros(len(X)), off
    return -(X @ eqs[:, :-1].T + eqs[:, -1]).max(axis=1), off


def _facet_bounds(K: ConvexBody, X):
    """Per row x of X: (lower, exact), lower <= dist(x, K) and exact marks
    the rows where lower is dist(x, K) itself.

    dist(x, K)^2 >= off^2 + max(-depth, 0)^2 (rel_depth_many), since the
    unit facet normals lie in Aff(K).  When depth >= 0 the orthogonal
    projection of x onto Aff(K) lies in K, so the distance is off.
    """
    depth, off = rel_depth_many(K, X)
    return np.hypot(off, np.maximum(-depth, 0.0)), depth >= 0.0


def rounding_floor(K: ConvexBody) -> float:
    """Least tolerance at which facet residuals <a, x> + b of K's own points
    are decided: 8 eps (1 + max |v|), their rounding at the scale of K's
    vertices.  It exceeds TAU_PT only for bodies beyond |v| ~ 5.6e5."""
    return 8.0 * _EPS * (1.0 + float(np.abs(K.vertices).max()))


def _within(K: ConvexBody, X, tol):
    """True iff every row of X lies within distance tol of K, tol raised to
    K's rounding_floor: the facet bounds decide each row whose lower bound
    exceeds tol or is exact, the nearest-point projection the rest."""
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
    tol = max(tol, rounding_floor(K))
    lower, exact = _facet_bounds(K, X)
    if np.any(lower > tol):
        return False
    return all(np.linalg.norm(project(K, x) - x) <= tol for x in X[~exact])


def contains(K: ConvexBody, p, tol=TAU_PT) -> bool:
    """True iff p lies within distance tol of K (facets first, then the
    nearest-point projection, as in includes)."""
    return _within(K, as_point(p, K.dim)[None], tol)


def includes(A: ConvexBody, B: ConvexBody, tol=TAU_PT) -> bool:
    """True iff every vertex of B lies in A (up to tol), i.e. B is inside A."""
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    return _within(A, B.vertices, tol)


def _directed_hausdorff(A: ConvexBody, B: ConvexBody) -> float:
    """max over the vertices v of A of dist(v, B), projecting only the
    vertices whose upper bound exceeds the largest distance found so far.

    The upper bound is the exact facet distance where the facets give it,
    and the distance to the nearest vertex of B otherwise.
    """
    V = A.vertices
    upper, exact = _facet_bounds(B, V)
    if not np.all(exact):
        upper[~exact] = distances(V[~exact], B.vertices).min(axis=1)
    d = 0.0
    for i in np.argsort(-upper, kind="stable"):
        if upper[i] <= d:
            break
        d = max(d, np.linalg.norm(project(B, V[i]) - V[i]))
    return d


def hausdorff(A: ConvexBody, B: ConvexBody) -> float:
    """Hausdorff distance between two bodies.

    Exact for V-polytopes: the directed distance from a convex body is
    attained at an extreme point, so it suffices to project vertices, in
    decreasing order of an upper bound and only while that bound can still
    raise the maximum.  The result is a projection distance (or 0).
    """
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    return float(max(_directed_hausdorff(A, B), _directed_hausdorff(B, A)))


def mix(A: ConvexBody, B: ConvexBody, lam: float) -> ConvexBody:
    """Minkowski combination lam*A + (1-lam)*B as a hull of pairwise sums."""
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    sums = lam * A.vertices[:, None, :] + (1.0 - lam) * B.vertices[None, :, :]
    return hull(sums.reshape(-1, A.dim))


def unit_directions(n, size, seed=0):
    """Deterministic unit-direction sample on S^{n-1}.

    n=1: both signs; n=2: equally spaced angles offset off the axes;
    n=3: seeded Fibonacci spiral; n>=4: seeded Gaussian normalization.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = (np.arange(size) + 0.5) * (2.0 * np.pi / size)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if n == 3:
        i = np.arange(size)
        z = 1.0 - (2.0 * i + 1.0) / size
        golden = np.pi * (3.0 - np.sqrt(5.0))
        phase = (seed % 997) * 0.618033988749895
        phi = i * golden + phase
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((size, n))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    return X
