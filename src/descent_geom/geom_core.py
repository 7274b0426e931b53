"""V-polytope geometry: convex hulls, support functions, nearest-point
projection, containment and Hausdorff distance.

Bodies are stored canonically as the extreme points of their convex hull;
each builds its facet structure (`ConvexBody.facets`) once, on first use.
Relative depth (rel_depth_many) is read off the facets; containment and
distances ask it first and project only the points it leaves open.  All
operations are pure functions over immutable arrays; nothing here keeps
global state, so concurrent use on shared bodies is safe.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import DimensionMismatch, InvalidInput, NumericalFailure

# Point-identity tolerance used by canonicalization and deduplication.
TAU_PT = 1e-9

# Rank threshold factor for affine-hull dimension detection.
_RANK_RTOL = 1e-8

MAX_DIM = 8


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


def dedup_points(P, tol=TAU_PT):
    """Drop points within tol of an already-kept point (first occurrence wins)."""
    tree = cKDTree(P)
    pairs = tree.query_pairs(tol, output_type="ndarray")
    drop = np.zeros(len(P), dtype=bool)
    for i, j in pairs:
        lo, hi = (i, j) if i < j else (j, i)
        if not drop[lo]:
            drop[hi] = True
    return P[~drop]


def affine_basis(P):
    """Orthonormal basis of the affine hull of the rows of P.

    Returns (centroid, basis) where basis has shape (k, n) and k is the
    affine dimension detected by an SVD rank cut at _RANK_RTOL * s_max.
    """
    c = P.mean(axis=0)
    Q = P - c
    _, s, Vt = np.linalg.svd(Q, full_matrices=False)
    if s[0] <= 0.0:
        return c, np.zeros((0, P.shape[1]))
    k = int(np.sum(s > _RANK_RTOL * s[0]))
    return c, Vt[:k]


class Facets(NamedTuple):
    """Facet structure of a body inside its affine hull Aff(K).

    center and basis (orthonormal rows) span Aff(K).  Each row (a, b) of
    equations, in ambient coordinates, is a facet halfspace a.x + b <= 0 of
    the cylinder over K, with a unit normal a in span(basis).  simplices
    holds, per row, the indices into K.vertices of the vertices on that
    facet (Qhull's triangulation when K has dimension >= 2).
    """

    center: np.ndarray
    basis: np.ndarray
    equations: np.ndarray
    simplices: np.ndarray


def _qhull(P):
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


def _facets(V, k) -> Facets:
    n = V.shape[1]
    if k != n or n == 1:
        c, B = affine_basis(V)
        k = B.shape[0]
    if k == n > 1:
        return _full_facets(V, _qhull(V))  # hull in original coordinates
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
    if np.array_equal(V, P):
        # Qhull ran on K.vertices itself (a canonical body reloaded), and
        # affine_basis(P) is affine_basis(K.vertices): keep its facets rather
        # than building the same hull again on first use.
        K.__dict__["facets"] = (
            _full_facets(K.vertices, h) if k == n else _lifted_facets(c, B, h.equations, h.simplices)
        )
    return K


def _is_clear_ring(P) -> bool:
    """True iff the planar points P, in the given order, clearly form a
    strictly convex counterclockwise ring.

    Every edge, and every vertex's height over the chord of its two
    neighbours, exceeds a few TAU_PT at the scale of P; every turn has sine
    above 1e-9; the turns add up to one revolution (not a star).  A
    non-adjacent vertex lies beyond that chord, so no two vertices are
    within TAU_PT of each other either.
    """
    m = len(P)
    if m < 3:
        return False
    E = np.diff(P, axis=0, append=P[:1])  # edge out of each vertex
    back = np.arange(-1, m - 1)
    Ep = E[back]  # edge into each vertex
    cross = Ep[:, 0] * E[:, 1] - Ep[:, 1] * E[:, 0]
    L = np.hypot(E[:, 0], E[:, 1])
    C = Ep + E  # chord between the two neighbours
    tol = 4.0 * TAU_PT * (1.0 + np.abs(P).max())
    if not (L.min() > tol and np.all(cross > 1e-9 * L * L[back])
            and np.all(cross > tol * np.hypot(C[:, 0], C[:, 1]))):
        return False
    turning = np.arctan2(cross, (Ep * E).sum(axis=1)).sum()
    return bool(turning < 3.0 * np.pi)


def ring_hull(ring, points=None) -> ConvexBody:
    """hull(points) for planar points whose extreme points are the ring,
    listed counterclockwise (points defaults to the ring itself).

    When the ring clearly is strictly convex (see _is_clear_ring) and
    affine_basis finds rank 2, it is hull()'s vertex list up to rotation, so
    the same canonical body is read off in O(m) without Qhull; its facets
    are built on first use, like those of any other body.  Otherwise, and
    for points in another dimension, this is hull(points).
    """
    P = as_points(ring)
    if P.shape[1] == 2 and _is_clear_ring(P) and len(affine_basis(P)[1]) == 2:
        return ConvexBody(_canonical_order(P, 2), 2)
    return hull(P if points is None else points)


def support(K: ConvexBody, x) -> float:
    """Support value of K in direction x: the max inner product over K."""
    x = as_point(x, K.dim)
    return float(np.max(K.vertices @ x))


def _project_segment(a, b, p):
    d = b - a
    dd = d @ d
    if dd <= 0.0:
        return a
    t = np.clip((p - a) @ d / dd, 0.0, 1.0)
    return a + t * d


def _project_2d(K: ConvexBody, p):
    V = K.vertices
    m = len(V)
    if m == 1:
        return V[0].copy()
    if m == 2 or K.dim_affine <= 1:
        return _project_segment(V[0], V[-1], p)
    # vertices are CCW: inside iff p is left of (or on) every edge
    nxt = np.roll(V, -1, axis=0)
    e = nxt - V
    w = p - V
    cross = e[:, 0] * w[:, 1] - e[:, 1] * w[:, 0]
    if np.all(cross >= -1e-12 * (1.0 + np.abs(cross).max())):
        return p.copy()
    ee = np.einsum("ij,ij->i", e, e)
    t = np.clip(np.einsum("ij,ij->i", w, e) / ee, 0.0, 1.0)
    proj = V + t[:, None] * e
    d2 = ((proj - p) ** 2).sum(axis=1)
    return proj[int(np.argmin(d2))].copy()


def _min_norm_point(P, eps, max_iter):
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
    for _ in range(max_iter):
        dots = P @ x
        xx = x @ x
        j = int(np.argmin(dots))
        if dots[j] >= xx - eps * scale:
            return x
        if j in S:
            return x  # numerically stalled at optimum
        S.append(j)
        lam = np.append(lam, 0.0)
        for _ in range(max_iter):
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


def project(K: ConvexBody, p, max_iter=10000):
    """Nearest point of K to p.

    Exact edge enumeration in ambient dimension <= 2; Wolfe's min-norm
    active-set method otherwise.  The result q satisfies the optimality
    certificate <p - q, v - q> <= 1e-8 * (1 + |p - q|) over all vertices v;
    failure to reach it raises NumericalFailure rather than returning.
    """
    p = as_point(p, K.dim)
    if K.dim == 1:
        lo, hi = K.vertices.min(), K.vertices.max()
        return np.array([min(max(p[0], lo), hi)])
    if K.dim == 2:
        return _project_2d(K, p)
    if K.nvertices == 1:
        return K.vertices[0].copy()
    x = _min_norm_point(K.vertices - p, eps=1e-10, max_iter=max_iter)
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


def _within(K: ConvexBody, X, tol):
    """True iff every row of X lies within distance tol of K: the facet
    bounds decide each row whose lower bound exceeds tol or is exact, the
    nearest-point projection the rest."""
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
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
        upper[~exact] = cKDTree(B.vertices).query(V[~exact])[0]
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
