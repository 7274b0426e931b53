"""V-polytope geometry: convex hulls, support functions, nearest-point
projection, containment and Hausdorff distance.

Bodies are stored canonically as the extreme points of their convex hull;
each builds its facet structure (`ConvexBody.facets`) once, on first use,
and keeps its diameter and its mean width (`ConvexBody.kept_width`).
In R^n, n >= 3, hull() takes its input in canonical order, so a body built
from its own extreme points keeps Qhull's facets.  A planar body's
counterclockwise ring is its only boundary: hull() reads a clear ring
without Qhull, and its facets are the ring's edges.  Relative depth
(rel_depth_many) is read off the facets; containment and distances ask
it first and pass only the points it leaves open to one batched
nearest-point kernel, _nearest, chosen by
the body's affine dimension k: a closed form over the facet simplices for
k <= 3 (edges for k <= 2; for k = 3 the nearest vertex when it certifies
itself, else the facet triangles), and for k >= 4 the least-distance
program on the facets, solved by _nnls, the package's one active-set
solver (cones projects onto cones with it).  project, contains, includes
and hausdorff all read that kernel.
Functions here are pure over immutable arrays.  A body keeps what it
computes on itself, read-only, so concurrent use on shared bodies is safe;
the one global state is default_grid's memo of read-only sphere grids.

Qhull (scipy.spatial) is imported by _qhull on its first run; the rest is
numpy, so planar bodies from rings, their facets and projections,
deduplication (a sweep along generic directions), distances and support
values load no scipy.
"""

import math
import operator
import threading
from collections import OrderedDict
from dataclasses import dataclass
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


class _Memo:
    """Values keyed by content, least recently used evicted first once the
    costs of those kept (characters for CLI documents, direction
    coordinates for sphere grids) pass budget; a value costing more than
    budget is not kept.  A lock guards every read and write, and values are
    made outside it: when two threads make the same key at once, both get
    the value stored first."""

    def __init__(self, budget):
        self.budget, self.cost = budget, 0
        self.items = OrderedDict()  # key -> (value, cost)
        self.lock = threading.Lock()

    def _lookup(self, key):
        hit = self.items.get(key)
        if hit is not None:
            self.items.move_to_end(key)
        return hit

    def get(self, key, cost, make):
        """The value kept under key, else make(), kept at this cost."""
        with self.lock:
            hit = self._lookup(key)
        if hit is not None:
            return hit[0]
        value = make()
        with self.lock:
            hit = self._lookup(key)
            if hit is not None:
                return hit[0]
            if cost <= self.budget:
                self.items[key] = (value, cost)
                self.cost += cost
                while self.cost > self.budget:
                    self.cost -= self.items.popitem(last=False)[1][1]
        return value

    def clear(self):
        with self.lock:
            self.items.clear()
            self.cost = 0


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
    """Coerce to a nonempty (m, n) float array of finite points.  A
    coordinate given as a bool (JSON true or false) is not a number."""
    try:
        P = np.asarray(pts, dtype=float)
    except (TypeError, ValueError):
        # Rows of different lengths leave sequences among the entries.
        if any(isinstance(x, (list, tuple, np.ndarray)) for x in np.asarray(pts, dtype=object).flat):
            raise DimensionMismatch("points have mixed dimensions")
        raise InvalidInput("coordinates must be numbers")
    if P.ndim in (1, 2) and len(P) == 0:  # before [] would promote to shape (1, 0)
        raise InvalidInput("expected a nonempty point list, got a list of 0 points")
    if P.ndim == 1:
        P, pts = P[None, :], [pts]
    if P.ndim != 2 or P.shape[1] == 0:
        raise InvalidInput(f"expected a nonempty point list, got shape {P.shape}")
    if not isinstance(pts, np.ndarray) and any(type(x) is bool for row in pts for x in row):
        raise InvalidInput("coordinates must be numbers")
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


def dedup_points(P):
    """Drop points within TAU_PT of an already-kept point (first occurrence
    wins): the pairs within TAU_PT are taken in (lo, hi) order, and hi is
    dropped unless lo already is.

    Two points within TAU_PT are within TAU_PT along any unit direction, so
    only the pairs in a window of width TAU_PT along a sweep direction are
    measured.  Points crowded in that window (on a hyperplane orthogonal to
    it) are swept along the next direction, and the pairs are measured in
    blocks, so memory stays bounded.
    """
    m, n = P.shape
    if m < 2:
        return P
    # widened by a bound on the rounding of the projections
    w = TAU_PT + 4.0 * n * n * _EPS * float(np.abs(P).max())
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
        close = _sq_dists(P[i], P[j]) <= TAU_PT * TAU_PT
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


def affine_basis(P, k=None):
    """Orthonormal basis of the affine hull of the rows of P.

    Returns (centroid, basis) where basis has shape (k, n) and k is the
    affine dimension, unless given: the singular values of the centred rows
    above rank_cut, and at most m - 1 for m rows.
    """
    m = len(P)
    c = P.mean(axis=0)
    _, s, Vt = np.linalg.svd(P - c, full_matrices=False)
    k = int(np.sum(s > rank_cut(s[0], np.abs(P).max(), m))) if k is None else k
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


def ring_normals(V):
    """Outer unit normals (e_y, -e_x) / |e| of the edges e = V[i + 1] - V[i]
    of a counterclockwise planar ring V of at least two distinct points."""
    E = np.diff(V, axis=0, append=V[:1])
    return np.column_stack([E[:, 1], -E[:, 0]]) / np.sqrt((E * E).sum(axis=1))[:, None]


def _ring_facets(V) -> Facets:
    """Facets of a full-dimensional planar body from its counterclockwise
    ring V: edge i runs from V[i] to V[i + 1] (ring_normals)."""
    N = ring_normals(V)
    i = np.arange(len(V))
    return Facets(V.mean(axis=0), np.eye(2), np.column_stack([N, -(N * V).sum(axis=1)]),
                  np.column_stack([i, (i + 1) % len(V)]))


def _facets(V, k) -> Facets:
    n = V.shape[1]
    if k == n > 1:  # in the plane from the ring, else Qhull in original coordinates
        return _ring_facets(V) if n == 2 else _full_facets(V, _qhull(V))
    c, B = affine_basis(V, k)
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
    dim_affine: int

    @property
    def dim(self):
        return self.vertices.shape[1]

    @property
    def nvertices(self):
        return self.vertices.shape[0]

    @cached_property
    def facets(self) -> Facets:
        """The body's Facets, computed on first use and kept, read-only."""
        return _read_only(_facets(self.vertices, self.dim_affine))

    def centroid(self):
        return self.vertices.mean(axis=0)

    @cached_property
    def _diameter(self) -> float:
        V = self.vertices
        step = max(1, _PAIR_BLOCK // len(V))
        d2 = max(_sq_dists(V[i:i + step, None, :], V[None, :, :]).max()
                 for i in range(0, len(V), step))
        return float(np.sqrt(d2))

    def diameter(self):
        """Largest distance between two vertices, computed on first use and
        kept; the pairs are measured over row blocks, at most _PAIR_BLOCK at
        once."""
        return self._diameter

    def kept_width(self, grid, width):
        """The body's mean width on grid (None: exact), kept in one slot with
        the grid object it came from: width(self, grid) runs on first use
        and whenever another grid object (by identity) comes back, and its
        value replaces the kept one.  The slot keeps that grid alive."""
        kept = self.__dict__.get("_width")
        if kept is not None and kept[0] is grid:
            return kept[1]
        w = width(self, grid)
        self.__dict__["_width"] = (grid, w)
        return w

    def translate(self, t):
        return ConvexBody(self.vertices + as_point(t, self.dim), self.dim_affine)

    def scale(self, s):
        c = self.centroid()
        return hull(c + s * (self.vertices - c))

    def to_dict(self):
        return {"dim": int(self.dim), "vertices": self.vertices.tolist()}

    def __repr__(self):
        return f"ConvexBody(dim={self.dim}, nvertices={self.nvertices}, dim_affine={self.dim_affine})"


def _read_only(F):
    """F, its arrays marked read-only: a body's kept arrays are shared."""
    for a in F:
        a.flags.writeable = False
    return F


def body_from_dict(d):
    """Load a body from its JSON object form, re-canonicalizing on every
    load (a stored planar body is a clear ring, so hull() reads it without
    Qhull).  Its vertices are marked read-only, as its facets are, since a
    loaded body may be shared (the CLI keeps what it built from a document).
    """
    try:
        verts = d["vertices"]
    except (KeyError, TypeError):
        raise InvalidInput("body JSON must have a 'vertices' field")
    P = as_points(verts)
    if "dim" in d and _declared_dim(d, "body") != P.shape[1]:
        raise DimensionMismatch("declared dim does not match vertex data")
    K = hull(P)
    K.vertices.flags.writeable = False
    return K


def _declared_dim(d, what):
    """The "dim" field of a JSON object d of the kind what, an integer."""
    try:
        return operator.index(d["dim"])
    except TypeError:
        raise InvalidInput(f"{what} JSON 'dim' must be an integer, got {d['dim']!r}")


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
    hull(hull(P).vertices) == hull(P): when Qhull drops points and the kept
    ones read another affine_basis rank than P, the body is their hull().
    Planar points that clearly form a
    strictly convex ring (_ring_margin) in the given order, or reversed when
    the first turn is clockwise, and span the plane by affine_basis's rule
    are that vertex list up to rotation: they are read off in O(m), with no
    deduplication (no two are within TAU_PT) and no Qhull run.  The rank is
    proved from the closed-form eigenvalues of the ring's 2x2 moment matrix
    (_spans_plane); only a ring that bound leaves open pays affine_basis's
    SVD.
    """
    P = as_points(points)
    n = P.shape[1]
    if n == 2 and len(P) >= 3:
        R = P[::-1] if _cross(P[1] - P[0], P[2] - P[1]) < 0.0 else P
        if _ring_margin(R) > 0.0 and (_spans_plane(R) or len(affine_basis(R)[1]) == 2):
            return ConvexBody(_canonical_order(R, 2), 2)
    P = dedup_points(P)
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
    if len(V) < len(P) and len(affine_basis(V)[1]) != k:
        return hull(V)
    K = ConvexBody(np.ascontiguousarray(V), k)
    if n >= 3 and np.array_equal(V, P):
        # Qhull ran on K.vertices itself (a canonical body reloaded), and
        # affine_basis(P) is affine_basis(K.vertices): keep its facets rather
        # than building the same hull again on first use.  (A planar body
        # reads its facets off its ring.)
        K.__dict__["facets"] = _read_only(
            _full_facets(K.vertices, h) if k == n else _lifted_facets(c, B, h.equations, h.simplices)
        )
    return K


def _spans_plane(P) -> bool:
    """True when the m planar rows P have rank 2 by affine_basis's rule,
    proved without an SVD; False when this bound leaves it open.

    The centred rows X are affine_basis's own.  The smaller eigenvalue of
    G = X^T X is s_min^2, and its trace t bounds s_max^2.  Forming G moves
    its eigenvalues by at most ~m eps t and the closed form by a few eps t,
    so the margin is 2 (m + 4) eps t; the cut is doubled to cover the SVD's
    own rounding, ~eps s_max.
    """
    m = len(P)
    X = P - P.mean(axis=0)
    (a, b), (_, d) = (X.T @ X).tolist()
    t = a + d
    low = 0.5 * t - math.hypot(0.5 * (a - d), b) - 2.0 * (m + 4) * _EPS * t
    cut = 2.0 * rank_cut(math.sqrt(t), float(np.abs(P).max()), m)
    return low > cut * cut


def _cross(U, V):
    """Cross products of planar vectors, row by row."""
    return U[..., 0] * V[..., 1] - U[..., 1] * V[..., 0]


# Shewchuk's bound on the rounding of the orientation determinant, relative
# to the sum of the magnitudes of its two products (ccwerrboundA, with his
# epsilon 2^-53); the least normal float added to it covers products that
# underflow.
_ORIENT_BOUND = float((3.0 + 8.0 * _EPS) * 0.5 * _EPS)
_TINY = float(np.finfo(float).tiny)


def _orient(a, b, c):
    """Exact sign of (a - c) x (b - c) for planar points given as pairs of
    floats: 1 when a, b, c turn counterclockwise, -1 clockwise, 0 when they
    are collinear.

    A float filter decides when the determinant clears Shewchuk's error
    bound (Discrete Comput. Geom. 18, 1997); otherwise (exactly collinear
    points, near-degenerate ones, an overflow) it is evaluated in Python
    integers, the six coordinates scaled to one power of two.
    """
    (ax, ay), (bx, by), (cx, cy) = a, b, c
    left, right = (ax - cx) * (by - cy), (ay - cy) * (bx - cx)
    det = left - right
    if abs(det) > _ORIENT_BOUND * (abs(left) + abs(right)) + _TINY:
        return 1 if det > 0.0 else -1
    r = [v.as_integer_ratio() for v in (ax, ay, bx, by, cx, cy)]
    q = max(d for _, d in r)
    ax, ay, bx, by, cx, cy = (n * (q // d) for n, d in r)
    det = (ax - cx) * (by - cy) - (ay - cy) * (bx - cx)
    return (det > 0) - (det < 0)


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
    if not (least > tol and (cross > 1e-9 * L[1:] * L[:-1]).all()
            and (cross > tol * chord).all()
            and np.arctan2(cross, (Ep * E).sum(axis=1)).sum() < 3.0 * np.pi):
        return 0.0
    return min(float(least), float((cross / chord).min()))


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


def _lstsq(M, b):
    """Least squares solution of M z ~ b; one column in closed form."""
    if M.shape[1] == 1:
        a = M[:, 0]
        return np.array([(a @ b) / (a @ a)])
    return np.linalg.lstsq(M, b, rcond=None)[0]


def _nnls(A, b):
    """Nonnegative least squares: (x, |Ax - b|) for an x >= 0 minimising
    |Ax - b|.

    Lawson and Hanson's active-set method (Solving Least Squares Problems,
    1974, ch. 23): the column of largest positive gradient A^T (b - Ax)
    joins the passive set P, whose least squares solution z is taken by
    _lstsq, not by normal equations; while z has an entry <= 0, x steps
    towards z until the first entry of P reaches 0, which leaves P.  The
    residual is computed directly.
    """
    m, n = A.shape
    x = np.zeros(n)
    P = []
    # gradient entries at or below this are zero up to the rounding of A^T b
    tol = 10.0 * _EPS * max(m, n) * math.sqrt(m * (b @ b)) * float(np.abs(A).max())
    w = A.T @ b
    for _ in range(3 * n):
        w[P] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            break
        P.append(j)
        z = _lstsq(A[:, P], b)
        if z[-1] <= 0.0:
            # only by rounding: in exact arithmetic the new entry is positive
            P.pop()
            w[j] = -np.inf
            continue
        while z.size and z.min() <= 0.0:
            xp, neg = x[P], np.flatnonzero(z <= 0.0)
            step = xp[neg] / (xp[neg] - z[neg])
            k = int(step.argmin())
            xp += step[k] * (z - xp)
            xp[neg[k]] = 0.0
            x[P] = np.maximum(xp, 0.0)
            P = [p for p, v in zip(P, xp.tolist()) if v > 0.0]
            z = _lstsq(A[:, P], b) if P else np.zeros(0)
        x[:] = 0.0
        x[P] = z
        w = A.T @ (b - A[:, P] @ z)
    else:
        raise NumericalFailure("nonnegative least squares exceeded its iteration cap")
    r = A @ x - b
    return x, math.sqrt(r @ r)


def _certified(W, X, v):
    """Per row x of X and the vertex v of W in the same row of v, nearest to
    x: True where v is the nearest point of conv W to x, which holds iff
    <x - v, w - v> <= 0 for every vertex w."""
    return ((W - v[:, None, :]) @ (X - v)[:, :, None])[:, :, 0].max(axis=1) <= 0.0


def _row_norms(G):
    """The length of each row of G, formed as np.linalg.norm forms that of
    one vector: the square root of the row's product with itself."""
    return np.sqrt((G[:, None, :] @ G[:, :, None])[:, 0, 0])


def _row_block(K: ConvexBody) -> int:
    """Rows that _nearest takes at once: their arrays over K's vertices or
    facets hold at most _PAIR_BLOCK numbers."""
    return max(1, _PAIR_BLOCK // (K.dim * max(K.nvertices, len(K.facets.equations))))


def _nearest(K: ConvexBody, X):
    """Nearest points Q of K to the rows of X, and their distances d.

    A row that violates no facet equation gives itself, or its projection
    onto Aff(K) for a lower-dimensional K.  The others go, in blocks of
    _row_block(K) rows, by the affine dimension k of K:
    - k <= 2: the nearest of the points of the facet simplices (vertices or
      edges), in closed form;
    - k >= 3: the nearest vertex v where it is certified (_certified); else,
      for k = 3, the nearest of the points of the facet triangles at which
      the row's residual exceeds -rounding_floor(K) (_triangle_nearest; the
      outer normals of the facets through the nearest point q combine to
      x - q, so one of them has a positive residual at x); for k >= 4, row
      by row, the least-distance program on the facets that can bind
      (Lawson and Hanson 1974, ch. 23), solved by _nnls in units of
      |x - v|, so that its entries and solution are at most 1.
    A k >= 3 point q satisfies <x - q, v - q> <= 1e-8 * (1 + |x - q|) over
    all vertices v and violates no facet by more than max(TAU_PT,
    rounding_floor(K)), or NumericalFailure is raised.  d is |q - x|, but
    for k = 3 it is formed from the offsets x - (a vertex), to keep its
    precision far from the origin.  Each row's residuals and products are
    formed as for that row alone, so its answer does not depend on the
    rows beside it.
    """
    c, B, eqs, _ = K.facets
    R = (X[:, None, :] @ eqs[:, :-1].T)[:, 0, :] + eqs[:, -1]
    rows = np.flatnonzero((R > 0.0).any(axis=1))
    step = _row_block(K)
    if 0 < len(rows) == len(X) <= step:  # every row open, in one block
        return _nearest_open(K, X, R)
    if K.dim_affine == K.dim:
        Q, d = X.copy(), np.zeros(len(X))
    else:
        Q = c + ((X - c)[:, None, :] @ B.T @ B)[:, 0, :]
        d = _row_norms(Q - X)
    for i in range(0, len(rows), step):
        r = rows[i:i + step]
        Q[r], d[r] = _nearest_open(K, X[r], R[r])
    return Q, d


def _nearest_open(K: ConvexBody, X, R):
    """_nearest for rows X outside some facet, R their facet residuals."""
    k, V = K.dim_affine, K.vertices
    c, B, eqs, S = K.facets
    if k <= 2:
        A = V[S[:, 0]]
        D = V[S[:, -1]] - A
        dd = np.einsum("ij,ij->i", D, D)
        t = np.einsum("mfk,fk->mf", X[:, None, :] - A, D) / np.where(dd > 0.0, dd, 1.0)
        t = np.minimum(np.maximum(t, 0.0), 1.0)
        C = A + t[:, :, None] * D
        Q = C[np.arange(len(X)), np.argmin(_sq_dists(C, X[:, None, :]), axis=1)]
        return Q, _row_norms(Q - X)
    D2 = _sq_dists(X[:, None, :], V[None, :, :])
    Q, sq = V[np.argmin(D2, axis=1)], D2.min(axis=1)
    open_ = np.flatnonzero(~_certified(V, X, Q))  # the vertex fails the gap test
    floor = rounding_floor(K)
    if k == 3 and len(open_):
        row, tri = np.nonzero(R[open_] > -floor)
        tsq, tq = _triangle_nearest(X[open_[row]], V[S[tri]])
        # np.nonzero gives the rows in order, so the least candidate of each
        # row leads its run in this order
        order = np.lexsort((tsq, row))
        first = order[np.searchsorted(row, np.arange(len(open_)))]
        better = tsq[first] < sq[open_]
        sq[open_[better]], Q[open_[better]] = tsq[first[better]], tq[first[better]]
    for i in open_.tolist() if k > 3 else ():
        # delta = |x - v| >= dist(x, K): a facet with r < -delta cannot bind
        # at q, and in units of delta the kept entries and |q - x| are <= 1.
        delta = math.sqrt(sq[i])
        near = R[i] >= -delta
        E = np.vstack([-eqs[near, :-1].T, R[i, near] / delta])
        e = np.eye(K.dim + 1)[-1]
        rho = E @ _nnls(E, e)[0] - e
        if not rho[-1] < 0.0:
            raise NumericalFailure("least-distance program found no feasible point")
        Q[i] = X[i] - delta * rho[:-1] / rho[-1]
        if k < K.dim:
            Q[i] = c + ((Q[i] - c) @ B.T) @ B
    dist = np.sqrt(sq) if k == 3 else _row_norms(Q - X)
    if len(open_):
        q = Q[open_]
        gap = ((V - q[:, None, :]) @ (X[open_] - q)[:, :, None])[:, :, 0].max(axis=1)
        bad = np.flatnonzero(gap > 1e-8 * (1.0 + dist[open_]))
        if len(bad):
            raise NumericalFailure(f"projection certificate violated (gap {gap[bad[0]]:.3e})")
        worst = float((q @ eqs[:, :-1].T + eqs[:, -1]).max())
        if worst > max(TAU_PT, floor):
            raise NumericalFailure(f"projection left K by a facet residual of {worst:.3e}")
    return Q, dist


def project(K: ConvexBody, p):
    """Nearest point of K to p: _nearest on the one row p, so p itself (or
    its projection onto Aff(K)) when it violates no facet equation, else
    the closed form over the facet simplices of a body of affine dimension
    k <= 3, and the least-distance program for k >= 4.  A k >= 3 result
    carries _nearest's projection certificate, or NumericalFailure is
    raised."""
    return _nearest(K, as_point(p, K.dim)[None])[0][0]


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
    exceeds tol or is exact, _nearest the rest, in one call."""
    if tol < 0:
        raise InvalidInput("tol must be nonnegative")
    tol = max(tol, rounding_floor(K))
    lower, exact = _facet_bounds(K, X)
    if np.any(lower > tol):
        return False
    return bool(np.all(_nearest(K, X[~exact])[1] <= tol))


def contains(K: ConvexBody, p, tol=TAU_PT) -> bool:
    """True iff p lies within distance tol of K (facets first, then the
    nearest point, _nearest, as in includes)."""
    return _within(K, as_point(p, K.dim)[None], tol)


def includes(A: ConvexBody, B: ConvexBody, tol=TAU_PT) -> bool:
    """True iff every vertex of B lies in A (up to tol), i.e. B is inside A:
    the vertices the facets of A leave open are measured by _nearest, all
    in one call, and keep its projection certificate."""
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    return _within(A, B.vertices, tol)


def _triangle_nearest(X, T):
    """(squared distance, nearest point) from each row x of X to the
    triangle in the same row of T (three vertices, shape (m, 3, n)): the
    nearest of the nearest points of its three edges and, where it falls
    inside the triangle, the orthogonal projection of x onto its plane (C.
    Ericson, Real-Time Collision Detection, 2005, 5.1.5).  Every candidate
    is a point of the triangle, so a sliver, whose plane is ill-posed, is
    still measured by its edges; a zero Gram determinant drops the plane
    candidate.  Each point is a vertex plus a step, and its offset from x
    is formed from x - (that vertex), so the distance keeps its precision
    far from the origin."""
    Y = X[:, None, :] - T  # x minus each vertex
    D = T[:, [1, 2, 0]] - T  # the edges, each from its vertex to the next
    dd, yd = np.einsum("ijk,ijk->ij", D, D), np.einsum("ijk,ijk->ij", Y, D)
    t = np.clip(yd / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    E, F = D[:, 0], -D[:, 2]
    ee, ff, ye = dd[:, 0], dd[:, 2], yd[:, 0]
    ef, yf = np.einsum("ij,ij->i", E, F), np.einsum("ij,ij->i", Y[:, 0], F)
    det = ee * ff - ef * ef
    den = np.where(det > 0.0, det, 1.0)
    a, b = (ff * ye - ef * yf) / den, (ee * yf - ef * ye) / den
    inside = (det > 0.0) & (a >= 0.0) & (b >= 0.0) & (a + b <= 1.0)
    # steps from the vertices 0, 1, 2 and 0 to the nearest points of the
    # three edges and of the plane
    step = np.concatenate((t[:, :, None] * D, (a[:, None] * E + b[:, None] * F)[:, None]), axis=1)
    sq = _sq_dists(Y[:, [0, 1, 2, 0]], step)
    sq[:, 3] = np.where(inside, sq[:, 3], np.inf)
    i, j = np.arange(len(X)), np.argmin(sq, axis=1)
    return sq[i, j], T[i, j % 3] + step[i, j]


def _directed_hausdorff(A: ConvexBody, B: ConvexBody) -> float:
    """max over the vertices v of A of dist(v, B).

    The facets give dist(v, B) itself where the projection of v onto
    Aff(B) falls in B (_facet_bounds).  The other vertices are measured by
    _nearest in decreasing order of their distance to the nearest vertex of
    B, an upper bound, and only while it exceeds the largest distance found
    so far: in chunks of 1, 2, 4, ... rows, at most _row_block(B).
    """
    V = A.vertices
    upper, exact = _facet_bounds(B, V)
    d = float(upper.max(where=exact, initial=0.0))
    if np.all(exact):
        return d
    X = V[~exact]
    upper = np.sqrt(_sq_dists(X[:, None, :], B.vertices[None, :, :]).min(axis=1))
    cap = _row_block(B)

    def measure(rows):
        return float(_nearest(B, X[rows])[1].max())

    rows, size = [], 1
    for i in np.argsort(-upper, kind="stable"):
        if upper[i] <= d:
            break
        rows.append(i)
        if len(rows) == size:
            d, rows, size = max(d, measure(rows)), [], min(2 * size, cap)
    return max(d, measure(rows)) if rows else d


def _hausdorff_upper(A: ConvexBody, B: ConvexBody) -> float:
    """An upper bound on hausdorff(A, B): the Hausdorff distance between
    the vertex sets, which bounds the bodies' since every vertex is a point
    of its body, raised by 1e-9 of itself and both bodies' rounding_floor,
    far above the rounding by which hausdorff's kernels may exceed it.

    One table of squared distances, in row blocks of at most _PAIR_BLOCK
    entries: its row minima give A's vertices to B's, its column minima
    B's to A's.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    VA, VB = A.vertices, B.vertices
    step = max(1, _PAIR_BLOCK // len(VB))
    sq, col = 0.0, np.full(len(VB), np.inf)
    for i in range(0, len(VA), step):
        D = _sq_dists(VA[i:i + step, None, :], VB[None, :, :])
        sq = max(sq, float(D.min(axis=1).max()))
        np.minimum(col, D.min(axis=0), out=col)
    d = math.sqrt(max(sq, float(col.max())))
    return d * (1.0 + 1e-9) + rounding_floor(A) + rounding_floor(B)


def hausdorff(A: ConvexBody, B: ConvexBody) -> float:
    """Hausdorff distance between two bodies.

    Exact for V-polytopes: the directed distance from a convex body is
    attained at an extreme point, so it suffices to measure vertices: those
    over the other body by its facets, the rest by _nearest, in decreasing
    order of an upper bound and only while that bound can still raise the
    maximum.
    """
    if A.dim != B.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    return float(max(_directed_hausdorff(A, B), _directed_hausdorff(B, A)))


def unit_directions(n, size, seed=0):
    """Deterministic unit-direction sample on S^{n-1}.

    n=1: both signs, whatever size; n=2: equally spaced angles offset off
    the axes; n=3: seeded Fibonacci spiral; n>=4: seeded Gaussian
    normalization.  For n >= 2, size must be at least 1.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if size < 1:
        raise InvalidInput(f"a direction grid needs at least one node, got size {size}")
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


_DEFAULT_GRID_SIZE = 20000
# Bounded in direction coordinates: 2^20 hold 13 default R^4 grids.
_grid_cache = _Memo(1 << 20)


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^{n-1}, each standing for omega_n / size of the
    sphere; seed fixes the nodes (unit_directions), which are read-only."""

    dim: int
    directions: np.ndarray
    seed: int

    @classmethod
    def make(cls, n, size=_DEFAULT_GRID_SIZE, seed=0):
        if n < 1:
            raise InvalidInput("dimension must be >= 1")
        if n == 1:
            size = 2
        D = unit_directions(n, size, seed)
        D.flags.writeable = False
        return cls(n, D, seed)

    @property
    def size(self):
        return len(self.directions)


def default_grid(n, size=_DEFAULT_GRID_SIZE, seed=0) -> SphereGrid:
    """SphereGrid.make(n, size, seed), made once while _grid_cache keeps it:
    mean_width's quadrature and the cone-limit study share its grids."""
    return _grid_cache.get((n, size, seed), n * size, lambda: SphereGrid.make(n, size, seed))
