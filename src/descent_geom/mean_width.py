"""Mean width of convex bodies and its first variation under cap-body
deformations.

Mean width is exact up to R^3: perimeter / pi in the plane (Cauchy's
formula, a segment's perimeter counting both sides), and in R^3 a sum over
the edges of the facet triangulation; n >= 4 averages support values over a
deterministic seeded sphere grid of equal-weight nodes.  A body keeps its
width (ConvexBody.kept_width): an exact one from first use, a quadrature
one together with the grid object it came from.  The first
variation reads one normal-cone sector integral, _sector_integral: the
vector integral of theta over the sector of N_K(q), cut to a halfspace when
asked, exact over arcs in the plane and a grid sum otherwise.  Summation
runs in fixed index order, so identical inputs give bit-identical results.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalFailure, PreconditionViolated
from .geom_core import (
    TAU_PT,
    ConvexBody,
    _Memo,
    as_point,
    contains,
    hausdorff,
    hull,
    includes,
    support_many,
    unit_directions,
)
from .cones import (
    _arcs,
    cap_body,
    normal_cone,
    normal_cone_mask,
    sphere_measure,
    tangent_cone,
)

_DEFAULT_GRID_SIZE = 20000
# Bounded in direction coordinates: 2^20 hold 13 default R^4 grids.
_grid_cache = _Memo(1 << 20)


@dataclass(frozen=True)
class SphereGrid:
    """Quadrature nodes on S^{n-1}, each standing for omega_n / size of the
    sphere; seed fixes the nodes (geom_core.unit_directions)."""

    dim: int
    directions: np.ndarray
    seed: int

    @classmethod
    def make(cls, n, size=_DEFAULT_GRID_SIZE, seed=0):
        if n < 1:
            raise InvalidInput("dimension must be >= 1")
        if n == 1:
            size = 2
        return cls(n, unit_directions(n, size, seed), seed)

    @property
    def size(self):
        return len(self.directions)


def default_grid(n, size=_DEFAULT_GRID_SIZE, seed=0) -> SphereGrid:
    """SphereGrid.make(n, size, seed), made once while _grid_cache keeps it."""
    return _grid_cache.get((n, size, seed), n * size, lambda: SphereGrid.make(n, size, seed))


def perimeter(K: ConvexBody) -> float:
    """Perimeter of a planar body; a segment counts both sides, a point is 0."""
    if K.dim != 2:
        raise DimensionMismatch("perimeter is a planar quantity")
    V = K.vertices
    if len(V) == 1:
        return 0.0
    return float(np.linalg.norm(np.concatenate((V[1:], V[:1])) - V, axis=1).sum())


def mean_width_quadrature(K: ConvexBody, grid: SphereGrid) -> float:
    """Twice the mean support value over the grid's equal-weight nodes.

    The support values come from geom_core.support_many, so memory stays
    bounded (2^16 products at once) whatever the grid size and vertex count.
    """
    if grid.dim != K.dim:
        raise DimensionMismatch("grid dimension does not match the body")
    h = support_many(grid.directions, K.vertices)
    return float(2.0 * h.sum() / grid.size)


def _mean_width_3d(K: ConvexBody) -> float:
    """Exact mean width in R^3 from K's facets: (1/4pi) * sum over the edges
    of length times the angle between the outer normals of the two faces
    there (Schneider, Convex Bodies, 4.2).  Coplanar triangles add nothing;
    a flat body's edges have angle pi."""
    _, B, eqs, S = K.facets
    if len(B) < 2:
        return K.diameter() / 2.0  # a segment or a point
    E, theta = S, math.pi
    if len(B) == 3:
        # Each edge of the boundary triangles lies on exactly two of them:
        # sorted by edge, the rows pair up.
        E = np.sort(np.concatenate((S[:, :2], S[:, 1:], S[:, ::2])), axis=1)
        order = np.lexsort(E.T[::-1])
        E, tri = E[order], np.tile(np.arange(len(S)), 3)[order]
        if not np.array_equal(E[::2], E[1::2]):
            raise NumericalFailure("facet triangles of a body in R^3 do not pair up by edge")
        n1, n2 = eqs[tri[::2], :3], eqs[tri[1::2], :3]
        E, theta = E[::2], np.arctan2(np.linalg.norm(np.cross(n1, n2), axis=1), (n1 * n2).sum(axis=1))
    V = K.vertices
    return float((np.linalg.norm(V[E[:, 0]] - V[E[:, 1]], axis=1) * theta).sum()) / (4.0 * math.pi)


def mean_width(K: ConvexBody, grid: SphereGrid = None) -> float:
    """Mean width of K in its ambient dimension.

    Exact for n <= 3 (segment length in the line, perimeter/pi in the
    plane, facet edges in space); for n >= 4, twice the mean support value
    over the nodes of the given or default grid.  Strictly monotone under
    strict inclusion at quadrature resolution.  The body keeps its width
    (ConvexBody.kept_width): an exact one from first use, a quadrature one
    while the same grid object comes back.
    """
    n = K.dim
    if n <= 3:
        return K.kept_width(None, _exact_mean_width)
    if grid is None:
        grid = default_grid(n)
    return K.kept_width(grid, mean_width_quadrature)


def _exact_mean_width(K: ConvexBody, grid=None) -> float:
    """mean_width of a body in R^n, n <= 3, by its exact formula; no grid
    is read."""
    if K.dim == 1:
        return float(K.vertices.max() - K.vertices.min())
    if K.dim == 2:
        return perimeter(K) / math.pi
    return _mean_width_3d(K)


def mean_width_ratio(n: int, k: int) -> float:
    """Constant w_k(K)/w_n(K) between intrinsic and ambient mean widths."""
    if not 1 <= k < n:
        raise InvalidInput("need 1 <= k < n")
    om = sphere_measure
    return (om(k + 1) / om(k)) * (om(n) / om(n + 1))


def mean_width_intrinsic(K: ConvexBody, grid: SphereGrid = None) -> float:
    """Mean width of K computed inside its own affine hull, of dimension k.

    For k >= 4 the quadrature runs on the k-dimensional grid of the given
    grid's size and seed (the default grid when None).
    """
    k = K.dim_affine
    if k == 0:
        return 0.0
    if k == K.dim:
        return mean_width(K, grid)
    F = K.facets
    flat = hull((K.vertices - F.center) @ F.basis.T)
    return mean_width(flat, None if grid is None else default_grid(k, grid.size, grid.seed))


# -- sector integrals over normal cones --------------------------------------


def _sector_integral(K, q, grid, u=None):
    """Vector integral of theta over the sector of N_K(q) on the unit
    sphere, cut to {<theta, u> >= 0} when u is given.

    Exact over arcs in the plane: the cone's arcs (cones._arcs; a ray or a
    line has none of positive length, so adds 0), each cut to the closed
    half-circle around u by its copies 2 pi apart.  Above, the sum over the
    nodes of grid (the default grid when None) that pass normal_cone_mask
    at 1e-9.
    """
    q = as_point(q, K.dim)
    if K.dim == 2:
        arcs = [(a, a + L) for a, L in _arcs(normal_cone(K, q)) if L > 0.0]
        if u is not None:
            phi = math.atan2(u[1], u[0])
            lo, hi = phi - math.pi / 2.0, phi + math.pi / 2.0
            arcs = [(max(a + s, lo), min(b + s, hi)) for a, b in arcs
                    for s in (-2.0 * math.pi, 0.0, 2.0 * math.pi)]
            arcs = [(a, b) for a, b in arcs if b > a + 1e-15]
        v = np.zeros(2)
        for a, b in arcs:
            v += (math.sin(b) - math.sin(a), math.cos(a) - math.cos(b))
        return v
    if grid is None:
        grid = default_grid(K.dim)
    D = grid.directions
    mask = normal_cone_mask(K, q, D, tol=1e-9)
    if u is not None:
        mask &= D @ u >= 0.0
    return sphere_measure(K.dim) / grid.size * D[mask].sum(axis=0)


def normal_sector_flux(K, q, u, grid=None):
    """Integral of <theta, u> over the sector of N_K(q) cut to
    {<theta, u> >= 0}: <u, _sector_integral>."""
    u = as_point(u, K.dim)
    return float(u @ _sector_integral(K, q, grid, u))


def normal_sector_vector_flux(K, q, grid=None):
    """Vector integral of theta over the sector of N_K(q)."""
    return _sector_integral(K, q, grid)


def cap_gradient(K: ConvexBody, p, grid=None):
    """Gradient of p -> mean_width(K^p) away from the boundary of K:
    (2/omega_n) * integral of theta over the sector of N_{K^p}(p)."""
    p = as_point(p, K.dim)
    cap = cap_body(K, p)
    if not any(np.linalg.norm(v - p) <= TAU_PT for v in cap.vertices):
        return np.zeros(K.dim)  # p lies in K, so the cap body is locally constant
    v = normal_sector_vector_flux(cap, p, grid)
    return 2.0 / sphere_measure(K.dim) * np.asarray(v)


def first_variation(K: ConvexBody, p0, u, eps, grid: SphereGrid = None):
    """Mean-width increment of the cap body K^{p0 + eps*u} split into its
    first-order term and remainder.

    The first-order term is (2/omega_n) * eps * flux of <theta, u> over
    the sector N_K(p0) n {u}*; the remainder is nonnegative up to
    quadrature tolerance and of order greater than one in eps.
    """
    p0 = as_point(p0, K.dim)
    u = as_point(u, K.dim)
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    if not contains(K, p0, 1e-7 * (1.0 + K.diameter())):
        raise PreconditionViolated("p0 must lie on the boundary of K")
    if tangent_cone(K, p0, tol=1e-7 * (1.0 + K.diameter())).contains(u, tol=1e-8):
        raise PreconditionViolated("u lies in the tangent cone at p0")
    w0 = mean_width(K, grid)
    w1 = mean_width(cap_body(K, p0 + eps * u), grid)
    delta_w = w1 - w0
    flux = normal_sector_flux(K, p0, u, grid)
    first = 2.0 / sphere_measure(K.dim) * eps * flux
    return {
        "delta_w": delta_w,
        "first_term": first,
        "remainder": delta_w - first,
    }


# -- distance inequalities ----------------------------------------------------


def width_gap_constant(n: int) -> float:
    """Constant c0_n = 2^{-(n-1)} * omega_{n-1} / ((n-1) * omega_n) of the
    lower distance bound."""
    if n < 2:
        raise InvalidInput("n must be >= 2")
    return 2.0 ** (-(n - 1)) * sphere_measure(n - 1) / ((n - 1) * sphere_measure(n))


def lipschitz_constant(n: int) -> float:
    """Mean-width Lipschitz constant for self-expanding paths: pi in the
    plane (sharp), (n-1) * n^{n/2} * omega_n / omega_{n-1} for n >= 3."""
    if n < 1:
        raise InvalidInput("n must be >= 1")
    if n == 1:
        return 1.0
    if n == 2:
        return math.pi
    return (n - 1) * n ** (n / 2.0) * sphere_measure(n) / sphere_measure(n - 1)


def width_distance_bounds(K1: ConvexBody, K2: ConvexBody, grid: SphereGrid = None):
    """Both sides of the distance-vs-width sandwich for nested K1 inside K2.

    lhs_lower = (c0_n / diam(K2)^{n-1})^{1/n} * dist(K1, K2) is at most
    delta_w^{1/n}, and delta_w = w(K2) - w(K1) is at most 2 * dist(K1, K2)
    (the mean of the support gap is at most its max).
    """
    if K1.dim != K2.dim:
        raise DimensionMismatch("bodies live in different dimensions")
    if not includes(K2, K1, 1e-7 * (1.0 + K2.diameter())):
        raise PreconditionViolated("K1 must be included in K2")
    n = K1.dim
    dist = hausdorff(K1, K2)
    delta_w = mean_width(K2, grid) - mean_width(K1, grid)
    diam = K2.diameter()
    if diam <= 0.0:
        lhs = 0.0
    else:
        lhs = (width_gap_constant(n) / diam ** (n - 1)) ** (1.0 / n) * dist
    return {
        "dist": dist,
        "delta_w": delta_w,
        "lhs_lower": lhs,
        "delta_w_root": max(delta_w, 0.0) ** (1.0 / n),
        "upper": 2.0 * dist,
    }
