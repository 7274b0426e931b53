"""Self-expanding polyline paths: validation, mean-width parametrization,
and the Lipschitz / length bounds.

A polyline is self-expanding iff along every segment, the distance to every
earlier vertex is non-decreasing; because that distance is a convex
function of the segment parameter and linear in the earlier point, checking
the inequality <d, a - y> >= 0 at segment starts against all earlier
vertices decides the continuous property exactly.  Prefix hulls are grown
in one pass by geom_core.extend_hull: in the plane each point goes into the
previous counterclockwise ring, and hull() runs only where that is not clear.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, PreconditionViolated
from .geom_core import TAU_PT, as_points, extend_hull, hull
from .mean_width import SphereGrid, lipschitz_constant, mean_width


@dataclass(frozen=True)
class Polyline:
    """Ordered point sequence; consecutive duplicates are removed on build."""

    points: np.ndarray

    @classmethod
    def make(cls, pts):
        P = as_points(pts)
        keep = [0]
        for i in range(1, len(P)):
            if np.linalg.norm(P[i] - P[keep[-1]]) > TAU_PT:
                keep.append(i)
        return cls(np.ascontiguousarray(P[keep]))

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def npoints(self):
        return self.points.shape[0]

    def length(self) -> float:
        if self.npoints < 2:
            return 0.0
        return float(np.linalg.norm(np.diff(self.points, axis=0), axis=1).sum())

    def arclengths(self):
        if self.npoints < 2:
            return np.zeros(1)
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        return np.concatenate([[0.0], np.cumsum(steps)])

    def point_at(self, s: float):
        """Point at arc length s (clamped to the curve)."""
        cums = self.arclengths()
        s = min(max(s, 0.0), cums[-1])
        i = int(np.searchsorted(cums, s, side="right")) - 1
        i = min(i, self.npoints - 2) if self.npoints > 1 else 0
        if self.npoints == 1:
            return self.points[0].copy()
        seg = cums[i + 1] - cums[i]
        t = 0.0 if seg <= 0 else (s - cums[i]) / seg
        return (1 - t) * self.points[i] + t * self.points[i + 1]

    def to_dict(self):
        return {"dim": int(self.dim), "points": self.points.tolist()}


def polyline_from_dict(d) -> Polyline:
    try:
        pts = d["points"]
    except (KeyError, TypeError):
        raise InvalidInput("polyline JSON must have a 'points' field")
    g = Polyline.make(pts)
    if "dim" in d and int(d["dim"]) != g.dim:
        raise InvalidInput("declared dim does not match point data")
    return g


def polyline_from_csv(path) -> Polyline:
    P = np.loadtxt(path, delimiter=",", ndmin=2)
    return Polyline.make(P)


def is_sep(gamma: Polyline, tol: float = 1e-9):
    """Decide whether the polyline is a self-expanding path.

    Exact segment-direction criterion: fails iff some segment with start a
    and unit direction d has an earlier vertex y with
    <d, a - y> < -tol * |a - y|.  On failure the witness records (y, a, d)
    as plain lists.
    """
    P = gamma.points
    m = len(P)
    worst = None
    for i in range(m - 1):
        d = P[i + 1] - P[i]
        nd = np.linalg.norm(d)
        if nd <= TAU_PT:
            continue
        d = d / nd
        rel = P[i] - P[:i]
        if len(rel) == 0:
            continue
        norms = np.linalg.norm(rel, axis=1)
        dots = rel @ d
        slack = dots + tol * norms
        j = int(np.argmin(slack))
        if slack[j] < 0.0 and (worst is None or slack[j] < worst[0]):
            worst = (float(slack[j]), i, j, d)
    if worst is None:
        return {"ok": True, "witness": None}
    _, i, j, d = worst
    return {
        "ok": False,
        "witness": {
            "y": P[j].tolist(),
            "a": P[i].tolist(),
            "d": d.tolist(),
            "segment_index": i,
            "earlier_index": j,
            "inner_product": float(d @ (P[i] - P[j])),
        },
    }


def prefix_hulls(gamma: Polyline):
    """Convex hulls of the vertex prefixes: each is hull() of the previous
    one's vertices and the next point (geom_core.extend_hull)."""
    K = hull(gamma.points[:1])
    return [K] + extend_hull(K, gamma.points[1:])


def meanwidth_param(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9):
    """Mean widths of the prefix hulls: the intrinsic SEP parametrization.

    Strictly increasing whenever a vertex extends the hull; requires a SEP.
    """
    chk = is_sep(gamma, tol)
    if not chk["ok"]:
        raise PreconditionViolated(f"not a self-expanding path: {chk['witness']}")
    return [mean_width(K, grid) for K in prefix_hulls(gamma)]


def lipschitz_ratio(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9):
    """Max step ratio |x_{i+1} - x_i| / (w_{i+1} - w_i) against the
    dimensional bound (pi in the plane).

    Steps where the hull does not grow (zero width increment, impossible
    for a strict SEP and a data error at tolerance) are excluded from the
    ratio and flagged in 'stalled'.
    """
    ws = meanwidth_param(gamma, grid, tol)
    P = gamma.points
    stalled = []
    max_ratio = 0.0
    scale = max(ws[-1], 1.0)
    for i in range(len(P) - 1):
        dw = ws[i + 1] - ws[i]
        step = float(np.linalg.norm(P[i + 1] - P[i]))
        if dw <= 1e-12 * scale:
            stalled.append(i)
            continue
        max_ratio = max(max_ratio, step / dw)
    return {
        "max_ratio": max_ratio,
        "bound": lipschitz_constant(gamma.dim),
        "stalled": stalled,
        "widths": ws,
    }


def length_bound_check(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9, w_hull=None):
    """Check length(gamma) <= c1_n * mean width of the hull of the path.

    A caller that has checked the SEP property may pass w_hull, the width of
    the hull (as the last of lipschitz_ratio's widths)."""
    if w_hull is None:
        chk = is_sep(gamma, tol)
        if not chk["ok"]:
            raise PreconditionViolated(f"not a self-expanding path: {chk['witness']}")
        w_hull = mean_width(hull(gamma.points), grid)
    length = gamma.length()
    c = lipschitz_constant(gamma.dim)
    return {
        "length": length,
        "w_hull": w_hull,
        "bound": c * w_hull,
        "bound_ok": length <= c * w_hull + max(tol, 1e-9 * (1.0 + w_hull)),
    }
