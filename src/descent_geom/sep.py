"""Self-expanding polyline paths: validation, mean-width parametrization,
and the Lipschitz / length bounds.

A polyline is self-expanding iff along every segment, the distance to every
earlier vertex is non-decreasing; because that distance is a convex
function of the segment parameter and linear in the earlier point, checking
the inequality <d, a - y> >= 0 at segment starts against all earlier
vertices decides the continuous property exactly.  In R^1 and R^2 the mean
widths of the prefix hulls come from one pass over the points that builds
no body (_path_widths): running extremes on the line, and in the plane
Melkman's online hull with an exactly signed orientation test and the
perimeter updated as edges leave and enter.  Prefix hulls as bodies
(prefix_hulls, which gives the widths above the plane) are grown by
geom_core.extend_hull: in the plane each point goes into the previous
counterclockwise ring, and hull() runs only where that is not clear.
"""

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidInput, PreconditionViolated
from .geom_core import (
    _EPS,
    _PAIR_BLOCK,
    TAU_PT,
    _orient,
    _row_norms,
    as_points,
    extend_hull,
    hull,
)
from .mean_width import SphereGrid, lipschitz_constant, mean_width

# is_sep measures this many pairs at once: its four buffers hold half of
# one _PAIR_BLOCK array.
_SEP_BLOCK = _PAIR_BLOCK // 8


@dataclass(frozen=True)
class Polyline:
    """Ordered point sequence; consecutive duplicates are removed on build,
    which marks points read-only."""

    points: np.ndarray

    @classmethod
    def make(cls, pts):
        """The points farther than TAU_PT from the last kept one: one array
        pass over the steps, then a walk over the points after a dropped one."""
        P = as_points(pts)
        keep = np.concatenate(([True], _row_norms(np.diff(P, axis=0)) > TAU_PT))
        j = 0
        for d in np.flatnonzero(~keep).tolist():
            if d < j:
                continue  # walked from an earlier dropped point
            last, j = d - 1, d
            while j < len(P) and (j == d or not keep[j - 1]):
                keep[j] = np.linalg.norm(P[j] - P[last]) > TAU_PT
                last = j if keep[j] else last
                j += 1
        P = np.ascontiguousarray(P[keep])
        P.flags.writeable = False
        return cls(P)

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

    @cached_property
    def arclengths(self):
        """Arc length at each point, kept read-only after first use."""
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        cums = np.concatenate([[0.0], np.cumsum(steps)])
        cums.flags.writeable = False
        return cums

    def points_at(self, s):
        """Points at the arc lengths s (each clamped to the curve), in one
        searchsorted."""
        P, cums = self.points, self.arclengths
        s = np.asarray(s, dtype=float)
        if len(P) == 1:
            return np.repeat(P, len(s), axis=0)
        s = np.minimum(np.maximum(s, 0.0), cums[-1])
        i = np.minimum(np.searchsorted(cums, s, side="right") - 1, len(P) - 2)
        seg = cums[i + 1] - cums[i]
        t = np.divide(s - cums[i], seg, out=np.zeros(len(s)), where=seg > 0)[:, None]
        return (1 - t) * P[i] + t * P[i + 1]

    def point_at(self, s: float):
        """Point at arc length s (clamped to the curve)."""
        return self.points_at([s])[0]

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
    <d, a - y> < -tol * |a - y|.  The witness is the first segment of least
    slack <d, a - y> + tol * |a - y| and its first earlier vertex of that
    slack, with (y, a, d) as plain lists.

    Every pair's slack is measured in row blocks of at most _SEP_BLOCK
    pairs.  Those slacks and a per-segment loop's differ by rounding, at
    most delta each, so the loop runs only on the segments whose least
    slack is within 2 delta of the least overall and below delta: it
    decides, and ties break as it breaks them.
    """
    P = gamma.points
    m, n = P.shape
    D = np.diff(P, axis=0)
    nd = np.sqrt((D * D).sum(axis=1))
    U = D / np.where(nd > TAU_PT, nd, 1.0)[:, None]
    low = np.full(m - 1, np.inf)  # per segment, the least slack over earlier vertices
    a = 1
    while a < m - 1:
        b = min(m - 1, a + max(1, (math.isqrt(a * a + 4 * _SEP_BLOCK) - a) // 2))
        slack, sq, R, T = np.zeros((4, b - a, b - 1))
        for k in range(n):
            np.subtract(P[a:b, k, None], P[None, :b - 1, k], out=R)
            slack += np.multiply(R, U[a:b, k, None], out=T)
            sq += np.multiply(R, R, out=R)
        slack += np.multiply(np.sqrt(sq, out=sq), tol, out=sq)
        slack[np.arange(a, b)[:, None] <= np.arange(b - 1)[None, :]] = np.inf
        low[a:b] = slack.min(axis=1)
        a = b
    low[nd <= TAU_PT] = np.inf
    delta = 4.0 * (n + 2) * _EPS * (1.0 + tol) * math.dist(P.min(axis=0), P.max(axis=0))
    least = float(low.min(initial=np.inf))
    near = np.flatnonzero(low <= min(least + 2.0 * delta, delta)).tolist() if least <= delta else []
    worst = None
    for i in near:
        d = P[i + 1] - P[i]
        d = d / np.linalg.norm(d)
        rel = P[i] - P[:i]
        slack = rel @ d + tol * np.linalg.norm(rel, axis=1)
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


def _sees(a, b, p):
    """True when p sees the edge a -> b of a counterclockwise ring: strictly
    right of the line ab by the exact sign, or on that line outside the
    closed segment [a, b] (read on a coordinate along which a and b differ).
    """
    turn = _orient(a, b, p)
    if turn:
        return turn < 0
    k = 0 if a[0] != b[0] else 1
    return p[k] < min(a[k], b[k]) or p[k] > max(a[k], b[k])


def _insert_anywhere(D, p, per):
    """(ring, perimeter) once p, which sees neither edge at the ends of the
    deque D, is tested against every edge: unchanged when p sees none (it
    lies in the hull); else the run of edges it sees, which cannot wrap past
    those two, is replaced by the two edges to p, and p goes to both ends."""
    R = list(D)
    seen = [_sees(R[j], R[j + 1], p) for j in range(len(R) - 1)]
    if not any(seen):
        return D, per
    s, t = seen.index(True), len(seen) - 1 - seen[::-1].index(True)
    for j in range(s, t + 1):
        per -= math.dist(R[j], R[j + 1])
    per += math.dist(R[s], p) + math.dist(p, R[t + 1])
    return deque([p] + R[t + 1:] + R[1:s + 1] + [p]), per


def _planar_widths(pts):
    """Mean widths (perimeter / pi) of the hulls of the prefixes of the
    planar points pts, pairs of floats, in one pass.

    Until a point leaves their line, the extreme pair of the points seen is
    kept (a segment's perimeter counts both sides).  Then the hull is
    Melkman's deque (Inf. Process. Lett. 25, 1987), seeded with the first
    triangle: a counterclockwise ring with the last vertex added at both
    ends.  A new point pops the end edges it sees (_sees) from either end
    and is pushed on both; the perimeter loses the popped edges and gains
    the two new ones.  A point that sees neither end edge is inside the hull
    when the path is simple; for any other path _insert_anywhere decides,
    so every width is that of the exact hull of the prefix.
    """
    m = len(pts)
    w = [0.0] * m
    lo = hi = pts[0]
    for i in range(1, m):
        p = pts[i]
        turn = _orient(lo, hi, p)
        if turn:
            break
        if lo == hi:
            hi = p
        elif _sees(lo, hi, p):  # on the line, outside [lo, hi]
            k = 0 if lo[0] != hi[0] else 1
            if (p[k] > hi[k]) == (hi[k] > lo[k]):
                hi = p
            else:
                lo = p
        w[i] = 2.0 * math.dist(lo, hi) / math.pi
    else:
        return w
    D = deque((p, lo, hi, p) if turn > 0 else (p, hi, lo, p))
    per = math.dist(lo, hi) + math.dist(hi, p) + math.dist(p, lo)
    w[i] = per / math.pi
    for i in range(i + 1, m):
        p = pts[i]
        top, bottom = _sees(D[-2], D[-1], p), _sees(D[0], D[1], p)
        if top or bottom:
            while top:
                per -= math.dist(D[-2], D.pop())
                top = _sees(D[-2], D[-1], p)
            while bottom:
                per -= math.dist(D.popleft(), D[0])
                bottom = _sees(D[0], D[1], p)
            per += math.dist(D[-1], p) + math.dist(p, D[0])
            D.append(p)
            D.appendleft(p)
        else:
            D, per = _insert_anywhere(D, p, per)
        w[i] = per / math.pi
    return w


def _path_widths(P):
    """Mean widths of the hulls of the prefixes of the points P in R^1
    (running extremes) or R^2 (_planar_widths), as a list."""
    if P.shape[1] == 1:
        x = P[:, 0]
        return (np.maximum.accumulate(x) - np.minimum.accumulate(x)).tolist()
    return _planar_widths(P.tolist())


def hull_width(gamma: Polyline, grid: SphereGrid = None) -> float:
    """Mean width of the hull of the path's points: the last width of
    _path_widths in R^1 and R^2, where no body is built and grid is not
    read, else mean_width(hull(points), grid)."""
    if gamma.dim <= 2:
        return _path_widths(gamma.points)[-1]
    return mean_width(hull(gamma.points), grid)


def meanwidth_param(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9):
    """Mean widths of the prefix hulls: the intrinsic SEP parametrization.

    Strictly increasing whenever a vertex extends the hull; requires a SEP.
    In R^1 and R^2 they come from one pass over the points (_path_widths),
    exact up to the rounding of the running perimeter; above, from
    prefix_hulls and mean_width on the grid.
    """
    chk = is_sep(gamma, tol)
    if not chk["ok"]:
        raise PreconditionViolated(f"not a self-expanding path: {chk['witness']}")
    if gamma.dim <= 2:
        return _path_widths(gamma.points)
    return [mean_width(K, grid) for K in prefix_hulls(gamma)]


def lipschitz_ratio(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9):
    """Max step ratio |x_{i+1} - x_i| / (w_{i+1} - w_i) against the
    dimensional bound (pi in the plane).

    Steps where the hull does not grow (zero width increment, impossible
    for a strict SEP and a data error at tolerance) are excluded from the
    ratio and flagged in 'stalled'.
    """
    ws = meanwidth_param(gamma, grid, tol)
    dw, step = np.diff(ws), _row_norms(np.diff(gamma.points, axis=0))
    stalled = dw <= 1e-12 * max(ws[-1], 1.0)
    return {
        "max_ratio": float(np.max(step[~stalled] / dw[~stalled], initial=0.0)),
        "bound": lipschitz_constant(gamma.dim),
        "stalled": np.flatnonzero(stalled).tolist(),
        "widths": ws,
    }


def length_bound_check(gamma: Polyline, grid: SphereGrid = None, tol: float = 1e-9, w_hull=None):
    """Check length(gamma) <= c1_n * mean width of the hull of the path.

    A caller that has checked the SEP property may pass w_hull, the width of
    the hull (as the last of lipschitz_ratio's widths, or hull_width)."""
    if w_hull is None:
        chk = is_sep(gamma, tol)
        if not chk["ok"]:
            raise PreconditionViolated(f"not a self-expanding path: {chk['witness']}")
        w_hull = hull_width(gamma, grid)
    length = gamma.length()
    c = lipschitz_constant(gamma.dim)
    return {
        "length": length,
        "w_hull": w_hull,
        "bound": c * w_hull,
        "bound_ok": length <= c * w_hull + max(tol, 1e-9 * (1.0 + w_hull)),
    }
