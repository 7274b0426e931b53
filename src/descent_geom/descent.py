"""Expanding couples and steepest-descent curve synthesis.

Curves are built backward from a boundary endpoint by successive nearest-
point projection onto the members of a connected family; the resulting
polyline is a self-expanding path and forms an expanding couple with the
family.  The module also hosts the validation predicates (expanding
couple, viable steepest-descent curve), the joint parametrization with its
Lipschitz certificate, stability and annulus-length bounds, and the
counterexample fixtures (Cantor graph, revolved-pancake family,
near-extremal spirals).

A curve is read against a whole family once, as a FamilyPass: the
point-by-facet residual table of every member at once, in blocks of
bounded size, gives each member's candidate segments (_candidates, the one
filter of a curve against members) and each point's largest residual per
member.  One batched clip (_intervals) turns the last candidates into the
alignment, the last curve point inside each member.  The pass's verdicts
(EC conditions (ii)-(iii), the SDC knot tests, the length outside a
member) read its tables; an ExpandingCouple is a validated pass.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import Degenerate, DimensionMismatch, InvalidInput, PreconditionViolated
from .geom_core import (
    _PAIR_BLOCK,
    TAU_PT,
    _row_norms,
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


def _off_plane(bodies, k, X):
    """The parts of the rows X[j] orthogonal to the directions of
    Aff(bodies[k[j]]): X[j] less its projection onto the span of that
    body's basis rows, for every row at once per affine dimension."""
    dims = np.array([len(K.facets.basis) for K in bodies])
    out = np.empty_like(X)
    for dim in set(dims[k].tolist()):
        own, j = np.flatnonzero(dims == dim), np.flatnonzero(dims[k] == dim)
        Bs = np.array([bodies[i].facets.basis for i in own.tolist()])[np.searchsorted(own, k[j])]
        out[j] = X[j] - ((X[j][:, None, :] @ Bs.transpose(0, 2, 1)) @ Bs)[:, 0, :]
    return out


def _intervals(bodies, A, B, rows=None):
    """Inside intervals [lo, hi] of the segments A[j] -> B[j] against
    bodies[j], and hit, False where a segment misses its body: exact
    clipping by the facet rows (Cyrus and Beck 1978), padded to one table.
    Given rows = (E, offsets, k), the bodies' facet rows stacked (_stack),
    segment j is clipped against bodies[k[j]] instead.

    With alpha = e.a + e0 and beta = e.(b - a), formed by stacked products
    as for one segment alone, each row with |beta| > 1e-14 * (1 + max
    |alpha|) bounds t by -alpha / beta; a parallel one misses when alpha >
    1e-12 * (1 + max |alpha|).  A lower-dimensional body bounds only the
    cylinder over it, so its segments are also cut to within eps = 1e-12 *
    (1 + max|a - c|) of Aff(K), in closed form: with o0, o1 the parts of a
    - c and b - a orthogonal to Aff(K) (_off_plane), t lies within
    sqrt(eps^2 - r^2) / |o1| of the t* nearest to Aff(K), r = |o0 + t* o1|.
    """
    if not len(A):
        return np.zeros(0), np.zeros(0), np.zeros(0, dtype=bool)
    E, off, k = rows or (*_stack([K.facets.equations for K in bodies]), np.arange(len(A)))
    D, F = B - A, np.diff(off)[k]
    f = np.arange(F.max(initial=0))
    valid = f < F[:, None]
    G = E[np.where(valid, off[k, None] + f, 0)]
    N = G[:, :, :-1].transpose(0, 2, 1)
    alpha = (A[:, None, :] @ N)[:, 0, :] + G[:, :, -1]
    beta = (D[:, None, :] @ N)[:, 0, :]
    scale = 1.0 + np.max(np.abs(alpha), axis=1, initial=0.0, where=valid)[:, None]
    par = np.abs(beta) <= 1e-14 * scale
    t = np.divide(-alpha, beta, out=np.zeros_like(alpha), where=valid & ~par)
    hi = np.min(t, axis=1, initial=1.0, where=valid & ~par & (beta > 0))
    lo = np.max(t, axis=1, initial=0.0, where=valid & ~par & (beta < 0))
    hit = ~(valid & par & (alpha > 1e-12 * scale)).any(axis=1) & ~(lo > hi + 1e-12)
    j = np.flatnonzero(hit & (np.array([len(K.facets.basis) for K in bodies])[k] < A.shape[1]))
    if len(j):
        y = A[j] - np.array([bodies[i].facets.center for i in k[j].tolist()])
        o0, o1 = _off_plane(bodies, k[j], y), _off_plane(bodies, k[j], D[j])
        sc = 1.0 + np.abs(y).max(axis=1)
        eps, n1 = 1e-12 * sc, _row_norms(o1)
        flat = n1 <= 1e-14 * sc
        ts = -(o0[:, None, :] @ o1[:, :, None])[:, 0, 0] / np.where(flat, 1.0, n1 * n1)
        r = _row_norms(o0 + ts[:, None] * o1)
        hw = np.sqrt(np.maximum(eps * eps - r * r, 0.0)) / np.where(flat, 1.0, n1)
        lo[j] = np.where(flat, lo[j], np.maximum(lo[j], ts - hw))
        hi[j] = np.where(flat, hi[j], np.minimum(hi[j], ts + hw))
        hit[j] = np.where(flat, _row_norms(o0) <= eps, (r <= eps) & (lo[j] <= hi[j]))
    return lo, hi, hit


def segment_inside_interval(K: ConvexBody, a, b):
    """Interval of the segment a->b lying inside K ((t0, t1) or None)."""
    lo, hi, hit = _intervals((K,), as_point(a, K.dim)[None], as_point(b, K.dim)[None])
    return (float(lo[0]), float(hi[0])) if hit[0] else None


def _length_outside(gamma: Polyline, bodies, E, offsets, k, candidates):
    """Length of the curve outside bodies[k], facet rows stacked in E at
    offsets, by clipping its candidate segments in one _intervals call."""
    P, i, k = gamma.points, np.flatnonzero(candidates), k % len(bodies)  # k < 0 counts from the end
    lo, hi, hit = _intervals(bodies, P[i], P[i + 1], rows=(E, offsets, np.full(len(i), k)))
    inside = np.cumsum(np.append(0.0, ((hi - lo) * _row_norms(P[i + 1] - P[i]))[hit]))  # curve order
    return gamma.length() - float(inside[-1])


def clip_length_outside(gamma: Polyline, K: ConvexBody) -> float:
    """Length of the part of the curve outside K, by exact segment
    clipping (lower-dimensional K within a relative 1e-12 of Aff(K)): the
    one-member case of FamilyPass.length_outside."""
    E, offsets = K.facets.equations, np.array([0, len(K.facets.equations)])
    return _length_outside(gamma, (K,), E, offsets, 0, _candidates(gamma.points, E, offsets)[0][0])


# -- the family pass -----------------------------------------------------------


def _stack(arrays):
    """The rows of arrays stacked, and offsets: array k holds the rows
    offsets[k]:offsets[k + 1]."""
    return np.concatenate(arrays), np.concatenate(([0], np.cumsum([len(a) for a in arrays])))


def _member_max(offsets, step, block, out):
    """Raise each (rows x members) table of out to the largest column, per
    member, of the same table of block(c0, c1), a tuple of tables over the
    stacked columns c0:c1; member k owns the columns offsets[k]:offsets[k +
    1].  The columns go by in blocks of step."""
    counts = np.diff(offsets)
    total, step = int(offsets[-1]), max(1, step)
    for c0 in range(0, total, step):
        c1 = min(c0 + step, total)
        k = np.arange(np.searchsorted(offsets, c0, "right") - 1, np.searchsorted(offsets, c1))
        k = k[counts[k] > 0]  # reduceat reads an empty group as one column
        starts = np.maximum(offsets[k], c0) - c0
        for acc, T in zip(out, block(c0, c1)):
            acc[:, k] = np.maximum(acc[:, k], np.maximum.reduceat(T, starts, axis=1))


def _candidates(P, E, offsets):
    """(members x segments) table of the segments P[i] -> P[i+1] that may
    meet each member, whose facet rows are E[offsets[k]:offsets[k + 1]], and
    (points x members) table of each point's largest residual at them.

    The point-by-facet residual table is formed in blocks of at most
    _PAIR_BLOCK entries.  Segment i stays a candidate for a member unless
    both its ends lie beyond one of the member's facets by 1e-9 * (1 + the
    largest |residual| of either end over all members), so _intervals
    rejects every dropped segment as well.  A point member, with no facet
    rows, keeps every segment.
    """
    m = len(P)
    size = np.zeros(m)

    def ends(c0, c1):
        R = P @ E[c0:c1, :-1].T + E[c0:c1, -1]
        np.maximum(size, np.abs(R).max(axis=1), out=size)
        return np.minimum(R[:-1], R[1:]), R

    low = np.full((m - 1, len(offsets) - 1), -np.inf)
    top = np.full((m, len(offsets) - 1), -np.inf)
    _member_max(offsets, _PAIR_BLOCK // m, ends, (low, top))
    scale = 1.0 + size
    return (low <= 1e-9 * np.maximum(scale[:-1], scale[1:])[:, None]).T, top


def _same_dim(curve: Polyline, bodies):
    other = {K.dim for K in bodies} - {curve.dim}
    if other:
        raise DimensionMismatch(f"the curve lives in R^{curve.dim}, a family member in R^{other.pop()}")


@dataclass(frozen=True, eq=False)
class FamilyPass:
    """A curve read against every member of a family (a Family or a
    Stratification, whose params, when not None, name the members in
    messages) off one residual table, which every verdict on the pair reads.

    equations stacks the members' facet rows, member k's at
    eq_offsets[k]:eq_offsets[k + 1]; candidates and max_residual are
    _candidates' tables.  align_s and align_x hold each member's last curve
    point, as align_curve returns them, for the members before missed: the
    first member that misses the curve, or None.
    """

    curve: Polyline
    family: Stratification
    equations: np.ndarray
    eq_offsets: np.ndarray
    candidates: np.ndarray
    max_residual: np.ndarray
    align_s: np.ndarray
    align_x: np.ndarray
    missed: object

    @classmethod
    def read(cls, curve: Polyline, family: Stratification, tol=0.0):
        """The family pass of curve against the members of family.

        Every member's candidate segments come from one table (_candidates),
        and the last one that _intervals clips gives the alignment: round r
        clips, in one call, the r-th last candidate of every member before
        the first missed one that no earlier round aligned.  A one-point
        curve meets a member within max(tol, _bd_tol) of it (contains).
        """
        bodies = family.bodies
        _same_dim(curve, bodies)
        P, cums = curve.points, curve.arclengths
        E, eoff = _stack([Q.facets.equations for Q in bodies])
        cand, top = _candidates(P, E, eoff)
        if len(P) == 1:
            s, x = np.zeros(len(bodies)), np.repeat(P, len(bodies), axis=0)
            missed = next((k for k, Q in enumerate(bodies)
                           if not contains(Q, P[0], max(tol, _bd_tol(Q)))), None)
        else:
            missed, segment, count = None, np.nonzero(cand)[1], cand.sum(axis=1)  # rising per member
            last = np.cumsum(count) - 1
            seg, t = np.zeros(len(bodies), dtype=int), np.zeros(len(bodies))
            todo, r = np.ones(len(bodies), dtype=bool), 0
            while todo.any():
                k = np.flatnonzero(todo)
                if (count[k] <= r).any():  # the first member with no candidate left misses
                    missed = int(k[count[k] <= r][0])
                    todo[missed:] = False
                    k = k[k < missed]
                i = segment[last[k] - r]
                _, hi, hit = _intervals(bodies, P[i], P[i + 1], rows=(E, eoff, k))
                seg[k[hit]], t[k[hit]] = i[hit], hi[hit]
                todo[k[hit]] = False
                r += 1
            s = cums[seg] + t * (cums[seg + 1] - cums[seg])
            x = P[seg] + t[:, None] * (P[seg + 1] - P[seg])
        return cls(curve, family, E, eoff, cand, top, s, x, missed)

    def alignment(self):
        """(align_s, align_x); InvalidInput naming the missed member."""
        k, fam = self.missed, self.family
        if k is not None:
            param = "" if fam.params is None else f" (param {fam.params[k]:.6g})"
            raise InvalidInput(f"alignment failure: member {k} of {len(fam.bodies)}{param} "
                               "misses the curve")
        return self.align_s, self.align_x

    def _off_aff(self, k, X):
        """Distance of each row X[j] to Aff(member k[j]) (_off_plane)."""
        bodies = self.family.bodies
        return _row_norms(_off_plane(bodies, k, X - np.array([Q.facets.center for Q in bodies])[k]))

    @cached_property
    def interior(self):
        """(curve points x members) table: True where the point lies within
        _bd_tol(Q) of Aff(Q) and deeper than that inside Q."""
        bodies, P = self.family.bodies, self.curve.points
        bd = np.array([_bd_tol(Q) for Q in bodies])
        inner = (self.max_residual < -bd) & (np.diff(self.eq_offsets) > 0)  # a point: depth 0
        flat = np.flatnonzero([Q.dim_affine < Q.dim for Q in bodies])
        if len(flat):
            off = self._off_aff(np.repeat(flat, len(P)), np.tile(P, (len(flat), 1)))
            inner[:, flat] &= off.reshape(len(flat), len(P)).T <= bd[flat]
        return inner

    @cached_property
    def vertex_rows(self):
        """The members' vertices stacked, with their offsets (_stack)."""
        return _stack([Q.vertices for Q in self.family.bodies])

    def length_outside(self, k: int) -> float:
        """Length of the curve outside member k (clip_length_outside; k < 0
        counts from the end): its candidate row, clipped in one call."""
        return _length_outside(self.curve, self.family.bodies, self.equations, self.eq_offsets, k,
                               self.candidates[k])

    def ec_conditions(self, tol):
        """Conditions (ii) and (iii) of is_expanding_couple, as its verdict;
        the caller has proved the SEP property and condition (i).

        (ii) reads the top member's depths off max_residual, and for a flat
        top member its distances to Aff(top) (_off_aff).  (iii) reads every member's gaps D[i, j] - min over l > i of D[l, j],
        D the distances from the curve points to its vertices, at the points
        i not in its interior, over blocks of the stacked vertices.  Only the
        worst member's gaps are formed again, for the witness: the first
        member with the strictly largest gap, its first row of that gap, and
        there its first vertex.
        """
        P, bodies = self.curve.points, self.family.bodies
        top = bodies[-1]
        btol = max(tol, _bd_tol(top))
        depth = -self.max_residual[:, -1] if top.nvertices > 1 else 0.0  # a point: depth 0
        off = (self._off_aff(np.full(len(P), len(bodies) - 1), P) if top.dim_affine < top.dim
               else 0.0)
        if not np.any((off <= btol) & (np.abs(depth) <= btol)):
            return {"ok": False, "condition": "ii", "witness": None}
        outside = ~self.interior[:-1]
        V, voff = self.vertex_rows
        member = np.repeat(np.arange(len(bodies)), np.diff(voff))

        def gaps(r0, r1):
            D = distances(P, V[r0:r1])
            suffix = np.minimum.accumulate(D[::-1], axis=0)[::-1]
            return np.max(D[:-1] - suffix[1:], axis=0, initial=-np.inf,
                          where=outside[:, member[r0:r1]])[None],

        best = np.full((1, len(bodies)), -np.inf)
        _member_max(voff, _PAIR_BLOCK // len(P), gaps, (best,))
        qi = int(np.argmax(best))
        if not best[0, qi] > tol * (1.0 + top.diameter()):
            return {"ok": True, "condition": None, "witness": None}
        y_all = bodies[qi].vertices
        D = distances(P, y_all)
        suffix = np.minimum.accumulate(D[::-1], axis=0)[::-1]
        rows = np.nonzero(outside[:, qi])[0]
        gap = D[rows] - suffix[rows + 1]
        r = int(np.argmax(gap.max(axis=1)))
        i, j = int(rows[r]), int(np.argmax(gap[r]))
        later = int(i + 1 + np.argmin(D[i + 1:, j]))
        y = y_all[j]
        return {"ok": False, "condition": "iii", "witness": {
            "body_index": qi, "x": P[i].copy(), "y": y.copy(), "x1": P[later].copy(),
            "dist_x_y": float(np.linalg.norm(P[i] - y)),
            "dist_x1_y": float(np.linalg.norm(P[later] - y)),
            "violation": float(gap[r, j]),
        }}

    def sdc_verdict(self, tol):
        """is_viable_sdc's verdict; InvalidInput as alignment() raises it.

        Each knot x_k is tested on its own member's rows: on its facet rows
        for the boundary test (on_rel_boundary), and on its vertex rows for
        the support gap of each of its one-sided curve directions, at most
        three (cones.in_normal_cone), all at once.
        """
        P, cums, bodies = self.curve.points, self.curve.arclengths, self.family.bodies
        s, x = self.alignment()
        E, eoff = self.equations, self.eq_offsets
        nk, m = len(bodies), len(P)
        has = np.diff(eoff) > 0
        depth, off = np.zeros(nk), np.zeros(nk)
        if has.any():
            R = np.einsum("ij,ij->i", E[:, :-1], np.repeat(x, np.diff(eoff), axis=0)) + E[:, -1]
            depth[has] = -np.maximum.reduceat(R, eoff[:-1][has])
        flat = np.flatnonzero([Q.dim_affine < Q.dim for Q in bodies])
        if len(flat):
            off[flat] = self._off_aff(flat, x[flat])
        bd = np.array([_bd_tol(Q) for Q in bodies])
        on_bd = (off <= bd) & (np.abs(depth) <= bd)
        in_cone = np.ones(nk, dtype=bool)  # some direction passes, or there is none
        if m >= 2:
            # the segment at s, and the other one where s is a curve vertex
            stol = 1e-9 * (1.0 + cums[-1])
            i = np.clip(np.searchsorted(cums, s + stol) - 1, 0, m - 2)
            segs = np.column_stack([i, np.maximum(i - 1, 0), np.minimum(i + 1, m - 2)])
            use = np.column_stack([np.ones(nk, dtype=bool), (i > 0) & (np.abs(s - cums[i]) <= stol),
                                   (np.abs(s - cums[i + 1]) <= stol) & (i + 2 < m)])
            d = np.diff(P, axis=0)
            nd = np.linalg.norm(d, axis=1)
            use &= (nd > TAU_PT)[segs]
            U = d / np.where(nd > TAU_PT, nd, 1.0)[:, None]
            thr = tol * (1.0 + np.linalg.norm(U, axis=1))
            V, voff = self.vertex_rows
            reps = np.diff(voff)
            W = V - np.repeat(x, reps, axis=0)
            diam = 1.0 + np.array([Q.diameter() for Q in bodies])
            passed = np.column_stack([
                np.maximum.reduceat(np.einsum("ij,ij->i", W, np.repeat(U[j], reps, axis=0)),
                                    voff[:-1]) <= thr[j] * diam
                for j in segs.T])
            in_cone = ~use.any(axis=1) | (use & passed).any(axis=1)
        failures = [{"knot": k, "param": self.family.params[k], "x": x[k],
                     "condition": "ii" if on_bd[k] else "i"} for k in np.flatnonzero(~on_bd | ~in_cone).tolist()]
        return {"ok": not failures, "witness": failures[0] if failures else None,
                "failures": failures}


# -- expanding couples ---------------------------------------------------------


class ExpandingCouple(FamilyPass):
    """A family pass that make_expanding_couple validated: a SEP curve ending
    on the boundary of the largest member, met by every member in monotone
    order, so that align_x is the joint alignment x(t)."""


def align_curve(curve: Polyline, bodies):
    """Last curve point (by arc length) inside each body.

    Returns (s_values, points); raises DimensionMismatch when the curve and
    a body live in different dimensions, and InvalidInput naming the first
    body that contains no point of the curve.  _bd_tol(K) is the
    membership tolerance of a one-point curve.
    """
    return FamilyPass.read(curve, Stratification(tuple(bodies), None)).alignment()


def make_expanding_couple(curve: Polyline, fam: Family, tol=None) -> ExpandingCouple:
    """A SEP curve (at tolerance tol, default 1e-7) ending on the boundary
    of the largest member (tol floors _bd_tol there), aligned to every
    member at its own _bd_tol.  A curve and members in different dimensions
    raise DimensionMismatch before any other check."""
    _same_dim(curve, fam.bodies)
    chk = is_sep(curve, 1e-7 if tol is None else tol)
    if not chk["ok"]:
        raise PreconditionViolated(f"curve is not a self-expanding path: {chk['witness']}")
    top = fam.bodies[-1]
    if not on_rel_boundary(top, curve.points[-1], max(tol or 0.0, _bd_tol(top))):
        raise PreconditionViolated("curve must end on the boundary of max(family)")
    ec = ExpandingCouple.read(curve, fam)
    s, _ = ec.alignment()
    if np.any(np.diff(s) < -1e-9 * (1.0 + s[-1])):
        raise InvalidInput("alignment is not monotone along the curve")
    return ec


def construct_descent(fam: Family, endpoint, m: int) -> Polyline:
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
    if not on_rel_boundary(top, endpoint, _bd_tol(top)):
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
    missed member is its mean width on grid.  Raises DimensionMismatch when
    the curve and the members live in different dimensions.
    """
    _same_dim(gamma, strat.bodies)
    sep_chk = is_sep(gamma, tol)
    if not sep_chk["ok"]:
        return {"ok": False, "condition": "sep", "witness": sep_chk["witness"]}
    fp = FamilyPass.read(gamma, strat, tol)
    if fp.missed is not None:
        return {"ok": False, "condition": "i",
                "witness": {"body_width": mean_width(strat.bodies[fp.missed], grid)}}
    return fp.ec_conditions(tol)


def is_viable_sdc(gamma: Polyline, fam: Family, tol: float = 1e-6):
    """Discrete viable steepest-descent check against a sampled family.

    At each knot the aligned point must lie on the relative boundary of the
    member, and some one-sided curve direction there must belong to the
    member's normal cone (support-gap membership at tolerance tol).  The
    witness is the first failing knot.  Raises DimensionMismatch and
    InvalidInput as align_curve does.
    """
    return FamilyPass.read(gamma, fam).sdc_verdict(tol)


def joint_parametrization(ec: ExpandingCouple):
    """Graph-length reparametrization of an expanding couple.

    With s(w) the curve arc length inside the member of width w, the new
    parameter is the arc length tau of the planar graph (w, s(w)); the
    aligned points z(tau) are then 1-Lipschitz in tau.
    """
    w = np.asarray(ec.family.params, dtype=float)
    s = ec.align_s
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


def annulus_length_check(ec: ExpandingCouple, K1_index: int, grid: SphereGrid = None):
    """Length of the curve outside an inner member against the two
    annulus bounds: 2*c1_n*dist(K1, K2) and the diameter-dependent
    width-gap bound c * (w(K2) - w(K1))^{1/n}, widths on grid.  K1_index
    counts from the end when negative, as in a sequence."""
    if not -len(ec.family) <= K1_index < len(ec.family):
        raise InvalidInput(f"K1 index {K1_index} is out of range for {len(ec.family)} members")
    K1, K2 = ec.family.bodies[K1_index], ec.family.bodies[-1]
    n, c1 = K1.dim, lipschitz_constant(K1.dim)
    len_outside = ec.length_outside(K1_index)
    dist12 = hausdorff(K1, K2)
    delta_w = mean_width(K2, grid) - mean_width(K1, grid)
    bound_i = 2.0 * c1 * dist12
    if n >= 2 and K2.diameter() > 0:
        c_diam = 2.0 * c1 * (K2.diameter() ** (n - 1) / width_gap_constant(n)) ** (1.0 / n)
    else:
        c_diam = 2.0 * c1
    bound_ii = c_diam * max(delta_w, 0.0) ** (1.0 / n)
    slack = 1e-9 * (1.0 + K2.diameter())
    return {
        "len_outside": len_outside,
        "dist12": dist12,
        "delta_w": delta_w,
        "bound_i": bound_i,
        "bound_ii": bound_ii,
        "bound_i_ok": len_outside <= bound_i + slack,
        "bound_ii_ok": len_outside <= bound_ii + slack,
    }


def curve_uniform_distance(c1: Polyline, c2: Polyline) -> float:
    """Uniform distance between two curves at 200 common normalized arc
    lengths."""
    t = np.linspace(0.0, 1.0, 200)
    p1, p2 = (c.points_at(t * c.length()) for c in (c1, c2))
    return float(np.linalg.norm(p1 - p2, axis=1).max())


# -- fixtures ------------------------------------------------------------------


def _width_family(bodies, grid: SphereGrid = None) -> Family:
    """Family of the given bodies, params their mean widths on grid and h
    just above the largest param step."""
    bodies = tuple(bodies)
    if len(bodies) < 2:
        raise Degenerate("a family needs at least two bodies")
    params = tuple(mean_width(K, grid) for K in bodies)
    h = float(np.max(np.diff(params)))
    return Family(bodies, params, h * (1.0 + 1e-9))


# Deepest Cantor level a fixture builds.  Level L has 2^(L+1) breakpoints
# and its family one member fewer; the cost doubles with each level.
MAX_CANTOR_LEVEL = 10


def cantor_points(level: int):
    """Breakpoints of the level-L polyline approximation of the Cantor
    function graph on [0, 1], 0 <= L <= MAX_CANTOR_LEVEL."""
    if not 0 <= level <= MAX_CANTOR_LEVEL:
        raise InvalidInput(f"level must lie in [0, {MAX_CANTOR_LEVEL}], got {level}")
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


def disk_polygon(r: float, m: int = 64) -> ConvexBody:
    ang = (np.arange(m) + 0.5) * 2.0 * math.pi / m
    return hull(r * np.column_stack([np.cos(ang), np.sin(ang)]))


def cantor_disks(level: int = 8):
    """Concentric circles of radius (g(t) + t)/2 at the Cantor breakpoints,
    with the radial curve toward a fixed boundary point: a viable
    steepest-descent curve whose t-parametrization is not absolutely
    continuous, repaired by the mean-width parametrization."""
    pts = cantor_points(level)
    radii = (pts[:, 0] + pts[:, 1]) / 2.0
    radii = radii[radii > 0.0]
    fam = _width_family(disk_polygon(r) for r in radii)
    bodies = fam.bodies
    # all polygons share vertex angles, so each r * xbar is a vertex of its body
    xbar = bodies[-1].vertices[0] / np.linalg.norm(bodies[-1].vertices[0])
    curve = Polyline.make(np.outer(radii, xbar))
    return fam, curve


def log_spiral(b: float = 0.28, turns: float = 3.0, m: int = 1500) -> Polyline:
    """Logarithmic spiral r = e^{b phi}; self-expanding for b above the
    critical rate b* ~ 0.2747 where b = e^{-3 pi b / 2}, sampled at m >= 1
    points."""
    if m < 1:
        raise InvalidInput(f"a spiral needs at least one point, got {m}")
    phi = np.linspace(-2.0 * math.pi * turns, 0.0, m)
    r = np.exp(b * phi)
    return Polyline.make(np.column_stack([r * np.cos(phi), r * np.sin(phi)]))


def example61_family(grid: SphereGrid = None) -> Family:
    """Revolved-pancake family in R^3: flat disks D_t (radius t, plane
    x3 = 0) followed by solids of revolution E_t with rim radius t and
    thickness 2(t - 1); the connected family admitting no viable steepest
    descent curve from generic top endpoints.  Params are mean widths on
    grid."""
    n_psi = 24
    psi = (np.arange(n_psi) + 0.5) * 2.0 * math.pi / n_psi
    ring = np.column_stack([np.cos(psi), np.sin(psi)])
    bodies = []
    for t in np.linspace(0.2, 1.0, 5):
        pts = np.column_stack([t * ring, np.zeros(n_psi)])
        bodies.append(hull(pts))
    phi = np.linspace(-math.pi / 2.0, math.pi / 2.0, 9)
    for t in np.linspace(1.0, 2.0, 6)[1:]:
        r = 1.0 + (t - 1.0) * np.cos(phi)
        z = (t - 1.0) * np.sin(phi)
        pts = np.concatenate(
            [np.column_stack([ri * ring, np.full(n_psi, zi)]) for ri, zi in zip(r, z)]
        )
        bodies.append(hull(pts))
    return _width_family(bodies, grid)


def example61_curve(fam: Family, radial: float = 0.55) -> Polyline:
    """The canonical stalling path for the revolved-pancake family: radial
    segment along the x1-axis to radius r, stall, then vertical ascent to
    the top face."""
    top = fam.bodies[-1]
    zmax = float(top.vertices[:, 2].max())
    xy = radial * np.array([1.0, 0.0])
    return Polyline.make(
        [
            [0.0, 0.0, 0.0],
            [xy[0], xy[1], 0.0],
            [xy[0], xy[1], zmax],
        ]
    )


def rotated_squares(levels: int = 4) -> Stratification:
    """Nested squares, each rotated by 15 degrees and scaled by 1.3 from
    the previous one.

    Nesting needs a scale of at least sqrt(2) * cos(pi/4 - 15 degrees),
    about 1.22; 1.3 leaves a margin.
    """
    bodies = []
    base = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]) * 0.5
    for j in range(levels):
        a = j * math.radians(15.0)
        R = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        bodies.append(hull((1.3**j) * base @ R.T))
    return validate_stratification(bodies)


def disk_family(r_min=0.5, r_max=1.0, levels=10, m=64, n=2, seed=0,
                grid: SphereGrid = None) -> Family:
    """Family of levels concentric balls (polygon / mesh approximations) of
    radii from r_min >= 0 (a point when 0) to r_max > r_min; params are
    mean widths on grid.

    In the plane a ball is the regular m-gon, m >= 2 (m = 2 gives nested
    segments).  For n >= 3 it is the hull of max(m, 32) seeded directions:
    a mesh below 32 is raised to 32.
    """
    if r_min < 0 or r_max <= r_min:
        raise InvalidInput(f"radii must satisfy 0 <= r_min < r_max, got {r_min} and {r_max}")
    if levels < 0:
        raise InvalidInput(f"levels must be nonnegative, got {levels}")
    if n == 2 and m < 2:
        raise InvalidInput(f"a planar mesh needs at least 2 directions, got {m}")
    radii = np.linspace(r_min, r_max, levels)
    if n == 2:
        return _width_family((disk_polygon(r, m=m) for r in radii), grid)
    dirs = unit_directions(n, max(m, 32), seed)
    return _width_family((hull(r * dirs) for r in radii), grid)


def scaled_family(K: ConvexBody, s_min=0.4, levels=12) -> Family:
    """Family of copies of one body scaled about its centroid up to K
    itself; widths scale linearly, so the grid is exact without any
    interpolation."""
    c = K.centroid()
    scales = np.linspace(s_min, 1.0, levels)
    return _width_family(ConvexBody(c + s * (K.vertices - c), K.dim_affine) for s in scales)

