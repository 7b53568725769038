"""Exact ReLU reachability on star sets.

A star is {c + V a : A a <= d}: the affine image of a polytope in
predicate space. Affine layers act on (c, V) only; each ReLU neuron splits
a star into the halfspace where its pre-activation is nonnegative (kept
as-is) and the one where it is nonpositive (output row zeroed). Predicate
coordinates never change, so any feasible predicate point maps back to a
concrete input of the original set.

LPs run only where a cheap sound test leaves a question open. Every star
carries one feasible predicate point, whose image already shows one side
of a neuron's range, and the predicate box of the input star, which stays
an outer bound for every descendant (constraints are only ever added) and
gives closed-form bounds on each output coordinate. This is the
estimated-bounds idea of NNV's star sets (Tran et al., "Star-Based
Reachability Analysis of Deep Neural Networks", FM 2019). Star counts and
suprema are those of running both range LPs at every neuron.

reach_stars works one (layer, ReLU neuron) step at a time on all stars
at once, held as stacked arrays: centres (N, dim), bases (N, dim, p),
carried points (N, p), and the constraint systems padded to the step's
largest row count together with their phase-1 starts (lp.Starts). A step
computes the closed-form bounds and the point test for every star, then
solves all range LPs that are left in one lp_max_batch, after one
phase_one_batch for the systems that have no start yet. Stacked dot
products go through np.matmul, whose per-row BLAS dot is bit for bit the
x @ y of one star, so the stars and suprema are those of handling each
star on its own.

reach_stars returns a StarSet, which bisim.reach hands out for the exact
method. It has the members of interval.BoxBatch: closed-form bounds,
sup_norm, an LP intersection test and witness-search centres. Its stars
keep their phase-1 starts for the sup-norm LPs.

Practical on small networks only; the star count is capped.
"""

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .interval import BoxBatch
from .lp import Starts, lp_feasible, lp_max_batch, phase_one_batch
from .norms import LINF, batch_norms, sup_norm_box

DEFAULT_STAR_CAP = 10**5
# A closed-form bound or a carried point decides a question only when it
# clears zero (or the best supremum so far) by this relative margin, which
# dwarfs the LP's feasibility tolerance.
DECIDE_TOL = 1e-7


class Star:
    """Affine image of a polytope: {center + basis @ a : constr_mat @ a <= constr_rhs}.

    point is a feasible predicate point (None when unknown) and pred_box
    a (lower, upper) pair of arrays bounding the predicate polytope (None
    when unknown). The phase-1 start of the constraint system, a
    (Starts, index) pair, is built on the first LP or carried over from
    reach_stars.
    """

    def __init__(self, center, basis, constr_mat, constr_rhs):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.basis = np.atleast_2d(np.asarray(basis, dtype=float))
        self.constr_mat = np.asarray(constr_mat, dtype=float)
        self.constr_rhs = np.atleast_1d(np.asarray(constr_rhs, dtype=float))
        self.point = None
        self.pred_box = None
        self._start = None
        p = self.basis.shape[1]
        if self.constr_mat.size == 0:
            self.constr_mat = self.constr_mat.reshape(self.constr_rhs.shape[0], p)
        if self.basis.shape[0] != self.center.shape[0]:
            raise ShapeError("basis rows != center length")
        if self.constr_mat.shape != (self.constr_rhs.shape[0], p):
            raise ShapeError("constraint shapes inconsistent with basis columns")

    @property
    def dim(self):
        return self.center.shape[0]

    def _solve(self, objectives):
        """lp_max_batch of objectives over the predicate polytope, from the
        star's phase-1 start (built here on first use)."""
        if self._start is None:
            self._start = (phase_one_batch(self.constr_mat[None], self.constr_rhs[None],
                                           [len(self.constr_rhs)]), 0)
        starts, k = self._start
        return lp_max_batch(objectives, starts, np.full(len(objectives), k))

    def _ranges(self, coords):
        """Exact (lower, upper) arrays of the output coordinates coords over
        the star: two LPs per coordinate that is not constant, one batch."""
        off = self.center[coords]
        rows = self.basis[coords]
        lower, upper = off.copy(), off.copy()
        live = np.flatnonzero((np.abs(rows) > 0.0).any(axis=1))
        if live.size:
            sign = np.tile([1.0, -1.0], live.size)
            who = np.repeat(live, 2)
            res = self._solve(sign[:, None] * rows[who])
            ext = np.where(res.optimal, off[who] + sign * res.value, sign * np.inf)
            upper[live], lower[live] = ext[0::2], ext[1::2]
        # On a sliver star the two LPs can cross by rounding (~1e-17);
        # the ordered pair still contains both answers.
        return _ordered(lower, upper)

    def coord_range(self, i):
        """Exact [lo, hi] of output coordinate i over the star (via two LPs)."""
        lower, upper = self._ranges([i])
        return lower[0], upper[0]


class StarSet(Sequence):
    """The stars of reach_stars, with the members of interval.BoxBatch.

    lower and upper are the closed-form (n, dim) outer bounds of
    star_bounds, computed on first use. centers holds the input star's
    centre (the box centre for box_to_star), which the witness search
    tries first.
    """

    label = None  # the back-end that computed the set, set by bisim.reach

    def __init__(self, stars, centers):
        self.stars = stars
        self.centers = centers

    def __len__(self):
        return len(self.stars)

    def __getitem__(self, i):
        return self.stars[i]

    @cached_property
    def _bounds(self):
        return star_bounds(self.stars)

    @property
    def lower(self):
        return self._bounds[0]

    @property
    def upper(self):
        return self._bounds[1]

    def sup_norm(self, norm):
        """sup of ||y|| over the union (see star_sup_norm)."""
        return star_sup_norm(self, norm)

    def intersects(self, i, A, d):
        """True when star i meets {y : A y <= d}, by one LP."""
        s = self.stars[i]
        return lp_feasible(np.vstack([s.constr_mat, A @ s.basis]),
                           np.concatenate([s.constr_rhs, d - A @ s.center]))


def _image_bounds(c, V, lo, hi):
    """Bounds of c + V a over lo <= a <= hi (V a row or a matrix)."""
    Vp, Vn = np.maximum(V, 0.0), np.minimum(V, 0.0)
    with np.errstate(invalid="ignore"):
        return c + Vp @ lo + Vn @ hi, c + Vp @ hi + Vn @ lo


def box_to_star(box):
    """Lift a box to a star: midpoint center, half-width diagonal basis, |a_i| <= 1.

    Degenerate dimensions keep their zero basis column; the star collapses
    to a point along them. The predicate box is [-1, 1]^n and the zero
    vector is a feasible point, so neither needs an LP.
    """
    half = (box.upper - box.lower) / 2.0
    n = len(box)
    star = Star(box.center(), np.diag(half),
                np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n))
    star.point = np.zeros(n)
    star.pred_box = (-np.ones(n), np.ones(n))
    return star


def _with_pred_box(star):
    """A copy of star with a feasible point and its predicate box filled in.

    A missing point costs one LP, which also proves the constraint set
    feasible; a missing box costs 2p LPs, one per predicate bound. They
    run as one batch on one phase 1. Raises ValueError for an infeasible
    star.
    """
    p = star.basis.shape[1]
    out = Star(star.center, star.basis, star.constr_mat, star.constr_rhs)
    out.point, out.pred_box, out._start = star.point, star.pred_box, star._start
    objectives = []
    if out.point is None:
        objectives.append(np.zeros((1, p)))
    if out.pred_box is None:
        objectives += [np.eye(p), -np.eye(p)]
    if not objectives:
        return out
    res = out._solve(np.vstack(objectives))
    if out.point is None:
        if not res.optimal[0]:
            raise ValueError("star constraint set is infeasible")
        out.point = res.point[0]
    if out.pred_box is None:
        highs, lows = res.value[-2 * p:-p], res.value[-p:]
        ok_hi, ok_lo = res.optimal[-2 * p:-p], res.optimal[-p:]
        out.pred_box = (np.where(ok_lo, -lows, -np.inf), np.where(ok_hi, highs, np.inf))
    return out


def _ordered(lower, upper):
    """(min, max) of two arrays elementwise, as Python's min and max of
    (lower, upper) pick them."""
    return np.where(upper < lower, upper, lower), np.where(upper > lower, upper, lower)


def _dots(X, Y):
    """Row-wise dot products of X (n, p) with Y (n, p), or with one vector
    Y (p,). Each is a BLAS dot, bit for bit the x @ y of one row."""
    Y = Y[:, :, None] if Y.ndim == 2 else Y[:, None]
    return np.matmul(X[:, None, :], Y)[:, 0, 0]


class _Pool:
    """Phase-1 starts (an lp.Starts) in slots. A split frees its star's
    slot for the next start, so the starts kept never outnumber the
    stars, and adding starts copies the pool only when it grows."""

    def __init__(self, starts):
        self.starts = starts
        self.free = []

    def add(self, new):
        """Store the Starts new; returns their slots."""
        size, M0 = len(self.starts), self.starts.A.shape[1]
        M = max(M0, new.A.shape[1])
        short = len(new) - len(self.free)
        if short > 0 or M > M0:
            room = max(short, size // 2) if short > 0 else 0
            self.starts = self.starts.resized(size + room, M)
            self.free.extend(range(size, size + room))
        if new.A.shape[1] < M:
            new = new.resized(len(new), M)
        slots = np.array(self.free[len(self.free) - len(new):], dtype=np.intp)
        del self.free[len(self.free) - len(new):]
        self.starts.put(slots, new)
        return slots


class _Stack:
    """The stars of one reach_stars step as stacked arrays.

    C (N, dim) centres, V (N, dim, p) bases, P (N, p) carried points (a
    row of nan where a star has none), and the constraint systems A (N, M,
    p), d (N, M) with rows (N,) rows each (rows past that read 0.a <= 1).
    pool holds the phase-1 starts of the systems that have one, and sid
    (N,) the slot of each star's start in pool, or -1. Every star shares
    the input star's predicate box.
    """

    def __init__(self, C, V, P, A, d, rows, sid, pool):
        self.C, self.V, self.P = C, V, P
        self.A, self.d, self.rows = A, d, rows
        self.sid, self.pool = sid, pool

    def __len__(self):
        return len(self.C)

    def stars(self, pred_box):
        out = []
        for k in range(len(self.C)):
            m = self.rows[k]
            s = Star(self.C[k], self.V[k], self.A[k, :m], self.d[k, :m])
            if not np.isnan(self.P[k]).any():
                s.point = self.P[k]
            s.pred_box = pred_box
            if self.sid[k] >= 0:
                s._start = (self.pool.starts, self.sid[k])
            out.append(s)
        return out


def _range_lps(st, open_, rows, off, tol):
    """Range of neuron rows over the open stars, as far as a decision
    needs it: (lower, upper, point at the upper end, point at the lower
    end).

    The carried point's image shows one side of the range; only the other
    side needs an LP. Otherwise both run, so that a split always has two
    feasible branches. A constant row needs none. All LPs run in one
    lp_max_batch, after one phase_one_batch for the systems without a
    start.
    """
    P = st.P[open_]
    v = _dots(rows, P) + off
    live = (np.abs(rows) > 0.0).any(axis=1)
    need = np.stack([~(v > tol) & live, ~(v < -tol) & live], axis=1)
    upper = np.where(v > tol, np.inf, off)
    lower = np.where(v < -tol, -np.inf, off)
    hi_pt, lo_pt = P, P.copy()
    flat = np.flatnonzero(need)
    if flat.size:
        who, low = flat // 2, flat % 2 == 1
        sign = np.where(low, -1.0, 1.0)
        systems = open_[who]
        missing = np.unique(systems[st.sid[systems] < 0])
        if missing.size:
            st.sid[missing] = st.pool.add(phase_one_batch(st.A[missing], st.d[missing],
                                                          st.rows[missing]))
        res = lp_max_batch(sign[:, None] * rows[who], st.pool.starts, st.sid[systems])
        ext = np.where(res.optimal, off[who] + sign * res.value, sign * np.inf)
        upper[who[~low]], hi_pt[who[~low]] = ext[~low], res.point[~low]
        lower[who[low]], lo_pt[who[low]] = ext[low], res.point[low]
    lower, upper = _ordered(lower, upper)
    return lower, upper, hi_pt, lo_pt


def _relu_step(st, i, pred_lo, pred_hi):
    """Split every star of the stack on the sign of ReLU neuron i.

    A star whose pre-activation is nonnegative is kept, one whose
    pre-activation is nonpositive gets output row i zeroed, and one that
    straddles zero becomes two stars in its place: the nonnegative side
    (kept) and the nonpositive side (zeroed), each cut by one constraint
    and given a point on its own side. Boundary overlap is measure-zero.
    """
    rows_i = st.V[:, i, :]
    off = st.C[:, i]
    tol = DECIDE_TOL * (1.0 + np.abs(off) + np.abs(rows_i).sum(axis=1))
    Vp, Vn = np.maximum(rows_i, 0.0), np.minimum(rows_i, 0.0)
    with np.errstate(invalid="ignore"):
        lo_bound = off + _dots(Vp, pred_lo) + _dots(Vn, pred_hi)
        hi_bound = off + _dots(Vp, pred_hi) + _dots(Vn, pred_lo)
    keep = lo_bound > tol
    zero = ~keep & (hi_bound < -tol)
    code = zero.astype(np.int8)  # 0 keep, 1 zero row i, 2 split
    open_ = np.flatnonzero(~keep & ~zero)
    if open_.size:
        lower, upper, hi_pt, lo_pt = _range_lps(st, open_, rows_i[open_], off[open_],
                                                tol[open_])
        code[open_] = np.where(lower >= 0.0, 0, np.where(upper <= 0.0, 1, 2))
    split = np.flatnonzero(code == 2)
    if not split.size:
        z = code == 1
        st.C[z, i] = 0.0
        st.V[z, i, :] = 0.0
        return st
    counts = np.where(code == 2, 2, 1)
    src = np.repeat(np.arange(len(st)), counts)
    first = np.cumsum(counts) - counts
    pos, neg = first[split], first[split] + 1
    A, d, at = st.A, st.d, st.rows[split]
    if at.max() >= A.shape[1]:
        A = np.concatenate([A, np.zeros((len(A), 1, A.shape[2]))], axis=1)
        d = np.concatenate([d, np.ones((len(d), 1))], axis=1)
    A, d, rows = A[src], d[src], st.rows[src]
    A[pos, at], d[pos, at] = -rows_i[split], off[split]
    A[neg, at], d[neg, at] = rows_i[split], -off[split]
    rows[pos] += 1
    rows[neg] += 1
    freed = st.sid[split]
    st.pool.free.extend(freed[freed >= 0].tolist())
    sid = st.sid[src]
    sid[pos] = sid[neg] = -1
    C, V, P = st.C[src], st.V[src], st.P[src]
    at_open = np.searchsorted(open_, split)
    P[pos], P[neg] = hi_pt[at_open], lo_pt[at_open]
    z = np.concatenate([first[code == 1], neg])
    C[z, i] = 0.0
    V[z, i, :] = 0.0
    return _Stack(C, V, P, A, d, rows, sid, st.pool)


def reach_stars(net, star, star_cap=DEFAULT_STAR_CAP):
    """Exact output reachable set of a network as a StarSet.

    Raises ResourceLimitError when the union would exceed star_cap; the
    interval back-end is the fallback at that scale. Raises ValueError
    when the input star is empty.
    """
    if star.dim != net.input_dim:
        raise ShapeError(f"star dim {star.dim} != input_dim {net.input_dim}")
    if star_cap < 1:
        raise ValueError("star_cap must be >= 1")
    first = _with_pred_box(star)
    A, d = first.constr_mat[None], first.constr_rhs[None]
    rows = np.array([len(first.constr_rhs)])
    if first._start is None:
        pool, sid = _Pool(Starts.empty(0, rows[0], A.shape[2])), np.array([-1])
    else:
        pool, sid = _Pool(first._start[0].take([first._start[1]])), np.array([0])
    st = _Stack(first.center[None, :], first.basis[None], first.point[None, :].copy(),
                A, d, rows, sid, pool)
    pred_lo, pred_hi = first.pred_box
    for k, lay in enumerate(net.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            st.C = np.matmul(lay.weights, st.C[:, :, None])[:, :, 0] + lay.bias
            st.V = np.matmul(lay.weights, st.V)
        if not (np.isfinite(st.C).all() and np.isfinite(st.V).all()):
            raise NumericError(f"star overflowed: non-finite centre or basis "
                               f"after layer {k}")
        for i in np.flatnonzero(lay.relu_mask):
            st = _relu_step(st, int(i), pred_lo, pred_hi)
            if len(st) > star_cap:
                raise ResourceLimitError(
                    f"star count {len(st)} exceeds cap {star_cap}")
    return StarSet(st.stars(first.pred_box), star.center[None, :])


def star_sup_norm(stars, norm=LINF):
    """sup of ||y|| over a union of stars.

    Exact for the max norm. For the euclidean norm the per-coordinate
    extremes give sqrt(sum_i max(lo_i^2, hi_i^2)), an upper bound on the
    true supremum (exact maximization of a convex norm is not attempted).

    Stars are visited from the largest closed-form bound down, and a star
    whose bound cannot beat the best value so far skips its LPs. A NaN
    anywhere propagates to the result.
    """
    if not stars:
        raise ValueError("empty star list")
    lower, upper = star_bounds(stars)
    caps = batch_norms(np.maximum(np.abs(lower), np.abs(upper)), norm)
    best = 0.0
    for k in np.argsort(-caps, kind="stable"):
        if caps[k] < best - DECIDE_TOL * (1.0 + best):
            continue
        lows, highs = stars[k]._ranges(np.arange(stars[k].dim))
        best = np.maximum(best, sup_norm_box(BoxBatch([lows], [highs]), norm))
    return float(best)


def star_bounds(stars):
    """Closed-form (n, dim) outer bounds (lower, upper) of n stars, no LP.

    They come from each star's predicate box; a star without one gets
    infinite bounds. Infinite predicate bounds can give NaN entries, which
    no test treats as deciding anything.
    """
    lower, upper = zip(*(
        _image_bounds(s.center, s.basis, *s.pred_box) if s.pred_box is not None
        else (np.full(s.dim, -np.inf), np.full(s.dim, np.inf)) for s in stars))
    return np.array(lower), np.array(upper)
