"""Exact ReLU reachability on star sets.

A star is {c + V a : A a <= d}: the affine image of a polytope in
predicate space. Affine layers act on (c, V) only; each ReLU neuron splits
a star into the halfspace where its pre-activation is nonnegative (kept
as-is) and the one where it is nonpositive (output row zeroed). Predicate
coordinates never change, so any feasible predicate point maps back to a
concrete input of the original set.

LPs run only where a cheap sound test leaves a question open. Every star
carries one feasible predicate point, whose image already shows one side
of a neuron's range, and its own predicate box, an outer bound of its
predicate polytope that gives closed-form bounds, by one routine
(_image_bounds), on a neuron's pre-activation and on each output
coordinate alike. A split child starts from its parent's box, tightened
by its one cut row in one bound-propagation pass (_cut_box). This is the
estimated-bounds idea of NNV's star sets (Tran et al., "Star-Based
Reachability Analysis of Deep Neural Networks", FM 2019). A closed-form
bound decides only where it clears zero by DECIDE_TOL, where the LPs
would decide the same, so star counts and suprema are those of running
both range LPs at every neuron.

reach_stars works one (layer, ReLU neuron) step at a time on all stars
at once, held as a StarSet of stacked arrays: centres (N, dim), bases
(N, dim, p), carried points (N, p), and an lp.Starts whose member k is
star k's constraint system, padded to the step's largest row count, and
once solved its phase-1 start. A step computes the closed-form bounds and
the point test for every star, then solves all range LPs that are left in
one lp_max_batch by _lp_ranges (as star_sup_norm and a hand-built input
star do), after phase 1 (per 256 systems) for the systems without a
start. A split gathers the next step's systems in one Starts.take, which
copies a start only for the stars that keep their system; the two
children of a split star get theirs from the next phase 1. Stacked
products go through np.matmul, whose per-star BLAS call is bit for bit
the product of one star, so the stars and suprema are those of handling
each star on its own.

reach_stars returns the last step's StarSet, which bisim.reach hands out
for the exact method. It has the members of interval.BoxBatch:
closed-form bounds, sup_norm, an LP intersection test and witness-search
centres, and it builds a Star only when indexed. star_sup_norm solves
the range LPs of every star that can hold the supremum in one more
lp_max_batch, from the starts that the steps left.

Practical on small networks only; the star count is capped.
"""

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .interval import BoxBatch
from .lp import _CHUNK, Starts, lp_feasible, lp_max_batch, phase_one_batch
from .norms import LINF, batch_norms, sup_norm_box

DEFAULT_STAR_CAP = 10**5
# A closed-form bound or a carried point decides a question only when it
# clears zero (or a lower bound on the supremum) by this relative margin,
# which dwarfs the LP's feasibility tolerance.
DECIDE_TOL = 1e-7


class Star:
    """Affine image of a polytope: {center + basis @ a : constr_mat @ a <= constr_rhs}.

    point is a feasible predicate point (None when unknown) and pred_box
    a (lower, upper) pair of arrays bounding the predicate polytope (None
    when unknown).
    """

    def __init__(self, center, basis, constr_mat, constr_rhs):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.basis = np.atleast_2d(np.asarray(basis, dtype=float))
        self.constr_mat = np.asarray(constr_mat, dtype=float)
        self.constr_rhs = np.atleast_1d(np.asarray(constr_rhs, dtype=float))
        self.point = None
        self.pred_box = None
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


class StarSet(Sequence):
    """N stars as stacked arrays, with the members of interval.BoxBatch.

    C (N, dim) centres, V (N, dim, p) bases, P (N, p) carried points (a
    row of nan where a star has none), and starts, an lp.Starts of N
    members whose member k is star k's constraint system (A (N, M, p), d
    (N, M), rows (N,); rows past rows[k] read 0.a <= 1) and, where has[k]
    holds, that system's phase-1 start. pred_box is a (lower, upper) pair
    of (N, p) arrays bounding each star's predicate polytope (rows of -inf
    and inf where unknown).

    Indexing builds the i-th Star. lower and upper are the closed-form
    (N, dim) outer bounds, computed on first use; infinite predicate
    bounds can give NaN entries, which no test treats as deciding
    anything. centers holds the input star's centre (the box centre for
    box_to_star), which the witness search tries first.
    """

    label = None  # the back-end that computed the set, set by bisim.reach
    centers = None  # set by reach_stars

    def __init__(self, C, V, P, starts, has, pred_box):
        self.C, self.V, self.P = C, V, P
        self.starts, self.has = starts, has
        self.pred_box = pred_box

    def __len__(self):
        return len(self.C)

    def __getitem__(self, i):
        s = self.starts
        m = s.rows[i]
        star = Star(self.C[i], self.V[i], s.A[i, :m], s.d[i, :m])
        if not np.isnan(self.P[i]).any():
            star.point = self.P[i]
        star.pred_box = tuple(b[i] for b in self.pred_box)
        return star

    @cached_property
    def _bounds(self):
        return _image_bounds(self.C, self.V, *self.pred_box)

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
        s = self.starts
        m = s.rows[i]
        return lp_feasible(np.vstack([s.A[i, :m], A @ self.V[i]]),
                           np.concatenate([s.d[i, :m], d - A @ self.C[i]]))

    def _lp_max(self, objectives, systems):
        """lp_max_batch of each objectives[j] over the system of star
        systems[j], after phase 1 for the systems without a start, whose
        starts are then kept. Phase 1 runs and is stored per _CHUNK
        systems, which bounds its stack and the copy into starts."""
        s = self.starts
        missing = np.unique(systems[~self.has[systems]])
        for k in range(0, missing.size, _CHUNK):
            m = missing[k:k + _CHUNK]
            s.put(m, phase_one_batch(s.A[m], s.d[m], s.rows[m]))
        self.has[missing] = True
        return lp_max_batch(objectives, s, systems)


def _stack(stars):
    """A list of Stars as a StarSet with no phase-1 starts yet; the
    constraint systems are padded to the largest row count. Stars of
    other output or predicate widths than the first are a ShapeError."""
    N, (dim, p) = len(stars), stars[0].basis.shape
    for k, s in enumerate(stars):
        if s.basis.shape != (dim, p):
            raise ShapeError(f"star {k} has output width {s.dim} and predicate width "
                             f"{s.basis.shape[1]}, star 0 has {dim} and {p}")
    starts = Starts.empty(N, max(len(s.constr_rhs) for s in stars), p)
    P = np.full((N, p), np.nan)
    lo, hi = np.full((N, p), -np.inf), np.full((N, p), np.inf)
    for k, s in enumerate(stars):
        m = starts.rows[k] = len(s.constr_rhs)
        starts.A[k, :m], starts.d[k, :m] = s.constr_mat, s.constr_rhs
        if s.point is not None:
            P[k] = s.point
        if s.pred_box is not None:
            lo[k], hi[k] = s.pred_box
    return StarSet(np.array([s.center for s in stars]), np.array([s.basis for s in stars]),
                   P, starts, np.zeros(N, dtype=bool), (lo, hi))


def _image_bounds(C, V, lo, hi):
    """Bounds of C + V a over lo <= a <= hi for stacked C (N, dim), V (N,
    dim, p) and lo, hi (N, p), each product the one of its star."""
    Vp, Vn = np.maximum(V, 0.0), np.minimum(V, 0.0)
    lo, hi = lo[:, :, None], hi[:, :, None]
    with np.errstate(invalid="ignore"):
        return (C + np.matmul(Vp, lo)[:, :, 0] + np.matmul(Vn, hi)[:, :, 0],
                C + np.matmul(Vp, hi)[:, :, 0] + np.matmul(Vn, lo)[:, :, 0])


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


def _lp_ranges(st, rows, off, systems, need):
    """(lower, upper, lo_pt, hi_pt): the range of off[k] + rows[k] . a over
    the system of star systems[k] and the points that attain its ends, by
    one lp_max_batch for the ends that need[k] (n, 2) asks for (column 0
    upper, 1 lower). An end not asked for reads off[k] with the carried
    point, one whose LP has no optimum +-inf."""
    lower, upper = off.copy(), off.copy()
    lo_pt, hi_pt = st.P[systems], st.P[systems]
    flat = np.flatnonzero(need)
    if flat.size:
        who, low = flat // 2, flat % 2 == 1
        sign = np.where(low, -1.0, 1.0)
        res = st._lp_max(sign[:, None] * rows[who], systems[who])
        ext = np.where(res.optimal, off[who] + sign * res.value, sign * np.inf)
        upper[who[~low]], hi_pt[who[~low]] = ext[~low], res.point[~low]
        lower[who[low]], lo_pt[who[low]] = ext[low], res.point[low]
    return lower, upper, lo_pt, hi_pt


def _input_stack(star):
    """The input star of reach_stars as a StarSet of one, with a feasible
    point and its predicate box filled in where star has none.

    A missing point costs one LP (of the zero objective), which also
    proves the constraint set feasible; a missing box costs 2p LPs, one
    per predicate bound. They run as one batch on one phase 1. Raises
    ValueError for an infeasible star.
    """
    st = _stack([star])
    p = st.P.shape[1]
    rows = np.vstack([np.zeros((1, p)), np.eye(p)])
    need = np.array([[star.point is None, False]] + [[star.pred_box is None] * 2] * p)
    lower, upper, _, hi_pt = _lp_ranges(st, rows, np.zeros(p + 1),
                                        np.zeros(p + 1, dtype=np.intp), need)
    if star.point is None:
        if upper[0] == np.inf:
            raise ValueError("star constraint set is infeasible")
        st.P[0] = hi_pt[0]
    if star.pred_box is None:
        st.pred_box = (lower[None, 1:], upper[None, 1:])
    return st


def _ordered(lower, upper):
    """(min, max) of two arrays elementwise, as Python's min and max of
    (lower, upper) pick them."""
    return np.where(upper < lower, upper, lower), np.where(upper > lower, upper, lower)


def _range_lps(st, open_, rows, off, tol):
    """Range of neuron rows over the open stars, as far as a decision
    needs it: (lower, upper, point at the lower end, point at the upper
    end).

    The carried point's image shows one side of the range; only the other
    side needs an LP. Otherwise both run, so that a split always has two
    feasible branches. A constant row needs none.
    """
    v = np.matmul(rows[:, None, :], st.P[open_][:, :, None])[:, 0, 0] + off
    live = (np.abs(rows) > 0.0).any(axis=1)
    need = np.stack([~(v > tol) & live, ~(v < -tol) & live], axis=1)
    lower, upper, lo_pt, hi_pt = _lp_ranges(st, rows, off, open_, need)
    upper[v > tol] = np.inf
    lower[v < -tol] = -np.inf
    return _ordered(lower, upper) + (lo_pt, hi_pt)


def _cut_box(lo, hi, r, e, point):
    """The boxes lo <= a <= hi (n, p) tightened by one cut r[k] . a <= e[k]
    each, in one bound-propagation pass:

        a_j <= (e - sum_{k != j} min(r_k lo_k, r_k hi_k)) / r_j   (r_j > 0)

    and the mirror lower bound where r_j < 0. A zero r_j leaves a_j as it
    is, and a bound with an infinite term (a_k unbounded on the side that
    matters, k != j) is not tightened. Each new bound is widened outward by
    a bound on its rounding error, and the box is stretched to hold point
    (a nan entry is ignored), so that the result is an outer bound of the
    cut polytope that contains the point.
    """
    live = r != 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        m = np.where(live, np.minimum(r * lo, r * hi), 0.0)
    infinite = ~np.isfinite(m)  # a term of -inf
    m[infinite] = 0.0
    others = infinite.sum(axis=1, keepdims=True) - infinite
    rest = np.where(others > 0, -np.inf, m.sum(axis=1, keepdims=True) - m)
    scale = np.abs(e)[:, None] + np.abs(m).sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound = (e[:, None] - rest) / r
        slack = (r.shape[1] + 4) * np.finfo(float).eps * scale / np.abs(r)
        up, down = bound + slack, bound - slack
    hi = np.where((r > 0.0) & np.isfinite(up), np.minimum(hi, up), hi)
    lo = np.where((r < 0.0) & np.isfinite(down), np.maximum(lo, down), lo)
    return np.fmin(lo, point), np.fmax(hi, point)


def _relu_step(st, i):
    """Split every star of the set on the sign of ReLU neuron i.

    A star whose pre-activation is nonnegative is kept, one whose
    pre-activation is nonpositive gets output row i zeroed, and one that
    straddles zero becomes two stars in its place: the nonnegative side
    (kept) and the nonpositive side (zeroed), each cut by one constraint,
    given a point on its own side and its parent's predicate box tightened
    by the cut. Boundary overlap is measure-zero.
    """
    rows_i = st.V[:, i, :]
    off = st.C[:, i]
    tol = DECIDE_TOL * (1.0 + np.abs(off) + np.abs(rows_i).sum(axis=1))
    lo_bound, hi_bound = (b[:, 0] for b in
                          _image_bounds(off[:, None], rows_i[:, None, :], *st.pred_box))
    keep = lo_bound > tol
    zero = ~keep & (hi_bound < -tol)
    code = zero.astype(np.int8)  # 0 keep, 1 zero row i, 2 split
    open_ = np.flatnonzero(~keep & ~zero)
    if open_.size:
        lower, upper, lo_pt, hi_pt = _range_lps(st, open_, rows_i[open_], off[open_],
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
    # Each child gets one cut row, at its parent's row count, and no start.
    at = st.starts.rows[split]
    has = st.has[src]
    has[pos] = has[neg] = False
    starts = st.starts.take(src, max(st.starts.A.shape[1], at.max() + 1), has)
    starts.A[pos, at], starts.d[pos, at] = -rows_i[split], off[split]
    starts.A[neg, at], starts.d[neg, at] = rows_i[split], -off[split]
    starts.rows[pos] += 1
    starts.rows[neg] += 1
    C, V, P = st.C[src], st.V[src], st.P[src]
    lo, hi = (b[src] for b in st.pred_box)
    at_open = np.searchsorted(open_, split)
    P[pos], P[neg] = hi_pt[at_open], lo_pt[at_open]
    cut, row = np.concatenate([pos, neg]), np.tile(at, 2)
    lo[cut], hi[cut] = _cut_box(lo[cut], hi[cut], starts.A[cut, row], starts.d[cut, row],
                                P[cut])
    z = np.concatenate([first[code == 1], neg])
    C[z, i] = 0.0
    V[z, i, :] = 0.0
    return StarSet(C, V, P, starts, has, (lo, hi))


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
    st = _input_stack(star)
    for k, lay in enumerate(net.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            st.C = np.matmul(lay.weights, st.C[:, :, None])[:, :, 0] + lay.bias
            st.V = np.matmul(lay.weights, st.V)
        if not (np.isfinite(st.C).all() and np.isfinite(st.V).all()):
            raise NumericError(f"star overflowed: non-finite centre or basis "
                               f"after layer {k}")
        for i in np.flatnonzero(lay.relu_mask):
            st = _relu_step(st, int(i))
            if len(st) > star_cap:
                raise ResourceLimitError(
                    f"star count {len(st)} exceeds cap {star_cap}")
    st.centers = star.center[None, :]
    return st


def star_sup_norm(stars, norm=LINF):
    """sup of ||y|| over a union of stars: a StarSet or a list of Stars.

    Exact for the max norm. For the euclidean norm the per-coordinate
    extremes give sqrt(sum_i max(lo_i^2, hi_i^2)), an upper bound on the
    true supremum (exact maximization of a convex norm is not attempted).

    The largest norm at the stars' carried points, L, is a lower bound
    that needs no LP. Every star whose closed-form bound can reach L is
    solved, all in one lp_max_batch, after phase 1 for the systems without
    a start: for the euclidean norm both ends of each output coordinate
    that is not constant, for the max norm only the ends whose own
    closed-form magnitude can reach L. The star and end that attain the
    supremum are among them and none exceeds it, so the result is that of
    solving every star. A NaN anywhere propagates to the result.
    """
    if not stars:
        raise ValueError("empty star list")
    st = stars if isinstance(stars, StarSet) else _stack(stars)
    caps = batch_norms(np.maximum(np.abs(st.lower), np.abs(st.upper)), norm)
    has = ~np.isnan(st.P).any(axis=1)
    at_points = st.C[has] + np.matmul(st.V[has], st.P[has][:, :, None])[:, :, 0]
    L = batch_norms(at_points, norm).max(initial=0.0)
    target = L - DECIDE_TOL * (1.0 + L)
    # The negations keep a NaN cap or bound chosen.
    chosen = np.flatnonzero(~(caps < target))
    C, V = st.C[chosen], st.V[chosen]
    live = np.flatnonzero((np.abs(V) > 0.0).any(axis=2))  # into C.ravel()
    need = np.ones((live.size, 2), dtype=bool)
    if norm == LINF:
        need[:, 0] = ~(st.upper[chosen].ravel()[live] < target)
        need[:, 1] = ~(-st.lower[chosen].ravel()[live] < target)
    lower, upper = C.copy(), C.copy()
    lo, hi, _, _ = _lp_ranges(st, V.reshape(-1, V.shape[2])[live], C.ravel()[live],
                              chosen[live // C.shape[1]], need)
    # An end not asked for cannot hold the supremum. It reads 0.0, not the
    # centre that _lp_ranges leaves there: that can lie outside the star.
    lower.flat[live] = np.where(need[:, 1], lo, 0.0)
    upper.flat[live] = np.where(need[:, 0], hi, 0.0)
    # On a sliver star the two LPs can cross by rounding (~1e-17); the
    # ordered pair still contains both answers.
    return sup_norm_box(BoxBatch(*_ordered(lower, upper)), norm)
