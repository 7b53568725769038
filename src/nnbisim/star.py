"""Exact ReLU reachability on star sets.

A star is {c + V a : A a <= d}: the affine image of a polytope in
predicate space. Affine layers act on (c, V) only; each ReLU neuron splits
a star into the halfspace where its pre-activation is nonnegative (kept
as-is) and the one where it is nonpositive (output row zeroed). Predicate
coordinates never change, so any feasible predicate point maps back to a
concrete input of the original set.

reach_stars starts from the input box's star: the box centre, a
diagonal basis of half-widths and the predicate polytope [-1, 1]^n, with
the carried point 0 and [-1, 1]^n as its predicate box. So every star
has a carried point and a finite predicate box by construction, and no
LP is needed to find either.

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
both range LPs at every neuron (but see the slivers below).

reach_stars works one (layer, ReLU neuron) step at a time on all stars
at once, held as a StarSet of stacked arrays: centres (N, dim), bases
(N, dim, p), carried points (N, p), and an lp.Starts whose member k is
star k's constraint system, padded to the step's largest row count, and
its start: a feasible basis whose basic point is the star's carried
point. Phase 1 runs once, for the input star, whose start is the slack
basis at the point 0. A step computes the closed-form bounds and the
point test for every star, then solves all range LPs that are left in
one lp_max_batch by _lp_ranges, which hands back the final tableaus of
the ends that cross zero. A split gathers the next step's systems in one
Starts.take. The child on the side of a range LP takes that LP's optimum
as its point and its final tableau as its start; the other child keeps
its parent's point and start. Each child's cut row then enters its start
with its slack basic (Starts.add_row): at the child's point that slack
is the range end the split was made on, which is positive, so no phase 1
runs. A child whose slack reads below -FEAS_TOL by rounding loses its
start and gets one from phase 1 at once (Starts.restart), whose basic
point is then not the carried point. Stacked products go
through np.matmul, whose per-star BLAS call is bit for bit the product
of one star, so the stars are those of handling each star on its own.

A warm start can end a range LP at another optimal vertex than phase 1
would, or a few ulp away, so carried points differ from those of
phase-1 starts. Star counts differ only where a range ends exactly at 0,
as for the two copies of a kept neuron in a pruned pair's merged
network: the sign of the rounding then decides whether a measure-zero
sliver star splits off, and the supremum, taken over other stars, can
move by an ulp or two.

reach_stars returns the last step's StarSet, which bisim.reach hands out
for the exact method. It has the members of interval.BoxBatch:
closed-form bounds, sup_norm, an LP intersection test and witness-search
centres, and it builds a Star only when indexed. star_sup_norm solves
the range LPs of every star that can hold the supremum in one more
lp_max_batch, from the starts that the steps left, and solves the stars
near the supremum once more from phase 1, so that the supremum is the
one of phase-1 starts over the same stars bit for bit.

Practical on small networks only; the star count is capped.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .interval import BoxBatch
from .lp import lp_feasible, lp_max_batch, phase_one_batch
from .network import _integer
from .norms import LINF, batch_norms, sup_norm_box

DEFAULT_STAR_CAP = 10**5
# A closed-form bound or a carried point decides a question only when it
# clears zero (or a lower bound on the supremum) by this relative margin,
# which dwarfs the LP's feasibility tolerance.
DECIDE_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Star:
    """Star k of a StarSet, {center + basis @ a : constr_mat @ a <= constr_rhs},
    as views of its arrays: a record that StarSet.__getitem__ builds.

    point is its feasible predicate point and pred_box a (lower, upper)
    pair of finite arrays bounding its predicate polytope.
    """

    center: np.ndarray
    basis: np.ndarray
    constr_mat: np.ndarray
    constr_rhs: np.ndarray
    point: np.ndarray
    pred_box: tuple

    @property
    def dim(self):
        return self.center.shape[0]


class StarSet(Sequence):
    """N stars as stacked arrays, with the members of interval.BoxBatch.

    C (N, dim) centres, V (N, dim, p) bases, P (N, p) carried points (one
    feasible predicate point per star, never NaN), and starts, an
    lp.Starts of N members whose member k is star k's constraint system
    (A (N, M, p), d (N, M), rows (N,); rows past rows[k] read 0.a <= 1)
    and its start. A start that reach_stars leaves has its basic point at
    P[k], unless phase 1 gave it to a child whose cut row cut off its
    parent's. pred_box is a (lower, upper) pair of finite (N, p) arrays
    bounding each star's predicate polytope.

    Indexing builds the i-th Star. lower and upper are the closed-form
    (N, dim) outer bounds, computed on first use. centers holds the input
    box's centre, which the witness search tries first.
    """

    label = None  # the back-end that computed the set, set by bisim.reach
    centers = None  # set by reach_stars

    def __init__(self, C, V, P, starts, pred_box):
        self.C, self.V, self.P = C, V, P
        self.starts, self.pred_box = starts, pred_box

    def __len__(self):
        return len(self.C)

    def __getitem__(self, i):
        s = self.starts
        m = s.rows[i]
        return Star(self.C[i], self.V[i], s.A[i, :m], s.d[i, :m], self.P[i],
                    tuple(b[i] for b in self.pred_box))

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

    def _unsolved(self, idx):
        """The stars idx as a new StarSet whose starts come from phase 1."""
        starts = self.starts.take(idx, self.starts.A.shape[1], np.zeros(len(idx), dtype=bool))
        starts.restart(np.arange(len(idx)))
        return StarSet(self.C[idx], self.V[idx], self.P[idx], starts,
                       tuple(b[idx] for b in self.pred_box))


def _image_bounds(C, V, lo, hi):
    """Bounds of C + V a over lo <= a <= hi for stacked C (N, dim), V (N,
    dim, p) and lo, hi (N, p), each product the one of its star."""
    Vp, Vn = np.maximum(V, 0.0), np.minimum(V, 0.0)
    lo, hi = lo[:, :, None], hi[:, :, None]
    return (C + np.matmul(Vp, lo)[:, :, 0] + np.matmul(Vn, hi)[:, :, 0],
            C + np.matmul(Vp, hi)[:, :, 0] + np.matmul(Vn, lo)[:, :, 0])


def _lp_ranges(st, rows, off, systems, need, keep=False):
    """(lower, upper, lo_pt, hi_pt, ends): the range of off[k] + rows[k] .
    a over the system of star systems[k] and the points that attain its
    ends, by one lp_max_batch for the ends that need[k] (n, 2) asks for
    (column 0 upper, 1 lower). An end not asked for reads off[k] with the
    carried point, one whose LP has no optimum +-inf.

    With keep, ends is (tableau, basis, lo_at, hi_at): the final tableaus
    and bases of the LPs whose end crosses zero (upper > 0, lower < 0),
    each a start whose basic point is that end's point, and per row the
    index there of each end's tableau, -1 where none was kept. Without,
    ends is None.
    """
    lower, upper = off.copy(), off.copy()
    lo_pt, hi_pt = st.P[systems], st.P[systems]
    lo_at, hi_at = np.full(len(off), -1), np.full(len(off), -1)
    ends = None
    flat = np.flatnonzero(need)
    if flat.size:
        who, low = flat // 2, flat % 2 == 1
        sign = np.where(low, -1.0, 1.0)
        # off + sign * value has the sign of sign exactly where value >
        # -sign * off: rounding keeps a sum's sign and gives 0 only for 0.
        res = lp_max_batch(sign[:, None] * rows[who], st.starts, systems[who],
                           -sign * off[who] if keep else None)
        ext = np.where(res.optimal, off[who] + sign * res.value, sign * np.inf)
        upper[who[~low]], hi_pt[who[~low]] = ext[~low], res.point[~low]
        lower[who[low]], lo_pt[who[low]] = ext[low], res.point[low]
        if keep:
            hi_at[who[~low]], lo_at[who[low]] = res.kept[~low], res.kept[low]
            ends = res.tableau, res.basis, lo_at, hi_at
    return lower, upper, lo_pt, hi_pt, ends


def _ordered(lower, upper):
    """(min, max) of two arrays elementwise, as Python's min and max of
    (lower, upper) pick them."""
    return np.where(upper < lower, upper, lower), np.where(upper > lower, upper, lower)


def _range_lps(st, open_, rows, off, tol):
    """Range of neuron rows over the open stars, as far as a decision
    needs it: (lower, upper, point at the lower end, point at the upper
    end, ends), ends as _lp_ranges keeps them.

    The carried point's image shows one side of the range; only the other
    side needs an LP. Otherwise both run, so that a split always has two
    feasible branches. A constant row needs none.
    """
    v = np.matmul(rows[:, None, :], st.P[open_][:, :, None])[:, 0, 0] + off
    live = (np.abs(rows) > 0.0).any(axis=1)
    need = np.stack([~(v > tol) & live, ~(v < -tol) & live], axis=1)
    lower, upper, lo_pt, hi_pt, ends = _lp_ranges(st, rows, off, open_, need, keep=True)
    upper[v > tol] = np.inf
    lower[v < -tol] = -np.inf
    return _ordered(lower, upper) + (lo_pt, hi_pt, ends)


def _cut_box(lo, hi, r, e, point):
    """The finite boxes lo <= a <= hi (n, p) tightened by one cut r[k] . a
    <= e[k] each, in one bound-propagation pass:

        a_j <= (e - sum_{k != j} min(r_k lo_k, r_k hi_k)) / r_j   (r_j > 0)

    and the mirror lower bound where r_j < 0. A zero r_j leaves a_j as it
    is. Each new bound is widened outward by a bound on its rounding
    error, and the box is stretched to hold point, so that the result is
    an outer bound of the cut polytope that contains the point. A bound
    that is not finite (by overflow) is not applied.
    """
    m = np.where(r != 0.0, np.minimum(r * lo, r * hi), 0.0)
    rest = m.sum(axis=1, keepdims=True) - m
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
        lower, upper, lo_pt, hi_pt, ends = _range_lps(st, open_, rows_i[open_], off[open_],
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
    cut = np.concatenate([first[split], first[split] + 1])  # the kept, then the zeroed
    at_open = np.searchsorted(open_, split)
    tableau, basis, lo_at, hi_at = ends
    lp_at = np.concatenate([hi_at[at_open], lo_at[at_open]])
    from_lp = lp_at >= 0
    # A child on the side of a range LP takes that LP's optimum as its
    # point and its final tableau as its start; the other keeps its
    # parent's point and start. Either way the start's basic point is the
    # child's point, where the child's cut row holds with slack |upper|
    # or |lower| > 0, so the row enters the start with its slack basic.
    inherit = np.ones(src.size, dtype=bool)
    inherit[cut[from_lp]] = False
    starts = st.starts.take(src, max(st.starts.A.shape[1], st.starts.rows[split].max() + 1),
                            inherit)
    starts.store(cut[from_lp], tableau, basis, lp_at[from_lp])
    r = np.concatenate([-rows_i[split], rows_i[split]])
    e = np.concatenate([off[split], -off[split]])
    starts.add_row(cut, r, e)
    C, V, P = st.C[src], st.V[src], st.P[src]
    lo, hi = (b[src] for b in st.pred_box)
    P[cut] = np.concatenate([hi_pt[at_open], lo_pt[at_open]])
    lo[cut], hi[cut] = _cut_box(lo[cut], hi[cut], r, e, P[cut])
    z = np.concatenate([first[code == 1], cut[split.size:]])
    C[z, i] = 0.0
    V[z, i, :] = 0.0
    return StarSet(C, V, P, starts, (lo, hi))


def reach_stars(net, box, star_cap=DEFAULT_STAR_CAP):
    """Exact output reachable set of a network over a box as a StarSet.

    The input star is the box's: centre box.center(), basis
    diag((upper - lower) / 2), rows [I; -I] a <= 1, carried point 0 and
    predicate box [-1, 1]^n. A zero-width dimension keeps its zero basis
    column, so the star is flat along it. Raises ShapeError for a box of
    another length than the input width, ValueError for an infinite box
    bound or a star_cap that is not an integer >= 1, and
    ResourceLimitError when the union would exceed star_cap; the interval
    back-end is the fallback at that scale.
    """
    if len(box) != net.input_dim:
        raise ShapeError(f"box length {len(box)} != input_dim {net.input_dim}")
    box.require_finite()
    star_cap = _integer("star_cap", star_cap)
    if star_cap < 1:
        raise ValueError("star_cap must be >= 1")
    n = len(box)
    # Phase 1 of [I; -I] a <= 1 is its slack basis, whose basic point is 0.
    starts = phase_one_batch(np.vstack([np.eye(n), -np.eye(n)])[None], np.ones((1, 2 * n)),
                             [2 * n])
    st = StarSet(box.center()[None], np.diag((box.upper - box.lower) / 2.0)[None],
                 np.zeros((1, n)), starts, (-np.ones((1, n)), np.ones((1, n))))
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
    st.centers = box.center()[None]
    return st


def _lp_boxes(st, chosen, norm, target):
    """Ordered (lower, upper) (len(chosen), dim) of the outputs of stars
    chosen, solved by one lp_max_batch: for the euclidean norm both ends
    of each output coordinate that is not constant, for the max norm only
    the ends whose own closed-form magnitude can reach target. An end not
    asked for reads 0.0."""
    C, V = st.C[chosen], st.V[chosen]
    live = np.flatnonzero((np.abs(V) > 0.0).any(axis=2))  # into C.ravel()
    need = np.ones((live.size, 2), dtype=bool)
    if norm == LINF:
        need[:, 0] = ~(st.upper[chosen].ravel()[live] < target)
        need[:, 1] = ~(-st.lower[chosen].ravel()[live] < target)
    lower, upper = C.copy(), C.copy()
    lo, hi, *_ = _lp_ranges(st, V.reshape(-1, V.shape[2])[live], C.ravel()[live],
                            chosen[live // C.shape[1]], need)
    # An end not asked for cannot hold the supremum. It reads 0.0, not the
    # centre that _lp_ranges leaves there: that can lie outside the star.
    lower.flat[live] = np.where(need[:, 1], lo, 0.0)
    upper.flat[live] = np.where(need[:, 0], hi, 0.0)
    # On a sliver star the two LPs can cross by rounding (~1e-17); the
    # ordered pair still contains both answers.
    return _ordered(lower, upper)


def star_sup_norm(st, norm=LINF):
    """sup of ||y|| over the union of a StarSet's stars.

    Exact for the max norm. For the euclidean norm the per-coordinate
    extremes give sqrt(sum_i max(lo_i^2, hi_i^2)), an upper bound on the
    true supremum (exact maximization of a convex norm is not attempted).

    The largest norm at the stars' carried points, L, is a lower bound
    that needs no LP. Every star whose closed-form bound can reach L is
    solved (_lp_boxes), all in one lp_max_batch from the starts that the
    steps left. The star and end that attain the supremum are among them
    and none exceeds it. From a warm start an LP can end a few ulp away
    from where it ends from phase 1, so the stars whose norm comes within
    DECIDE_TOL of the largest are solved once more from phase 1, in one
    more lp_max_batch, and the largest of those is the result: the one of
    solving every star from phase 1.
    """
    caps = batch_norms(np.maximum(np.abs(st.lower), np.abs(st.upper)), norm)
    at_points = st.C + np.matmul(st.V, st.P[:, :, None])[:, :, 0]
    L = batch_norms(at_points, norm).max()
    target = L - DECIDE_TOL * (1.0 + L)
    # The negations keep a cap or norm that overflowed to NaN chosen.
    chosen = np.flatnonzero(~(caps < target))
    lower, upper = _lp_boxes(st, chosen, norm, target)
    warm = batch_norms(np.maximum(np.abs(lower), np.abs(upper)), norm)
    best = warm.max()
    near = chosen[~(warm < best - DECIDE_TOL * (1.0 + best))]
    fresh = st._unsolved(near)
    return sup_norm_box(BoxBatch(*_lp_boxes(fresh, np.arange(near.size), norm, target)),
                        norm)
