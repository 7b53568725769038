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
suprema are those of running both range LPs at every neuron. The LPs that
do run on one constraint system share one simplex phase 1 (see lp.py).

reach_stars returns a StarSet, which bisim.reach hands out for the exact
method. It has the members of interval.BoxBatch: closed-form bounds,
sup_norm, an LP intersection test and witness-search centres.

Practical on small networks only; the star count is capped.
"""

from collections.abc import Sequence
from functools import cached_property

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .interval import BoxBatch
from .lp import lp_feasible, lp_max, phase_one
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
    when unknown). Affine maps and zeroed rows keep both; a cut keeps the
    box only. The phase-1 start of the constraint system is built on the
    first LP and shared with every star that keeps the same constraint
    arrays.
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

    def _derive(self, center, basis, constr_mat, constr_rhs, point):
        star = Star(center, basis, constr_mat, constr_rhs)
        star.point = point
        star.pred_box = self.pred_box
        if constr_mat is self.constr_mat and constr_rhs is self.constr_rhs:
            star._start = self._start
        return star

    def _lp_max(self, objective):
        """lp_max of objective over the predicate polytope, from the
        star's phase-1 start (built here on first use)."""
        if self._start is None:
            self._start = phase_one(self.constr_mat, self.constr_rhs)
        return lp_max(objective, self.constr_mat, self.constr_rhs,
                      start=self._start)

    def affine(self, W, b):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return self._derive(W @ self.center + b, W @ self.basis,
                            self.constr_mat, self.constr_rhs, self.point)

    def with_constraint(self, a, b):
        """The star cut by a @ pred <= b; the cut may exclude the point, so
        the result has none."""
        return self._derive(self.center, self.basis,
                            np.vstack([self.constr_mat, a]),
                            np.append(self.constr_rhs, b), None)

    def with_zeroed_row(self, i):
        c = self.center.copy()
        V = self.basis.copy()
        c[i] = 0.0
        V[i, :] = 0.0
        return self._derive(c, V, self.constr_mat, self.constr_rhs, self.point)

    def _extreme(self, i, sign):
        """Max (sign=1) or min (sign=-1) of output coordinate i by one LP.

        Returns the value and a predicate point attaining it (None when the
        LP has no optimum, and the value is then infinite).
        """
        row = self.basis[i]
        off = self.center[i]
        if not np.any(np.abs(row) > 0.0):
            return off, self.point
        res = self._lp_max(sign * row)
        if not res.optimal:
            return sign * np.inf, None
        return off + sign * res.value, res.point

    def coord_range(self, i):
        """Exact [lo, hi] of output coordinate i over the star (via two LPs)."""
        upper, _ = self._extreme(i, 1.0)
        lower, _ = self._extreme(i, -1.0)
        # On a sliver star the two LPs can cross by rounding (~1e-17);
        # the ordered pair still contains both answers.
        return min(lower, upper), max(lower, upper)


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
    feasible; a missing box costs 2p LPs, one per predicate bound. All of
    them share one phase 1. Raises ValueError for an infeasible star.
    """
    p = star.basis.shape[1]
    out = star._derive(star.center, star.basis, star.constr_mat,
                       star.constr_rhs, star.point)
    if out.point is None:
        res = out._lp_max(np.zeros(p))
        if not res.optimal:
            raise ValueError("star constraint set is infeasible")
        out.point = res.point
    if out.pred_box is None:
        eye = np.eye(p)
        highs = [out._lp_max(e) for e in eye]
        lows = [out._lp_max(-e) for e in eye]
        out.pred_box = (np.array([-r.value if r.optimal else -np.inf for r in lows]),
                        np.array([r.value if r.optimal else np.inf for r in highs]))
    return out


def _split_relu(star, i):
    row = star.basis[i]
    off = star.center[i]
    tol = DECIDE_TOL * (1.0 + abs(off) + np.abs(row).sum())
    lo_bound, hi_bound = _image_bounds(off, row, *star.pred_box)
    if lo_bound > tol:
        return [star]
    if hi_bound < -tol:
        return [star.with_zeroed_row(i)]
    # The carried point's image shows one side of the range; only the
    # other side needs an LP. Otherwise both run, so that a split always
    # has two feasible branches.
    v = np.nan if star.point is None else row @ star.point + off
    if v > tol:
        hi, hi_pt = np.inf, star.point
    else:
        hi, hi_pt = star._extreme(i, 1.0)
    if v < -tol:
        lo, lo_pt = -np.inf, star.point
    else:
        lo, lo_pt = star._extreme(i, -1.0)
    lo, hi = min(lo, hi), max(lo, hi)
    if lo >= 0.0:
        return [star]
    if hi <= 0.0:
        return [star.with_zeroed_row(i)]
    # Pre-activation straddles zero: branch on its sign. Each branch gets
    # a point on its own side; boundary overlap is measure-zero.
    pos = star.with_constraint(-row, off)
    neg = star.with_constraint(row, -off).with_zeroed_row(i)
    pos.point, neg.point = hi_pt, lo_pt
    return [pos, neg]


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
    stars = [_with_pred_box(star)]
    for k, lay in enumerate(net.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            stars = [s.affine(lay.weights, lay.bias) for s in stars]
        if not all(np.isfinite(s.center).all() and np.isfinite(s.basis).all()
                   for s in stars):
            raise NumericError(f"star overflowed: non-finite centre or basis "
                               f"after layer {k}")
        for i in np.flatnonzero(lay.relu_mask):
            nxt = []
            for s in stars:
                nxt.extend(_split_relu(s, int(i)))
            if len(nxt) > star_cap:
                raise ResourceLimitError(
                    f"star count {len(nxt)} exceeds cap {star_cap}")
            stars = nxt
    return StarSet(stars, star.center[None, :])


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
        lows, highs = zip(*(stars[k].coord_range(i) for i in range(stars[k].dim)))
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
