"""Exact ReLU reachability on star sets.

A star is {c + V a : A a <= d}: the affine image of a polytope in
predicate space. Affine layers act on (c, V) only; each ReLU neuron splits
a star into the halfspace where its pre-activation is nonnegative (kept
as-is) and the one where it is nonpositive (output row zeroed). Predicate
coordinates never change, so any feasible predicate point maps back to a
concrete input of the original set.

Practical on small networks only; the star count is capped.
"""

import numpy as np

from .errors import ResourceLimitError, ShapeError
from .lp import lp_max
from .network import Box
from .norms import LINF, sup_norm_box

DEFAULT_STAR_CAP = 10**5


class Star:
    """Affine image of a polytope: {center + basis @ a : constr_mat @ a <= constr_rhs}."""

    def __init__(self, center, basis, constr_mat, constr_rhs, check=True):
        self.center = np.atleast_1d(np.asarray(center, dtype=float))
        self.basis = np.atleast_2d(np.asarray(basis, dtype=float))
        self.constr_mat = np.asarray(constr_mat, dtype=float)
        self.constr_rhs = np.atleast_1d(np.asarray(constr_rhs, dtype=float))
        p = self.basis.shape[1]
        if self.constr_mat.size == 0:
            self.constr_mat = self.constr_mat.reshape(self.constr_rhs.shape[0], p)
        if self.basis.shape[0] != self.center.shape[0]:
            raise ShapeError("basis rows != center length")
        if self.constr_mat.shape != (self.constr_rhs.shape[0], p):
            raise ShapeError("constraint shapes inconsistent with basis columns")
        if check and not lp_max(np.zeros(p), self.constr_mat, self.constr_rhs).optimal:
            raise ValueError("star constraint set is infeasible")

    @property
    def dim(self):
        return self.center.shape[0]

    def affine(self, W, b):
        W = np.atleast_2d(np.asarray(W, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        return Star(W @ self.center + b, W @ self.basis,
                    self.constr_mat, self.constr_rhs, check=False)

    def with_constraint(self, a, b):
        return Star(self.center, self.basis,
                    np.vstack([self.constr_mat, a]),
                    np.append(self.constr_rhs, b), check=False)

    def with_zeroed_row(self, i):
        c = self.center.copy()
        V = self.basis.copy()
        c[i] = 0.0
        V[i, :] = 0.0
        return Star(c, V, self.constr_mat, self.constr_rhs, check=False)

    def coord_range(self, i):
        """Exact [lo, hi] of output coordinate i over the star (via two LPs)."""
        row = self.basis[i]
        off = self.center[i]
        if not np.any(np.abs(row) > 0.0):
            return off, off
        hi = lp_max(row, self.constr_mat, self.constr_rhs)
        lo = lp_max(-row, self.constr_mat, self.constr_rhs)
        upper = off + hi.value if hi.optimal else np.inf
        lower = off - lo.value if lo.optimal else -np.inf
        # On a sliver star the two LPs can cross by rounding (~1e-17);
        # the ordered pair still contains both answers.
        return min(lower, upper), max(lower, upper)

    def bounding_box(self):
        lows, highs = zip(*(self.coord_range(i) for i in range(self.dim)))
        return Box(np.array(lows), np.array(highs))


def box_to_star(box):
    """Lift a box to a star: midpoint center, half-width diagonal basis, |a_i| <= 1.

    Degenerate dimensions keep their zero basis column; the star collapses
    to a point along them.
    """
    half = (box.upper - box.lower) / 2.0
    n = len(box)
    return Star(box.center(), np.diag(half),
                np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n), check=False)


def _split_relu(star, i):
    lo, hi = star.coord_range(i)
    row = star.basis[i]
    off = star.center[i]
    if lo >= 0.0:
        return [star]
    if hi <= 0.0:
        return [star.with_zeroed_row(i)]
    # Pre-activation straddles zero: branch on its sign. Both branches are
    # feasible here because lo < 0 < hi; boundary overlap is measure-zero.
    pos = star.with_constraint(-row, off)
    neg = star.with_constraint(row, -off).with_zeroed_row(i)
    return [pos, neg]


def reach_stars(net, star, star_cap=DEFAULT_STAR_CAP):
    """Exact output reachable set of a network as a union of stars.

    Raises ResourceLimitError when the union would exceed star_cap; the
    interval back-end is the fallback at that scale.
    """
    if star.dim != net.input_dim:
        raise ShapeError(f"star dim {star.dim} != input_dim {net.input_dim}")
    if star_cap < 1:
        raise ValueError("star_cap must be >= 1")
    stars = [star]
    for lay in net.layers:
        stars = [s.affine(lay.weights, lay.bias) for s in stars]
        for i in np.flatnonzero(lay.relu_mask):
            nxt = []
            for s in stars:
                nxt.extend(_split_relu(s, int(i)))
            if len(nxt) > star_cap:
                raise ResourceLimitError(
                    f"star count {len(nxt)} exceeds cap {star_cap}")
            stars = nxt
    return stars


def star_sup_norm(stars, norm=LINF):
    """sup of ||y|| over a union of stars.

    Exact for the max norm. For the euclidean norm the per-coordinate
    extremes give sqrt(sum_i max(lo_i^2, hi_i^2)), an upper bound on the
    true supremum (exact maximization of a convex norm is not attempted).
    """
    if not stars:
        raise ValueError("empty star list")
    best = 0.0
    for s in stars:
        box = s.bounding_box()
        best = max(best, sup_norm_box(box, norm))
    return best
