"""Interval bound propagation with optional uniform input splitting.

Boxes travel in batches: n boxes are a BoxBatch whose lower and upper
corners are (n, dim) arrays. One affine layer maps the whole batch with
matrix products against the positive and negative parts of its weights,

    lower' = lower @ W+^T + upper @ W-^T + b
    upper' = upper @ W+^T + lower @ W-^T + b

followed by ReLU on the ReLU columns (Gowal et al., "On the Effectiveness
of Interval Bound Propagation for Training Verifiably Robust Models",
2018). A uniform grid split is just a larger batch, so splitting costs a
few matrix products per layer rather than Python work per cell, and the
plain interval pass is the one-cell grid. bisim.reach returns this batch
for the interval and split methods; it has the members of star.StarSet
(lower, upper, sup_norm, intersects, centers).

Sound but dependency-losing over-approximation of output reachable sets.
Bounds are computed in plain double arithmetic without outward rounding,
so soundness claims hold up to floating-point error.
"""

from collections.abc import Sequence

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .lp import lp_feasible
from .network import Box
from .norms import sup_norm_box

DEFAULT_CELL_CAP = 10**6


class BoxBatch(Sequence):
    """n boxes of one dimension, stored as (n, dim) lower/upper arrays.

    Indexing gives the i-th box as a Box, so a batch reads as a list of
    boxes; the arrays are for whole-batch arithmetic. centers holds one
    input point per box: the centre of the grid cell it bounds (for a
    batch of input cells, their own centres). The witness search tries
    these points first.
    """

    label = None  # the back-end that computed the batch, set by bisim.reach

    def __init__(self, lower, upper, centers=None):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim != 2 or self.lower.shape != self.upper.shape:
            raise ShapeError("batch bounds must be two (n, dim) arrays of one shape")
        self.centers = (self.lower + self.upper) / 2.0 if centers is None else centers

    def __len__(self):
        return self.lower.shape[0]

    def __getitem__(self, i):
        return Box(self.lower[i], self.upper[i])

    def sup_norm(self, norm):
        """Largest sup of ||y|| over the boxes (exact for both norms)."""
        return sup_norm_box(self, norm)

    def intersects(self, i, A, d):
        """True when box i meets {y : A y <= d}, by one LP."""
        eye = np.eye(self.lower.shape[1])
        return lp_feasible(np.vstack([A, eye, -eye]),
                           np.concatenate([d, self.upper[i], -self.lower[i]]))


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _affine_bounds(lower, upper, W, b=0.0):
    """Bounds of W y + b over each row box [lower_i, upper_i] (module docstring)."""
    W_pos, W_neg = np.maximum(W, 0.0).T, np.minimum(W, 0.0).T
    return (lower @ W_pos + upper @ W_neg + b,
            upper @ W_pos + lower @ W_neg + b)


def _propagate(net, lower, upper):
    """Output bounds of every row box [lower_i, upper_i] through net.

    Raises NumericError when finite boxes give non-finite output bounds.
    """
    finite_in = _finite(lower, upper)
    with np.errstate(over="ignore", invalid="ignore"):
        for lay in net.layers:
            lower, upper = _affine_bounds(lower, upper, lay.weights, lay.bias)
            lay.activate_inplace(lower)
            lay.activate_inplace(upper)
    if finite_in and not _finite(lower, upper):
        raise NumericError("interval bounds overflowed: a finite input box "
                           "gave a non-finite output bound")
    return lower, upper


def split_box(box, k):
    """Partition a box into k**dim congruent cells.

    Cells come in grid order, the last dimension varying fastest (the
    order of itertools.product over the per-dimension cell indices).
    """
    if k < 1:
        raise ValueError("cells_per_dim must be >= 1")
    dim = len(box)
    if k**dim > DEFAULT_CELL_CAP:
        raise ResourceLimitError(
            f"{k}^{dim} cells exceeds the cap of {DEFAULT_CELL_CAP}")
    idx = np.indices((k,) * dim).reshape(dim, -1)
    lower = np.empty((k**dim, dim))
    upper = np.empty((k**dim, dim))
    for j in range(dim):
        edges = np.linspace(box.lower[j], box.upper[j], k + 1)
        lower[:, j] = edges[idx[j]]
        upper[:, j] = edges[idx[j] + 1]
    return BoxBatch(lower, upper)


def reach_box_split(net, box, k):
    """Interval bounds of every cell of the uniform k-per-dimension grid;
    their union covers the output set. k = 1 is the plain interval pass.

    Returns the output boxes as a BoxBatch in grid order, each with the
    centre of its input cell.
    """
    if len(box) != net.input_dim:
        raise ShapeError(f"box length {len(box)} != input_dim {net.input_dim}")
    cells = split_box(box, k)
    return BoxBatch(*_propagate(net, cells.lower, cells.upper), cells.centers)
