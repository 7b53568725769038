"""Interval bound propagation with optional uniform input splitting.

Boxes travel in batches: n boxes are a BoxBatch whose lower and upper
corners are (n, dim) arrays. One affine layer maps the whole batch with
matrix products against the positive and negative parts of its weights,

    lower' = lower @ W+^T + upper @ W-^T + b
    upper' = upper @ W+^T + lower @ W-^T + b

followed by ReLU on the ReLU columns (Gowal et al., "On the Effectiveness
of Interval Bound Propagation for Training Verifiably Robust Models",
2018). A uniform grid split is just a larger batch, so splitting costs a
few matrix products per layer rather than Python work per cell.

Sound but dependency-losing over-approximation of output reachable sets.
Bounds are computed in plain double arithmetic without outward rounding,
so soundness claims hold up to floating-point error.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ResourceLimitError, ShapeError
from .network import Box

DEFAULT_CELL_CAP = 10**6


@dataclass(frozen=True)
class SplitConfig:
    """Uniform grid refinement: each input dimension is cut into k cells."""

    cells_per_dim: int
    max_cells: int = DEFAULT_CELL_CAP

    def __post_init__(self):
        if self.cells_per_dim < 1:
            raise ValueError("cells_per_dim must be >= 1")
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")


class BoxBatch(Sequence):
    """n boxes of one dimension, stored as (n, dim) lower/upper arrays.

    Indexing gives the i-th box as a Box, so a batch reads as a list of
    boxes; the arrays are for whole-batch arithmetic.
    """

    def __init__(self, lower, upper):
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if self.lower.ndim != 2 or self.lower.shape != self.upper.shape:
            raise ShapeError("batch bounds must be two (n, dim) arrays of one shape")

    def __len__(self):
        return self.lower.shape[0]

    def __getitem__(self, i):
        return Box(self.lower[i], self.upper[i])

    def center(self):
        """Box centers, one row per box."""
        return (self.lower + self.upper) / 2.0


def affine_bounds(W, b, box):
    """Bounds of {W x + b : x in box}, row by row.

    Each row picks box.lower where the weight is nonnegative and box.upper
    where it is negative (and the mirror for the upper bound).
    """
    W = np.atleast_2d(np.asarray(W, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if W.shape[1] != len(box):
        raise ShapeError(f"weight cols {W.shape[1]} != box length {len(box)}")
    nonneg = W >= 0
    lo_pick = np.where(nonneg, box.lower, box.upper)
    hi_pick = np.where(nonneg, box.upper, box.lower)
    lower = b + (W * lo_pick).sum(axis=1)
    upper = b + (W * hi_pick).sum(axis=1)
    return Box(lower, upper)


def act_bounds(relu_mask, box):
    """Apply per-neuron activations to an interval vector."""
    relu_mask = np.asarray(relu_mask, dtype=bool)
    if relu_mask.shape[0] != len(box):
        raise ShapeError("activation vector length != box length")
    lower = np.where(relu_mask, np.maximum(box.lower, 0.0), box.lower)
    upper = np.where(relu_mask, np.maximum(box.upper, 0.0), box.upper)
    return Box(lower, upper)


def _finite(*arrays):
    return all(np.isfinite(a).all() for a in arrays)


def _propagate(net, lower, upper):
    """Output bounds of every row box [lower_i, upper_i] through net.

    Raises NumericError when finite boxes give non-finite output bounds.
    """
    finite_in = _finite(lower, upper)
    with np.errstate(over="ignore", invalid="ignore"):
        for lay in net.layers:
            W_pos = np.maximum(lay.weights, 0.0).T
            W_neg = np.minimum(lay.weights, 0.0).T
            lower, upper = (lower @ W_pos + upper @ W_neg + lay.bias,
                            upper @ W_pos + lower @ W_neg + lay.bias)
            lay.activate_inplace(lower)
            lay.activate_inplace(upper)
    if finite_in and not _finite(lower, upper):
        raise NumericError("interval bounds overflowed: a finite input box "
                           "gave a non-finite output bound")
    return lower, upper


def reach_box(net, box):
    """Interval over-approximation of the output reachable set."""
    if len(box) != net.input_dim:
        raise ShapeError(f"box length {len(box)} != input_dim {net.input_dim}")
    lower, upper = _propagate(net, box.lower[None, :], box.upper[None, :])
    return Box(lower[0], upper[0])


def split_box(box, cfg):
    """Partition a box into cfg.cells_per_dim**dim congruent cells.

    Cells come in grid order, the last dimension varying fastest (the
    order of itertools.product over the per-dimension cell indices).
    """
    k = cfg.cells_per_dim
    dim = len(box)
    if k**dim > cfg.max_cells:
        raise ResourceLimitError(
            f"{k}^{dim} cells exceeds the cap of {cfg.max_cells}")
    idx = np.indices((k,) * dim).reshape(dim, -1)
    lower = np.empty((k**dim, dim))
    upper = np.empty((k**dim, dim))
    for j in range(dim):
        edges = np.linspace(box.lower[j], box.upper[j], k + 1)
        lower[:, j] = edges[idx[j]]
        upper[:, j] = edges[idx[j] + 1]
    return BoxBatch(lower, upper)


def reach_box_split(net, box, cfg):
    """reach_box on every cell of the uniform grid; union covers the truth.

    Returns the output boxes as a BoxBatch in grid order.
    """
    if len(box) != net.input_dim:
        raise ShapeError(f"box length {len(box)} != input_dim {net.input_dim}")
    cells = split_box(box, cfg)
    return BoxBatch(*_propagate(net, cells.lower, cells.upper))
