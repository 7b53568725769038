"""Norm helpers shared by the error-bound and verification code.

Two norms are supported on output space: the max norm ("inf") and the
euclidean norm ("l2"). Halfspace inflation uses the dual norm: L1 for the
max norm, euclidean for euclidean.
"""

import numpy as np

LINF = "inf"
L2 = "l2"
NORMS = (LINF, L2)


def check_norm(norm):
    if norm not in NORMS:
        raise ValueError(f"unknown norm {norm!r}, expected one of {NORMS}")
    return norm


def batch_norms(Y, norm=LINF):
    """Row-wise norms of a (n, dim) array."""
    if norm == LINF:
        return np.max(np.abs(Y), axis=1)
    check_norm(norm)
    return np.linalg.norm(Y, axis=1)


def dual_norm(a, norm=LINF):
    a = np.asarray(a, dtype=float)
    if norm == LINF:
        return float(np.sum(np.abs(a)))
    check_norm(norm)
    return float(np.linalg.norm(a))


def sup_norm_box(box, norm=LINF):
    """sup of ||y|| over an interval box (exact for both norms): the norm
    of its corner farthest from 0, |y_i| = max(|lower_i|, |upper_i|).

    Also takes a batch of boxes with (n, dim) bounds, giving the largest
    sup over the batch.
    """
    worst = np.maximum(np.abs(box.lower), np.abs(box.upper))
    return float(batch_norms(np.atleast_2d(worst), norm).max())
