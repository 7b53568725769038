"""Approximate bisimulation error between two networks over an input box.

The error is the supremum over the input set of the normed output
difference. Upper bounds come from reachability analysis of the merged
difference network; Monte-Carlo sampling of the difference gives a valid
lower bound and serves as an independent cross-check.

reach is where a back-end is chosen, for the error bound here and for
safety verification alike. It returns an interval.BoxBatch (interval and
split) or a star.StarSet (exact); both give closed-form outer bounds,
sup_norm, an LP intersection test and the witness-search centres.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .errors import NumericError, ShapeError
from .interval import reach_box_split
from .merge import _check_pair, merge
from .network import _blocks, _workspace
from .norms import LINF, batch_norms, check_norm
from .star import DEFAULT_STAR_CAP, reach_stars

METHOD_INTERVAL = "interval"
METHOD_SPLIT = "split"
METHOD_EXACT = "exact"
METHODS = (METHOD_INTERVAL, METHOD_SPLIT, METHOD_EXACT)
DEFAULT_METHOD = METHOD_INTERVAL
DEFAULT_SPLITS = 4
# The compressed path defaults to split: one interval cell is rarely tight
# enough for a Safe verdict to lift.
DEFAULT_COMPRESSED_METHOD = METHOD_SPLIT


@dataclass
class ErrorBound:
    """A certified bracket on the bisimulation error.

    epsilon_upper is always sound; epsilon_lower is zero unless the method
    is exact in the chosen norm, in which case the two coincide.
    """

    epsilon_upper: float
    epsilon_lower: float
    method: str
    norm: str
    wall_time_seconds: float

    def __post_init__(self):
        if not np.isfinite(self.epsilon_upper):
            raise NumericError(f"epsilon_upper must be finite, got {self.epsilon_upper}")
        if self.epsilon_lower > self.epsilon_upper + 1e-9:
            raise ValueError("epsilon_lower exceeds epsilon_upper")


def _integer(name, value):
    """value as an int: Python and numpy integers pass; bools and floats,
    which range and slicing would reject or truncate, are a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def reach(net, box, method, splits=None, star_cap=DEFAULT_STAR_CAP):
    """Outer bound of net's output set over box, by the named back-end.

    method:
      "interval"  one interval pass (the one-cell grid; fast, loose)
      "split"     interval pass over all cells of a uniform grid at once,
                  `splits` cells per dimension
      "exact"     star-set reachability; exact
    Returns a BoxBatch for the first two and a StarSet for exact; label
    names the back-end. A splits that is not an integer is a ValueError,
    whatever the method.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    if splits is not None:
        splits = _integer("splits", splits)
    box.require_finite()
    if method == METHOD_EXACT:
        reached = reach_stars(net, box, star_cap=star_cap)
        reached.label = "exact-star"
    elif method == METHOD_SPLIT:
        k = DEFAULT_SPLITS if splits is None else splits
        reached = reach_box_split(net, box, k)
        reached.label = f"interval-split({k})"
    else:
        reached = reach_box_split(net, box, 1)
        reached.label = METHOD_INTERVAL
    return reached


def bisim_error_upper(net_big, net_small, box, method=DEFAULT_METHOD,
                      norm=LINF, splits=None, star_cap=DEFAULT_STAR_CAP):
    """Certified upper bound on sup_x ||big(x) - small(x)|| over the box,
    from reach on the merged network; exact in the max norm with the
    exact method."""
    check_norm(norm)
    if splits is not None:  # reach checks it too, but only after the merge
        _integer("splits", splits)
    t0 = perf_counter()
    reached = reach(merge(net_big, net_small), box, method, splits, star_cap)
    eps = reached.sup_norm(norm)
    lower = eps if (method == METHOD_EXACT and norm == LINF) else 0.0
    return ErrorBound(epsilon_upper=eps, epsilon_lower=lower,
                      method=reached.label, norm=norm,
                      wall_time_seconds=perf_counter() - t0)


def bisim_error_lower_mc(net_big, net_small, box, samples, seed, norm=LINF,
                         jobs=1):
    """Sampled lower bound on the bisimulation error.

    The samples are the rows of box.sample(np.random.default_rng(seed),
    samples), in forward_batch's blocks (network._blocks). Thread t of
    jobs takes every jobs-th block from block t, drawing its rows from
    its own generator, seeded alike and advanced past the blocks it
    skips: PCG64 draws one value per coordinate, so these are the rows of
    the one-pass matrix. A thread runs each block through both nets into
    buffers allocated once and keeps only the worst norm so far, so
    memory grows with jobs and the widest layer, not with samples, and
    the result does not depend on jobs (bit for bit on one BLAS thread).
    Raises MergePreconditionError when the nets' input or output widths
    differ, ShapeError for a box of another width, and NumericError when
    an output difference is not finite, and ValueError for samples or
    jobs that are not integers >= 1.
    """
    check_norm(norm)
    samples, jobs = _integer("samples", samples), _integer("jobs", jobs)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    _check_pair(net_big, net_small)
    if len(box) != net_big.input_dim:
        raise ShapeError(f"box length {len(box)} != input_dim {net_big.input_dim}")
    box.require_finite()
    blocks = _blocks(samples)
    shares = [blocks[t::jobs] for t in range(min(jobs, len(blocks)))]
    # Allocated here: what a worker thread allocates stays in its own
    # malloc arena after it ends.
    rows = max(b - a for a, b in blocks)
    buffers = [(_workspace(rows, net_big, net_small), np.empty((rows, net_big.output_dim)),
                np.empty((rows, net_small.output_dim))) for _ in shares]

    def worst(share, buffers):
        work, Y_big, Y_small = buffers
        rng, drawn = np.random.default_rng(seed), 0
        lower = -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            for a, b in share:
                rng.bit_generator.advance((a - drawn) * len(box))
                drawn = b
                X, D, Y = box.sample(rng, b - a), Y_big[:b - a], Y_small[:b - a]
                net_big._forward_block(X, D, work)
                net_small._forward_block(X, Y, work)
                D -= Y
                top = np.abs(D, out=D).max() if norm == LINF else batch_norms(D, norm).max()
                lower = np.maximum(lower, top)  # keeps a nan
        return lower

    if len(shares) > 1:
        with ThreadPoolExecutor(max_workers=len(shares)) as pool:
            lower = np.max(list(pool.map(worst, shares, buffers)))
    else:
        lower = worst(shares[0], buffers[0])
    if not np.isfinite(lower):
        raise NumericError(f"sampled output difference is not finite: {lower}")
    return float(lower)
