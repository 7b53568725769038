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

from .errors import NumericError
from .interval import reach_box_split
from .merge import merge
from .network import chunk_cuts
from .norms import LINF, batch_norms, check_norm
from .star import DEFAULT_STAR_CAP, box_to_star, reach_stars

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


def reach(net, box, method, splits=None, star_cap=DEFAULT_STAR_CAP):
    """Outer bound of net's output set over box, by the named back-end.

    method:
      "interval"  one interval pass (the one-cell grid; fast, loose)
      "split"     interval pass over all cells of a uniform grid at once,
                  `splits` cells per dimension
      "exact"     star-set reachability; exact
    Returns a BoxBatch for the first two and a StarSet for exact; label
    names the back-end.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}, expected one of {METHODS}")
    box.require_finite()
    if method == METHOD_EXACT:
        reached = reach_stars(net, box_to_star(box), star_cap=star_cap)
        reached.label = "exact-star"
    elif method == METHOD_SPLIT:
        k = DEFAULT_SPLITS if splits is None else int(splits)
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

    The sample matrix is generated in one pass from the seed, and jobs
    threads evaluate it in chunks of whole forward_batch blocks, so the
    result does not depend on jobs (bit for bit on one BLAS thread). Raises
    NumericError when an output difference is not finite.
    """
    check_norm(norm)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    box.require_finite()
    rng = np.random.default_rng(seed)
    X = box.sample(rng, samples)

    def worst(chunk):
        with np.errstate(over="ignore", invalid="ignore"):
            D = net_big.forward_batch(chunk) - net_small.forward_batch(chunk)
            return batch_norms(D, norm).max()

    chunks = np.split(X, chunk_cuts(samples, jobs))
    if len(chunks) > 1:
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            lower = np.max(list(pool.map(worst, chunks)))
    else:
        lower = worst(X)
    if not np.isfinite(lower):
        raise NumericError(f"sampled output difference is not finite: {lower}")
    return float(lower)

