"""Reachability-based safety verification and the compressed-network path.

The unsafe region is a union of halfspace conjunctions over the output
space. A network is safe when its output reachable set misses every
unsafe polytope; verification over-approximates the reachable set, so the
three-valued verdict is Safe / Unsafe (with a concrete witness) /
Uncertain. Every method goes through bisim.reach; verification reads only
the members that its two kinds of reach set share.

Verifying through a compressed stand-in works by inflating the unsafe
region by the certified bisimulation error: a Safe verdict on the small
network then lifts to the original, while anything else stays Uncertain.
"""

import csv
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from .bisim import (DEFAULT_COMPRESSED_METHOD, DEFAULT_METHOD,
                    bisim_error_upper, reach)
from .errors import NumericError, ShapeError
from .interval import _affine_bounds
from .lp import FEAS_TOL
from .norms import LINF, check_norm, dual_norm
from .star import DEFAULT_STAR_CAP

SAFE = "Safe"
UNSAFE = "Unsafe"
UNCERTAIN = "Uncertain"

DEFAULT_SEED = 42
SEARCH_SAMPLES = 10**4


class LinearSpec:
    """Unsafe region as a union of polytopes: any (A, d) with A y <= d is unsafe."""

    def __init__(self, unsafe_polytopes):
        self.unsafe_polytopes = []
        for j, (A, d) in enumerate(unsafe_polytopes):
            A = np.atleast_2d(np.asarray(A, dtype=float))
            d = np.atleast_1d(np.asarray(d, dtype=float))
            if A.shape[0] != d.shape[0]:
                raise ShapeError("polytope rows != rhs length")
            if A.shape[0] < 1:
                raise ValueError("unsafe polytope must have at least one constraint")
            bad = np.flatnonzero(~(np.isfinite(A).all(axis=1) & np.isfinite(d)))
            if bad.size:
                raise ValueError(f"unsafe polytope {j}, row {bad[0]}: constraint must be finite")
            self.unsafe_polytopes.append((A, d))

    def holds_at(self, y):
        """True when y lies in the unsafe region (exact comparisons)."""
        y = np.asarray(y, dtype=float)
        return any(bool(np.all(A @ y <= d)) for A, d in self.unsafe_polytopes)


@dataclass
class Verdict:
    status: str
    witness: np.ndarray | None = None

    def __post_init__(self):
        if self.status not in (SAFE, UNSAFE, UNCERTAIN):
            raise ValueError(f"bad verdict status {self.status!r}")
        if (self.witness is not None) != (self.status == UNSAFE):
            raise ValueError("witness present iff status is Unsafe")


@dataclass
class BisimReport:
    """One row of a verification report (table-style).

    verify_via_compressed fills the small side; the large columns stay
    None unless a caller times verify on the large network and sets them
    with dataclasses.replace, which runs these checks again.
    """

    network_id: str
    epsilon: float
    time_large_seconds: float | None
    time_small_seconds: float
    verdict_large: Verdict | None
    verdict_small: Verdict

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.time_small_seconds < 0 or (
                self.time_large_seconds is not None and self.time_large_seconds < 0):
            raise ValueError("times must be nonnegative")


def _check_spec_dim(net, spec):
    for A, _ in spec.unsafe_polytopes:
        if A.shape[1] != net.output_dim:
            raise ShapeError(
                f"spec constraints over {A.shape[1]} outputs, network has {net.output_dim}")


def _clear(reached, spec):
    """True when every set of a reach set misses every unsafe polytope.

    reached.lower and .upper are (n, dim) outer bounds of the n sets; the
    lower end of interval._affine_bounds over them is min a.y for every
    row at once. A set on which some row's minimum exceeds d + FEAS_TOL
    misses that polytope outright. Only the sets left over go to
    reached.intersects(i, A, d), the LP.
    """
    for A, d in spec.unsafe_polytopes:
        row_min = _affine_bounds(reached.lower, reached.upper, A)[0]
        missed = np.any(row_min > d + FEAS_TOL, axis=1)
        if any(reached.intersects(i, A, d) for i in np.flatnonzero(~missed)):
            return False
    return True


def verify(net, box, spec, method=DEFAULT_METHOD, splits=None,
           star_cap=DEFAULT_STAR_CAP, seed=DEFAULT_SEED):
    """Three-valued safety check of net over box against spec.

    Safe is proved by disjointness of the over-approximate output set from
    every unsafe polytope. Otherwise a deterministic counterexample search
    (the reach set's centres, then seeded random samples) either produces
    an Unsafe witness or falls back to Uncertain.
    """
    _check_spec_dim(net, spec)
    reached = reach(net, box, method, splits, star_cap)
    if _clear(reached, spec):
        return Verdict(SAFE)

    # Over-approximation touched the unsafe region: hunt for a real witness.
    rng = np.random.default_rng(seed)
    candidates = np.vstack([reached.centers, box.sample(rng, SEARCH_SAMPLES)])
    Y = net.forward_batch(candidates)
    hits = np.zeros(len(candidates), dtype=bool)
    for A, d in spec.unsafe_polytopes:
        hits |= np.all(Y @ A.T <= d, axis=1)
    for idx in np.flatnonzero(hits):
        x = candidates[idx]
        if spec.holds_at(net.forward(x)):  # re-check on the scalar path
            return Verdict(UNSAFE, witness=x)
    return Verdict(UNCERTAIN)


def inflate_spec(spec, eps, norm=LINF):
    """Expand each unsafe halfspace a.y <= b to a.y <= b + eps*||a||_dual.

    The result contains the Minkowski sum of the unsafe region with the
    eps-ball of the given norm; eps = 0 returns the spec unchanged. A
    shifted bound that overflows raises NumericError.
    """
    check_norm(norm)
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return spec
    inflated = []
    for j, (A, d) in enumerate(spec.unsafe_polytopes):
        shifted = d + np.array([eps * dual_norm(row, norm) for row in A])
        bad = np.flatnonzero(~np.isfinite(shifted))
        if bad.size:
            raise NumericError(f"inflated unsafe bound overflowed: polytope {j}, row {bad[0]}")
        inflated.append((A, shifted))
    return LinearSpec(inflated)


def verify_via_compressed(net_big, net_small, box, spec,
                          method=DEFAULT_COMPRESSED_METHOD,
                          splits=None, norm=LINF, star_cap=DEFAULT_STAR_CAP,
                          network_id="pair"):
    """Verify net_big through its compressed stand-in net_small.

    Computes the certified error bound and lifts a Safe verdict to the
    original when the small network's reach set misses the inflated unsafe
    region, and says Uncertain otherwise: an intersection proves nothing
    about net_big, so no witness is searched for. time_small_seconds covers
    the error bound plus that Safe test. A spec of another width than
    net_small's output is a ShapeError before any work. The report's large
    columns are None; verify runs net_big directly.
    """
    _check_spec_dim(net_small, spec)
    t0 = perf_counter()
    bound = bisim_error_upper(net_big, net_small, box, method=method,
                              norm=norm, splits=splits, star_cap=star_cap)
    inflated = inflate_spec(spec, bound.epsilon_upper, norm)
    reached = reach(net_small, box, method, splits, star_cap)
    small = Verdict(SAFE if _clear(reached, inflated) else UNCERTAIN)
    return BisimReport(network_id=network_id, epsilon=bound.epsilon_upper,
                       time_large_seconds=None,
                       time_small_seconds=perf_counter() - t0,
                       verdict_large=None, verdict_small=small)


CSV_HEADER = "id,epsilon,time_large_s,time_small_s,verdict_large,verdict_small"


def report_csv(reports):
    """CSV serialization of report rows, quoted by csv.writer; absent
    optionals are empty. The writer hands each row to one write call,
    ended in CR LF so that it quotes a field holding a bare CR as well as
    LF; the rows are then ended in LF alone."""
    rows = []
    writer = csv.writer(SimpleNamespace(write=rows.append), lineterminator="\r\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows([r.network_id, repr(float(r.epsilon)),
                      "" if r.time_large_seconds is None else f"{r.time_large_seconds:.5f}",
                      f"{r.time_small_seconds:.5f}",
                      "" if r.verdict_large is None else r.verdict_large.status,
                      r.verdict_small.status] for r in reports)
    return "".join(row.removesuffix("\r\n") + "\n" for row in rows)


def report_table(reports):
    """Human-readable table with the classic ID / eps / T_L / T_S / V_L / V_S columns."""
    header = f"{'ID':<12} {'epsilon':>12} {'T_L (s)':>12} {'T_S (s)':>12} {'V_L':>10} {'V_S':>10}"
    lines = [header, "-" * len(header)]
    for r in reports:
        t_large = "-" if r.time_large_seconds is None else f"{r.time_large_seconds:.5f}"
        v_large = "-" if r.verdict_large is None else r.verdict_large.status
        lines.append(f"{r.network_id:<12} {r.epsilon:>12.6g} {t_large:>12} "
                     f"{r.time_small_seconds:>12.5f} {v_large:>10} {r.verdict_small.status:>10}")
    return "\n".join(lines) + "\n"
