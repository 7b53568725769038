"""Small dense LP solver: maximize c.x subject to A x <= d, x free.

Two-phase simplex on the standard form obtained by splitting free
variables and adding slacks. Entering columns follow Bland's rule
(smallest eligible index) and ratio-test ties are broken by smallest
basic-variable index, so the solve is deterministic and cannot cycle.
Reduced costs are recomputed from the tableau every iteration.

Phase 1 never reads the objective (Dantzig, "Linear Programming and
Extensions", ch. 5), so phase_one runs it once per constraint system and
returns an immutable LPStart. lp_max runs phase 2 on a copy of a given
start, or runs phase 1 itself when none is given; either way the same
pivots run on the same tableau, so the results are identical bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLPError, ShapeError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

FEAS_TOL = 1e-9    # feasibility / reduced-cost tolerance
PIVOT_MIN = 1e-11  # pivots below this are numeric breakdown
ZERO_TOL = 1e-13   # entries below this count as zero


@dataclass
class LPResult:
    status: str
    value: float
    point: np.ndarray | None

    @property
    def optimal(self):
        return self.status == OPTIMAL


def _pivot(T, basis, r, j):
    piv = T[r, j]
    if abs(piv) < PIVOT_MIN:
        raise DegenerateLPError(f"pivot {piv:.3e} below {PIVOT_MIN:g}")
    piv_row = T[r] / piv
    T -= T[:, j, None] * piv_row
    T[r] = piv_row
    T[:, j] = 0.0
    T[r, j] = 1.0
    basis[r] = j
    # tiny negative rhs is rounding noise
    rhs = T[:, -1]
    rhs[(rhs < 0.0) & (rhs > -FEAS_TOL)] = 0.0


def _min_ratio(T, basis, rows, j):
    """Row of rows with the least rhs / T[row, j], ties to the smallest
    basic-variable index."""
    ratios = T[rows, -1] / T[rows, j]
    cand = rows[ratios <= ratios.min()]
    return int(cand[np.argmin(basis[cand])])


def _ratio_row(T, basis, j):
    """Leaving row for entering column j, or None when the column opens up.

    A winning entry below PIVOT_MIN is no pivot. Rows with entries that
    small then leave the test when the step set by the other rows moves
    each of them by at most FEAS_TOL; otherwise the winner stands and the
    pivot raises.
    """
    col = T[:, j]
    rows = (col > ZERO_TOL).nonzero()[0]
    if rows.size == 0:
        return None
    leave = _min_ratio(T, basis, rows, j)
    if col[leave] >= PIVOT_MIN:
        return leave
    tiny = col[rows] < PIVOT_MIN
    if tiny.all():
        return leave
    alt = _min_ratio(T, basis, rows[~tiny], j)
    step = T[alt, -1] / col[alt]
    small = rows[tiny]
    if np.all(T[small, -1] - col[small] * step >= -FEAS_TOL):
        return alt
    return leave


@dataclass(frozen=True)
class LPStart:
    """Phase-1 result for one constraint system {x : A x <= d}, m rows and
    n variables.

    A and d are the objects the start was built from. tableau and basis
    (read-only) are a feasible basis of the standard form, or None when the
    system is infeasible. Every lp_max over the same system can start here.
    """

    A: object
    d: object
    m: int
    n: int
    tableau: np.ndarray | None
    basis: np.ndarray | None

    @property
    def feasible(self):
        return self.tableau is not None


def _max_iter(m, n):
    return 2000 + 200 * (m + n)


def phase_one(A, d):
    """Phase 1 of the simplex for {x : A x <= d}: one feasible start that
    serves every objective over the system.

    Builds the standard form (x = u - v plus slacks; a row with d < 0 is
    flipped and gets an artificial) and drives the artificials to zero,
    pivoting leftovers out or dropping their redundant rows. Phase 1 never
    reads the objective. Raises DegenerateLPError on numeric breakdown.
    """
    A_f = np.asarray(A, dtype=float)
    d_f = np.atleast_1d(np.asarray(d, dtype=float))
    if A_f.ndim != 2 or A_f.shape[0] != d_f.shape[0]:
        raise ShapeError(f"LP shapes inconsistent: A{A_f.shape} d{d_f.shape}")
    m, n = A_f.shape

    # Standard form: x = u - v, slack s; flipped rows get an artificial.
    flip = d_f < 0
    sign = np.where(flip, -1.0, 1.0)
    n_struct = 2 * n + m
    n_art = int(flip.sum())
    T = np.zeros((m, n_struct + n_art + 1))
    T[:, :n] = sign[:, None] * A_f
    T[:, n:2 * n] = -T[:, :n]
    T[:, 2 * n:n_struct] = np.diag(sign)
    T[:, -1] = sign * d_f
    basis = 2 * n + np.arange(m)
    basis[flip] = n_struct + np.arange(n_art)
    T[flip, basis[flip]] = 1.0

    if n_art > 0:
        for _ in range(_max_iter(m, n)):
            art_rows = basis >= n_struct
            if not art_rows.any():
                break
            rate = T[art_rows, :n_struct].sum(axis=0)
            eligible = (rate > FEAS_TOL).nonzero()[0]
            if eligible.size == 0:
                break
            enter = int(eligible[0])
            leave = _ratio_row(T, basis, enter)
            if leave is None:
                raise DegenerateLPError("phase-1 column with no positive entry")
            _pivot(T, basis, leave, enter)
        else:
            raise DegenerateLPError("phase-1 iteration limit reached")
        infeas = T[basis >= n_struct, -1].sum()
        if infeas > FEAS_TOL:
            return LPStart(A, d, m, n, None, None)
        # Pivot leftover artificials out, or drop their redundant rows.
        drop = []
        for r in np.flatnonzero(basis >= n_struct):
            row = np.abs(T[r, :n_struct])
            j = int(row.argmax())
            if row[j] >= PIVOT_MIN:
                _pivot(T, basis, r, j)
            elif row[j] > ZERO_TOL:
                raise DegenerateLPError(f"pivot {row[j]:.3e} below {PIVOT_MIN:g}")
            else:
                drop.append(r)
        if drop:
            keep = np.setdiff1d(np.arange(T.shape[0]), drop)
            T = T[keep]
            basis = basis[keep]
        T = np.hstack([T[:, :n_struct], T[:, -1:]])
    T.flags.writeable = False
    basis.flags.writeable = False
    return LPStart(A, d, m, n, T, basis)


def lp_max(objective, A, d, start=None):
    """Maximize objective . x over {x : A x <= d} with x unrestricted in sign.

    start is phase_one(A, d) for these very A and d objects (a start built
    from others raises ValueError); without one, phase 1 runs here. Only
    phase 2, on a copy of the start's tableau, depends on the objective.

    Returns an LPResult whose value/point are only meaningful when the
    status is optimal. Raises DegenerateLPError on numeric breakdown.
    """
    c = np.atleast_1d(np.asarray(objective, dtype=float))
    if start is None:
        A = np.asarray(A, dtype=float)
        if A.size == 0:  # an empty system may come without its column count
            A = A.reshape(np.size(d), c.shape[0])
        start = phase_one(A, d)
    elif start.A is not A or start.d is not d:
        raise ValueError("start was built from a different constraint system")
    n = start.n
    if c.shape != (n,):
        raise ShapeError(f"objective shape {c.shape} != ({n},) variables")

    if start.m == 0:
        if np.any(np.abs(c) > FEAS_TOL):
            return LPResult(UNBOUNDED, np.inf, None)
        return LPResult(OPTIMAL, 0.0, np.zeros(n))
    if not start.feasible:
        return LPResult(INFEASIBLE, np.nan, None)

    # Phase 2: maximize the real objective.
    T = start.tableau.copy()
    basis = start.basis.copy()
    n_struct = T.shape[1] - 1
    c_ext = np.zeros(n_struct)
    c_ext[:n] = c
    c_ext[n:2 * n] = -c
    for _ in range(_max_iter(start.m, n)):
        reduced = c_ext - c_ext[basis] @ T[:, :n_struct]
        eligible = (reduced > FEAS_TOL).nonzero()[0]
        if eligible.size == 0:
            x = np.zeros(n_struct)
            x[basis] = T[:, -1]
            point = x[:n] - x[n:2 * n]
            return LPResult(OPTIMAL, float(c @ point), point)
        enter = int(eligible[0])
        leave = _ratio_row(T, basis, enter)
        if leave is None:
            return LPResult(UNBOUNDED, np.inf, None)
        _pivot(T, basis, leave, enter)
    raise DegenerateLPError("phase-2 iteration limit reached")


def lp_feasible(A, d):
    """True when {x : A x <= d} is nonempty (within the solver tolerance).

    Each row is first divided by its largest coefficient, so that the
    absolute tolerances of phase 1 act relative to the row: a feasible row
    with coefficients near 1e-10 would otherwise stall phase 1 and read as
    infeasible.
    """
    A = np.asarray(A, dtype=float)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    n = A.shape[1] if A.ndim == 2 else 0
    if A.size:
        scale = np.abs(A).max(axis=1)
        scale[scale == 0.0] = 1.0
        A, d = A / scale[:, None], d / scale
    return lp_max(np.zeros(n), A, d).optimal
