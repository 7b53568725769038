"""Small dense LP solver: maximize c.x subject to A x <= d, x free.

Two-phase simplex on the standard form obtained by splitting free
variables and adding slacks. Entering columns follow Bland's rule
(smallest eligible index) and ratio-test ties are broken by smallest
basic-variable index, so the solve is deterministic and cannot cycle.
Reduced costs are recomputed from the tableau every iteration.

Phase 2 needs a start: any feasible basis of the system, held as its
tableau. Phase 1 finds one without reading the objective (Dantzig,
"Linear Programming and Extensions", ch. 5), so it runs once per
constraint system and gives a start that every objective over the
system can use. The final tableau of a solved LP is a start too, and a
start stays one when a row is added with its slack basic, as long as the
slack is not negative at the basic point (Starts.add_row): a system that
grows one cut at a time needs phase 1 only once. Every member of a
Starts holds a start; Starts.restart, the one place where phase 1 runs
for a stored system, gives one to a member whose added row cut its start
off.

The solver works on stacks. phase_one_batch runs phase 1 for a stack of
systems and returns their Starts; lp_max_batch runs phase 2 for a stack
of LPs, each from one of those starts, and can hand back the final
tableaus of the LPs it is asked to keep. All members of a stack move in
lockstep on one (members, rows, columns) tableau array: every iteration
picks each member's entering column, leaving row and pivot with array
operations, and a member leaves the stack as soon as it is finished.
Systems with fewer rows than the stack are padded with inert rows
0.x <= 1 whose slack is basic and never leaves; the padding columns come
after the member's own slacks, so Bland's rule and the tie-break pick
what they pick for the member alone. Padding can move a reduced cost in
its last bit (the BLAS sums it in another order), but reduced costs are
only ever compared with FEAS_TOL; the pivots are elementwise and the
same with or without padding.

lp_max solves one LP as a batch of one, so there is a single solver
path; it is the reference that the batched callers are tested against.
lp_feasible tests one system for a feasible point.
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

_BIG = np.iinfo(np.intp).max
# Members per lockstep stack: larger batches run as several stacks, which
# bounds the solver's temporary arrays without changing any result.
# phase_one_batch runs the stack it is given; its callers cut it.
_CHUNK = 256
# What _simplex says of a member when it lets it go.
_DONE, _OPEN, _FAILED = 0, 1, 2


@dataclass
class LPResult:
    status: str
    value: float
    point: np.ndarray | None

    @property
    def optimal(self):
        return self.status == OPTIMAL


@dataclass
class LPBatch:
    """Results of lp_max_batch, one entry per LP: optimal (bool array),
    value (inf when unbounded, nan when infeasible) and point (LPs, vars),
    a row of nan where the LP has no optimum.

    When lp_max_batch is given floors, kept[k] indexes LP k's final
    tableau and basis in tableau (K, M, 2n + M + 1) and basis (K, M), laid
    out as a start of its system (see Starts), where LP k is optimal with
    value > floor[k], and is -1 elsewhere. Without floors all three are
    None.
    """

    optimal: np.ndarray
    value: np.ndarray
    point: np.ndarray
    kept: np.ndarray = None
    tableau: np.ndarray = None
    basis: np.ndarray = None

    def __getitem__(self, k):
        if self.optimal[k]:
            return LPResult(OPTIMAL, float(self.value[k]), self.point[k])
        return LPResult(INFEASIBLE if np.isnan(self.value[k]) else UNBOUNDED,
                        float(self.value[k]), None)


@dataclass
class Starts:
    """A stack of constraint systems, padded to M rows, and their starts.

    System k is A[k, :rows[k]] x <= d[k, :rows[k]] (A is (S, M, n), d is
    (S, M)); rows past rows[k] read 0.x <= 1. tableau (S, M, 2n + M + 1)
    and basis (S, M) are a feasible basis of each standard form where
    feasible[k] holds: columns x = u - v (2n), then one slack per row, then
    the right-hand side, which holds the basic point. A start comes from
    phase 1 or is the final tableau of an LP over the system, maybe grown
    by add_row; a redundant row that phase 1 dropped is a zero row whose
    basic slot is its own slack. error[k] names the numeric breakdown of
    phase 1, or is None. Every member holds a start, except inside take
    until store or restart gives it one.
    """

    A: np.ndarray
    d: np.ndarray
    rows: np.ndarray
    tableau: np.ndarray
    basis: np.ndarray
    feasible: np.ndarray
    error: np.ndarray

    def __len__(self):
        return len(self.rows)

    def take(self, idx, M, solved):
        """The systems idx as a new stack padded to M >= this stack's rows,
        with the starts of the members where solved holds. The others read
        as infeasible, with zero tableaus, until the caller gives them
        starts by store or restart; that saves copying what store
        overwrites."""
        S, (_, M0, n) = len(idx), self.A.shape
        A, d = np.zeros((S, M, n)), np.ones((S, M))
        A[:, :M0], d[:, :M0] = self.A[idx], self.d[idx]
        out = Starts(A, d, self.rows[idx], np.zeros((S, M, 2 * n + M + 1)),
                     np.repeat((2 * n + np.arange(M))[None], S, axis=0),
                     np.zeros(S, dtype=bool), np.full(S, None, dtype=object))
        keep = np.flatnonzero(solved)
        out.store(keep, self.tableau, self.basis, idx[keep])
        out.feasible[keep], out.error[keep] = self.feasible[idx[keep]], self.error[idx[keep]]
        return out

    def store(self, dst, tableau, basis, src):
        """Give members dst the feasible bases tableau[src], basis[src] of
        their systems, laid out for M0 <= M rows, as their starts. A
        padding row reads 0.x <= 1 with its slack basic, so a padded start
        is the start of the padded system. The members' tableaus must be
        empty (all zero) past the source's rows."""
        n = self.A.shape[2]
        M0 = basis.shape[1]
        for k in range(0, dst.size, _CHUNK):  # bounds the gathered copy
            kk, sk = dst[k:k + _CHUNK], src[k:k + _CHUNK]
            self.tableau[kk, :M0, :2 * n + M0] = tableau[sk, :, :-1]
            self.tableau[kk, :M0, -1] = tableau[sk, :, -1]
        new = np.arange(M0, self.A.shape[1])
        self.tableau[dst[:, None], new, 2 * n + new] = 1.0
        self.tableau[dst, M0:, -1] = 1.0
        self.basis[dst, :M0] = basis[src]
        self.feasible[dst], self.error[dst] = True, None

    def add_row(self, idx, r, e):
        """Append the row r[k] . x <= e[k] to system idx[k], which must
        have a padding row left, and enter it in the member's start with
        its slack basic: the row is written in the basis by eliminating its
        basic columns, which leaves the new slack's value, e - r . x at the
        basic point, on the right-hand side. A slack in (-FEAS_TOL, 0) is
        rounding noise and reads 0, as in _simplex; members whose slack is
        below -FEAS_TOL are restarted."""
        n = self.A.shape[2]
        at = self.rows[idx]
        self.A[idx, at], self.d[idx, at] = r, e
        self.rows[idx] += 1
        lost = np.zeros(idx.size, dtype=bool)
        for k in range(0, idx.size, _CHUNK):  # bounds the gathered tableaus
            j = slice(k, k + _CHUNK)
            m, a = idx[j], at[j]
            row = np.zeros((m.size, self.tableau.shape[2]))
            row[:, :n], row[:, n:2 * n], row[:, -1] = r[j], -r[j], e[j]
            # Row a is a padding row: its slack, the new row's, is basic
            # there and has no coefficient yet, so it is not eliminated.
            coef = np.take_along_axis(row, self.basis[m], axis=1)
            row -= np.matmul(coef[:, None, :], self.tableau[m])[:, 0]
            row[np.arange(m.size), 2 * n + a] = 1.0
            slack = row[:, -1]
            slack[(slack < 0.0) & (slack > -FEAS_TOL)] = 0.0
            self.tableau[m, a] = row
            lost[j] = slack < 0.0
        self.restart(idx[lost])

    def restart(self, idx):
        """Give members idx the starts that phase 1 finds for their
        systems, per _CHUNK systems, which bounds phase 1's stack."""
        for k in range(0, idx.size, _CHUNK):
            m = idx[k:k + _CHUNK]
            new = phase_one_batch(self.A[m], self.d[m], self.rows[m])
            self.tableau[m], self.basis[m] = new.tableau, new.basis
            self.feasible[m], self.error[m] = new.feasible, new.error


def _max_iter(m, n):
    return 2000 + 200 * (m + n)


def _min_ratio(ratio, basis):
    """Per member, the row with the least ratio (inf marks rows out of the
    test), ties to the smallest basic-variable index."""
    cand = ratio <= ratio.min(axis=1, keepdims=True)
    return np.where(cand, basis, _BIG).argmin(axis=1)


def _tiny_pivot(col, rhs, ratio, basis, leave):
    """Leaving rows for members whose winning entry is below PIVOT_MIN.

    Rows with entries that small leave the test when the step set by the
    other rows moves each of them by at most FEAS_TOL; otherwise the
    winner stands and the pivot fails.
    """
    tiny = (col > ZERO_TOL) & (col < PIVOT_MIN)
    alt = _min_ratio(np.where(tiny, np.inf, ratio), basis)
    ar = np.arange(len(col))
    step = rhs[ar, alt] / col[ar, alt]
    fits = np.all(~tiny | (rhs - col * step[:, None] >= -FEAS_TOL), axis=1)
    big = (ratio < np.inf) & ~tiny
    return np.where(big.any(axis=1) & fits, alt, leave)


def _simplex(T, basis, cost, K, rows, n, phase):
    """Maximize cost . z over a stack of tableaus in lockstep.

    T (members, rows, cols) and basis (members, rows) are updated in
    place; cost is (members, cols - 1), and only the first K columns may
    enter. Returns each member's state (_DONE, _OPEN when its entering
    column has no positive entry, or _FAILED) and a dict of failure
    messages by member: a member with rows[member] rows fails after
    _max_iter pivots, or on a pivot below PIVOT_MIN.
    """
    state = np.full(len(T), _DONE)
    errors = {}
    idx = np.arange(len(T))
    Tw, Bw, cw = T, basis, cost
    it = 0

    def release(keep, code):
        """Let the members outside keep go with code (one or per member)."""
        nonlocal idx, Tw, Bw, cw
        gone = idx[~keep]
        state[gone] = code if isinstance(code, int) else code[~keep]
        if Tw is not T:
            T[gone] = Tw[~keep]
            basis[gone] = Bw[~keep]
        if keep.any():
            idx, Tw, Bw, cw = idx[keep], Tw[keep], Bw[keep], cw[keep]
        else:
            idx = idx[:0]

    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            if it >= _max_iter(0, 0):  # the least limit of any member
                over = it >= _max_iter(rows[idx], n)
                for k in idx[over]:
                    errors[int(k)] = f"phase-{phase} iteration limit reached"
                if over.any():
                    release(~over, _FAILED)
                    continue
            ar = np.arange(idx.size)
            cb = cw[ar[:, None], Bw]
            reduced = cw[:, :K] - np.matmul(cb[:, None, :], Tw[:, :, :K])[:, 0]
            eligible = reduced > FEAS_TOL
            enter = eligible.argmax(axis=1)
            found = eligible[ar, enter]
            if not found.all():
                release(found, _DONE)
                if not idx.size:
                    break
                ar, enter = ar[:idx.size], enter[found]
            col = Tw[ar, :, enter]
            rhs = Tw[:, :, -1]
            ratio = rhs / col
            ratio[col <= ZERO_TOL] = np.inf
            leave = _min_ratio(ratio, Bw)
            piv = col[ar, leave]
            ok = piv >= PIVOT_MIN
            if not ok.all():
                small = (piv > ZERO_TOL) & ~ok
                if small.any():
                    leave[small] = _tiny_pivot(col[small], rhs[small], ratio[small],
                                               Bw[small], leave[small])
                    piv = col[ar, leave]
                    ok = piv >= PIVOT_MIN
                opened = piv <= ZERO_TOL
                for k, p in zip(idx[~ok & ~opened], piv[~ok & ~opened]):
                    errors[int(k)] = f"pivot {p:.3e} below {PIVOT_MIN:g}"
                release(ok, np.where(opened, _OPEN, _FAILED))
                if not idx.size:
                    break
                ar, enter, leave, col, piv = ar[:idx.size], enter[ok], leave[ok], col[ok], piv[ok]
            # Column enter needs no reset: piv_row[enter] is piv / piv = 1,
            # so every other row keeps its entry minus itself, exactly 0.
            piv_row = Tw[ar, leave] / piv[:, None]
            Tw -= col[:, :, None] * piv_row[:, None, :]
            Tw[ar, leave] = piv_row
            Bw[ar, leave] = enter
            # tiny negative rhs is rounding noise
            rhs = Tw[:, :, -1]
            neg = rhs < 0.0
            if neg.any():
                rhs[neg & (rhs > -FEAS_TOL)] = 0.0
            it += 1
    return state, errors


def phase_one_batch(A, d, rows):
    """Phase 1 for a stack of systems: member k is A[k, :rows[k]] x <=
    d[k, :rows[k]] (A is (S, M, n), d is (S, M); entries past a member's
    rows are ignored). Returns their Starts.

    Each system gets the standard form (x = u - v plus slacks; a row with
    d < 0 is flipped and gets an artificial) and its artificials are
    driven to zero, leftovers pivoted out or their redundant rows dropped.
    A member that breaks down numerically gets an error instead of a
    start; lp_max_batch raises it when an LP uses that start.
    """
    A = np.asarray(A, dtype=float)
    d = np.asarray(d, dtype=float)
    rows = np.asarray(rows, dtype=np.intp)
    S, M, n = A.shape
    pad = np.arange(M) >= rows[:, None]
    if pad.any():
        A = np.where(pad[:, :, None], 0.0, A)
        d = np.where(pad, 1.0, d)
    flip = d < 0
    sign = np.where(flip, -1.0, 1.0)
    n_struct = 2 * n + M
    n_art = flip.sum(axis=1)
    T = np.zeros((S, M, n_struct + int(n_art.max(initial=0)) + 1))
    T[:, :, :n] = sign[:, :, None] * A
    T[:, :, n:2 * n] = -T[:, :, :n]
    ar = np.arange(M)
    T[:, ar, 2 * n + ar] = sign
    T[:, :, -1] = sign * d
    basis = np.repeat((2 * n + ar)[None], S, axis=0)
    art = n_struct + np.cumsum(flip, axis=1) - 1
    basis[flip] = art[flip]
    fs, fr = flip.nonzero()
    T[fs, fr, art[flip]] = 1.0

    # Phase 1 maximizes minus the sum of the artificials: the reduced cost
    # of a column is its sum over the rows with an artificial. A member
    # without artificials has no eligible column and leaves at once.
    cost = np.zeros((S, T.shape[2] - 1))
    cost[:, n_struct:] = -1.0
    state, errs = _simplex(T, basis, cost, n_struct, rows, n, 1)
    error = np.full(S, None, dtype=object)
    for k, msg in errs.items():
        error[k] = msg
    error[state == _OPEN] = "phase-1 column with no positive entry"
    feasible = np.ones(S, dtype=bool)
    for k in np.flatnonzero(state == _DONE):
        if (basis[k] >= n_struct).any():
            feasible[k], error[k] = _finish_phase_one(T[k], basis[k], n_struct, n)
    feasible &= error == None  # noqa: E711 (elementwise)
    T = np.concatenate([T[:, :, :n_struct], T[:, :, -1:]], axis=2)
    return Starts(A, d, rows, T, basis, feasible, error)


def _finish_phase_one(T, basis, n_struct, n):
    """One member with artificials left in its basis after phase 1: check
    feasibility, then pivot each leftover out or drop its redundant row
    (zeroed, its own slack as a dummy basic slot). Updates T and basis in
    place; returns (feasible, error message or None)."""
    art_rows = basis >= n_struct
    if T[art_rows, -1].sum() > FEAS_TOL:
        return False, None
    drop = []
    for r in np.flatnonzero(art_rows):
        row = np.abs(T[r, :n_struct])
        j = int(row.argmax())
        if row[j] >= PIVOT_MIN:
            piv_row = T[r] / T[r, j]
            T -= T[:, j, None] * piv_row
            T[r] = piv_row
            basis[r] = j
            rhs = T[:, -1]
            rhs[(rhs < 0.0) & (rhs > -FEAS_TOL)] = 0.0
        elif row[j] > ZERO_TOL:
            return True, f"pivot {row[j]:.3e} below {PIVOT_MIN:g}"
        else:
            drop.append(r)
    for r in drop:
        T[r] = 0.0
        basis[r] = 2 * n + r
    return True, None


def lp_max_batch(objectives, starts, which, floor=None):
    """Phase 2 for a stack of LPs: LP k maximizes objectives[k] . x over
    system which[k] of starts (a Starts), from its start. Several LPs may
    share one start; starts is never modified.

    Returns an LPBatch. With floor (one value per LP), it also holds the
    final tableau and basis of every LP that is optimal with value >
    floor[k]: a start of that LP's system whose basic point is the LP's
    point. Raises the DegenerateLPError of the first LP (in stack order)
    whose start or whose own phase 2 broke down.
    """
    c = np.asarray(objectives, dtype=float)
    which = np.asarray(which, dtype=np.intp)
    if floor is not None:
        floor = np.asarray(floor, dtype=float)
    L, n = c.shape
    rows = starts.rows[which]
    optimal = starts.feasible[which]
    value = np.empty(L)
    value.fill(np.nan)
    point = np.empty((L, n))
    point.fill(np.nan)
    errors = {}
    if not optimal.all():
        error = starts.error[which]
        errors = {int(k): error[k] for k in np.flatnonzero(error != None)}  # noqa: E711
    solve = np.flatnonzero(optimal & (rows > 0))
    if solve.size < optimal.sum():
        empty = optimal & (rows == 0)
        unbounded = empty & (np.abs(c) > FEAS_TOL).any(axis=1)
        optimal[unbounded], value[unbounded] = False, np.inf
        value[empty & ~unbounded], point[empty & ~unbounded] = 0.0, 0.0
    kept = [(np.zeros(0, dtype=np.intp), starts.tableau[:0], starts.basis[:0])]
    for k in range(0, solve.size, _CHUNK):
        kept.append(_phase_two(c, starts, which, rows, solve[k:k + _CHUNK], optimal, value,
                               point, errors, floor))
    if errors:
        raise DegenerateLPError(errors[min(errors)])
    if floor is None:
        return LPBatch(optimal, value, point)
    lps, tableau, basis = (np.concatenate(a) for a in zip(*kept))
    at = np.full(L, -1, dtype=np.intp)
    at[lps] = np.arange(lps.size)
    return LPBatch(optimal, value, point, at, tableau, basis)


def _phase_two(c, starts, which, rows, solve, optimal, value, point, errors, floor):
    """Phase 2 of the LPs solve of lp_max_batch as one lockstep stack,
    results written into optimal, value, point and errors. Returns (LPs,
    final tableaus, bases) of the optimal LPs whose value exceeds floor,
    none without floor."""
    n = c.shape[1]
    T = starts.tableau[which[solve]]
    basis = starts.basis[which[solve]]
    K = T.shape[2] - 1
    cost = np.zeros((solve.size, K))
    cost[:, :n] = c[solve]
    cost[:, n:2 * n] = -c[solve]
    state, errs = _simplex(T, basis, cost, K, rows[solve], n, 2)
    for j, msg in errs.items():
        errors[int(solve[j])] = msg
    gone = solve[state != _DONE]
    optimal[gone] = False
    value[gone] = np.where(state[state != _DONE] == _OPEN, np.inf, np.nan)
    done = np.flatnonzero(state == _DONE)
    x = np.zeros((done.size, K))
    x[np.arange(done.size)[:, None], basis[done]] = T[done, :, -1]
    pts = x[:, :n] - x[:, n:2 * n]
    k = solve[done]
    point[k] = pts
    value[k] = np.matmul(c[k][:, None, :], pts[:, :, None])[:, 0, 0]
    up = done[:0] if floor is None else done[value[k] > floor[k]]
    return solve[up], T[up], basis[up]


def lp_max(objective, A, d):
    """Maximize objective . x over {x : A x <= d} with x unrestricted in sign:
    a phase_one_batch and an lp_max_batch of one.

    Returns an LPResult whose value/point are only meaningful when the
    status is optimal. Raises DegenerateLPError on numeric breakdown.
    """
    c = np.atleast_1d(np.asarray(objective, dtype=float))
    A = np.asarray(A, dtype=float)
    d = np.atleast_1d(np.asarray(d, dtype=float))
    if A.size == 0:  # an empty system may come without its column count
        A = A.reshape(d.shape[0], c.shape[0])
    if A.ndim != 2 or A.shape[0] != d.shape[0]:
        raise ShapeError(f"LP shapes inconsistent: A{A.shape} d{d.shape}")
    if c.shape != (A.shape[1],):
        raise ShapeError(f"objective shape {c.shape} != ({A.shape[1]},) variables")
    return lp_max_batch(c[None], phase_one_batch(A[None], d[None], [len(d)]), [0])[0]


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
