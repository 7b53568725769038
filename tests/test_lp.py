import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from nnbisim import BoxBatch, DegenerateLPError, lp_feasible, lp_max
from nnbisim.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, Starts, lp_max_batch,
                        phase_one_batch)


class TestStatuses:
    def test_bounded_maximum(self):
        res = lp_max([1.0], [[1.0], [-1.0]], [3.0, 0.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.point == pytest.approx([3.0], abs=1e-9)

    def test_infeasible(self):
        res = lp_max([1.0], [[1.0], [-1.0]], [-1.0, -2.0])
        assert res.status == INFEASIBLE

    def test_unbounded(self):
        res = lp_max([1.0], [[-1.0]], [0.0])
        assert res.status == UNBOUNDED

    def test_no_constraints(self):
        assert lp_max([1.0], np.zeros((0, 1)), []).status == UNBOUNDED
        zero = lp_max([0.0], np.zeros((0, 1)), [])
        assert zero.status == OPTIMAL and zero.value == 0.0

    def test_phase_one_then_optimize(self):
        # alpha in [2, 5], maximize alpha
        res = lp_max([1.0], [[-1.0], [1.0]], [-2.0, 5.0])
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(5.0, abs=1e-9)

    def test_equality_like_slice(self):
        # alpha1 + alpha2 = 1 encoded as two inequalities, maximize alpha1 - alpha2
        A = [[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0]]
        d = [1.0, -1.0, 1.0, 1.0]
        res = lp_max([1.0, -1.0], A, d)
        assert res.status == OPTIMAL
        assert res.value == pytest.approx(1.0, abs=1e-9)


class TestDegenerate:
    def test_tiny_pivot_raises(self):
        with pytest.raises(DegenerateLPError):
            lp_max([1.0], [[1e-12]], [1.0])

    def test_tiny_entry_that_the_step_would_violate_raises(self):
        # x <= 1e4 sets the step; 1e-12 x <= 0 would then be off by 1e-8.
        with pytest.raises(DegenerateLPError):
            lp_max([1.0], [[1.0], [1e-12]], [1e4, 0.0])

    # The unit box cut by one badly scaled row through the origin. Bland's
    # rule used to pick the row's tiny entry as the pivot and give up; the
    # step set by the other rows moves that row by at most ~1e-12.
    @pytest.mark.parametrize("cut", [[1e-12, 1.0], [1.0, 1e-12], [3e-12, 0.5]])
    @pytest.mark.parametrize("objective", [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                                           [1.0, 1.0], [-0.5, 2.0]])
    def test_tiny_entry_beside_larger_ones(self, cut, objective):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], cut])
        d = np.array([1.0, 1.0, 1.0, 1.0, 0.0])
        res = lp_max(objective, A, d)
        ref = linprog(-np.array(objective), A_ub=A, b_ub=d,
                      bounds=[(None, None)] * 2, method="highs")
        assert res.status == OPTIMAL and ref.status == 0
        assert res.value == pytest.approx(-ref.fun, abs=1e-9)
        assert np.all(A @ res.point <= d + 1e-9)


class TestFeasible:
    def test_simple(self):
        assert lp_feasible([[1.0], [-1.0]], [1.0, 1.0])
        assert not lp_feasible([[1.0], [-1.0]], [-1.0, -2.0])

    def test_boundary_slice(self):
        # {alpha >= 0} and {alpha <= 0}: a single point, still feasible
        assert lp_feasible([[1.0], [-1.0]], [0.0, 0.0])


@st.composite
def box_around_point(draw):
    """A one-box BoxBatch, a point in it and rows through or beyond the
    point, each scaled by a power of ten from 1e-12 to 1e3."""
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lower = rng.uniform(-2.0, 2.0, dim)
    width = np.array(draw(st.lists(st.sampled_from([0.0, 1e-6, 0.5, 3.0]),
                                   min_size=dim, max_size=dim)))
    t = np.array(draw(st.lists(st.sampled_from([0.0, 0.3, 1.0]),
                               min_size=dim, max_size=dim)))
    y = lower + t * width
    rows = draw(st.integers(1, 4))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(-12, 3),
                                            min_size=rows, max_size=rows)))
    A = rng.normal(size=(rows, dim)) * scales[:, None]
    slack = np.array(draw(st.lists(st.sampled_from([0.0, 1e-9, 0.1]),
                                   min_size=rows, max_size=rows)))
    return BoxBatch([lower], [lower + width]), A, A @ y + slack * scales


class TestFeasibleAroundAPoint:
    # Only the safe direction: a system with a known feasible point must
    # read as intersecting. The other direction is not pinned: FEAS_TOL is
    # absolute, so a badly scaled infeasible system can read as feasible,
    # which only costs a Safe verdict.
    @settings(max_examples=300, deadline=None)
    @given(box_around_point())
    def test_known_feasible_point_intersects(self, case):
        batch, A, d = case
        assert batch.intersects(0, A, d) is True


class TestAgainstScipy:
    STATUS_MAP = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}

    def test_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 9))
            A = rng.uniform(-2, 2, (m, n))
            d = rng.uniform(-2, 2, m)
            c = rng.uniform(-2, 2, n)
            mine = lp_max(c, A, d)
            ref = linprog(-c, A_ub=A, b_ub=d, bounds=[(None, None)] * n,
                          method="highs")
            want = self.STATUS_MAP.get(ref.status)
            if mine.status != want and {mine.status, want} == {INFEASIBLE, UNBOUNDED}:
                # HiGHS presolve may conflate the two; settle with a probe
                probe = linprog(np.zeros(n), A_ub=A, b_ub=d,
                                bounds=[(None, None)] * n, method="highs")
                want = UNBOUNDED if probe.status == 0 else INFEASIBLE
            assert mine.status == want
            if mine.status == OPTIMAL:
                assert mine.value == pytest.approx(-ref.fun, abs=1e-7, rel=1e-7)
                assert np.all(A @ mine.point <= d + 1e-7)

    def test_determinism(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(-1, 1, (6, 3))
        d = rng.uniform(0.1, 1, 6)
        c = rng.uniform(-1, 1, 3)
        first = lp_max(c, A, d)
        second = lp_max(c, A, d)
        assert first.value == second.value
        assert np.array_equal(first.point, second.point)


def outcome(objective, A, d):
    """An LP's result as comparable data, or the error it raised."""
    try:
        res = lp_max(objective, A, d)
    except DegenerateLPError as exc:
        return ("raised", str(exc))
    return as_data(res)


def as_data(res):
    """An LPResult as comparable data."""
    point = None if res.point is None else res.point.tobytes()
    return (res.status, np.float64(res.value).tobytes(), point)


# The unit box cut by one badly scaled row through the origin: the ratio
# test's tiny-pivot fallback decides these (see TestDegenerate).
BADLY_SCALED = [np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], cut])
                for cut in ([1e-12, 1.0], [1.0, 1e-12], [3e-12, 0.5])]


@st.composite
def system_rows(draw, n):
    """One system A x <= d with n variables: quarter-step rows and
    right-hand sides of either sign (negative ones need an artificial),
    duplicate and scaled rows (leftover artificials, dropped rows), an
    optional contradicting row (infeasible), or one of BADLY_SCALED."""
    if n == 2 and draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(BADLY_SCALED)), np.array([1.0, 1.0, 1.0, 1.0, 0.0])
    coef = st.integers(-8, 8).map(lambda k: k / 4.0)
    rows = draw(st.lists(st.lists(coef, min_size=n, max_size=n), min_size=1, max_size=6))
    rhs = draw(st.lists(st.integers(-6, 6).map(lambda k: k / 4.0),
                        min_size=len(rows), max_size=len(rows)))
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(rows) - 1))
        scale = draw(st.sampled_from([1.0, 2.0]))
        rows.append([scale * v for v in rows[k]])
        rhs.append(scale * rhs[k] + draw(st.sampled_from([0.0, 0.5])))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows.append([-v for v in rows[k]])
        rhs.append(-rhs[k] - draw(st.sampled_from([0.0, 1.0])))
    return np.array(rows), np.array(rhs)


@st.composite
def lp_stack(draw):
    """Systems of different row counts over the same variables, and LPs
    on them: (systems, [(system index, objective), ...])."""
    n = draw(st.integers(1, 3))
    systems = draw(st.lists(system_rows(n), min_size=1, max_size=5))
    coef = st.integers(-8, 8).map(lambda k: k / 4.0)
    lps = draw(st.lists(st.tuples(st.integers(0, len(systems) - 1),
                                  st.lists(coef, min_size=n, max_size=n)),
                        min_size=1, max_size=8))
    return systems, [(k, np.array(c)) for k, c in lps]


def stacked_outcomes(systems, lps):
    """Every LP of lps solved in one phase_one_batch and one lp_max_batch,
    as outcome() data, or the error the batch raised. Unless it raised,
    one more lp_max_batch over the same Starts solves the LPs in the
    reverse order: it must give the same results and leave the Starts
    unchanged."""
    n = systems[0][0].shape[1]
    M = max(len(d) for _, d in systems)
    A = np.zeros((len(systems), M, n))
    d = np.full((len(systems), M), 7.0)  # ignored past each system's rows
    for k, (Ak, dk) in enumerate(systems):
        A[k, :len(dk)], d[k, :len(dk)] = Ak, dk
    starts = phase_one_batch(A, d, [len(dk) for _, dk in systems])
    fields = [f.name for f in dataclasses.fields(Starts)]
    saved = [getattr(starts, f).copy() for f in fields]
    c, which = np.array([c for _, c in lps]), np.array([k for k, _ in lps])
    try:
        res = lp_max_batch(c, starts, which)
    except DegenerateLPError as exc:
        return ("raised", str(exc))
    got = [as_data(res[j]) for j in range(len(lps))]
    back = lp_max_batch(c[::-1], starts, which[::-1])
    assert [as_data(back[j]) for j in range(len(lps))] == got[::-1]
    for f, was in zip(fields, saved):
        assert np.array_equal(getattr(starts, f), was), f
    return got


class TestBatchedSolver:
    """A stack of LPs gives each member what its batch of one gives."""

    @staticmethod
    def expected(systems, lps):
        singles = [outcome(c, *systems[k]) for k, c in lps]
        raised = [o for o in singles if o[0] == "raised"]
        return raised[0] if raised else singles

    @settings(max_examples=300, deadline=None)
    @given(lp_stack(), st.randoms(use_true_random=False))
    def test_members_match_batches_of_one(self, stack, rnd):
        systems, lps = stack
        assert stacked_outcomes(systems, lps) == self.expected(systems, lps)
        # Permuting the systems and the LPs changes no member's result.
        order = list(range(len(systems)))
        rnd.shuffle(order)
        moved = [systems[k] for k in order]
        where = {k: i for i, k in enumerate(order)}
        perm = list(range(len(lps)))
        rnd.shuffle(perm)
        shuffled = [(where[lps[j][0]], lps[j][1]) for j in perm]
        got = stacked_outcomes(moved, shuffled)
        want = self.expected(moved, shuffled)
        assert got == want

    def test_badly_scaled_systems_in_one_stack(self):
        # Every member needs the tiny-pivot fallback, with other rows and
        # objectives around it.
        systems = [(A, np.array([1.0, 1.0, 1.0, 1.0, 0.0])) for A in BADLY_SCALED]
        systems.append((np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]),
                        np.array([2.0, -0.5, 1.0])))
        lps = [(k, np.array(c)) for k in range(4)
               for c in ([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 1.0], [-0.5, 2.0])]
        got = stacked_outcomes(systems, lps)
        assert got == self.expected(systems, lps)
        assert all(o[0] == OPTIMAL for o in got)

    def test_breakdown_raises_for_the_first_lp_in_stack_order(self):
        # 5e-12 x <= 1 breaks down in phase 2 (tiny pivot), the 1e4 / 1e-12
        # pair as well with another pivot in its message; the first system
        # is fine.
        fine = (np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
        tiny = (np.array([[5e-12]]), np.array([1.0]))
        steep = (np.array([[1.0], [1e-12]]), np.array([1e4, 0.0]))
        for systems in ([fine, tiny, steep], [fine, steep, tiny]):
            lps = [(0, np.array([1.0])), (1, np.array([1.0])), (2, np.array([1.0]))]
            want = self.expected(systems, lps)
            assert want[0] == "raised" and want[1].startswith(
                "pivot 5.000e-12" if systems[1] is tiny else "pivot 1.000e-12")
            assert stacked_outcomes(systems, lps) == want
            assert stacked_outcomes(systems, lps[::-1]) == self.expected(systems, lps[::-1])


class TestKeptTableaus:
    """A final tableau that lp_max_batch keeps is a start of its system
    at the LP's optimum, and stays one when a row enters with its slack
    basic."""

    @settings(max_examples=200, deadline=None)
    @given(lp_stack(), st.integers(0, 2**32 - 1))
    def test_kept_tableau_restarts_at_the_optimum(self, stack, seed):
        systems, lps = stack
        n = systems[0][0].shape[1]
        M = max(len(d) for _, d in systems)
        A = np.zeros((len(systems), M + 1, n))
        d = np.ones((len(systems), M + 1))
        for k, (Ak, dk) in enumerate(systems):
            A[k, :len(dk)], d[k, :len(dk)] = Ak, dk
        starts = phase_one_batch(A, d, [len(dk) for _, dk in systems])
        c, which = np.array([c for _, c in lps]), np.array([k for k, _ in lps])
        rng = np.random.default_rng(seed)
        floor = rng.choice([-np.inf, 0.0, np.inf], len(lps))
        try:
            plain = lp_max_batch(c, starts, which)
        except DegenerateLPError:
            return
        res = lp_max_batch(c, starts, which, floor)
        assert plain.kept is None
        assert np.array_equal(res.optimal, plain.optimal)
        assert np.array_equal(res.value, plain.value, equal_nan=True)
        assert np.array_equal(res.point, plain.point, equal_nan=True)
        held = np.flatnonzero(res.kept >= 0)
        assert np.array_equal(held, np.flatnonzero(plain.optimal & (plain.value > floor)))
        # Each kept tableau as the start of its own system, grown by a row
        # r . x <= r . point + slack.
        grown = starts.take(which[held], M + 1, np.zeros(held.size, dtype=bool))
        grown.store(np.arange(held.size), res.tableau, res.basis, res.kept[held])
        r = rng.uniform(-1.0, 1.0, (held.size, n))
        slack = rng.choice([0.0, 0.5], held.size)
        e = np.einsum("ij,ij->i", r, res.point[held]) + slack
        grown.add_row(np.arange(held.size), r, e)
        # The start held: the new row's slack is basic at its own row and
        # reads the slack at the optimum, so no phase 1 replaced it.
        at, ar = grown.rows - 1, np.arange(held.size)
        assert grown.feasible.all()
        assert np.array_equal(grown.basis[ar, at], 2 * n + at)
        assert grown.tableau[ar, at, -1] == pytest.approx(slack, rel=1e-9, abs=1e-9)
        again = lp_max_batch(c[held], grown, np.arange(held.size))
        for j, k in enumerate(held):
            rows = grown.rows[j]
            want = lp_max(c[k], grown.A[j, :rows], grown.d[j, :rows])
            assert again.optimal[j] and want.optimal
            assert again.value[j] == pytest.approx(want.value, rel=1e-9, abs=1e-9)
