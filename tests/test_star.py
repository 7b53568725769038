import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnbisim.lp
import nnbisim.star
from nnbisim import (IDENTITY, RELU, Box, Layer, LinearSpec, Network,
                     ResourceLimitError, ShapeError, StarSet, Verdict, bisim_error_upper,
                     lp_feasible, lp_max, merge, random_network, reach_stars,
                     star_sup_norm, sup_norm_box, verify)
from nnbisim.lp import FEAS_TOL, LPBatch, lp_max_batch
from nnbisim.safety import SAFE, SEARCH_SAMPLES, UNCERTAIN, UNSAFE
from conftest import constant_net, reach_box, star_contains, union_contains


def bounding_box(star):
    """The star's LP bounding box, one reference_range per output coordinate."""
    lows, highs = zip(*(reference_range(star.center[i], star.basis[i], star.constr_mat,
                                        star.constr_rhs) for i in range(star.dim)))
    return Box(np.array(lows), np.array(highs))


def box_star(box):
    """The box's star, as reach_stars starts from it: reach_stars over
    the identity map, which leaves the centre and basis as they are."""
    n = len(box)
    stars = reach_stars(Network(n, [Layer.linear(np.eye(n), np.zeros(n))]), box)
    assert len(stars) == 1
    return stars[0]


def vee_layer_net():
    """x -> (relu(x), relu(-x)); image of [-1,1] is an L-shaped set."""
    return Network(1, [Layer.relu([[1.0], [-1.0]], [0.0, 0.0])])


class TestBoxToStar:
    """The input star of a box: centre, half-width diagonal basis,
    |a_i| <= 1, carried point 0 and predicate box [-1, 1]^n."""

    def test_unit_interval(self):
        s = box_star(Box([0.0], [2.0]))
        assert np.allclose(s.center, [1.0])
        assert np.allclose(s.basis, [[1.0]])
        assert np.allclose(s.constr_mat, [[1.0], [-1.0]])
        assert np.allclose(s.constr_rhs, [1.0, 1.0])
        assert np.array_equal(s.point, [0.0])
        assert np.array_equal(s.pred_box[0], [-1.0]) and np.array_equal(s.pred_box[1], [1.0])

    def test_degenerate_box_keeps_zero_column(self):
        s = box_star(Box([1.0], [1.0]))
        assert np.allclose(s.basis, [[0.0]])
        assert star_contains(s, [1.0])
        assert not star_contains(s, [1.1])

    def test_rectangle(self):
        s = box_star(Box([-1.0, 0.0], [1.0, 4.0]))
        assert np.allclose(s.center, [0.0, 2.0])
        assert np.allclose(s.basis, np.diag([1.0, 2.0]))

    def test_box_length_checked(self):
        with pytest.raises(ShapeError, match="box length 1 != input_dim 2"):
            reach_stars(random_network([2, 3, 1], 1.0, seed=0), Box([0.0], [1.0]))

    def test_infinite_bound_rejected(self):
        net = random_network([2, 3, 1], 1.0, seed=0)
        with pytest.raises(ValueError, match="box lower bound must be finite"):
            reach_stars(net, Box([-np.inf, 0.0], [1.0, 1.0]))


class TestStarInvariants:
    def test_affine_map(self):
        net = Network(1, [Layer.linear([[3.0]], [1.0])])
        s = reach_stars(net, Box([0.0], [2.0]))[0]
        assert np.allclose(s.center, [4.0])
        assert np.allclose(s.basis, [[3.0]])

    def test_bounding_box(self):
        s = box_star(Box([-1.0, 0.0], [1.0, 4.0]))
        bb = bounding_box(s)
        assert np.allclose(bb.lower, [-1.0, 0.0], atol=1e-9)
        assert np.allclose(bb.upper, [1.0, 4.0], atol=1e-9)

    def test_crossed_lp_range_is_ordered(self, monkeypatch):
        # On a sliver star the two range LPs can cross by rounding; the
        # sup-norm must use the ordered range, with no error.
        stars = reach_stars(Network(1, [Layer.linear([[1.0]], [0.0])]),
                            Box([-1e-9], [1e-9]))
        assert np.array_equal(stars[0].basis, [[1e-9]])
        monkeypatch.setattr(nnbisim.star, "lp_max_batch", lambda c, starts, which, floor: LPBatch(
            np.ones(len(c), dtype=bool), np.full(len(c), -1e-17), np.zeros((len(c), 1))))
        assert star_sup_norm(stars, "inf") == 1e-17


class TestReachStars:
    def test_vee_splits_into_two(self):
        stars = reach_stars(vee_layer_net(), Box([-1.0], [1.0]))
        assert len(stars) == 2
        # union is {(t,0)} cup {(0,t)} for t in [0,1]
        for t in np.linspace(0, 1, 11):
            assert union_contains(stars, [t, 0.0])
            assert union_contains(stars, [0.0, t])
        assert not union_contains(stars, [0.5, 0.5])
        assert not union_contains(stars, [1.5, 0.0])

    def test_identity_net_single_star(self):
        net = Network(2, [Layer.linear([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0])])
        stars = reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]))
        assert len(stars) == 1
        assert np.allclose(stars[0].center, [1.0, -1.0])

    def test_two_sided_containment(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            net = random_network([2, 3, 2, 2], 1.0, seed=seed)
            box = Box([-1.0, -1.0], [1.0, 1.0])
            stars = reach_stars(net, box)
            X = box.sample(rng, 200)
            # forward: every achievable output lies in the union
            Y = net.forward_batch(X)
            for y in Y[:60]:
                assert union_contains(stars, y)
            # backward: LP-optimal predicate points of each star map back to
            # real inputs whose outputs land exactly on the star
            for s in stars:
                for i in range(s.dim):
                    r = lp_max(s.basis[i], s.constr_mat, s.constr_rhs)
                    if r.optimal:
                        x = box.center() + (box.upper - box.lower) / 2.0 * r.point
                        y = s.center + s.basis @ r.point
                        assert np.allclose(net.forward(x), y, atol=1e-7)

    def test_star_count_bounded_by_patterns(self):
        net = random_network([2, 4, 1], 1.0, seed=2)
        stars = reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]))
        assert 1 <= len(stars) <= 2**4

    def test_star_cap(self):
        net = random_network([2, 6, 6, 1], 1.5, seed=1)
        with pytest.raises(ResourceLimitError):
            reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]),
                        star_cap=2)

    def test_interval_dominates_stars(self):
        for seed in range(4):
            net = random_network([2, 3, 3, 2], 1.2, seed=seed)
            box = Box([-1.0, -0.5], [0.5, 1.0])
            stars = reach_stars(net, box)
            ib = reach_box(net, box)
            for s in stars:
                bb = bounding_box(s)
                assert np.all(bb.lower >= ib.lower - 1e-8)
                assert np.all(bb.upper <= ib.upper + 1e-8)


class TestPredicateBoxes:
    """Each star's predicate box is an outer bound of its predicate
    polytope, tightened by the cuts that made it."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_boxes_bound_every_star(self, data):
        net, box = data.draw(net_and_box())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pts = rng.uniform(-1.0, 1.0, (400, len(box)))
        for s in reach_stars(net, box):
            lo, hi = s.pred_box
            assert np.isfinite(lo).all() and np.isfinite(hi).all()
            assert np.all(lo <= s.point) and np.all(s.point <= hi)
            # The boxes hold the carried points, which LPs find feasible
            # to within FEAS_TOL.
            assert np.all(-1.0 - FEAS_TOL <= lo) and np.all(hi <= 1.0 + FEAS_TOL)
            inside = pts[np.all(pts @ s.constr_mat.T <= s.constr_rhs, axis=1)]
            assert np.all(lo <= inside) and np.all(inside <= hi)
            for j, e in enumerate(np.eye(len(lo))):
                low, high = reference_range(0.0, e, s.constr_mat, s.constr_rhs)
                assert lo[j] - FEAS_TOL <= low and high <= hi[j] + FEAS_TOL

    def test_split_children_divide_the_cut_coordinate(self):
        # relu(a_0 - 0.5) over [-1, 1]^2 cuts predicate coordinate 0 at 0.5.
        net = Network(2, [Layer.relu([[1.0, 0.0]], [-0.5])])
        kept, zeroed = reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]))
        assert kept.pred_box[0][0] == pytest.approx(0.5, abs=1e-12)
        assert kept.pred_box[1][0] == 1.0
        assert zeroed.pred_box[0][0] == -1.0
        assert zeroed.pred_box[1][0] == pytest.approx(0.5, abs=1e-12)
        for s in (kept, zeroed):
            assert s.pred_box[0][1] == -1.0 and s.pred_box[1][1] == 1.0


class TestSupNorm:
    def point_star(self):
        # A degenerate box: every basis column is zero.
        net = Network(2, [Layer.linear(np.eye(2), np.zeros(2))])
        return reach_stars(net, Box([3.0, -4.0], [3.0, -4.0]))

    def test_point_star_linf(self):
        assert star_sup_norm(self.point_star(), "inf") == pytest.approx(4.0, abs=1e-9)

    def test_point_star_l2(self):
        assert star_sup_norm(self.point_star(), "l2") == pytest.approx(5.0, abs=1e-9)

    def test_vee_image(self):
        stars = reach_stars(vee_layer_net(), Box([-1.0], [1.0]))
        assert star_sup_norm(stars, "inf") == pytest.approx(1.0, abs=1e-9)

    def test_l2_upper_bounds_sampled(self):
        net = random_network([2, 3, 2], 1.0, seed=9)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        stars = reach_stars(net, box)
        bound = star_sup_norm(stars, "l2")
        rng = np.random.default_rng(3)
        Y = net.forward_batch(box.sample(rng, 5000))
        assert np.linalg.norm(Y, axis=1).max() <= bound + 1e-9

    @pytest.mark.parametrize("norm", ["inf", "l2"])
    def test_one_lp_batch_per_call(self, monkeypatch, norm):
        net = random_network([2, 6, 6, 2], 1.0, seed=1)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        stars = reach_stars(net, box)
        want = reference_sup_norm(reference_reach_stars(net, box), norm)
        lp_calls, phase_one_calls = [], []
        real_lp, real_phase_one = nnbisim.star.lp_max_batch, nnbisim.star.phase_one_batch
        monkeypatch.setattr(nnbisim.star, "lp_max_batch",
                            lambda *a: lp_calls.append(1) or real_lp(*a))
        for module in (nnbisim.star, nnbisim.lp):
            monkeypatch.setattr(module, "phase_one_batch",
                                lambda *a: phase_one_calls.append(1) or real_phase_one(*a))
        assert star_sup_norm(stars, norm) == want
        # One batch from the stars' own starts, one from phase 1 for the
        # stars that come near the supremum.
        assert len(stars) > 1 and len(lp_calls) == 2 and len(phase_one_calls) <= 1


def basic_point(starts, k):
    """The point x = u - v of member k's start, read as lp_max_batch reads
    an optimum."""
    n = starts.A.shape[2]
    x = np.zeros(starts.tableau.shape[2] - 1)
    x[starts.basis[k]] = starts.tableau[k, :, -1]
    return x[:n] - x[n:2 * n]


class TestStartsAlignedWithStars:
    """Member k of a StarSet's starts is star k's constraint system and a
    feasible basis of it whose basic point is star k's carried point."""

    def check_starts(self, stars, seed):
        """LPs from the stored starts reach lp_max's optimum."""
        rng = np.random.default_rng(seed)
        idx = np.arange(len(stars))
        c = rng.uniform(-1.0, 1.0, (idx.size, stars.P.shape[1]))
        got = lp_max_batch(c, stars.starts, idx)
        for j in idx:
            star = stars[j]
            want = lp_max(c[j], star.constr_mat, star.constr_rhs)
            assert got.optimal[j] and want.optimal
            assert got.value[j] == pytest.approx(want.value, rel=1e-9, abs=1e-9)
            assert np.all(star.constr_mat @ got.point[j] <= star.constr_rhs + FEAS_TOL)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_star_starts_at_its_point(self, data):
        net, box = data.draw(net_and_box())
        stars = reach_stars(net, box)
        s = stars.starts
        assert len(s) == len(stars) and s.feasible.all()
        assert np.all(s.tableau[:, :, -1] >= 0.0)
        for k, star in enumerate(stars):
            assert np.array_equal(basic_point(s, k), star.point)
            assert np.all(star.constr_mat @ star.point <= star.constr_rhs + FEAS_TOL)

    def test_reach_stars_with_growing_row_count(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        net = random_network([2, 6, 6, 2], 1.0, seed=1)
        stars = reach_stars(net, box)
        # Splits added cut rows to the 4 rows of the input star, so the
        # starts taken before a split were padded when the stack grew.
        assert stars.starts.A.shape[1] > 4 and stars.starts.feasible.all()
        self.check_starts(stars, seed=0)
        tableau = stars.starts.tableau.copy()
        star_sup_norm(stars, "inf")  # re-solves from phase 1 on its own copy
        assert np.array_equal(stars.starts.tableau, tableau)
        self.check_starts(stars, seed=1)

    def test_stacked_stars(self):
        # LPs on half of a set whose starts come from phase 1 are lp_max's.
        net = random_network([2, 6, 6, 2], 1.0, seed=1)
        reached = reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]))
        stars = reached._unsolved(np.arange(len(reached)))
        assert stars.starts.feasible.all()
        half = np.arange(0, len(stars), 2)
        rng = np.random.default_rng(2)
        c = rng.uniform(-1.0, 1.0, (half.size, 2))
        got = lp_max_batch(c, stars.starts, half)
        for j, k in enumerate(half):
            want = lp_max(c[j], stars[k].constr_mat, stars[k].constr_rhs)
            assert float(got.value[j]).hex() == float(want.value).hex()
            assert np.array_equal(got.point[j], want.point)

    def test_phase_one_only_for_the_input_star(self, monkeypatch):
        runs = []
        real = nnbisim.star.phase_one_batch
        for module in (nnbisim.star, nnbisim.lp):
            monkeypatch.setattr(module, "phase_one_batch",
                                lambda A, d, rows: runs.append(np.array(A)) or real(A, d, rows))
        net = random_network([2, 6, 6, 2], 1.0, seed=1)
        stars = reach_stars(net, Box([-1.0, -1.0], [1.0, 1.0]))
        # Every split child starts from a tableau its parent had.
        assert len(stars) > 10 and stars.starts.feasible.all()
        assert len(runs) == 1
        assert np.array_equal(runs[0], np.vstack([np.eye(2), -np.eye(2)])[None])

    def test_cut_off_start_falls_back_to_phase_one(self, monkeypatch):
        # Three children of the unit square's star, whose start sits at
        # a = 0, cut by a_0 <= e: the slack at the start is e.
        reached = reach_stars(Network(2, [Layer.linear(np.eye(2), np.zeros(2))]),
                              Box([-1.0, -1.0], [1.0, 1.0]))
        src = np.zeros(3, dtype=np.intp)
        starts = reached.starts.take(src, 5, np.ones(3, dtype=bool))
        rows = np.tile([1.0, 0.0], (3, 1))
        e = np.array([-0.5, -0.1 * FEAS_TOL, 0.5])
        runs = []
        real = nnbisim.lp.phase_one_batch
        for module in (nnbisim.star, nnbisim.lp):
            monkeypatch.setattr(module, "phase_one_batch",
                                lambda A, d, rows: runs.extend(rows) or real(A, d, rows))
        starts.add_row(np.arange(3), rows, e)
        # Below -FEAS_TOL the start is lost and phase 1 gives the member a
        # new one at once; above, rounding noise reads 0.
        assert runs == [5] and starts.feasible.all()
        assert starts.tableau[1, 4, -1] == 0.0 and starts.tableau[2, 4, -1] == 0.5
        children = StarSet(reached.C[src], reached.V[src],
                           np.array([[-0.75, 0.0], [0.0, 0.0], [0.0, 0.0]]), starts,
                           tuple(b[src] for b in reached.pred_box))
        got = lp_max_batch(np.tile([1.0, 1.0], (3, 1)), starts, np.arange(3))
        assert runs == [5]
        want = [lp_max([1.0, 1.0], s.constr_mat, s.constr_rhs).value for s in children]
        assert got.optimal.all()
        assert got.value == pytest.approx(want, abs=FEAS_TOL)
        # Only the lost start came from phase 1, so its LP is lp_max's bit
        # for bit.
        assert float(got.value[0]).hex() == float(want[0]).hex()


@pytest.mark.xfail(strict=True, reason=(
    "FOUND: lp_max treats reduced costs under FEAS_TOL (1e-9) as zero, so an "
    "objective of ~1.55e-10 stops at its start with value 0.0 and the exact "
    "back-end reads the tiny-weight neuron as never active: epsilon_upper 0.0 "
    "against the interval 5.0, and a wrong Safe for y >= 4"))
def test_tiny_weight_neuron_is_not_read_as_dead():
    big = Network(1, [Layer.relu([[1e-11]], [-2.5e-10]), Layer.linear([[1e11]], [0.0])])
    box = Box([-1.0], [30.0])
    top = float(big.forward(np.array([30.0]))[0])  # the true supremum, ~5.0
    assert top > 4.9
    bound = bisim_error_upper(big, constant_net(0.0), box, method="exact")
    assert bound.epsilon_upper >= top
    spec = LinearSpec([(np.array([[-1.0]]), np.array([-4.0]))])  # unsafe: y >= 4
    assert verify(big, box, spec, method="exact").status != SAFE


def reference_range(off, row, A, d):
    """Ordered [lo, hi] of off + row @ a over {A a <= d} by two LPs."""
    if not np.any(np.abs(row) > 0.0):
        return off, off
    hi = lp_max(row, A, d)
    lo = lp_max(-row, A, d)
    upper = off + hi.value if hi.optimal else np.inf
    lower = off - lo.value if lo.optimal else -np.inf
    return min(lower, upper), max(lower, upper)


def reference_reach_stars(net, box):
    """Star reachability over a box with both range LPs at every ReLU
    decision.

    Stars are plain (center, basis, constr_mat, constr_rhs) tuples; the
    first is the box's: half-width diagonal basis and |a_i| <= 1.
    """
    n = len(box)
    stars = [(box.center(), np.diag((box.upper - box.lower) / 2.0),
              np.vstack([np.eye(n), -np.eye(n)]), np.ones(2 * n))]
    for lay in net.layers:
        stars = [(lay.weights @ c + lay.bias, lay.weights @ V, A, d)
                 for c, V, A, d in stars]
        for i in np.flatnonzero(lay.relu_mask):
            nxt = []
            for c, V, A, d in stars:
                lo, hi = reference_range(c[i], V[i], A, d)
                if lo >= 0.0:
                    nxt.append((c, V, A, d))
                    continue
                zc, zV = c.copy(), V.copy()
                zc[i] = 0.0
                zV[i, :] = 0.0
                if hi > 0.0:
                    nxt.append((c, V, np.vstack([A, -V[i]]), np.append(d, c[i])))
                    A, d = np.vstack([A, V[i]]), np.append(d, -c[i])
                nxt.append((zc, zV, A, d))
            stars = nxt
    return stars


def reference_sup_norm(stars, norm):
    """max over stars of the norm of their LP bounding boxes."""
    best = 0.0
    for c, V, A, d in stars:
        lows, highs = zip(*(reference_range(c[i], V[i], A, d) for i in range(len(c))))
        best = max(best, sup_norm_box(Box(lows, highs), norm))
    return best


def reference_exact_verify(net, box, spec, seed=42):
    """verify(method="exact") with one LP per star and polytope."""
    stars = reference_reach_stars(net, box)
    if not any(lp_feasible(np.vstack([S, A @ V]), np.concatenate([r, d - A @ c]))
               for A, d in spec.unsafe_polytopes for c, V, S, r in stars):
        return Verdict(SAFE)
    rng = np.random.default_rng(seed)
    candidates = np.vstack([box.center(), box.sample(rng, SEARCH_SAMPLES)])
    # The same batched test as verify's search: on a boundary a per-row
    # product can round the other way.
    Y = net.forward_batch(candidates)
    hits = np.zeros(len(candidates), dtype=bool)
    for A, d in spec.unsafe_polytopes:
        hits |= np.all(Y @ A.T <= d, axis=1)
    for x in candidates[hits]:
        if spec.holds_at(net.forward(x)):
            return Verdict(UNSAFE, witness=x)
    return Verdict(UNCERTAIN)


@st.composite
def net_and_box(draw):
    """Small nets for the exact back-end: width-1 layers, mixed ReLU and
    identity neurons, zero-width input dimensions. Shapes and activation
    tags come from hypothesis, weights from a seeded generator so that
    most draws make the neurons split."""
    widths = draw(st.lists(st.integers(1, 4), min_size=3, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layers = []
    for rows, cols in zip(widths[1:], widths[:-1]):
        tags = draw(st.lists(st.sampled_from([RELU, RELU, IDENTITY]),
                             min_size=rows, max_size=rows))
        layers.append(Layer(rng.uniform(-1.5, 1.5, (rows, cols)),
                            rng.uniform(-0.5, 0.5, rows), tags))
    n = widths[0]
    lower = rng.uniform(-1.0, 1.0, n)
    width = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=n, max_size=n))
    return Network(n, layers), Box(lower, lower + np.array(width))


def baseline_pair():
    """The ROADMAP baseline pair, its box and its reference max-norm epsilon."""
    big = random_network([2, 10, 10, 1], 1.0, seed=7)
    small = random_network([2, 4, 1], 1.0, seed=8)
    box = Box([-1.0, -1.0], [1.0, 1.0])
    ref = reference_sup_norm(
        reference_reach_stars(merge(big, small), box), "inf")
    return big, small, box, ref


class TestPrunedMatchesReference:
    """The LP-pruned back-end gives the stars of two LPs per ReLU decision."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_same_stars_and_sup_norms(self, data):
        net, box = data.draw(net_and_box())
        got = reach_stars(net, box)
        ref = reference_reach_stars(net, box)
        assert len(got) == len(ref)
        for s, (c, V, A, d) in zip(got, ref):
            assert np.array_equal(s.center, c) and np.array_equal(s.basis, V)
            assert np.array_equal(s.constr_mat, A) and np.array_equal(s.constr_rhs, d)
        for norm in ("inf", "l2"):
            assert star_sup_norm(got, norm) == reference_sup_norm(ref, norm)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exact_verify_matches_reference(self, data):
        net, box = data.draw(net_and_box())
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = net.forward_batch(box.sample(rng, 50))
        polys = []
        for _ in range(data.draw(st.integers(1, 2))):
            A = rng.uniform(-1.0, 1.0, (data.draw(st.integers(1, 3)), net.output_dim))
            shift = data.draw(st.sampled_from([-1.0, -0.1, 0.0, 0.1]))
            polys.append((A, A @ y[rng.integers(50)] + shift))
        spec = LinearSpec(polys)
        got = verify(net, box, spec, method="exact")
        ref = reference_exact_verify(net, box, spec)
        assert got.status == ref.status
        assert np.array_equal(got.witness, ref.witness)

    def test_phase_one_once_per_constraint_set(self, monkeypatch):
        big, small, box, ref = baseline_pair()
        calls, systems, runs = [], set(), []
        real_lp, real_phase_one = nnbisim.star.lp_max_batch, nnbisim.star.phase_one_batch

        def counted_lp(c, starts, which, floor):
            # one logical LP per row of the batch
            for k in which:
                calls.append(1)
                A, d = starts.A[k, :starts.rows[k]], starts.d[k, :starts.rows[k]]
                systems.add((A.shape, A.tobytes(), d.tobytes()))
            return real_lp(c, starts, which, floor)

        def counted_phase_one(A, d, rows):
            runs.extend(rows)
            return real_phase_one(A, d, rows)

        monkeypatch.setattr(nnbisim.star, "lp_max_batch", counted_lp)
        for module in (nnbisim.star, nnbisim.lp):
            monkeypatch.setattr(module, "phase_one_batch", counted_phase_one)
        bound = bisim_error_upper(big, small, box, method="exact")
        # 290 LPs on 165 systems. Each star's own predicate box, tightened
        # by its cuts, settles most ReLU decisions in closed form, and the
        # max norm solves only the output ends that can reach the lower
        # bound. Split children start from their parents' tableaus, so
        # phase 1 runs for the input star and for the one star near the
        # supremum that the sup-norm solves again from phase 1.
        assert len(calls) == 290
        assert len(runs) == 2 and runs[0] == 4
        assert bound.epsilon_upper == ref

    def test_lp_count_on_baseline_pair(self, monkeypatch):
        big, small, box, ref = baseline_pair()
        calls = []
        real = nnbisim.star.lp_max_batch
        monkeypatch.setattr(nnbisim.star, "lp_max_batch",
                            lambda c, s, which, floor: calls.extend(which)
                            or real(c, s, which, floor))
        bound = bisim_error_upper(big, small, box, method="exact")
        # Two LPs per decision and per output bound make 2122 calls.
        assert len(calls) <= 1061
        assert bound.epsilon_upper == ref
