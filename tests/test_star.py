import numpy as np
import pytest

import nnbisim.star
from nnbisim import (OPTIMAL, Box, Layer, LPResult, Network, ResourceLimitError, Star,
                     box_to_star, lp_max, random_network, reach_box,
                     reach_stars, star_sup_norm)
from conftest import star_contains, union_contains


def vee_layer_net():
    """x -> (relu(x), relu(-x)); image of [-1,1] is an L-shaped set."""
    return Network(1, [Layer.relu([[1.0], [-1.0]], [0.0, 0.0])])


class TestBoxToStar:
    def test_unit_interval(self):
        s = box_to_star(Box([0.0], [2.0]))
        assert np.allclose(s.center, [1.0])
        assert np.allclose(s.basis, [[1.0]])
        assert np.allclose(s.constr_mat, [[1.0], [-1.0]])
        assert np.allclose(s.constr_rhs, [1.0, 1.0])

    def test_degenerate_box_keeps_zero_column(self):
        s = box_to_star(Box([1.0], [1.0]))
        assert np.allclose(s.basis, [[0.0]])
        assert star_contains(s, [1.0])
        assert not star_contains(s, [1.1])

    def test_rectangle(self):
        s = box_to_star(Box([-1.0, 0.0], [1.0, 4.0]))
        assert np.allclose(s.center, [0.0, 2.0])
        assert np.allclose(s.basis, np.diag([1.0, 2.0]))


class TestStarInvariants:
    def test_infeasible_construction_rejected(self):
        with pytest.raises(ValueError):
            Star([0.0], [[1.0]], [[1.0], [-1.0]], [-1.0, -2.0])

    def test_affine_map(self):
        s = box_to_star(Box([0.0], [2.0])).affine([[3.0]], [1.0])
        assert np.allclose(s.center, [4.0])
        assert np.allclose(s.basis, [[3.0]])

    def test_bounding_box(self):
        s = box_to_star(Box([-1.0, 0.0], [1.0, 4.0]))
        bb = s.bounding_box()
        assert np.allclose(bb.lower, [-1.0, 0.0], atol=1e-9)
        assert np.allclose(bb.upper, [1.0, 4.0], atol=1e-9)


    def test_crossed_lp_range_is_ordered(self, monkeypatch):
        # On a sliver star the two range LPs can cross by rounding; the
        # range must come back ordered, and the bounding box must build.
        star = Star([0.0], [[1e-9]], [[1.0], [-1.0]], [1.0, 1.0], check=False)
        monkeypatch.setattr(nnbisim.star, "lp_max",
                            lambda c, A, d: LPResult(OPTIMAL, -1e-17, None))
        assert star.coord_range(0) == (-1e-17, 1e-17)
        box = star.bounding_box()
        assert box.lower[0] == -1e-17 and box.upper[0] == 1e-17


class TestReachStars:
    def test_vee_splits_into_two(self):
        stars = reach_stars(vee_layer_net(), box_to_star(Box([-1.0], [1.0])))
        assert len(stars) == 2
        # union is {(t,0)} cup {(0,t)} for t in [0,1]
        for t in np.linspace(0, 1, 11):
            assert union_contains(stars, [t, 0.0])
            assert union_contains(stars, [0.0, t])
        assert not union_contains(stars, [0.5, 0.5])
        assert not union_contains(stars, [1.5, 0.0])

    def test_identity_net_single_star(self):
        net = Network(2, [Layer.linear([[2.0, 0.0], [0.0, 1.0]], [1.0, -1.0])])
        stars = reach_stars(net, box_to_star(Box([-1.0, -1.0], [1.0, 1.0])))
        assert len(stars) == 1
        assert np.allclose(stars[0].center, [1.0, -1.0])

    def test_two_sided_containment(self):
        rng = np.random.default_rng(11)
        for seed in range(4):
            net = random_network([2, 3, 2, 2], 1.0, seed=seed)
            box = Box([-1.0, -1.0], [1.0, 1.0])
            in_star = box_to_star(box)
            stars = reach_stars(net, in_star)
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
                        x = in_star.center + in_star.basis @ r.point
                        y = s.center + s.basis @ r.point
                        assert np.allclose(net.forward(x), y, atol=1e-7)

    def test_star_count_bounded_by_patterns(self):
        net = random_network([2, 4, 1], 1.0, seed=2)
        stars = reach_stars(net, box_to_star(Box([-1.0, -1.0], [1.0, 1.0])))
        assert 1 <= len(stars) <= 2**4

    def test_star_cap(self):
        net = random_network([2, 6, 6, 1], 1.5, seed=1)
        with pytest.raises(ResourceLimitError):
            reach_stars(net, box_to_star(Box([-1.0, -1.0], [1.0, 1.0])),
                        star_cap=2)

    def test_interval_dominates_stars(self):
        for seed in range(4):
            net = random_network([2, 3, 3, 2], 1.2, seed=seed)
            box = Box([-1.0, -0.5], [0.5, 1.0])
            stars = reach_stars(net, box_to_star(box))
            ib = reach_box(net, box)
            for s in stars:
                bb = s.bounding_box()
                assert np.all(bb.lower >= ib.lower - 1e-8)
                assert np.all(bb.upper <= ib.upper + 1e-8)


class TestSupNorm:
    def test_point_star_linf(self):
        s = Star([3.0, -4.0], np.zeros((2, 1)), [[1.0], [-1.0]], [1.0, 1.0])
        assert star_sup_norm([s], "inf") == pytest.approx(4.0, abs=1e-9)

    def test_point_star_l2(self):
        s = Star([3.0, -4.0], np.zeros((2, 1)), [[1.0], [-1.0]], [1.0, 1.0])
        assert star_sup_norm([s], "l2") == pytest.approx(5.0, abs=1e-9)

    def test_vee_image(self):
        stars = reach_stars(vee_layer_net(), box_to_star(Box([-1.0], [1.0])))
        assert star_sup_norm(stars, "inf") == pytest.approx(1.0, abs=1e-9)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            star_sup_norm([], "inf")

    def test_l2_upper_bounds_sampled(self):
        net = random_network([2, 3, 2], 1.0, seed=9)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        stars = reach_stars(net, box_to_star(box))
        bound = star_sup_norm(stars, "l2")
        rng = np.random.default_rng(3)
        Y = net.forward_batch(box.sample(rng, 5000))
        assert np.linalg.norm(Y, axis=1).max() <= bound + 1e-9
