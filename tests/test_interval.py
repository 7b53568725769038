import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnbisim import (IDENTITY, RELU, Box, Layer, Network, ResourceLimitError,
                     ShapeError, random_network, reach_box_split, split_box)
from conftest import reach_box, two_layer_vee

coeffs = st.floats(-2.0, 2.0, allow_subnormal=False)


@st.composite
def net_and_box(draw):
    """Random shapes: width-1 layers, mixed ReLU/identity, zero-width dims."""
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    layers = []
    for rows, cols in zip(widths[1:], widths[:-1]):
        W = draw(st.lists(coeffs, min_size=rows * cols, max_size=rows * cols))
        b = draw(st.lists(coeffs, min_size=rows, max_size=rows))
        acts = draw(st.lists(st.sampled_from([RELU, IDENTITY]),
                             min_size=rows, max_size=rows))
        layers.append(Layer(np.reshape(W, (rows, cols)), b, acts))
    lower = np.array(draw(st.lists(coeffs, min_size=widths[0], max_size=widths[0])))
    width = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                          min_size=widths[0], max_size=widths[0]))
    return Network(widths[0], layers), Box(lower, lower + np.array(width))


def reference_cells(box, k):
    """The uniform grid, one Box per cell, in itertools.product order."""
    edges = [np.linspace(box.lower[j], box.upper[j], k + 1) for j in range(len(box))]
    return [Box([edges[j][i] for j, i in enumerate(idx)],
                [edges[j][i + 1] for j, i in enumerate(idx)])
            for idx in itertools.product(range(k), repeat=len(box))]


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
    lower = b + (W * np.where(nonneg, box.lower, box.upper)).sum(axis=1)
    upper = b + (W * np.where(nonneg, box.upper, box.lower)).sum(axis=1)
    return Box(lower, upper)


def act_bounds(relu_mask, box):
    """Per-neuron activations applied to an interval vector."""
    relu_mask = np.asarray(relu_mask, dtype=bool)
    lower = np.where(relu_mask, np.maximum(box.lower, 0.0), box.lower)
    upper = np.where(relu_mask, np.maximum(box.upper, 0.0), box.upper)
    return Box(lower, upper)


def reference_reach(net, box):
    """Per-box interval propagation, one layer at a time."""
    for lay in net.layers:
        box = act_bounds(lay.relu_mask, affine_bounds(lay.weights, lay.bias, box))
    return box


class TestAffineBounds:
    def test_vee_matrix(self):
        out = affine_bounds([[1.0], [-1.0]], [0.0, 0.0], Box([-1.0], [1.0]))
        assert np.allclose(out.lower, [-1.0, -1.0])
        assert np.allclose(out.upper, [1.0, 1.0])

    def test_zero_matrix_is_bias(self):
        out = affine_bounds(np.zeros((1, 2)), [5.0], Box([-9.0, 0.0], [9.0, 2.0]))
        assert np.allclose(out.lower, [5.0]) and np.allclose(out.upper, [5.0])

    def test_identity_passthrough(self):
        box = Box([-1.0, 2.0], [0.5, 3.0])
        out = affine_bounds(np.eye(2), np.zeros(2), box)
        assert np.array_equal(out.lower, box.lower)
        assert np.array_equal(out.upper, box.upper)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            affine_bounds(np.eye(2), np.zeros(2), Box([0.0], [1.0]))


class TestActBounds:
    def test_relu_straddling(self):
        out = act_bounds([True], Box([-1.0], [1.0]))
        assert np.allclose(out.lower, [0.0]) and np.allclose(out.upper, [1.0])

    def test_relu_positive(self):
        out = act_bounds([True], Box([2.0], [3.0]))
        assert np.allclose(out.lower, [2.0]) and np.allclose(out.upper, [3.0])

    def test_identity(self):
        out = act_bounds([False], Box([-1.0], [1.0]))
        assert np.allclose(out.lower, [-1.0]) and np.allclose(out.upper, [1.0])


class TestReachBox:
    def test_point_box_matches_eval(self):
        net = two_layer_vee()
        out = reach_box(net, Box([-3.0], [-3.0]))
        assert np.allclose(out.lower, [3.0], atol=1e-12)
        assert np.allclose(out.upper, [3.0], atol=1e-12)

    def test_hand_interval(self):
        out = reach_box(two_layer_vee(), Box([-3.0], [3.0]))
        assert np.allclose(out.lower, [0.0])
        assert np.allclose(out.upper, [6.0])

    def test_point_boxes_reproduce_eval(self):
        net = random_network([3, 6, 4, 2], 1.0, seed=17)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.uniform(-1, 1, 3)
            out = reach_box(net, Box(x, x))
            y = net.forward(x)
            assert np.max(np.abs(out.lower - y)) <= 1e-12
            assert np.max(np.abs(out.upper - y)) <= 1e-12

    def test_monte_carlo_containment(self):
        rng = np.random.default_rng(7)
        for seed in range(5):
            net = random_network([2, 5, 4, 2], 1.5, seed=seed)
            box = Box([-1.0, -0.5], [1.0, 2.0])
            out = reach_box(net, box)
            Y = net.forward_batch(box.sample(rng, 10**4))
            assert np.all(Y >= out.lower - 1e-12)
            assert np.all(Y <= out.upper + 1e-12)

    def test_inclusion_monotonicity(self):
        net = random_network([2, 5, 3, 1], 1.5, seed=3)
        rng = np.random.default_rng(4)
        outer = Box([-1.0, -1.0], [1.0, 1.0])
        big = reach_box(net, outer)
        for _ in range(20):
            lo = rng.uniform(-1, 0, 2)
            hi = lo + rng.uniform(0, 1, 2)
            small = reach_box(net, Box(lo, np.minimum(hi, 1.0)))
            assert np.all(small.lower >= big.lower - 1e-12)
            assert np.all(small.upper <= big.upper + 1e-12)


class TestSplit:
    def test_single_cell_equals_reach_box(self):
        # The interval method is the one-cell grid: the whole box, its
        # centre as the witness-search point, the per-box reference bounds.
        net = random_network([3, 5, 4, 2], 1.0, seed=12)
        box = Box([-1.0, 0.5, -2.0], [0.3, 0.5, 1.0])
        assert np.array_equal(split_box(box, 1).lower, [box.lower])
        assert np.array_equal(split_box(box, 1).upper, [box.upper])
        cells = reach_box_split(net, box, 1)
        ref = reference_reach(net, box)
        assert len(cells) == 1
        assert np.array_equal(cells.centers, [box.center()])
        assert np.allclose(cells[0].lower, ref.lower, rtol=0.0, atol=1e-12)
        assert np.allclose(cells[0].upper, ref.upper, rtol=0.0, atol=1e-12)

    def test_cells_never_loosen(self):
        net = two_layer_vee()
        box = Box([-3.0], [3.0])
        whole = reach_box(net, box)
        cells = reach_box_split(net, box, 4)
        assert len(cells) == 4
        assert max(c.upper[0] for c in cells) <= whole.upper[0]
        for c in cells:
            assert np.all(c.lower >= whole.lower - 1e-12)
            assert np.all(c.upper <= whole.upper + 1e-12)

    def test_split_box_partition(self):
        box = Box([0.0, 0.0], [1.0, 2.0])
        cells = split_box(box, 2)
        assert len(cells) == 4
        assert np.allclose(cells[0].lower, [0.0, 0.0])
        assert np.allclose(cells[-1].upper, [1.0, 2.0])

    def test_cell_cap(self):
        # 8^7 cells is over the cap of 10^6; the check runs before any array.
        box = Box(np.zeros(7), np.ones(7))
        with pytest.raises(ResourceLimitError, match="exceeds the cap"):
            split_box(box, 8)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_batched_matches_per_cell_reference(self, data):
        net, box = data.draw(net_and_box())
        k = data.draw(st.integers(1, 3))
        got = reach_box_split(net, box, k)
        ref_cells = reference_cells(box, k)
        cells = split_box(box, k)
        assert len(got) == len(cells) == len(ref_cells)
        assert np.array_equal(cells.lower, np.array([c.lower for c in ref_cells]))
        assert np.array_equal(cells.upper, np.array([c.upper for c in ref_cells]))
        for cell, out in zip(ref_cells, got):
            ref = reference_reach(net, cell)
            scale = max(1.0, np.abs(ref.lower).max(), np.abs(ref.upper).max())
            assert np.allclose(out.lower, ref.lower, rtol=0.0, atol=1e-12 * scale)
            assert np.allclose(out.upper, ref.upper, rtol=0.0, atol=1e-12 * scale)

    def test_grid_order_is_last_dimension_fastest(self):
        cells = split_box(Box([0.0, 0.0, 0.0], [2.0, 2.0, 2.0]), 2)
        idx = [tuple(c.lower.astype(int)) for c in cells]
        assert idx == list(itertools.product(range(2), repeat=3))
        assert np.array_equal(cells.centers[1], [0.5, 0.5, 1.5])

    def test_config_validation(self):
        for k in (0, -2):
            with pytest.raises(ValueError, match="cells_per_dim"):
                split_box(Box([0.0], [1.0]), k)
