import tracemalloc

import numpy as np
import pytest

from nnbisim import (Box, Layer, Network, ShapeError, bisim_error_upper, merge,
                     random_network)
from nnbisim.network import _BLOCK_ROWS
from conftest import run_one_blas_thread, two_layer_vee, whole_batch


class TestForward:
    def test_relu_identity_matrix(self):
        net = Network(2, [Layer.relu(np.eye(2), [0.0, 0.0])])
        assert np.allclose(net.forward([1.0, -1.0]), [1.0, 0.0])

    def test_linear_identity_matrix(self):
        net = Network(2, [Layer.linear(np.eye(2), [0.0, 0.0])])
        assert np.allclose(net.forward([1.0, -1.0]), [1.0, -1.0])

    def test_two_layer_hand_eval(self):
        # layer1 pre = [-3, 3] -> post = [0, 3] -> sum = 3
        net = two_layer_vee()
        assert np.allclose(net.forward([-3.0]), [3.0])

    def test_input_shape_error(self):
        net = two_layer_vee()
        with pytest.raises(ShapeError):
            net.forward([1.0, 2.0])

    def test_batch_matches_single(self):
        net = random_network([3, 5, 4, 2], 1.0, seed=11)
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, (50, 3))
        Y = net.forward_batch(X)
        for i in range(50):
            assert np.allclose(Y[i], net.forward(X[i]), atol=1e-12)

    def test_deterministic(self):
        net = random_network([2, 4, 1], 1.0, seed=5)
        x = np.array([0.3, -0.7])
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_composition_over_single_layer_subnets(self):
        net = random_network([2, 4, 3, 2], 1.0, seed=9)
        x = np.array([0.25, -0.5])
        piecewise = x
        for lay in net.layers:
            piecewise = Network(lay.cols, [lay]).forward(piecewise)
        assert np.array_equal(piecewise, net.forward(x))

    def test_affine_when_activation_pattern_fixed(self):
        net = random_network([2, 6, 4, 1], 1.0, seed=21)

        def pattern(x):
            out = []
            z = np.asarray(x, dtype=float)
            for lay in net.layers:
                pre = lay.weights @ z + lay.bias
                out.append(pre >= 0)
                z = np.where(lay.relu_mask, np.maximum(pre, 0.0), pre)
            return np.concatenate(out)

        rng = np.random.default_rng(3)
        checked = 0
        while checked < 10:
            x1 = rng.uniform(-1, 1, 2)
            x2 = x1 + rng.uniform(-0.05, 0.05, 2)
            mid = (x1 + x2) / 2
            if np.array_equal(pattern(x1), pattern(x2)) and np.array_equal(
                    pattern(x1), pattern(mid)):
                want = (net.forward(x1) + net.forward(x2)) / 2
                assert np.allclose(net.forward(mid), want, atol=1e-10)
                checked += 1


class TestConstruction:
    def test_well_formed(self):
        net = Network(2, [Layer.relu(np.zeros((3, 2)), np.zeros(3)),
                          Layer.linear(np.zeros((1, 3)), np.zeros(1))])
        assert net.layer_sizes() == [2, 3, 1]

    def test_chaining_violation(self):
        with pytest.raises(ShapeError, match=r"^layer 1: weight cols 4 != preceding width 3$"):
            Network(2, [Layer.relu(np.zeros((3, 2)), np.zeros(3)),
                        Layer.linear(np.zeros((1, 4)), np.zeros(1))])

    def test_bias_shape_violation(self):
        for bias in (np.zeros(1), np.zeros(2), np.zeros((3, 1))):
            with pytest.raises(ShapeError, match=r"^layer bias has shape .*, expected \(3,\)$"):
                Layer(np.zeros((3, 2)), bias, ("relu",) * 3)

    def test_weights_must_be_a_matrix(self):
        with pytest.raises(ShapeError, match=r"^layer weights have 3 dimensions, expected 2$"):
            Layer(np.zeros((2, 2, 2)), np.zeros(2), ("relu",) * 2)

    @pytest.mark.parametrize("tags", [2, 4])
    def test_tag_count_violation(self, tags):
        with pytest.raises(ShapeError, match=f"^layer has {tags} activation tags for 3 rows$"):
            Layer(np.zeros((3, 2)), np.zeros(3), ("relu",) * tags)

    def test_no_layers(self):
        with pytest.raises(ValueError, match="network must have at least one layer"):
            Network(2, [])

    def test_input_dim_zero(self):
        with pytest.raises(ValueError, match="input_dim must be positive"):
            Network(0, [Layer.linear(np.zeros((1, 0)), np.zeros(1))])

    def test_short_tag_layer_cannot_reach_the_bound(self):
        good = random_network([2, 3, 1], 1.0, seed=1)
        with pytest.raises(ShapeError, match="2 activation tags for 3 rows"):
            big = Network(2, [Layer(np.ones((3, 2)), np.zeros(3), ("relu",) * 2),
                              good.layers[1]])
            bisim_error_upper(big, good, Box([-1, -1], [1, 1]), method="interval")


class TestRandomNetwork:
    def test_deterministic_for_seed(self):
        a = random_network([2, 3, 1], 1.0, seed=7)
        b = random_network([2, 3, 1], 1.0, seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)

    def test_shapes(self):
        net = random_network([2, 3, 1], 1.0, seed=0)
        assert net.layers[0].weights.shape == (3, 2)
        assert net.layers[1].weights.shape == (1, 3)
        assert all(a == "relu" for a in net.layers[0].activations)
        assert all(a == "identity" for a in net.layers[1].activations)

    def test_single_size_rejected(self):
        with pytest.raises(ValueError):
            random_network([1], 1.0, seed=0)

    def test_bad_weight_range(self):
        with pytest.raises(ValueError):
            random_network([1, 1], 0.0, seed=0)

    def test_range_respected(self):
        net = random_network([3, 8, 2], 0.25, seed=3)
        for lay in net.layers:
            assert np.all(np.abs(lay.weights) <= 0.25)
            assert np.all(np.abs(lay.bias) <= 0.25)


class TestBox:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Box([1.0], [0.0])
        with pytest.raises(ShapeError):
            Box([0.0, 1.0], [1.0])

    @pytest.mark.parametrize("lower, upper", [
        ([[-1.0, -1.0]], [[1.0, 1.0]]),          # one row: len would read 1
        ([[-1.0], [-1.0]], [[1.0], [1.0]]),      # one column: sampling failed to broadcast
        ([-1.0, -1.0], [[1.0, 1.0]]),
    ])
    def test_bounds_must_be_one_dimensional(self, lower, upper):
        with pytest.raises(ShapeError, match="^box bounds must be 1-D"):
            Box(lower, upper)

    def test_contains_and_center(self):
        box = Box([-1.0, 0.0], [1.0, 4.0])
        assert np.allclose(box.center(), [0.0, 2.0])
        assert box.contains([0.5, 3.0])
        assert not box.contains([0.5, 5.0])

    def test_immutable(self):
        box = Box([0.0], [1.0])
        with pytest.raises(ValueError):
            box.lower[0] = 5.0

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="lower bound 1 is nan"):
            Box([0.0, np.nan], [1.0, 1.0])
        with pytest.raises(ValueError, match="upper bound 0 is nan"):
            Box([0.0], [np.nan])

    def test_infinite_bounds_allowed(self):
        box = Box([-np.inf, 0.0], [1.0, np.inf])
        assert box.contains([-1e300, 1e300])


class TestFiniteLayers:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, bad):
        W = np.eye(2)
        W[1, 0] = bad
        with pytest.raises(ValueError, match=rf"weights must be finite, found {bad} at index \(1, 0\)"):
            Layer.relu(W, [0.0, 0.0])

    def test_non_finite_bias_rejected(self):
        with pytest.raises(ValueError, match="bias must be finite, found nan at index 1"):
            Layer.linear(np.eye(2), [0.0, np.nan])


class TestForwardBatchActivations:
    # Mixed, all-ReLU and all-identity layers, as in a merged network.
    MERGED = merge(random_network([3, 7, 6, 5, 2], 1.0, seed=21),
                   random_network([3, 4, 2], 1.0, seed=22))

    def test_bit_identical_to_masked_where(self):
        # One block, and batches that cross block boundaries.
        for rows in (2000, 2 * _BLOCK_ROWS + 17, 3 * _BLOCK_ROWS - 1):
            X = np.random.default_rng(3).uniform(-1.0, 1.0, (rows, 3))
            assert np.array_equal(self.MERGED.forward_batch(X),
                                  whole_batch(self.MERGED, X)), rows

    def test_single_output_blocks_bit_identical_on_one_blas_thread(self):
        # numpy hands a one-output layer to gemv, whose tail rows round
        # differently; blocks that start at multiples of _BLOCK_ROWS keep
        # every row's place in that tail. A second BLAS thread splits the
        # whole batch at an arbitrary row, hence the child process.
        script = (
            "import numpy as np\n"
            "from conftest import whole_batch\n"
            "from nnbisim import random_network\n"
            "from nnbisim.network import _BLOCK_ROWS\n"
            "net = random_network([2, 50, 50, 1], 1.0, seed=0)\n"
            "for extra in (1, 2, 3, 17, 2049, 3001):\n"
            "    X = np.random.default_rng(extra).uniform(-1, 1, (2 * _BLOCK_ROWS + extra, 2))\n"
            "    assert np.array_equal(net.forward_batch(X), whole_batch(net, X)), extra\n")
        res = run_one_blas_thread(script)
        assert res.returncode == 0, res.stderr

    def test_empty_batch(self):
        assert self.MERGED.forward_batch(np.zeros((0, 3))).shape == (0, 2)

    def test_peak_memory_independent_of_batch(self):
        # 100k rows of a [5, 50x6, 5] net: one whole-batch layer array is
        # 38 MiB; blocked, the peak is the (n, 5) output plus two blocks.
        net = random_network([5] + [50] * 6 + [5], 0.3, seed=1)
        X = np.random.default_rng(0).uniform(-1.0, 1.0, (100_000, 5))
        tracemalloc.start()
        try:
            net.forward_batch(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_input_not_modified(self):
        net = Network(2, [Layer.relu(np.eye(2), [0.0, 0.0])])
        X = np.array([[-1.0, 2.0]])
        net.forward_batch(X)
        assert np.array_equal(X, [[-1.0, 2.0]])


class TestActivationTags:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            Layer(np.eye(1), [0.0], ("tanh",))

    def test_mixed_layer(self):
        lay = Layer(np.eye(2), [0.0, 0.0], ("relu", "identity"))
        assert np.allclose(lay.apply(np.array([-2.0, -2.0])), [0.0, -2.0])
