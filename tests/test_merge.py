import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnbisim import (IDENTITY, RELU, Layer, MergePreconditionError, Network,
                     UnsupportedShapeError, merge, random_network)
from conftest import constant_net, random_pair


def difference_eval(net_big, net_small, x):
    """big(x) - small(x) on the scalar path; the independent oracle for merge."""
    return net_big.forward(x) - net_small.forward(x)


class TestStructure:
    def test_width_bookkeeping(self):
        big = random_network([2, 3, 3, 1], 1.0, seed=1)    # L = 3
        small = random_network([2, 2, 1], 1.0, seed=2)     # S = 2
        merged = merge(big, small)
        assert merged.layer_sizes() == [2, 5, 5, 2, 1]
        # layer 2 is the pass-through case: top-left is big's second layer,
        # bottom-right the identity, off-diagonals zero
        W = merged.layers[1].weights
        assert np.array_equal(W[:3, :3], big.layers[1].weights)
        assert np.array_equal(W[3:, 3:], np.eye(2))
        assert np.all(W[:3, 3:] == 0.0) and np.all(W[3:, :3] == 0.0)
        assert np.all(merged.layers[1].bias[3:] == 0.0)
        assert merged.layers[1].activations[3:] == ("identity", "identity")

    def test_zero_blocks_and_comparison_layer(self):
        big, small, _ = random_pair(4, max_depth=4, max_width=4)
        merged = merge(big, small)
        L = big.num_layers
        S = small.num_layers
        for m in range(2, L + 1):
            W = merged.layers[m - 1].weights
            rows_top = big.layers[m - 1].rows
            cols_top = big.layers[m - 1].cols
            assert np.all(W[:rows_top, cols_top:] == 0.0)
            assert np.all(W[rows_top:, :cols_top] == 0.0)
        comp = merged.layers[-1]
        o = big.output_dim
        assert np.array_equal(comp.weights, np.hstack([np.eye(o), -np.eye(o)]))
        assert np.all(comp.bias == 0.0)
        assert all(a == "identity" for a in comp.activations)
        assert merged.num_layers == L + 1
        # width formula: hidden widths, then the combined output pair, then output
        small_pass = small.layers[S - 2].rows
        for m in range(1, L):
            want = (big.layers[m - 1].rows
                    + (small.layers[m - 1].rows if m <= S - 1 else small_pass))
            assert merged.layers[m - 1].rows == want

    def test_pure_and_deterministic(self):
        big, small, _ = random_pair(9)
        m1 = merge(big, small)
        m2 = merge(big, small)
        for a, b in zip(m1.layers, m2.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)


class TestExactness:
    def test_identical_networks_give_zero(self):
        net = random_network([2, 3, 2], 1.0, seed=3)
        merged = merge(net, net)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.uniform(-2, 2, 2)
            assert np.allclose(merged.forward(x), 0.0, atol=1e-12)

    def test_matches_difference_oracle(self):
        big = random_network([2, 4, 3, 2], 1.0, seed=1)
        small = random_network([2, 3, 2], 1.0, seed=2)
        merged = merge(big, small)
        rng = np.random.default_rng(42)
        X = rng.uniform(-1, 1, (1000, 2))
        direct = big.forward_batch(X) - small.forward_batch(X)
        via_merge = merged.forward_batch(X)
        assert np.max(np.abs(via_merge - direct)) <= 1e-9

    def test_equal_depth_pair(self):
        big = random_network([2, 4, 2], 1.5, seed=5)
        small = random_network([2, 3, 2], 1.5, seed=6)
        merged = merge(big, small)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-1, 1, 2)
            assert np.allclose(merged.forward(x),
                               difference_eval(big, small, x), atol=1e-10)


@st.composite
def mergeable_pair(draw):
    """A (big, small) pair of random depths and widths with width-1 layers
    and all-ReLU, all-identity or mixed layers, plus inputs to test at."""
    d, o = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    depth_big = draw(st.integers(2, 5))
    depth_small = draw(st.integers(2, depth_big))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def network(depth):
        widths = [d] + [draw(st.integers(1, 4)) for _ in range(depth - 1)] + [o]
        layers = []
        for rows, cols in zip(widths[1:], widths[:-1]):
            kind = draw(st.sampled_from([RELU, IDENTITY, "mixed"]))
            tags = (rng.choice([RELU, IDENTITY], rows).tolist() if kind == "mixed"
                    else [kind] * rows)
            layers.append(Layer(rng.uniform(-1.5, 1.5, (rows, cols)),
                                rng.uniform(-0.5, 0.5, rows), tags))
        return Network(d, layers)

    return network(depth_big), network(depth_small), rng.uniform(-2.0, 2.0, (10, d))


def magnitude(net, x):
    """Largest value of any layer of net at x when every weight, bias and
    input is replaced by its absolute value: a scale for rounding error."""
    h = np.abs(x)
    top = h.max()
    for lay in net.layers:
        h = np.abs(lay.weights) @ h + np.abs(lay.bias)
        top = max(top, h.max())
    return top


class TestMergeProperty:
    @settings(max_examples=100, deadline=None)
    @given(mergeable_pair())
    def test_merged_output_is_difference(self, pair):
        big, small, X = pair
        merged = merge(big, small)
        assert merged.num_layers == big.num_layers + 1
        batch = merged.forward_batch(X)
        for x, y in zip(X, batch):
            ref = difference_eval(big, small, x)
            tol = 1e-12 * (1.0 + magnitude(big, x) + magnitude(small, x))
            assert np.allclose(merged.forward(x), ref, rtol=0.0, atol=tol)
            assert np.allclose(y, ref, rtol=0.0, atol=tol)


class TestDifferenceEval:
    def test_identical(self):
        net = random_network([2, 3, 1], 1.0, seed=8)
        assert np.allclose(difference_eval(net, net, [0.5, -0.5]), 0.0)

    def test_constant_networks(self):
        assert np.allclose(
            difference_eval(constant_net(3.0), constant_net(1.0), [0.0]), [2.0])


class TestPreconditions:
    def test_input_dim_mismatch(self):
        a = random_network([2, 3, 1], 1.0, seed=1)
        b = random_network([3, 3, 1], 1.0, seed=2)
        with pytest.raises(MergePreconditionError, match="input dim"):
            merge(a, b)

    def test_output_dim_mismatch(self):
        a = random_network([2, 3, 1], 1.0, seed=1)
        b = random_network([2, 3, 2], 1.0, seed=2)
        with pytest.raises(MergePreconditionError, match="output dim"):
            merge(a, b)

    def test_depth_ordering(self):
        shallow = random_network([2, 3, 1], 1.0, seed=1)
        deep = random_network([2, 3, 3, 1], 1.0, seed=2)
        with pytest.raises(MergePreconditionError, match="layer count"):
            merge(shallow, deep)

    def test_small_net_too_shallow(self):
        big = random_network([2, 3, 3, 1], 1.0, seed=1)
        one_layer = random_network([2, 1], 1.0, seed=2)
        with pytest.raises(UnsupportedShapeError):
            merge(big, one_layer)
