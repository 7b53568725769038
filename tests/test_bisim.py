import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnbisim.bisim
from nnbisim import (Box, LinearSpec, Layer, MergePreconditionError, Network,
                     NumericError, ShapeError, bisim_error_lower_mc,
                     ResourceLimitError, bisim_error_upper, random_network, reach,
                     reach_stars, verify)
from nnbisim.bisim import METHODS, ErrorBound
from nnbisim.network import _BLOCK_ROWS, _blocks
from nnbisim.norms import batch_norms
from conftest import constant_net, random_pair, run_one_blas_thread, whole_batch


def dependency_loss_net():
    """relu passthrough then identity: f(x) = relu(x)."""
    return Network(1, [Layer.relu([[1.0]], [0.0]),
                       Layer.linear([[1.0]], [0.0])])


class TestUpperBound:
    def test_identical_nets_exact_zero(self):
        net = random_network([2, 3, 1], 1.0, seed=4)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        bound = bisim_error_upper(net, net, box, method="exact")
        assert bound.epsilon_upper == pytest.approx(0.0, abs=1e-9)
        assert bound.method == "exact-star"

    def test_interval_dependency_loss(self):
        # both branches bound [0,1]; the comparison layer forgets they are
        # the same network, so the interval answer is 1 while the truth is 0
        net = dependency_loss_net()
        box = Box([0.0], [1.0])
        loose = bisim_error_upper(net, net, box, method="interval")
        assert loose.epsilon_upper == pytest.approx(1.0, abs=1e-12)
        tight = bisim_error_upper(net, net, box, method="exact")
        assert tight.epsilon_upper == pytest.approx(0.0, abs=1e-9)

    def test_method_ordering(self):
        for seed in range(6):
            big, small, box = random_pair(seed + 100)
            exact = bisim_error_upper(big, small, box, method="exact").epsilon_upper
            split = bisim_error_upper(big, small, box, method="split",
                                      splits=4).epsilon_upper
            plain = bisim_error_upper(big, small, box,
                                      method="interval").epsilon_upper
            assert exact <= split + 1e-9
            assert split <= plain + 1e-12

    def test_split_monotone_in_refinement(self):
        for seed in range(6):
            big, small, box = random_pair(seed + 200, max_depth=4, max_width=5)
            k2 = bisim_error_upper(big, small, box, method="split",
                                   splits=2).epsilon_upper
            k4 = bisim_error_upper(big, small, box, method="split",
                                   splits=4).epsilon_upper
            assert k4 <= k2 + 1e-12

    def test_symmetry_when_depths_equal(self):
        big = random_network([2, 3, 1], 1.0, seed=31)
        small = random_network([2, 4, 1], 1.0, seed=32)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        for method in ("interval", "exact"):
            ab = bisim_error_upper(big, small, box, method=method).epsilon_upper
            ba = bisim_error_upper(small, big, box, method=method).epsilon_upper
            assert ab == pytest.approx(ba, abs=1e-9)

    def test_swapped_depths_rejected(self):
        shallow = random_network([2, 3, 1], 1.0, seed=1)
        deep = random_network([2, 3, 3, 1], 1.0, seed=2)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(MergePreconditionError):
            bisim_error_upper(shallow, deep, box)

    def test_l2_norm(self):
        box = Box([0.0], [1.0])
        bound = bisim_error_upper(constant_net(3.0, out_dim=2),
                                  constant_net(1.0, out_dim=2), box,
                                  method="interval", norm="l2")
        assert bound.epsilon_upper == pytest.approx(np.sqrt(8.0), abs=1e-12)

    def test_unknown_method(self):
        net = constant_net(1.0)
        with pytest.raises(ValueError):
            bisim_error_upper(net, net, Box([0.0], [1.0]), method="magic")

    @pytest.mark.parametrize("splits", [2.9, True, np.float64(3.0)])
    def test_non_integer_splits_named_before_any_work(self, monkeypatch, splits):
        def merge(*args):
            raise AssertionError("merged before the check")

        big, small, box = random_pair(18)
        message = f"^{re.escape(f'splits must be an integer, got {splits}')}$"
        spec = LinearSpec([(np.ones((1, big.output_dim)), [0.0])])
        with pytest.raises(ValueError, match=message):
            verify(big, box, spec, method="split", splits=splits)
        monkeypatch.setattr(nnbisim.bisim, "merge", merge)
        with pytest.raises(ValueError, match=message):
            bisim_error_upper(big, small, box, method="split", splits=splits)

    def test_numpy_integer_splits_accepted(self):
        big, small, box = random_pair(18)
        got = bisim_error_upper(big, small, box, method="split", splits=np.int64(3))
        want = bisim_error_upper(big, small, box, method="split", splits=3)
        assert got.epsilon_upper == want.epsilon_upper
        assert got.method == want.method == "interval-split(3)"

    @pytest.mark.parametrize("star_cap", [float("nan"), 2.5, True, None, "x"])
    def test_non_integer_star_cap_named_before_any_work(self, monkeypatch, star_cap):
        # A NaN cap would never be exceeded and True would cap at 1.
        def merge(*args):
            raise AssertionError("merged before the check")

        big, small, box = random_pair(18)
        message = f"^{re.escape(f'star_cap must be an integer, got {star_cap}')}$"
        for method in METHODS:
            with pytest.raises(ValueError, match=message):
                reach(big, box, method, star_cap=star_cap)
        with pytest.raises(ValueError, match=message):
            reach_stars(big, box, star_cap=star_cap)
        monkeypatch.setattr(nnbisim.bisim, "merge", merge)
        with pytest.raises(ValueError, match=message):
            bisim_error_upper(big, small, box, method="exact", star_cap=star_cap)

    def test_numpy_integer_star_cap_accepted(self):
        big, small, box = random_pair(18)
        got = bisim_error_upper(big, small, box, method="exact", star_cap=np.int64(10**5))
        want = bisim_error_upper(big, small, box, method="exact")
        assert got.epsilon_upper == want.epsilon_upper
        with pytest.raises(ResourceLimitError, match="exceeds cap 1$"):
            reach_stars(random_network([2, 4, 1], 1.0, seed=2), Box([-1.0, -1.0], [1.0, 1.0]),
                        star_cap=np.int64(1))


class TestLowerBound:
    def test_identical_nets(self):
        net = random_network([2, 3, 1], 1.0, seed=4)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        assert bisim_error_lower_mc(net, net, box, 100, seed=0) == 0.0

    def test_constant_gap(self):
        box = Box([-1.0], [1.0])
        got = bisim_error_lower_mc(constant_net(3.0), constant_net(1.0), box,
                                   samples=7, seed=1)
        assert got == pytest.approx(2.0, abs=1e-12)

    def test_below_every_upper_bound(self):
        for seed in range(5):
            big, small, box = random_pair(seed + 300)
            lower = bisim_error_lower_mc(big, small, box, 2000, seed=seed)
            for method in ("interval", "split", "exact"):
                upper = bisim_error_upper(big, small, box,
                                          method=method).epsilon_upper
                assert lower <= upper + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6),
           method=st.sampled_from(["interval", "split", "exact"]),
           norm=st.sampled_from(["inf", "l2"]))
    def test_sampled_lower_never_exceeds_upper(self, seed, method, norm):
        big, small, box = random_pair(seed)
        lower = bisim_error_lower_mc(big, small, box, 500, seed=seed, norm=norm)
        upper = bisim_error_upper(big, small, box, method=method, norm=norm)
        assert lower <= upper.epsilon_upper + 1e-9

    def test_seed_determinism_and_jobs(self):
        big, small, box = random_pair(17)
        a = bisim_error_lower_mc(big, small, box, 4000, seed=9)
        b = bisim_error_lower_mc(big, small, box, 4000, seed=9)
        c = bisim_error_lower_mc(big, small, box, 4000, seed=9, jobs=4)
        assert a == b == c

    def test_jobs_agree_over_several_blocks(self):
        # 5 blocks of samples: jobs=2 and 4 split them into chunks that are
        # blocked again inside forward_batch.
        big = random_network([3, 7, 6, 5, 2], 1.0, seed=21)
        small = random_network([3, 4, 2], 1.0, seed=22)
        box = Box(-np.ones(3), np.ones(3))
        n = 5 * _BLOCK_ROWS
        X = box.sample(np.random.default_rng(9), n)
        ref = float(np.abs(whole_batch(big, X) - whole_batch(small, X)).max())
        for jobs in (1, 2, 4):
            assert bisim_error_lower_mc(big, small, box, n, seed=9, jobs=jobs) == ref

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_thread_chunks_are_whole_blocks(self, monkeypatch, jobs):
        # Every thread runs whole forward_batch blocks, each holding the
        # rows of the one-pass sample matrix at its place. Chunks made of
        # those blocks keep each row's offset, so a single-output net's
        # gemv rounds the same rows as tail rows.
        seen = []
        real = Network._forward_block

        def spy(net, X, out, work):
            seen.append((net, X.copy()))
            return real(net, X, out, work)

        monkeypatch.setattr(Network, "_forward_block", spy)
        big, small, box = random_pair(18)
        n = 100_000
        bisim_error_lower_mc(big, small, box, n, seed=0, jobs=jobs)
        ref = box.sample(np.random.default_rng(0), n)
        bounds = _blocks(n)
        assert all(a % _BLOCK_ROWS == 0 for a, _ in bounds)
        for net in (big, small):
            blocks = []
            for X in (X for owner, X in seen if owner is net):
                a = int(np.flatnonzero((ref == X[0]).all(axis=1))[0])
                assert np.array_equal(ref[a:a + len(X)], X)
                blocks.append((a, a + len(X)))
            assert sorted(blocks) == bounds

    def test_small_batch_is_one_chunk(self, monkeypatch):
        lengths = []
        real = Network._forward_block
        monkeypatch.setattr(Network, "_forward_block",
                            lambda net, X, *a: lengths.append(len(X)) or real(net, X, *a))
        big, small, box = random_pair(18)
        bisim_error_lower_mc(big, small, box, 6000, seed=0, jobs=4)
        assert lengths == [6000, 6000]

    @pytest.mark.parametrize("samples", [1, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3,
                                         5 * _BLOCK_ROWS])
    @pytest.mark.parametrize("lower, upper", [([-1.0], [2.0]), ([-1.0, 0.0], [1.0, 0.5]),
                                              (-np.ones(5), np.ones(5)),
                                              ([-1.0, 0.25, -2.0], [1.0, 0.25, 0.0])])
    def test_float_hex_equal_to_one_pass(self, samples, lower, upper):
        # Per-thread streams advanced past the earlier rows draw the
        # one-pass matrix, also where a dimension is degenerate.
        box = Box(lower, upper)
        big = random_network([len(box), 6, 5, 3], 1.0, seed=31)
        small = random_network([len(box), 4, 3], 1.0, seed=32)
        X = box.sample(np.random.default_rng(5), samples)
        D = whole_batch(big, X) - whole_batch(small, X)
        for norm in ("inf", "l2"):
            ref = float.hex(float(batch_norms(D, norm).max()))
            for jobs in (1, 2, 3, 4):
                got = bisim_error_lower_mc(big, small, box, samples, seed=5, norm=norm,
                                           jobs=jobs)
                assert float.hex(got) == ref, (norm, jobs)

    def test_single_output_float_hex_equal_on_one_blas_thread(self):
        # numpy hands a one-output layer to gemv, whose tail rows round
        # differently, and a second BLAS thread splits the one-pass batch
        # at an arbitrary row, hence the child process.
        script = (
            "import numpy as np\n"
            "from conftest import whole_batch\n"
            "from nnbisim import Box, bisim_error_lower_mc, random_network\n"
            "from nnbisim.network import _BLOCK_ROWS\n"
            "big = random_network([2, 50, 50, 1], 1.0, seed=0)\n"
            "small = random_network([2, 20, 1], 1.0, seed=1)\n"
            "box = Box([-1.0, -1.0], [1.0, 1.0])\n"
            "for n in (2 * _BLOCK_ROWS + 3, 5 * _BLOCK_ROWS + 2049):\n"
            "    X = box.sample(np.random.default_rng(3), n)\n"
            "    ref = float(np.abs(whole_batch(big, X) - whole_batch(small, X)).max())\n"
            "    for jobs in (1, 2, 3):\n"
            "        got = bisim_error_lower_mc(big, small, box, n, seed=3, jobs=jobs)\n"
            "        assert got.hex() == ref.hex(), (n, jobs)\n")
        res = run_one_blas_thread(script)
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_peak_memory_independent_of_samples(self, jobs):
        # 400k samples of a [5, 50x6, 5] pair: the one-pass sample matrix
        # alone is 15 MiB; streamed, the peak is jobs block workspaces.
        big = random_network([5] + [50] * 6 + [5], 0.3, seed=1)
        small = random_network([5] + [25] * 6 + [5], 0.3, seed=2)
        box = Box(-np.ones(5), np.ones(5))
        tracemalloc.start()
        try:
            bisim_error_lower_mc(big, small, box, 400_000, seed=0, jobs=jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_validated(self, jobs):
        big, small, box = random_pair(18)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            bisim_error_lower_mc(big, small, box, 100, seed=0, jobs=jobs)

    def test_samples_validated(self):
        big, small, box = random_pair(18)
        with pytest.raises(ValueError):
            bisim_error_lower_mc(big, small, box, 0, seed=0)

    @pytest.mark.parametrize("counts, message", [
        ({"samples": 100.5}, "samples must be an integer, got 100.5"),
        ({"samples": True}, "samples must be an integer, got True"),
        ({"jobs": 2.0}, "jobs must be an integer, got 2.0"),
        ({"jobs": True}, "jobs must be an integer, got True"),
    ], ids=["samples-float", "samples-bool", "jobs-float", "jobs-bool"])
    def test_non_integer_counts_named_before_sampling(self, monkeypatch, counts, message):
        def sample(*args):
            raise AssertionError("sampled before the checks")

        monkeypatch.setattr(Box, "sample", sample)
        big, small, box = random_pair(18)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            bisim_error_lower_mc(big, small, box, **{"samples": 100, "seed": 0, **counts})

    def test_numpy_integer_counts_accepted(self):
        big, small, box = random_pair(18)
        got = bisim_error_lower_mc(big, small, box, np.int64(5000), seed=0, jobs=np.int32(2))
        assert got == bisim_error_lower_mc(big, small, box, 5000, seed=0, jobs=2)

    @pytest.mark.parametrize("small_sizes, lower, error, message", [
        ([2, 3, 1], [-1, -1], MergePreconditionError, "output dimensions differ: 3 vs 1"),
        ([3, 3, 3], [-1, -1], MergePreconditionError, "input dimensions differ: 2 vs 3"),
        ([2, 3, 3], [-1, -1, -1], ShapeError, "box length 3 != input_dim 2"),
    ])
    def test_pair_and_box_checked_before_sampling(self, monkeypatch, small_sizes, lower,
                                                  error, message):
        def sample(*args):
            raise AssertionError("sampled before the checks")

        monkeypatch.setattr(Box, "sample", sample)
        big = random_network([2, 3, 3], 1.0, seed=1)
        small = random_network(small_sizes, 1.0, seed=2)
        box = Box(lower, [1] * len(lower))
        with pytest.raises(error, match=f"^{message}$"):
            bisim_error_lower_mc(big, small, box, samples=1000, seed=0)


class TestErrorBound:
    def test_invariant(self):
        with pytest.raises(ValueError):
            ErrorBound(epsilon_upper=1.0, epsilon_lower=2.0, method="interval",
                       norm="inf", wall_time_seconds=0.0)

    @pytest.mark.parametrize("eps", [np.nan, np.inf])
    def test_non_finite_upper_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon_upper must be finite"):
            ErrorBound(epsilon_upper=eps, epsilon_lower=0.0, method="interval",
                       norm="inf", wall_time_seconds=0.0)
        with pytest.raises(NumericError):
            ErrorBound(epsilon_upper=eps, epsilon_lower=0.0, method="interval",
                       norm="inf", wall_time_seconds=0.0)

    def test_exact_reports_matching_lower(self):
        big, small, box = random_pair(21)
        bound = bisim_error_upper(big, small, box, method="exact")
        assert bound.epsilon_lower == bound.epsilon_upper
        loose = bisim_error_upper(big, small, box, method="interval")
        assert loose.epsilon_lower == 0.0


class TestNonFiniteBox:
    big = random_network([2, 3, 1], 1.0, seed=1)
    small = random_network([2, 2, 1], 1.0, seed=2)

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_upper_names_the_bound(self, method):
        with pytest.raises(ValueError,
                           match="box lower bound must be finite, found -inf at index 1"):
            bisim_error_upper(self.big, self.small,
                              Box([0.0, -np.inf], [1.0, 1.0]), method=method)
        with pytest.raises(ValueError,
                           match="box upper bound must be finite, found inf at index 0"):
            bisim_error_upper(self.big, self.small,
                              Box([0.0, 0.0], [np.inf, 1.0]), method=method)

    def test_lower_mc_names_the_bound(self):
        with pytest.raises(ValueError,
                           match="box upper bound must be finite, found inf at index 1"):
            bisim_error_lower_mc(self.big, self.small,
                                 Box([0.0, 0.0], [1.0, np.inf]), 100, seed=0)


def huge_net(seed):
    """A random [2, 4, 3, 1] net with every weight scaled by 1e300: finite,
    but its outputs overflow double precision."""
    net = random_network([2, 4, 3, 1], 1.0, seed=seed)
    return Network(2, [Layer(1e300 * lay.weights, lay.bias, lay.activations)
                       for lay in net.layers])


class TestOverflow:
    box = Box([-1.0, -1.0], [1.0, 1.0])

    def test_numeric_error_is_arithmetic_and_value_error(self):
        assert issubclass(NumericError, ArithmeticError)
        assert issubclass(NumericError, ValueError)

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_upper_raises_numeric_error(self, method):
        small = random_network([2, 2, 1], 1.0, seed=2)
        with pytest.raises(NumericError, match="overflowed"):
            bisim_error_upper(huge_net(1), small, self.box, method=method)

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_verify_raises_numeric_error(self, method):
        spec = LinearSpec([([[1.0]], [-2.0])])
        with pytest.raises(NumericError, match="overflowed"):
            verify(huge_net(1), self.box, spec, method=method)

    def test_mc_overflow_in_one_chunk_raises_for_any_jobs(self):
        # Both nets overflow to inf for x > 0.9, so the difference there is
        # inf - inf = nan; elsewhere it is -1. With seed 2 one of 20 samples
        # lands there, in the second half: a plain max over the two chunk
        # maxima would drop it (max(-1.0, nan) == -1.0).
        def net(bias):
            return Network(1, [Layer.relu([[1e300]], [-0.9e300]),
                               Layer.linear([[1e300]], [bias])])
        big, small, box = net(0.0), net(1.0), Box([-1.0], [1.0])
        X = box.sample(np.random.default_rng(2), 20)
        assert np.all(X[:10] < 0.9) and np.any(X[10:] > 0.9)
        for jobs in (1, 2):
            with pytest.raises(NumericError, match="not finite"):
                bisim_error_lower_mc(big, small, box, 20, seed=2, jobs=jobs)
