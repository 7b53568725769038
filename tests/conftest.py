import os
import subprocess
import sys

import numpy as np
import pytest

import nnbisim
from nnbisim import Box, Layer, Network, lp_feasible, random_network, reach_box_split

# The directory that holds the package these tests import, also when pytest
# found it through its own pythonpath setting.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(nnbisim.__file__))


def constant_net(value, input_dim=1, out_dim=1):
    """Two-layer network with zero weights: output is the constant bias."""
    l1 = Layer.relu(np.zeros((1, input_dim)), [0.0])
    l2 = Layer.linear(np.zeros((out_dim, 1)), np.full(out_dim, float(value)))
    return Network(input_dim, [l1, l2])


def reach_box(net, box):
    """Interval bounds of net's outputs over box: the one-cell grid."""
    return reach_box_split(net, box, 1)[0]


def two_layer_vee():
    """layer1 W=[[1],[-1]] ReLU, layer2 sums: f(x) = relu(x) + relu(-x) = |x|."""
    return Network(1, [
        Layer.relu([[1.0], [-1.0]], [0.0, 0.0]),
        Layer.linear([[1.0, 1.0]], [0.0]),
    ])


def whole_batch(net, X):
    """Reference chain for forward_batch: every layer on the whole batch."""
    for lay in net.layers:
        Z = X @ lay.weights.T + lay.bias
        X = np.where(lay.relu_mask, np.maximum(Z, 0.0), Z)
    return X


def run_one_blas_thread(script, *args):
    """Run a Python script with args in a child process on one BLAS
    thread, where the package under test and this directory import."""
    one_thread = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
    path = [PACKAGE_ROOT, os.path.dirname(os.path.abspath(__file__)),
            os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True,
        env={**os.environ, **one_thread,
             "PYTHONPATH": os.pathsep.join(p for p in path if p)})


def random_pair(seed, max_depth=3, max_width=3, max_dim=2, weight_range=1.0,
                out_dim=None):
    """Seeded (big, small) pair small enough for the exact back-end."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, max_dim + 1))
    o = out_dim if out_dim is not None else int(rng.integers(1, 3))
    L = int(rng.integers(2, max_depth + 1))
    S = int(rng.integers(2, L + 1))
    sizes_big = [d] + [int(rng.integers(1, max_width + 1)) for _ in range(L - 1)] + [o]
    sizes_small = [d] + [int(rng.integers(1, max_width + 1)) for _ in range(S - 1)] + [o]
    big = random_network(sizes_big, weight_range, seed=seed * 2 + 1)
    small = random_network(sizes_small, weight_range, seed=seed * 2 + 2)
    return big, small, Box(-np.ones(d), np.ones(d))


def star_contains(star, y, tol=1e-7):
    """Membership in one star, via LP feasibility of the predicate system."""
    y = np.asarray(y, dtype=float)
    M = np.vstack([star.constr_mat, star.basis, -star.basis])
    r = np.concatenate([star.constr_rhs, y - star.center + tol, star.center - y + tol])
    return lp_feasible(M, r)


def union_contains(stars, y, tol=1e-7):
    return any(star_contains(s, y, tol) for s in stars)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line("  " + line)
