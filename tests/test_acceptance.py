"""End-to-end acceptance suite.

Each test checks one numbered criterion at its stated tolerance and emits
one pass/fail line (shown in the terminal summary; run with -s to stream
them live).
"""

from time import perf_counter

import numpy as np

import conftest
from nnbisim import (Box, Layer, Network, bisim_error_lower_mc,
                     bisim_error_upper, merge, parse_json_net, parse_nnet,
                     random_network, reach_box_split, verify,
                     verify_via_compressed, write_json_net, write_nnet)
from nnbisim.formats import NNetMeta
from nnbisim.safety import SAFE, UNCERTAIN, UNSAFE, LinearSpec
from conftest import constant_net, reach_box


def _report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _seeded_pair(rng, max_depth, max_width, max_dim, max_out, weight_range,
                 seed_base):
    d = int(rng.integers(1, max_dim + 1))
    o = int(rng.integers(1, max_out + 1))
    L = int(rng.integers(2, max_depth + 1))
    S = int(rng.integers(2, L + 1))
    big_sizes = [d] + [int(rng.integers(1, max_width + 1)) for _ in range(L - 1)] + [o]
    small_sizes = [d] + [int(rng.integers(1, max_width + 1)) for _ in range(S - 1)] + [o]
    big = random_network(big_sizes, weight_range, seed=seed_base)
    small = random_network(small_sizes, weight_range, seed=seed_base + 1)
    return big, small, d


def test_criterion_1_merged_network_exactness():
    """Merged-network output equals the direct difference on random pairs."""
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        big, small, d = _seeded_pair(rng, max_depth=6, max_width=20,
                                     max_dim=6, max_out=5, weight_range=2.0,
                                     seed_base=10_000 + 2 * i)
        merged = merge(big, small)
        X = np.random.default_rng(20_000 + i).uniform(-1, 1, (1000, d))
        direct = big.forward_batch(X) - small.forward_batch(X)
        err = float(np.max(np.abs(merged.forward_batch(X) - direct)))
        worst = max(worst, err)
    _report(1, worst <= 1e-9, f"max |merged - direct| = {worst:.3e} (tol 1e-9)")


def test_criterion_2_sandwich_soundness():
    """Sampled lower bound never exceeds any certified upper bound."""
    violations = 0
    worst_gap = -np.inf
    for i in range(50):
        rng = np.random.default_rng(3000 + i)
        big, small, d = _seeded_pair(rng, max_depth=3, max_width=3, max_dim=3,
                                     max_out=2, weight_range=1.0,
                                     seed_base=30_000 + 2 * i)
        center = rng.uniform(-0.5, 0.5, d)
        half = rng.uniform(0.3, 1.0, d)
        box = Box(center - half, center + half)
        lower = bisim_error_lower_mc(big, small, box, 10**4, seed=i)
        for method in ("interval", "split", "exact"):
            upper = bisim_error_upper(big, small, box, method=method,
                                      splits=8).epsilon_upper
            worst_gap = max(worst_gap, lower - upper)
            if lower > upper + 1e-9:
                violations += 1
    _report(2, violations == 0,
            f"50 pairs x 3 methods, max(lower - upper) = {worst_gap:.3e}")


def _grid_max_diff(big, small, box, step=1e-3, chunk=400_000):
    axes = [np.linspace(box.lower[j], box.upper[j],
                        int(round((box.upper[j] - box.lower[j]) / step)) + 1)
            for j in range(len(box))]
    if len(axes) == 1:
        X = axes[0][:, None]
        grids = [X]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        grids = np.array_split(X, max(1, len(X) // chunk))
    best = 0.0
    for part in grids:
        D = big.forward_batch(part) - small.forward_batch(part)
        best = max(best, float(np.max(np.abs(D))))
    return best


def test_criterion_3_exact_backend_tightness():
    """Exact bound matches a dense input grid; interval bound dominates it."""
    worst_over = 0.0
    worst_under = 0.0
    ordering_ok = True
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        d = int(rng.integers(1, 3))
        # 4 + 2 hidden ReLU neurons, well under the 10-neuron budget
        big = random_network([d, 2, 2, 1], 0.9, seed=41_000 + i)
        small = random_network([d, 2, 1], 0.9, seed=42_000 + i)
        box = Box(-np.ones(d), np.ones(d))
        exact = bisim_error_upper(big, small, box, method="exact").epsilon_upper
        plain = bisim_error_upper(big, small, box, method="interval").epsilon_upper
        brute = _grid_max_diff(big, small, box)
        worst_over = max(worst_over, exact - brute)
        worst_under = max(worst_under, brute - exact)
        ordering_ok = ordering_ok and plain >= exact - 1e-9
    ok = worst_over <= 5e-3 and worst_under <= 1e-9 and ordering_ok
    _report(3, ok, f"max(exact - grid) = {worst_over:.3e} (tol 5e-3), "
                   f"max(grid - exact) = {worst_under:.3e}, interval >= exact: {ordering_ok}")


def test_criterion_4_self_bisimulation_zero():
    """Exact error of a network against itself vanishes; interval stays >= 0."""
    worst_exact = 0.0
    interval_values = []
    for i in range(10):
        rng = np.random.default_rng(5000 + i)
        d = int(rng.integers(1, 3))
        net = random_network([d, 2, 2, 1], 1.0, seed=50_000 + i)
        box = Box(-np.ones(d), np.ones(d))
        exact = bisim_error_upper(net, net, box, method="exact").epsilon_upper
        plain = bisim_error_upper(net, net, box, method="interval").epsilon_upper
        worst_exact = max(worst_exact, exact)
        interval_values.append(plain)
        assert plain >= 0.0
    _report(4, worst_exact <= 1e-9,
            f"max exact self-error = {worst_exact:.3e} (tol 1e-9); "
            f"interval self-errors up to {max(interval_values):.3f} "
            "(dependency loss, reported only)")


def test_criterion_5_refinement_monotonicity():
    """Finer uniform grids never loosen the certified bound."""
    ok = True
    worst = -np.inf
    for i in range(20):
        rng = np.random.default_rng(6000 + i)
        big, small, d = _seeded_pair(rng, max_depth=4, max_width=6, max_dim=2,
                                     max_out=2, weight_range=1.5,
                                     seed_base=60_000 + 2 * i)
        box = Box(-np.ones(d), np.ones(d))
        e1 = bisim_error_upper(big, small, box, method="interval").epsilon_upper
        e2 = bisim_error_upper(big, small, box, method="split", splits=2).epsilon_upper
        e4 = bisim_error_upper(big, small, box, method="split", splits=4).epsilon_upper
        worst = max(worst, e4 - e2, e2 - e1)
        ok = ok and e4 <= e2 + 1e-12 and e2 <= e1 + 1e-12
    _report(5, ok, f"max refinement slack = {worst:.3e} (allowance 1e-12)")


def test_criterion_6_verification_soundness():
    """Safe verdicts survive heavy sampling; Unsafe witnesses re-evaluate."""
    counts = {SAFE: 0, UNSAFE: 0, UNCERTAIN: 0}
    ok = True
    for i in range(30):
        rng = np.random.default_rng(7000 + i)
        d = int(rng.integers(1, 4))
        o = int(rng.integers(1, 3))
        net = random_network([d, 5, 4, o], 1.0, seed=70_000 + i)
        box = Box(-np.ones(d), np.ones(d))
        a = rng.normal(size=o)
        a /= np.linalg.norm(a)
        rb = reach_box(net, box)
        support_min = float(np.sum(np.where(a >= 0, a * rb.lower, a * rb.upper)))
        y_center = net.forward(box.center())
        mode = i % 3
        if mode == 0:
            b = support_min - 0.5 - 0.1 * abs(support_min)
        elif mode == 1:
            b = float(a @ y_center) + 0.1
        else:
            b = (support_min + float(a @ y_center)) / 2.0
        spec = LinearSpec([(a[None, :], np.array([b]))])
        method = "split" if i % 5 == 0 else "interval"
        verdict = verify(net, box, spec, method=method, splits=3, seed=i)
        counts[verdict.status] += 1
        if verdict.status == SAFE:
            Y = net.forward_batch(box.sample(np.random.default_rng(i), 10**5))
            ok = ok and not np.any(Y @ a <= b)
        elif verdict.status == UNSAFE:
            ok = ok and spec.holds_at(net.forward(verdict.witness))
        if mode == 0:
            ok = ok and verdict.status == SAFE
        if mode == 1:
            ok = ok and verdict.status == UNSAFE
    _report(6, ok, f"verdicts over 30 instances: {counts}")


def _prune_smallest(net, fraction=0.2):
    magnitudes = np.concatenate([np.abs(l.weights).ravel() for l in net.layers])
    cutoff = np.quantile(magnitudes, fraction)
    layers = []
    for lay in net.layers:
        W = np.where(np.abs(lay.weights) <= cutoff, 0.0, lay.weights)
        layers.append(Layer(W, lay.bias, lay.activations))
    return Network(net.input_dim, layers)


def test_criterion_7_lifting_soundness():
    """A Safe compressed-path verdict implies no sampled violation on the original."""
    ok = True
    safe_count = 0
    for i in range(10):
        big = random_network([2, 8, 8, 1], 1.0, seed=80_000 + i)
        small = _prune_smallest(big, 0.2)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        eps = bisim_error_upper(big, small, box, method="split",
                                splits=4).epsilon_upper
        cells = reach_box_split(small, box, 4)
        floor = min(c.lower[0] for c in cells)
        threshold = floor - eps - 0.5
        spec = LinearSpec([(np.array([[1.0]]), np.array([threshold]))])
        report = verify_via_compressed(big, small, box, spec, method="split",
                                       splits=4)
        if report.verdict_small.status == SAFE:
            safe_count += 1
            Y = big.forward_batch(box.sample(np.random.default_rng(i), 10**5))
            ok = ok and not np.any(Y[:, 0] <= threshold)
    ok = ok and safe_count > 0
    _report(7, ok, f"{safe_count}/10 compressed-path Safe verdicts, "
                   "all confirmed by 1e5-sample search on the original")


def test_criterion_8_uncertain_phenomenon():
    """Direct verification says Safe while the compressed path stays Uncertain."""
    big, small = constant_net(1.0), constant_net(0.5)
    box = Box([-1.0], [1.0])
    spec = LinearSpec([(np.array([[1.0]]), np.array([0.0]))])
    report = verify_via_compressed(big, small, box, spec, method="interval")
    large = verify(big, box, spec, method="interval")
    ok = (large.status == SAFE
          and report.verdict_small.status == UNCERTAIN
          and report.epsilon == 0.5)
    _report(8, ok, f"V_L = {large.status}, "
                   f"V_S = {report.verdict_small.status}, eps = {report.epsilon}")


def test_criterion_9_speedup_direction():
    """Fine-grained direct verification costs at least 5x the compressed path."""
    ratios = []
    box = Box([-1.0, -1.0], [1.0, 1.0])
    spec = LinearSpec([(np.array([[1.0]]), np.array([-1e9]))])
    for i in range(5):
        big = random_network([2, 50, 50, 50, 50, 50, 1], 0.3, seed=90_000 + i)
        small = random_network([2, 10, 10, 1], 0.3, seed=91_000 + i)
        report = verify_via_compressed(big, small, box, spec, method="split",
                                       splits=2)
        t0 = perf_counter()
        large = verify(big, box, spec, method="split", splits=48)
        time_large = perf_counter() - t0
        assert report.verdict_small.status == SAFE
        assert large.status == SAFE
        ratios.append(time_large / report.time_small_seconds)
    ok = all(r >= 5.0 for r in ratios)
    _report(9, ok, "T_L/T_S per pair: " + ", ".join(f"{r:.1f}" for r in ratios))


def test_criterion_10_format_round_trips():
    """Both file formats round-trip exactly; the minimal file evaluates to 2.5."""
    ok = True
    rng = np.random.default_rng(10_500)
    for i in range(50):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 7)) for _ in range(depth + 1)]
        net = random_network(sizes, 2.0, seed=95_000 + i)
        meta = NNetMeta(np.full(sizes[0], -3.0), np.full(sizes[0], 3.0),
                        np.zeros(sizes[0] + 1), np.ones(sizes[0] + 1))
        nnet_text = write_nnet(net, meta)
        reparsed, meta2 = parse_nnet(nnet_text)
        ok = ok and write_nnet(reparsed, meta2) == nnet_text
        json_text = write_json_net(net)
        ok = ok and write_json_net(parse_json_net(json_text)) == json_text
    minimal = ("// minimal\n1,1,1,1,\n1,1,\n0,\n-10.0,\n10.0,\n"
               "0.0,0.0,\n1.0,1.0,\n2.0,\n0.5,\n")
    net, _ = parse_nnet(minimal)
    value = float(net.forward([1.0])[0])
    ok = ok and value == 2.5
    _report(10, ok, f"50 round trips exact; minimal file eval at 1.0 -> {value}")
