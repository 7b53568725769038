"""Seeded workloads for the nnbisim benchmark.

Every workload is a list of pairs (a large network and a neuron-pruned
stand-in built here in numpy) and, for each pair, one op of each kind:

  bisim       a certified epsilon for the pair
  verify      a direct verdict on the large network (the paper's T_L)
  compressed  a lifted verdict through the stand-in (the paper's T_S)
  mc          the Monte-Carlo lower bound from 1e5 samples

The first pairs of every workload are anchors: they are drawn from a fixed
seed, whatever --seed says, so that their outputs can be compared with the
outputs stored in drift_record.json. The other pairs come from --seed.

Reference data (own forward pass on a dense sample of the box) is drawn at
set-up and used by checks.py; it never comes from the program under test.
"""

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import nnbisim
import nnbisim.cli
from nnbisim import Box, Layer, LinearSpec, Network, write_json_net, write_nnet
from nnbisim.formats import NNetMeta

KINDS = ("bisim", "verify", "compressed", "mc")
MC_SAMPLES = 100_000
ANCHOR_SEED = 2022

# Spec levels, cycling over a workload's pairs. "unsafe" puts the threshold
# inside the sampled output range, so the large net has reachable unsafe
# outputs: verify says Unsafe, the compressed path Uncertain. "lifted" puts
# it above every sample by a margin (in units of the sampled output spread)
# that both paths resolve, so both say Safe. A level between the two (direct
# Safe, compressed Uncertain) was tried and dropped: where it falls relative
# to the over-approximation varies from pair to pair, so the verdict mix,
# and with it safe_frac, would vary with the seed. An unsafe verdict op stops
# at the first cell or star that meets the region, a Safe one checks them
# all; two lifted pairs per unsafe one keep the median op inside one mode.
LEVELS = ("unsafe", "lifted", "lifted")


@dataclass
class Pair:
    name: str
    level: str
    big: list            # [(W, b), ...], hidden ReLU, output identity
    small: list
    lower: np.ndarray    # input box
    upper: np.ndarray
    polytopes: list      # unsafe region: [(A, d), ...], A y <= d
    y_big: np.ndarray    # own forward pass of the large net on a dense
                         # reference sample of the box
    lb: float            # sampled lower bound on the discrepancy
    net_big: Network = None
    net_small: Network = None
    box: Box = None
    spec: LinearSpec = None
    files: dict = field(default_factory=dict)
    eps_seen: float = None   # certified epsilon from this run's bisim op


@dataclass
class Op:
    kind: str
    pair: Pair
    run: object          # () -> outcome dict (raw CLI output for CLI ops)

    @property
    def op_id(self):
        return f"{self.pair.name}.{self.kind}"


# ---------------------------------------------------------------- numpy side

def forward(params, X):
    """The benchmark's own forward pass (hidden ReLU, linear output)."""
    for k, (W, b) in enumerate(params):
        X = X @ W.T + b
        if k < len(params) - 1:
            X = np.maximum(X, 0.0)
    return X


def random_params(rng, sizes, weight_range):
    return [(rng.uniform(-weight_range, weight_range, (sizes[k], sizes[k - 1])),
             rng.uniform(-weight_range, weight_range, sizes[k]))
            for k in range(1, len(sizes))]


def prune(params, keep_frac):
    """Neuron pruning: keep the hidden units with the largest
    |incoming| * |outgoing| weight mass in every hidden layer."""
    out = []
    keep_prev = None
    for k, (W, b) in enumerate(params):
        if keep_prev is not None:
            W = W[:, keep_prev]
        if k == len(params) - 1:
            out.append((W.copy(), b.copy()))
            break
        score = (np.abs(W).sum(axis=1) + np.abs(b)) * np.abs(params[k + 1][0]).sum(axis=0)
        n = max(1, int(round(keep_frac * W.shape[0])))
        keep = np.sort(np.argsort(-score, kind="stable")[:n])
        out.append((W[keep].copy(), b[keep].copy()))
        keep_prev = keep
    return out


def to_network(params):
    layers = [Layer.relu(W, b) for W, b in params[:-1]]
    layers.append(Layer.linear(*params[-1]))
    return Network(params[0][0].shape[1], layers)


def grid_points(lower, upper, per_dim):
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in zip(lower, upper)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(lower))


def split_work(branches, X):
    """Sum over ReLU neurons, in the order the exact back-end splits them
    (layer by layer, the branches side by side within a layer), of the
    number of distinct activation patterns of the earlier neurons on X.
    Each such pattern approximates one star that pays two LPs at that
    neuron, so this tracks the LP count of an exact op."""
    ids = np.zeros(len(X), dtype=np.int64)
    hidden = [X for _ in branches]
    total = 0
    for k in range(max(len(b) for b in branches) - 1):
        for i, params in enumerate(branches):
            if k >= len(params) - 1:
                continue
            W, b = params[k]
            Z = hidden[i] @ W.T + b
            for j in range(Z.shape[1]):
                total += int(ids.max()) + 1
                _, ids = np.unique(ids * 2 + (Z[:, j] > 0.0), return_inverse=True)
            hidden[i] = np.maximum(Z, 0.0)
    return total + int(ids.max()) + 1


def _threshold_spec(level, y, lb, margin):
    """Unsafe region {y : y_0 >= t} for a one-output network."""
    if level == "unsafe":
        t = float(np.quantile(y, 0.9))
    else:
        t = float(y.max()) + margin * float(y.max() - y.min()) + 2.0 * lb
    return [(np.array([[-1.0]]), np.array([-t]))]


def _finish(pair):
    pair.net_big = to_network(pair.big)
    pair.net_small = to_network(pair.small)
    pair.box = Box(pair.lower, pair.upper)
    pair.spec = LinearSpec(pair.polytopes)
    return pair


def _pair_rngs(seed, n_anchor, n_seeded, tag):
    for i in range(n_anchor):
        yield f"a{i}", np.random.default_rng([tag, 0, ANCHOR_SEED, i])
    for i in range(n_seeded):
        yield f"s{i}", np.random.default_rng([tag, 1, seed, i])


def naive_bound(params, lower, upper):
    """Interval bounds of the network's outputs over the box, no splitting."""
    lo, hi = lower, upper
    for k, (W, b) in enumerate(params):
        Wp, Wn = np.maximum(W, 0.0), np.minimum(W, 0.0)
        lo, hi = Wp @ lo + Wn @ hi + b, Wp @ hi + Wn @ lo + b
        if k < len(params) - 1:
            lo, hi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
    return lo, hi


def draw_banded_pair(rng, sizes, weight_range, lower, upper, x_sel, band):
    """A random pair and its pruned stand-in, redrawn until the ratio of the
    unsplit interval bound on big - small to the sampled discrepancy on
    x_sel lies in band. That ratio tracks the epsilon_upper / lower-bound
    ratio of the split back-end (correlation 0.97 on grid-2d pairs), which
    otherwise varies ~3x between pairs, mostly with the discrepancy."""
    for _ in range(500):
        big = random_params(rng, sizes, weight_range)
        small = prune(big, 0.5)
        lb = np.abs(forward(big, x_sel) - forward(small, x_sel)).max()
        (bl, bu), (sl, su) = naive_bound(big, lower, upper), naive_bound(small, lower, upper)
        ratio = max(np.abs(bu - sl).max(), np.abs(bl - su).max()) / lb
        if band[0] <= ratio <= band[1]:
            return big, small
    raise RuntimeError(f"no pair of shape {sizes} in the band {band}")


# ------------------------------------------------------------------- grid-2d

GRID_SIZES = [2, 50, 50, 50, 50, 50, 1]
GRID_SPLITS = 48          # direct verify and bisim: 2304 cells
GRID_COARSE = 8           # compressed path: 64 cells
# The 8-cell epsilon of these pairs is ~200 sampled output spreads, and the
# 48-cell bound of the large net ~30 spreads above its sampled maximum.
GRID_MARGIN = 2000.0
GRID_BAND = (950.0, 1500.0)   # holds ~27% of random pairs


def setup_grid_2d(seed, workdir):
    lower, upper = -np.ones(2), np.ones(2)
    x_sel = grid_points(lower, upper, 41)
    x_ref = grid_points(lower, upper, 71)
    pairs = []
    for idx, (name, rng) in enumerate(_pair_rngs(seed, 3, 6, 1)):
        big, small = draw_banded_pair(rng, GRID_SIZES, 0.3, lower, upper, x_sel, GRID_BAND)
        y_big = forward(big, x_ref)
        lb = float(np.abs(y_big - forward(small, x_ref)).max())
        level = LEVELS[idx % len(LEVELS)]
        pairs.append(_finish(Pair(name, level, big, small, lower, upper,
                                  _threshold_spec(level, y_big[:, 0], lb, GRID_MARGIN),
                                  y_big, lb)))
    ops = []
    for p in pairs:
        compressed = Op("compressed", p, _lib_compressed(p, method="split", splits=GRID_COARSE))
        ops += [
            Op("bisim", p, _lib_bisim(p, method="split", splits=GRID_SPLITS)),
            compressed,
            Op("verify", p, _lib_verify(p, method="split", splits=GRID_SPLITS)),
            Op("mc", p, _lib_mc(p)),
        ]
        # compressed costs ~1/20 of the other kinds here, so lifted pairs
        # run it twice more to give its tail ~20-30 samples. Only lifted
        # ones: an unsafe pair's compressed op adds a witness search and
        # forms a slower mode, which must stay above the tail percentile.
        if p.level == "lifted":
            ops += [compressed, compressed]
    return ops


# --------------------------------------------------------------- exact-small

EXACT_SIZES = [2, 10, 10, 1]
# Exact cost follows the number of stars, which varies ~3x between random
# pairs. Drawing pairs whose split_work for one pass (bisim and compressed
# on the merged net, verify on the large one, the compressed path's verify
# on the small one) lies in a fixed band keeps per-op cost comparable
# across seeds. The band holds about a third of random pairs.
EXACT_WORK_BAND = (2200, 2800)
# Every pair scores at least this many candidates and keeps the first in
# the band. How soon a seed's draws hit the band then no longer sets the
# set-up time: with one candidate in three in the band, ~1% of pairs need
# more.
EXACT_CANDIDATES = 12
# Exact sets leave only the discrepancy to clear: 2 * lb plus a small margin.
EXACT_MARGIN = 0.05


def setup_exact_small(seed, workdir):
    lower, upper = -np.ones(2), np.ones(2)
    x_ref = grid_points(lower, upper, 101)
    x_proxy = grid_points(lower, upper, 41)
    pairs = []
    for idx, (name, rng) in enumerate(_pair_rngs(seed, 3, 9, 2)):
        found = None
        for k in range(500):
            cand = random_params(rng, EXACT_SIZES, 1.0)
            cand_small = prune(cand, 0.5)
            work = (2 * split_work([cand, cand_small], x_proxy) + split_work([cand], x_proxy)
                    + split_work([cand_small], x_proxy))
            if found is None and EXACT_WORK_BAND[0] <= work <= EXACT_WORK_BAND[1]:
                found = cand, cand_small
            if found is not None and k + 1 >= EXACT_CANDIDATES:
                break
        else:
            raise RuntimeError("no exact-small pair in the work band")
        big, small = found
        y_big = forward(big, x_ref)
        lb = float(np.abs(y_big - forward(small, x_ref)).max())
        level = LEVELS[idx % len(LEVELS)]
        pairs.append(_finish(Pair(name, level, big, small, lower, upper,
                                  _threshold_spec(level, y_big[:, 0], lb, EXACT_MARGIN),
                                  y_big, lb)))
    ops = []
    for p in pairs:
        ops += [
            Op("bisim", p, _lib_bisim(p, method="exact")),
            Op("verify", p, _lib_verify(p, method="exact")),
            Op("compressed", p, _lib_compressed(p, method="exact")),
            Op("mc", p, _lib_mc(p)),
        ]
    return ops


# ----------------------------------------------------------------- report-5d

REPORT_SIZES = [5, 50, 50, 50, 50, 50, 50, 5]
REPORT_SPLITS = 3         # 3^5 = 243 cells, four polytopes per cell
REPORT_HALF_WIDTH = 0.5
# Over six hidden layers at 3 cells per dimension the compressed path needs
# up to ~2500 sampled spreads of y_0 - y_j above its sampled maximum.
REPORT_MARGIN = 1e4
REPORT_BAND = (2800.0, 3700.0)   # holds ~27% of random pairs


def _report_polytopes(level, y, margin):
    """Four "output 0 is not minimal" polytopes, y_0 - y_j >= theta."""
    gap = y[:, [0]] - y[:, 1:]
    spread = float(gap.max() - gap.min())
    if level == "unsafe":
        theta = float(np.quantile(gap.max(axis=1), 0.9))
    else:
        theta = float(gap.max()) + margin * spread
    polys = []
    for j in range(1, y.shape[1]):
        a = np.zeros(y.shape[1])
        a[j], a[0] = 1.0, -1.0
        polys.append((a[None, :], np.array([-theta])))
    return polys


def setup_report_5d(seed, workdir):
    dim = REPORT_SIZES[0]
    lower = -REPORT_HALF_WIDTH * np.ones(dim)
    upper = REPORT_HALF_WIDTH * np.ones(dim)
    pairs = []
    for idx, (name, rng) in enumerate(_pair_rngs(seed, 3, 9, 3)):
        x_sel = rng.uniform(lower, upper, (1_000, dim))
        big, small = draw_banded_pair(rng, REPORT_SIZES, 0.3, lower, upper, x_sel, REPORT_BAND)
        x_ref = np.vstack([rng.uniform(lower, upper, (5_000, dim)),
                           grid_points(lower, upper, 2)])
        y_big = forward(big, x_ref)
        lb = float(np.abs(y_big - forward(small, x_ref)).max())
        level = LEVELS[idx % len(LEVELS)]
        p = _finish(Pair(name, level, big, small, lower, upper,
                         _report_polytopes(level, y_big, REPORT_MARGIN),
                         y_big, lb))
        _write_files(p, workdir)
        pairs.append(p)
    ops = []
    for p in pairs:
        f = p.files
        ops += [
            Op("bisim", p, _cli(["bisim", f["large"], f["small"], f["problem"]])),
            Op("verify", p, _cli(["verify", f["large"], f["problem"]])),
            Op("compressed", p, _cli(["report", f["manifest"], f["problem"]])),
            Op("mc", p, _cli(["bisim", f["large"], f["small"], f["problem"],
                               "--mc", str(MC_SAMPLES)])),
        ]
    return ops


def _write_files(p, workdir):
    base = os.path.join(workdir, p.name)
    meta = NNetMeta(p.lower, p.upper, np.zeros(len(p.lower) + 1), np.ones(len(p.lower) + 1))
    files = {"large": base + ".large.nnet", "small": base + ".small.json",
             "problem": base + ".problem.json", "manifest": base + ".manifest.json"}
    with open(files["large"], "w", encoding="utf-8") as fh:
        fh.write(write_nnet(p.net_big, meta))
    with open(files["small"], "w", encoding="utf-8") as fh:
        fh.write(write_json_net(p.net_small))
    problem = {
        "input": {"lower": p.lower.tolist(), "upper": p.upper.tolist()},
        "unsafe": [[{"a": A[i].tolist(), "b": float(d[i])} for i in range(len(d))]
                   for A, d in p.polytopes],
        "method": "split",
        "splits": REPORT_SPLITS,
    }
    with open(files["problem"], "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
    with open(files["manifest"], "w", encoding="utf-8") as fh:
        json.dump([{"id": p.name, "large": files["large"], "small": files["small"]}], fh)
    p.files = files


# ----------------------------------------------------------------------- ops
# Entry points are looked up on the package at call time, so that the
# tracer's wrappers (installed on nnbisim's own module attributes) see the
# benchmark's calls.

def _lib_bisim(p, **kw):
    def run():
        bound = nnbisim.bisim_error_upper(p.net_big, p.net_small, p.box, **kw)
        return {"epsilon": bound.epsilon_upper, "epsilon_lower": bound.epsilon_lower,
                "exact_inf": kw.get("method") == "exact"}
    return run


def _lib_verify(p, **kw):
    def run():
        v = nnbisim.verify(p.net_big, p.box, p.spec, **kw)
        return {"verdict": v.status, "witness": v.witness}
    return run


def _lib_compressed(p, **kw):
    def run():
        r = nnbisim.verify_via_compressed(p.net_big, p.net_small, p.box, p.spec, **kw)
        return {"verdict": r.verdict_small.status, "epsilon": r.epsilon, "lifted": True}
    return run


def _lib_mc(p):
    def run():
        return {"mc": nnbisim.bisim_error_lower_mc(p.net_big, p.net_small, p.box,
                                                   samples=MC_SAMPLES, seed=7)}
    return run


def _cli(argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nnbisim.cli.main(argv)
        return {"argv": argv, "exit": code, "stdout": out.getvalue(),
                "stderr": err.getvalue()}
    return run


SETUPS = {
    "grid-2d": setup_grid_2d,
    "exact-small": setup_exact_small,
    "report-5d": setup_report_5d,
}
