"""Golden results fingerprint over forty seeded random pairs.

For each conftest.random_pair seed 0-39, the fixture
data/golden/results.json holds:

- the float.hex of bisim_error_upper's epsilon_upper for every method in
  both norms;
- the exact back-end's star count on the merged network;
- for five specs built from the pair alone (_specs): the verdict and
  witness (float.hex) of verify on the large network by every method,
  and the epsilon and verdict of verify_via_compressed by split and by
  exact.

A change that moves any last bit of these results fails here.

Regenerate (only for a change that is meant to move these results) with

    PYTHONPATH=src python tests/test_golden_results.py --write
"""

import json
import os
import sys

import numpy as np
import pytest

from conftest import random_pair
from nnbisim import (LinearSpec, bisim_error_upper, box_to_star, merge,
                     reach_stars, verify, verify_via_compressed)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden", "results.json")
SEEDS = range(40)
METHODS = ("interval", "split", "exact")
COMPRESSED_METHODS = ("split", "exact")
NORMS = ("inf", "l2")


def _hex(x):
    return float.hex(float(x))


def _specs(big, box):
    """Five unsafe regions placed by big's outputs on a 5-point grid.

    y0 above its 0.9 quantile (a witness is near), y0 above its top plus
    a margin, y0 below its bottom, a union of the two halves of y0 split
    at its median with the other output bounded, and the output sum above
    its top.
    """
    axes = [np.linspace(lo, hi, 5) for lo, hi in zip(box.lower, box.upper)]
    grid = np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, len(axes))
    Y = big.forward_batch(grid)
    y0, total = Y[:, 0], Y.sum(axis=1)
    o = big.output_dim
    e0 = np.eye(o)[:1]
    last = np.eye(o)[-1:]
    spread = float(np.ptp(y0)) + 0.1
    q90, q50 = float(np.quantile(y0, 0.9)), float(np.quantile(y0, 0.5))
    return [
        LinearSpec([(-e0, [-q90])]),
        LinearSpec([(-e0, [-(y0.max() + 0.5 * spread)])]),
        LinearSpec([(e0, [y0.min() - 0.1])]),
        LinearSpec([(np.vstack([-e0, last]), [-q50, float(np.median(Y[:, -1]))]),
                    (e0, [y0.min() + 0.25 * spread])]),
        LinearSpec([(-np.ones((1, o)), [-(total.max() + 0.05)])]),
    ]


def record(seed):
    big, small, box = random_pair(seed)
    out = {
        "epsilon": {f"{m}/{n}": _hex(bisim_error_upper(big, small, box, method=m,
                                                       norm=n).epsilon_upper)
                    for m in METHODS for n in NORMS},
        "stars": len(reach_stars(merge(big, small), box_to_star(box))),
        "specs": [],
    }
    for spec in _specs(big, box):
        row = {}
        for m in METHODS:
            v = verify(big, box, spec, method=m)
            row[f"verify/{m}"] = [v.status, None if v.witness is None
                                  else [_hex(x) for x in v.witness]]
        for m in COMPRESSED_METHODS:
            r = verify_via_compressed(big, small, box, spec, method=m)
            row[f"compressed/{m}"] = [_hex(r.epsilon), r.verdict_small.status]
        out["specs"].append(row)
    return out


def _expected():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
def test_results_match_golden(seed):
    assert record(seed) == _expected()[str(seed)]


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({str(s): record(s) for s in SEEDS}, fh, indent=1)
        fh.write("\n")
