"""Golden exact-star reach sets of three seeded merged pairs.

For each pair the fixture data/golden/stars.json holds the star count, a
SHA-256 per star over the bytes of its centre, basis, constraint matrix,
constraint right-hand side and carried point, the float.hex of
star_sup_norm in both norms, and the verdict and witness of
verify(method="exact") on the large network. Any change to the exact
back-end's arithmetic, star order or carried points fails here.

Regenerate (only for a change that is meant to move these results) with

    PYTHONPATH=src python tests/test_golden_stars.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from nnbisim import (Box, LinearSpec, merge, random_network, reach_stars,
                     star_sup_norm, verify)

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "golden", "stars.json")

# name: (large sizes, small sizes, seeds, unsafe level)
# "unsafe" puts the threshold on y_0 at the 0.9 quantile of a sample, so
# verify finds a witness; "safe" puts it above the exact maximum.
PAIRS = {
    "p2": ([2, 6, 6, 2], [2, 3, 2], (1, 2), "unsafe"),
    "p3": ([3, 6, 6, 2], [3, 3, 2], (3, 4), "safe"),
    "deep": ([2, 10, 10, 10, 1], [2, 5, 5, 1], (7, 8), "unsafe"),
}


def _star_digest(star):
    h = hashlib.sha256()
    for a in (star.center, star.basis, star.constr_mat, star.constr_rhs):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(b"none" if star.point is None
             else np.ascontiguousarray(star.point).tobytes())
    return h.hexdigest()


def record(name):
    big_sizes, small_sizes, (s_big, s_small), level = PAIRS[name]
    big = random_network(big_sizes, 1.0, seed=s_big)
    small = random_network(small_sizes, 1.0, seed=s_small)
    dim = big_sizes[0]
    box = Box(-np.ones(dim), np.ones(dim))
    stars = reach_stars(merge(big, small), box)
    y = big.forward_batch(box.sample(np.random.default_rng(0), 500))[:, 0]
    if level == "unsafe":
        t = float(np.quantile(y, 0.9))
    else:
        t = star_sup_norm(reach_stars(big, box), "inf") + 1.0
    a = np.zeros((1, big.output_dim))
    a[0, 0] = -1.0
    v = verify(big, box, LinearSpec([(a, np.array([-t]))]), method="exact")
    return {
        "stars": len(stars),
        "sha256": [_star_digest(s) for s in stars],
        "sup_norm_inf": float.hex(star_sup_norm(stars, "inf")),
        "sup_norm_l2": float.hex(star_sup_norm(stars, "l2")),
        "verdict": v.status,
        "witness": None if v.witness is None else [float.hex(float(x)) for x in v.witness],
    }


def _expected():
    with open(FIXTURE, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_exact_stars_match_golden(name):
    want = _expected()[name]
    got = record(name)
    assert got["stars"] == want["stars"]
    assert got["sha256"] == want["sha256"]
    assert got == want


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump({name: record(name) for name in sorted(PAIRS)}, fh, indent=1)
        fh.write("\n")
