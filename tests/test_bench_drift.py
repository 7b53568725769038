"""The benchmark's anchor results, checked in tier 1.

Builds the exact-small workload with bench/workloads.py (read, never
changed), runs the ops of its anchor pairs a0-a2 (bisim, verify,
compressed, mc) and compares their epsilon, verdict and Monte-Carlo
bound exactly with bench/drift_record.json, so that a change which moves
any of them fails here and not only in a benchmark run.
"""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
FIELDS = ("epsilon", "verdict", "mc")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


def test_exact_small_anchors_match_drift_record(workloads, tmp_path):
    with open(os.path.join(BENCH, "drift_record.json"), encoding="utf-8") as fh:
        record = json.load(fh)["exact-small"]
    ops = [op for op in workloads.setup_exact_small(1, str(tmp_path))
           if op.op_id in record]
    assert sorted(op.op_id for op in ops) == sorted(record)
    for op in ops:
        out = op.run()
        got = {k: out[k] for k in FIELDS if out.get(k) is not None}
        want = {k: record[op.op_id][k] for k in FIELDS if k in record[op.op_id]}
        assert got == want, op.op_id
