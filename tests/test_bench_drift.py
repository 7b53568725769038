"""The benchmark's anchor results, checked in tier 1.

Builds the exact-small and report-5d workloads with bench/workloads.py
(read, never changed), runs the ops of their anchor pairs a0-a2 (bisim,
verify, compressed, mc) and compares their epsilon, verdict and
Monte-Carlo bound exactly with bench/drift_record.json, so that a change
which moves any of them fails here and not only in a benchmark run.
"""

import json
import os
import sys

import pytest

from conftest import run_one_blas_thread

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
FIELDS = ("epsilon", "verdict", "mc")


def drift_record(workload):
    with open(os.path.join(BENCH, "drift_record.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


def test_exact_small_anchors_match_drift_record(workloads, tmp_path):
    record = drift_record("exact-small")
    ops = [op for op in workloads.setup_exact_small(1, str(tmp_path))
           if op.op_id in record]
    assert sorted(op.op_id for op in ops) == sorted(record)
    for op in ops:
        out = op.run()
        got = {k: out[k] for k in FIELDS if out.get(k) is not None}
        want = {k: record[op.op_id][k] for k in FIELDS if k in record[op.op_id]}
        assert got == want, op.op_id


def test_report_5d_anchors_match_drift_record(tmp_path):
    # The 12 CLI ops, the threaded --mc among them, run as the benchmark
    # runs them: on one BLAS thread, hence the child process.
    script = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import checks, workloads\n"
        "got = {}\n"
        "for op in workloads.setup_report_5d(1, sys.argv[2]):\n"
        "    if op.pair.name in ('a0', 'a1', 'a2'):\n"
        "        out = checks.parse_cli(op.run())\n"
        "        got[op.op_id] = {k: out[k] for k in sys.argv[3:] if out.get(k) is not None}\n"
        "print(json.dumps(got))\n")
    res = run_one_blas_thread(script, BENCH, str(tmp_path), *FIELDS)
    assert res.returncode == 0, res.stderr
    got = json.loads(res.stdout)
    record = drift_record("report-5d")
    assert sorted(got) == sorted(record)
    for op_id, want in record.items():
        assert got[op_id] == {k: want[k] for k in FIELDS if k in want}, op_id
