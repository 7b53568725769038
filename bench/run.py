"""nnbisim benchmark: seeded workloads, closed loop, checked results.

  python3 bench/run.py --workload exact-small --seed 1 --seconds 55 --trace 0

Run from the repository root. BENCHMARK.json lists exact-small and
report-5d. grid-2d, the criterion-9 shape, is run by hand only: on a
shared 2-core host its ~1.4 s ops gave too few samples per run for its
medians to repeat within the gated bound.

One client runs the workload's ops in a closed loop (each op starts when
the previous one ends) for --seconds, checks every result against the
benchmark's own reference data, prints every metric by name with its
unit, and ends with one JSON line.

--trace 0 gives the end-to-end metrics. --trace 1 runs one pass over the
workload's ops, every op traced and every other op also untraced (for the
tracing overhead), and gives the per-layer metrics from the traced copies
(see tracing.py).

Exit status is 0 when every op passed its checks, 1 otherwise, and 2 when
the package source is missing.

The anchor ops' outputs are compared with bench/drift_record.json on every
run. After a change that is meant to alter results, or to the workloads,
rewrite that record with --trace 1 --write-drift-record, once per workload.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = os.path.join(ROOT, "src")

# OpenBLAS reads its thread count once, when numpy loads it, so this must
# run before the first numpy import. One thread: the ops' matrices are small,
# and on a 2-core machine a second BLAS thread made the same op's time vary
# by up to 50% between processes, while one thread kept it within ~5%.
BLAS_THREADS = min(1, len(os.sched_getaffinity(0)))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def _load_package():
    if not os.path.isfile(os.path.join(SRC, "nnbisim", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, BENCH]
    import nnbisim
    if not os.path.abspath(nnbisim.__file__).startswith(SRC + os.sep):
        print(f"error: nnbisim imported from {nnbisim.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid-2d", "exact-small", "report-5d"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-drift-record", action="store_true",
                        help="with --trace 1: store this run's anchor-op "
                             "outputs as the reference for drift")
    args = parser.parse_args(argv)
    _load_package()
    import harness
    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
