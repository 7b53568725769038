"""Golden stdout of the CLI on two small committed network pairs.

Every run prints its command line, its exit code and its stdout; the
report's time columns are masked. The whole text must equal
data/golden/expected_stdout.txt byte for byte, so a change that moves
any printed epsilon, verdict, witness or exit code fails here.

Regenerate (only for a change that is meant to move this output) with

    PYTHONPATH=src python tests/test_golden_cli.py --write
"""

import contextlib
import io
import os
import re
import sys

from nnbisim import cli

DATA = os.path.join(os.path.dirname(__file__), "data", "golden")
EXPECTED = os.path.join(DATA, "expected_stdout.txt")
METHODS = ("interval", "split", "exact")


def _runs():
    for pair, ext in (("a", "nnet"), ("b", "json")):
        large, small = f"{pair}_large.{ext}", f"{pair}_small.{ext}"
        problem, manifest = f"{pair}_problem.json", f"{pair}_manifest.json"
        yield ["bisim", large, small, problem]
        for norm in ("inf", "l2"):
            for m in METHODS:
                yield ["bisim", large, small, problem, "--norm", norm, "--method", m]
        yield ["bisim", large, small, problem, "--method", "split", "--splits", "2",
               "--mc", "1000", "--jobs", "1"]
        for net in (large, small):
            yield ["verify", net, problem]
            for m in METHODS:
                yield ["verify", net, problem, "--method", m]
        yield ["report", manifest, problem, "--also-large", "--csv", "-"]
        for m in METHODS:
            yield ["report", manifest, problem, "--also-large", "--csv", "-",
                   "--method", m, "--large-method", "exact"]


def _mask_times(text):
    # CSV columns 3 and 4 are time_large_s and time_small_s.
    return re.sub(r"^([^,\n]*,[^,\n]*),[0-9.]*,[0-9.]+,", r"\1,T,T,", text,
                  flags=re.MULTILINE)


def render():
    """Stdout of every run, in order, run in-process from the data directory."""
    chunks = []
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        for argv in _runs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            chunks.append(f"$ nnbisim {' '.join(argv)}\nexit={code}\n"
                          + _mask_times(out.getvalue()))
    finally:
        os.chdir(cwd)
    return "".join(chunks)


def test_cli_stdout_matches_golden():
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = fh.read()
    assert render() == expected


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write(render())
