import json
import os
import subprocess
import sys

import pytest

import nnbisim
from nnbisim import merge, random_network, write_json_net
from conftest import constant_net

MINIMAL_NNET = """\
// tiny test network
1,1,1,1,
1,1,
0,
-10.0,
10.0,
0.0,0.0,
1.0,1.0,
2.0,
0.5,
"""

PROBLEM_1D = """{
    "input": {"lower": [-1.0], "upper": [1.0]},
    "unsafe": [[{"a": [1.0], "b": -2.0}]]
}"""


# The CLI runs in a child process that imports the package these tests
# import, also when pytest found it through its own pythonpath setting.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(nnbisim.__file__))
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [PACKAGE_ROOT] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "nnbisim.cli", *args],
                          capture_output=True, text=True, env=CLI_ENV)


def huge_json(workdir):
    """The fixture's big net with every weight scaled by 1e300: finite, but
    its outputs overflow double precision."""
    obj = json.loads((workdir / "big.json").read_text())
    for lay in obj["layers"]:
        lay["weights"] = [[1e300 * w for w in row] for row in lay["weights"]]
    path = workdir / "huge.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "mini.nnet").write_text(MINIMAL_NNET)
    (tmp_path / "problem.json").write_text(PROBLEM_1D)
    (tmp_path / "big.json").write_text(write_json_net(
        random_network([1, 4, 3, 1], 1.0, seed=1)))
    (tmp_path / "small.json").write_text(write_json_net(
        random_network([1, 2, 1], 1.0, seed=2)))
    (tmp_path / "const1.json").write_text(write_json_net(constant_net(1.0)))
    (tmp_path / "constneg.json").write_text(write_json_net(constant_net(-1.0)))
    return tmp_path


class TestInfo:
    def test_minimal(self, workdir):
        res = run_cli("info", str(workdir / "mini.nnet"))
        assert res.returncode == 0
        assert "layers: 1" in res.stdout
        assert "widths: [1, 1]" in res.stdout

    def test_missing_file(self, workdir):
        res = run_cli("info", str(workdir / "nope.nnet"))
        assert res.returncode == 2
        assert res.stdout == ""

    def test_merged_net_mixed_note(self, workdir):
        big = random_network([1, 3, 3, 1], 1.0, seed=5)
        small = random_network([1, 2, 1], 1.0, seed=6)
        path = workdir / "merged.json"
        path.write_text(write_json_net(merge(big, small)))
        res = run_cli("info", str(path))
        assert res.returncode == 0
        assert "mixed" in res.stdout


class TestMerge:
    def test_writes_file(self, workdir):
        out = workdir / "out.json"
        res = run_cli("merge", str(workdir / "big.json"),
                      str(workdir / "small.json"), str(out))
        assert res.returncode == 0
        assert out.exists()
        info = run_cli("info", str(out))
        assert "widths: [1, 6, 5, 2, 1]" in info.stdout

    def test_precondition_exit_code(self, workdir):
        # swapped order violates the depth requirement
        res = run_cli("merge", str(workdir / "small.json"),
                      str(workdir / "big.json"), str(workdir / "x.json"))
        assert res.returncode == 3
        assert "layer count" in res.stderr

    def test_too_shallow_small_net(self, workdir):
        one = random_network([1, 1], 1.0, seed=3)
        path = workdir / "one.json"
        path.write_text(write_json_net(one))
        res = run_cli("merge", str(workdir / "big.json"), str(path),
                      str(workdir / "x.json"))
        assert res.returncode == 3


class TestBisim:
    def test_identical_exact_zero(self, workdir):
        res = run_cli("bisim", str(workdir / "small.json"),
                      str(workdir / "small.json"), str(workdir / "problem.json"),
                      "--method", "exact")
        assert res.returncode == 0
        assert "epsilon_upper=0.000000" in res.stdout

    def test_mc_lower_bound_line(self, workdir):
        res = run_cli("bisim", str(workdir / "big.json"),
                      str(workdir / "small.json"), str(workdir / "problem.json"),
                      "--mc", "1000")
        assert res.returncode == 0
        lines = dict(kv.split("=") for kv in res.stdout.split())
        assert float(lines["epsilon_lower_mc"]) <= float(lines["epsilon_upper"]) + 1e-9

    def test_byte_identical_output(self, workdir):
        args = ("bisim", str(workdir / "big.json"), str(workdir / "small.json"),
                str(workdir / "problem.json"), "--method", "split",
                "--splits", "3", "--mc", "500")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_rejected(self, workdir, jobs):
        res = run_cli("bisim", str(workdir / "big.json"), str(workdir / "small.json"),
                      str(workdir / "problem.json"), "--mc", "100", "--jobs", jobs)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "error: jobs must be >= 1" in res.stderr


class TestNonFiniteInput:
    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_nan_weight_rejected(self, workdir, method):
        obj = json.loads(write_json_net(random_network([1, 4, 3, 1], 1.0, seed=1)))
        obj["layers"][1]["weights"][2][0] = float("nan")
        path = workdir / "nan.json"
        path.write_text(json.dumps(obj))
        res = run_cli("bisim", str(path), str(workdir / "small.json"),
                      str(workdir / "problem.json"), "--method", method)
        assert res.returncode == 2
        assert "epsilon_upper=" not in res.stdout
        assert "layers[1]: layer weights must be finite, found nan at index (2, 0)" in res.stderr

    def test_nan_weight_in_nnet_rejected(self, workdir):
        path = workdir / "nan.nnet"
        path.write_text(MINIMAL_NNET.replace("0.5,", "nan,"))
        res = run_cli("info", str(path))
        assert res.returncode == 2
        assert "bias must be finite, found nan" in res.stderr

    def test_nan_box_bound_rejected(self, workdir):
        prob = workdir / "nanbox.json"
        prob.write_text("""{
            "input": {"lower": [NaN], "upper": [1.0]},
            "unsafe": [[{"a": [1.0], "b": 0.0}]]
        }""")
        res = run_cli("verify", str(workdir / "const1.json"), str(prob))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "input: box lower bound 0 is nan" in res.stderr

    @pytest.mark.parametrize("flags", [["--method", "interval"],
                                       ["--method", "split"],
                                       ["--method", "exact"],
                                       ["--mc", "1000"]])
    def test_overflowing_weights_exit_1(self, workdir, flags):
        res = run_cli("bisim", huge_json(workdir), str(workdir / "small.json"),
                      str(workdir / "problem.json"), *flags)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "overflowed" in res.stderr

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_overflowing_weights_report_exit_1(self, workdir, method):
        manifest = workdir / "huge_manifest.json"
        manifest.write_text(json.dumps([{"id": "huge", "large": huge_json(workdir),
                                         "small": str(workdir / "small.json")}]))
        res = run_cli("report", str(manifest), str(workdir / "problem.json"),
                      "--method", method)
        assert res.returncode == 1
        assert res.stdout == ""
        assert "overflowed" in res.stderr

    def test_infinite_box_bound_rejected(self, workdir):
        prob = workdir / "infbox.json"
        prob.write_text("""{
            "input": {"lower": [-Infinity], "upper": [1.0]},
            "unsafe": [[{"a": [1.0], "b": 0.0}]]
        }""")
        res = run_cli("verify", str(workdir / "const1.json"), str(prob))
        assert res.returncode == 2
        assert res.stdout == ""
        assert "input: box bounds must be finite" in res.stderr


class TestVerify:
    def test_jobs_flag_is_bisim_only(self, workdir):
        res = run_cli("verify", str(workdir / "const1.json"),
                      str(workdir / "problem.json"), "--jobs", "2")
        assert res.returncode == 2
        assert "unrecognized arguments: --jobs" in res.stderr

    def test_safe_exit_zero(self, workdir):
        res = run_cli("verify", str(workdir / "const1.json"),
                      str(workdir / "problem.json"))
        assert res.returncode == 0
        assert "verdict=Safe" in res.stdout

    def test_unsafe_exit_and_witness(self, workdir):
        prob = workdir / "unsafe.json"
        prob.write_text("""{
            "input": {"lower": [-1.0], "upper": [1.0]},
            "unsafe": [[{"a": [1.0], "b": 0.0}]]
        }""")
        res = run_cli("verify", str(workdir / "constneg.json"), str(prob))
        assert res.returncode == 4
        assert "verdict=Unsafe" in res.stdout
        assert "witness=" in res.stdout

    def test_uncertain_exit(self, workdir):
        # difference of a net with itself: truly zero everywhere, but the
        # interval bound on the merged net straddles the unsafe region
        netfile = workdir / "loose.json"
        netfile.write_text(write_json_net(
            merge(random_network([1, 2, 1], 1.0, seed=9),
                  random_network([1, 2, 1], 1.0, seed=9))))
        prob = workdir / "band.json"
        prob.write_text("""{
            "input": {"lower": [-1.0], "upper": [1.0]},
            "unsafe": [[{"a": [1.0], "b": -0.5}]]
        }""")
        res = run_cli("verify", str(netfile), str(prob))
        assert res.returncode == 5
        assert "verdict=Uncertain" in res.stdout


class TestReport:
    def make_manifest(self, workdir, entries):
        path = workdir / "pairs.json"
        path.write_text(json.dumps(entries))
        return path

    def test_two_pairs_csv(self, workdir):
        manifest = self.make_manifest(workdir, [
            {"id": "P_1", "large": str(workdir / "big.json"),
             "small": str(workdir / "small.json")},
            {"id": "P_2", "large": str(workdir / "small.json"),
             "small": str(workdir / "small.json")},
        ])
        out = workdir / "report.csv"
        res = run_cli("report", str(manifest), str(workdir / "problem.json"),
                      "--csv", str(out))
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "id,epsilon,time_large_s,time_small_s,verdict_large,verdict_small"
        assert len(lines) == 3
        assert lines[1].startswith("P_1,")
        # no direct large-net run requested: optional columns stay empty
        assert lines[1].split(",")[2] == ""
        assert "P_1" in res.stdout and "P_2" in res.stdout

    def test_also_large_fills_columns(self, workdir):
        manifest = self.make_manifest(workdir, [
            {"id": "P_1", "large": str(workdir / "big.json"),
             "small": str(workdir / "small.json")},
        ])
        res = run_cli("report", str(manifest), str(workdir / "problem.json"),
                      "--also-large", "--csv", "-")
        assert res.returncode == 0
        row = res.stdout.strip().split("\n")[1].split(",")
        assert row[2] != "" and row[4] in ("Safe", "Unsafe", "Uncertain")

    def test_empty_manifest(self, workdir):
        manifest = self.make_manifest(workdir, [])
        res = run_cli("report", str(manifest), str(workdir / "problem.json"),
                      "--csv", "-")
        assert res.returncode == 0
        assert res.stdout == ("id,epsilon,time_large_s,time_small_s,"
                              "verdict_large,verdict_small\n")


class TestProblemDefaults:
    def test_problem_method_used_and_flag_overrides(self, workdir):
        prob = workdir / "p2.json"
        prob.write_text("""{
            "input": {"lower": [-1.0], "upper": [1.0]},
            "unsafe": [[{"a": [1.0], "b": -2.0}]],
            "method": "split", "splits": 2
        }""")
        res = run_cli("bisim", str(workdir / "big.json"),
                      str(workdir / "small.json"), str(prob))
        assert res.returncode == 0
        assert "interval-split(2)" in res.stderr
        res = run_cli("bisim", str(workdir / "big.json"),
                      str(workdir / "small.json"), str(prob),
                      "--method", "interval")
        assert "method=interval " in res.stderr


def _problem_with(workdir, a="[1.0]", b="0.0"):
    path = workdir / "spec.json"
    path.write_text(f"""{{
        "input": {{"lower": [-1.0], "upper": [1.0]}},
        "unsafe": [[{{"a": {a}, "b": {b}}}]]
    }}""")
    return str(path)


def _net_with(workdir, weights="[[1.0]]", bias="[0.0]"):
    path = workdir / "net.json"
    path.write_text(f"""{{"input_dim": 1, "layers": [
        {{"weights": {weights}, "bias": {bias}, "activations": ["identity"]}}
    ]}}""")
    return str(path)


# An integer literal that no double can hold.
HUGE = "1" + "0" * 400


def _manifest_with(workdir, large):
    path = workdir / "bad_manifest.json"
    path.write_text(json.dumps([{"id": "P", "large": large,
                                 "small": str(workdir / "small.json")}]))
    return str(path)


def _far_apart_manifest(workdir):
    """Constant nets 1e300 and -1e300 apart: epsilon is finite, but a spec
    row scaled by 1e10 overflows once inflated by it."""
    for name, value in (("high", 1e300), ("low", -1e300)):
        (workdir / f"{name}.json").write_text(write_json_net(constant_net(value)))
    path = workdir / "far_manifest.json"
    path.write_text(json.dumps([{"id": "P", "large": str(workdir / "high.json"),
                                 "small": str(workdir / "low.json")}]))
    return str(path)


def _pair(workdir, *flags):
    return ["bisim", str(workdir / "big.json"), str(workdir / "small.json"),
            str(workdir / "problem.json"), *flags]


def _case(name, argv, code, line):
    """argv for the workdir w, exit code, and the one stderr line, where
    {w} stands for the workdir."""
    return pytest.param(argv, code, line, id=name)


ERROR_CASES = [
    _case("mc_zero", lambda w: _pair(w, "--mc", "0"), 2, "error: samples must be >= 1"),
    _case("mc_negative", lambda w: _pair(w, "--mc", "-5"), 2, "error: samples must be >= 1"),
    _case("jobs_zero", lambda w: _pair(w, "--mc", "100", "--jobs", "0"), 2,
          "error: jobs must be >= 1"),
    _case("splits_zero", lambda w: _pair(w, "--method", "split", "--splits", "0"), 2,
          "error: cells_per_dim must be >= 1"),
    _case("star_cap_zero", lambda w: ["verify", str(w / "big.json"), str(w / "problem.json"),
                                      "--method", "exact", "--star-cap", "0"], 2,
          "error: star_cap must be >= 1"),
    _case("missing_file", lambda w: ["info", str(w / "missing.nnet")], 2,
          "error: [Errno 2] No such file or directory: '{w}/missing.nnet'"),
    _case("manifest_null", lambda w: ["report", _manifest_with(w, None), str(w / "problem.json")],
          2, "error: {w}/bad_manifest.json[0].large: must be a path string"),
    _case("manifest_list", lambda w: ["report", _manifest_with(w, ["x"]),
                                      str(w / "problem.json")],
          2, "error: {w}/bad_manifest.json[0].large: must be a path string"),
    _case("manifest_int", lambda w: ["report", _manifest_with(w, 7), str(w / "problem.json")],
          2, "error: {w}/bad_manifest.json[0].large: must be a path string"),
    _case("spec_inf_a", lambda w: ["verify", str(w / "const1.json"),
                                   _problem_with(w, a="[Infinity]")],
          2, "error: unsafe[0][0].a: must be finite"),
    _case("spec_nan_b", lambda w: ["verify", str(w / "const1.json"), _problem_with(w, b="NaN")],
          2, "error: unsafe[0][0].b: must be finite"),
    _case("spec_neg_inf_b", lambda w: ["report", _manifest_with(w, str(w / "big.json")),
                                       _problem_with(w, b="-Infinity")],
          2, "error: unsafe[0][0].b: must be finite"),
    _case("spec_huge_b", lambda w: ["verify", str(w / "const1.json"), _problem_with(w, b=HUGE)],
          2, "error: unsafe[0][0].b: integer too large for a double"),
    _case("spec_huge_a", lambda w: ["verify", str(w / "const1.json"),
                                    _problem_with(w, a=f"[-{HUGE}]")],
          2, "error: unsafe[0][0].a: integer too large for a double"),
    _case("spec_bool_a", lambda w: ["verify", str(w / "const1.json"),
                                    _problem_with(w, a="[true]")],
          2, "error: unsafe[0][0].a: expected a numeric array"),
    _case("net_huge_weight", lambda w: ["verify", _net_with(w, weights=f"[[{HUGE}]]"),
                                        str(w / "problem.json")],
          2, "error: layers[0].weights: integer too large for a double"),
    _case("net_bool_bias", lambda w: ["verify", _net_with(w, bias="[false]"),
                                      str(w / "problem.json")],
          2, "error: layers[0].bias: expected a numeric array"),
    _case("inflated_overflow", lambda w: ["report", _far_apart_manifest(w),
                                          _problem_with(w, a="[1e10]"), "--method", "interval"],
          1, "error: inflated unsafe bound overflowed: polytope 0, row 0"),
]


class TestErrorContract:
    """Bad flags and bad files end in their exit code, an empty stdout and
    one error line on stderr, before any result is printed."""

    @pytest.mark.parametrize("argv, code, line", ERROR_CASES)
    def test_exit_code_and_one_error_line(self, workdir, argv, code, line):
        res = run_cli(*argv(workdir))
        assert res.returncode == code
        assert res.stdout == ""
        assert res.stderr.splitlines() == [line.format(w=workdir)]
