import csv
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nnbisim.interval
import nnbisim.safety
import nnbisim.star
from nnbisim import (Box, Layer, LinearSpec, Network, NumericError, ShapeError,
                     Verdict, bisim_error_upper, inflate_spec, lp_feasible,
                     random_network, split_box, verify, verify_via_compressed)
from nnbisim.safety import (CSV_HEADER, SAFE, SEARCH_SAMPLES, UNCERTAIN, UNSAFE,
                            BisimReport, report_csv,
                            report_table)
from conftest import constant_net, random_pair, reach_box


def halfspace(a, b):
    return LinearSpec([(np.atleast_2d(a), np.atleast_1d(b))])


class TestVerify:
    def test_constant_safe(self):
        verdict = verify(constant_net(1.0), Box([-1.0], [1.0]),
                         halfspace([1.0], 0.0))
        assert verdict.status == SAFE
        assert verdict.witness is None

    def test_constant_unsafe_with_witness(self):
        net = constant_net(-1.0)
        spec = halfspace([1.0], 0.0)
        verdict = verify(net, Box([-1.0], [1.0]), spec)
        assert verdict.status == UNSAFE
        assert spec.holds_at(net.forward(verdict.witness))

    def test_identity_net_disjoint_interval(self):
        net = Network(1, [Layer.relu([[1.0]], [0.0]),
                          Layer.linear([[1.0]], [0.0])])
        # outputs live in [0, 1]; unsafe region is y <= -2
        verdict = verify(net, Box([-1.0], [1.0]), halfspace([1.0], -2.0))
        assert verdict.status == SAFE

    def test_uncertain_when_interval_too_loose(self):
        # f(x) = relu(x) - relu(x) = 0 but interval propagation cannot see it
        net = Network(1, [
            Layer.relu([[1.0], [1.0]], [0.0, 0.0]),
            Layer.linear([[1.0, -1.0]], [0.0]),
        ])
        verdict = verify(net, Box([0.0], [1.0]), halfspace([1.0], -0.5))
        assert verdict.status == UNCERTAIN

    def test_exact_method_resolves_loose_case(self):
        net = Network(1, [
            Layer.relu([[1.0], [1.0]], [0.0, 0.0]),
            Layer.linear([[1.0, -1.0]], [0.0]),
        ])
        verdict = verify(net, Box([0.0], [1.0]), halfspace([1.0], -0.5),
                         method="exact")
        assert verdict.status == SAFE

    def test_split_method(self):
        net = random_network([2, 5, 1], 1.0, seed=3)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        out = reach_box(net, box)
        spec = halfspace([1.0], out.lower[0] - 1.0)
        assert verify(net, box, spec, method="split", splits=3).status == SAFE

    def test_union_of_polytopes(self):
        net = constant_net(0.5)
        spec = LinearSpec([
            (np.array([[1.0]]), np.array([0.0])),    # y <= 0, misses
            (np.array([[-1.0]]), np.array([-0.25])),  # y >= 0.25, hits
        ])
        verdict = verify(net, Box([0.0], [1.0]), spec)
        assert verdict.status == UNSAFE

    def test_conjunction_needs_lp(self):
        # box [0,1]^2 in output space; each constraint alone intersects the
        # output box but their conjunction is empty
        net = Network(2, [Layer.linear(np.eye(2), [0.0, 0.0])])
        spec = LinearSpec([(np.array([[1.0, 0.0], [-1.0, 0.0]]),
                            np.array([2.0, -1.5]))])  # 1.5 <= y0 <= 2
        verdict = verify(net, Box([0.0, 0.0], [1.0, 1.0]), spec)
        assert verdict.status == SAFE

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_tiny_row_meeting_the_box_is_not_safe(self, method):
        # y >= 25 written as -1e-10 y <= -2.5e-9 meets the output range
        # [-1, 30]. Phase 1 on the unscaled row stalls under FEAS_TOL and
        # reads as a miss, a wrong Safe.
        net = Network(1, [Layer.linear([[1.0]], [0.0])])
        spec = halfspace([-1e-10], -2.5e-9)
        verdict = verify(net, Box([-1.0], [30.0]), spec, method=method)
        assert verdict.status == UNSAFE
        assert spec.holds_at(net.forward(verdict.witness))

    def test_spec_dim_checked(self):
        with pytest.raises(ShapeError):
            verify(constant_net(1.0), Box([0.0], [1.0]),
                   halfspace([1.0, 2.0], 0.0))

    def test_safe_never_contradicted_by_sampling(self):
        rng = np.random.default_rng(0)
        for seed in range(6):
            net = random_network([2, 4, 3, 1], 1.0, seed=seed)
            box = Box([-1.0, -1.0], [1.0, 1.0])
            out = reach_box(net, box)
            spec = halfspace([1.0], out.lower[0] - 0.5)
            verdict = verify(net, box, spec)
            assert verdict.status == SAFE
            Y = net.forward_batch(box.sample(rng, 10**4))
            assert not np.any(Y[:, 0] <= out.lower[0] - 0.5)


def box_meets(box, A, d):
    """LP feasibility of {y in box : A y <= d}."""
    eye = np.eye(len(box))
    return lp_feasible(np.vstack([A, eye, -eye]),
                       np.concatenate([d, box.upper, -box.lower]))


def lp_per_cell_verify(net, box, spec, splits, seed=42):
    """Split verification with one LP per cell and polytope, no closed form."""
    cells = split_box(box, splits)
    outs = [reach_box(net, c) for c in cells]
    if not any(box_meets(o, A, d)
               for A, d in spec.unsafe_polytopes for o in outs):
        return Verdict(SAFE)
    rng = np.random.default_rng(seed)
    candidates = np.vstack([cells.centers, box.sample(rng, SEARCH_SAMPLES)])
    Y = net.forward_batch(candidates)
    for x, y in zip(candidates, Y):
        if spec.holds_at(y) and spec.holds_at(net.forward(x)):
            return Verdict(UNSAFE, witness=x)
    return Verdict(UNCERTAIN)


def same_verdict(a, b):
    if a.status != b.status:
        return False
    return a.witness is None or np.array_equal(a.witness, b.witness)


class TestClosedFormCellTest:
    """The closed-form row test only removes cells the LP also rules out."""

    identity2 = Network(2, [Layer.linear(np.eye(2), [0.0, 0.0])])
    unit = Box([0.0, 0.0], [1.0, 1.0])

    def test_polytope_touching_every_cell(self):
        # y0 <= 0.5, y1 <= 0.5, y0 + y1 >= 1: only the corner shared by all
        # four cells; every cell touches it, so nothing is proved.
        spec = LinearSpec([(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                            np.array([0.5, 0.5, -1.0]))])
        got = verify(self.identity2, self.unit, spec, method="split", splits=2)
        ref = lp_per_cell_verify(self.identity2, self.unit, spec, 2)
        assert got.status == UNCERTAIN
        assert same_verdict(got, ref)

    def test_rows_hit_but_conjunction_misses(self):
        # Each row alone meets the top-right cell; together they are empty,
        # which only the LP can show.
        spec = LinearSpec([(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
                            np.array([0.5, 0.5, -1.001]))])
        got = verify(self.identity2, self.unit, spec, method="split", splits=2)
        assert got.status == SAFE
        assert same_verdict(got, lp_per_cell_verify(self.identity2, self.unit, spec, 2))

    def test_boundary_cell_with_witness(self):
        # y0 + y1 >= 1.5 meets the top-right cell; its center is a witness.
        spec = LinearSpec([(np.array([[-1.0, -1.0], [1.0, 0.0]]),
                            np.array([-1.5, 1.0]))])
        got = verify(self.identity2, self.unit, spec, method="split", splits=2)
        assert got.status == UNSAFE
        assert np.array_equal(got.witness, [0.75, 0.75])
        assert same_verdict(got, lp_per_cell_verify(self.identity2, self.unit, spec, 2))

    def test_random_nets_match_lp_per_cell(self):
        rng = np.random.default_rng(11)
        statuses = set()
        for seed in range(25):
            net = random_network([2, 5, 3, 2], 1.0, seed=700 + seed)
            box = Box([-1.0, -0.5], [1.0, 0.5])
            y = net.forward_batch(box.sample(rng, 200))
            polys = []
            for _ in range(2):
                A = rng.uniform(-1.0, 1.0, (int(rng.integers(1, 4)), 2))
                d = (A @ y[rng.integers(200)]) + rng.choice([-1.0, -0.1, 0.0, 0.1])
                polys.append((A, d))
            spec = LinearSpec(polys)
            got = verify(net, box, spec, method="split", splits=3)
            assert same_verdict(got, lp_per_cell_verify(net, box, spec, 3))
            statuses.add(got.status)
        assert statuses == {SAFE, UNSAFE, UNCERTAIN}

    def test_clear_margin_needs_no_lp(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nnbisim.interval, "lp_feasible",
                            lambda A, d: calls.append(1) or True)
        net = random_network([2, 6, 4, 1], 1.0, seed=5)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        spec = halfspace([1.0], reach_box(net, box).lower[0] - 1.0)
        assert verify(net, box, spec, method="split", splits=4).status == SAFE
        assert calls == []

    def test_exact_clear_margin_needs_no_lp_feasible(self, monkeypatch):
        calls = []
        monkeypatch.setattr(nnbisim.star, "lp_feasible",
                            lambda A, d: calls.append(1) or True)
        net = random_network([2, 6, 4, 1], 1.0, seed=5)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        # Each star's closed-form bound uses the whole input box, so it can
        # be looser than reach_box; a wide margin clears it all the same.
        spec = halfspace([1.0], reach_box(net, box).lower[0] - 100.0)
        assert verify(net, box, spec, method="exact").status == SAFE
        assert calls == []


class TestNonFiniteBox:
    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_verify_names_the_bound(self, method):
        net = random_network([2, 3, 1], 1.0, seed=1)
        with pytest.raises(ValueError,
                           match="box lower bound must be finite, found -inf at index 0"):
            verify(net, Box([-np.inf, 0.0], [1.0, 1.0]), halfspace([1.0], 0.0),
                   method=method)

    @settings(max_examples=30, deadline=None)
    @given(method=st.sampled_from(["interval", "split", "exact"]),
           side=st.sampled_from(["lower", "upper"]), index=st.integers(0, 1))
    def test_compressed_names_the_bound(self, method, side, index):
        big = random_network([2, 4, 3, 1], 1.0, seed=1)
        small = random_network([2, 3, 1], 1.0, seed=2)
        lower, upper = np.zeros(2), np.ones(2)
        bound = {"lower": lower, "upper": upper}[side]
        bound[index] = -np.inf if side == "lower" else np.inf
        found = "-inf" if side == "lower" else "inf"
        with pytest.raises(ValueError, match=f"box {side} bound must be finite, "
                                             f"found {found} at index {index}"):
            verify_via_compressed(big, small, Box(lower, upper),
                                  halfspace([1.0], 0.0), method=method)


class TestInflate:
    def test_single_coordinate(self):
        spec = halfspace([1.0], 0.0)
        out = inflate_spec(spec, 0.5, "inf")
        A, d = out.unsafe_polytopes[0]
        assert d[0] == pytest.approx(0.5)

    def test_zero_eps_identity(self):
        spec = halfspace([1.0], 0.0)
        assert inflate_spec(spec, 0.0, "inf") is spec

    def test_l1_dual_for_max_norm(self):
        spec = halfspace([1.0, 1.0], 1.0)
        _, d = inflate_spec(spec, 1.0, "inf").unsafe_polytopes[0]
        assert d[0] == pytest.approx(3.0)

    def test_l2_dual(self):
        spec = halfspace([3.0, 4.0], 0.0)
        _, d = inflate_spec(spec, 1.0, "l2").unsafe_polytopes[0]
        assert d[0] == pytest.approx(5.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            inflate_spec(halfspace([1.0], 0.0), -1.0, "inf")

    def test_overflowing_shift_is_a_numeric_error(self):
        # A finite spec and epsilon whose shifted bound overflows is a
        # numeric failure, not a bad constraint.
        with pytest.raises(NumericError, match=r"^inflated unsafe bound overflowed: "
                                               r"polytope 0, row 1$"):
            inflate_spec(LinearSpec([(np.array([[1.0], [1e10]]), np.zeros(2))]),
                         1e300, "inf")

    def test_monotone_in_eps(self):
        spec = LinearSpec([(np.array([[1.0, -2.0], [0.5, 0.5]]),
                            np.array([1.0, 2.0]))])
        d1 = inflate_spec(spec, 0.25, "inf").unsafe_polytopes[0][1]
        d2 = inflate_spec(spec, 0.75, "inf").unsafe_polytopes[0][1]
        assert np.all(d1 <= d2)


class TestCompressedPath:
    def test_identical_constants_safe(self):
        net = constant_net(1.0)
        report = verify_via_compressed(net, net, Box([-1.0], [1.0]),
                                       halfspace([1.0], 0.0), method="exact")
        assert report.epsilon == pytest.approx(0.0, abs=1e-9)
        assert report.verdict_small.status == SAFE

    def test_uncertain_phenomenon(self):
        big, small = constant_net(1.0), constant_net(0.5)
        box = Box([-1.0], [1.0])
        spec = halfspace([1.0], 0.0)
        report = verify_via_compressed(big, small, box, spec, method="interval")
        assert report.epsilon == pytest.approx(0.5, abs=1e-12)
        assert report.verdict_small.status == UNCERTAIN
        assert verify(big, box, spec, method="interval").status == SAFE

    def test_never_unsafe(self):
        big, small = constant_net(-1.0), constant_net(-1.0)
        report = verify_via_compressed(big, small, Box([-1.0], [1.0]),
                                       halfspace([1.0], 0.0))
        assert report.verdict_small.status in (SAFE, UNCERTAIN)

    def test_safe_lifts_to_large_net(self):
        rng = np.random.default_rng(1)
        big = random_network([2, 6, 4, 1], 1.0, seed=50)
        small = random_network([2, 3, 1], 1.0, seed=51)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        eps = bisim_error_upper(big, small, box, method="split",
                                splits=4).epsilon_upper
        # place the unsafe region below anything either net can reach
        small_lo = reach_box(small, box).lower[0]
        spec = halfspace([1.0], small_lo - eps - 0.5)
        report = verify_via_compressed(big, small, box, spec, method="split",
                                       splits=4)
        assert report.verdict_small.status == SAFE
        Y = big.forward_batch(box.sample(rng, 10**5))
        assert not np.any(Y[:, 0] <= small_lo - eps - 0.5)

    def test_times_recorded(self):
        net = constant_net(1.0)
        report = verify_via_compressed(net, net, Box([0.0], [1.0]),
                                       halfspace([1.0], 0.0))
        assert report.time_small_seconds >= 0.0
        assert report.time_large_seconds is None
        assert report.verdict_large is None
        with pytest.raises(ValueError, match="times must be nonnegative"):
            dataclasses.replace(report, verdict_large=Verdict(SAFE),
                                time_large_seconds=-1.0)

    def test_wrong_spec_width_fails_before_the_bound(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the error bound was computed")
        monkeypatch.setattr(nnbisim.safety, "bisim_error_upper", refuse)
        with pytest.raises(ShapeError, match="spec constraints over 2 outputs, "
                                             "network has 1"):
            verify_via_compressed(constant_net(1.0), constant_net(0.5), Box([-1.0], [1.0]),
                                  halfspace([1.0, 1.0], 0.0))

    @pytest.mark.parametrize("method", ["interval", "split", "exact"])
    def test_uncertain_small_verdict_evaluates_no_network(self, monkeypatch, method):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a network was evaluated")
        monkeypatch.setattr(Network, "forward", refuse)
        monkeypatch.setattr(Network, "forward_batch", refuse)
        report = verify_via_compressed(constant_net(1.0), constant_net(0.5), Box([-1.0], [1.0]),
                                       halfspace([1.0], 0.0), method=method)
        assert report.verdict_small.status == UNCERTAIN

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.floats(-3.0, 3.0),
           method=st.sampled_from(["interval", "split", "exact"]),
           norm=st.sampled_from(["inf", "l2"]))
    def test_small_verdict_is_the_safe_test_on_the_inflated_spec(self, seed, b, method, norm):
        big, small, box = random_pair(seed)
        a = np.random.default_rng(seed).normal(size=small.output_dim)
        spec = halfspace(a, b)
        report = verify_via_compressed(big, small, box, spec, method=method, norm=norm)
        direct = verify(small, box, inflate_spec(spec, report.epsilon, norm), method=method)
        assert report.verdict_small.status in (SAFE, UNCERTAIN)
        assert (report.verdict_small.status == SAFE) == (direct.status == SAFE)


class TestReportFormats:
    def _reports(self):
        return [
            BisimReport("N_11", 0.0927, 463.24804, 0.19383,
                        Verdict(SAFE), Verdict(UNCERTAIN)),
            BisimReport("N_14", 0.0041, None, 0.34665, None, Verdict(SAFE)),
        ]

    def test_csv(self):
        text = report_csv(self._reports())
        lines = text.strip().split("\n")
        assert lines[0] == "id,epsilon,time_large_s,time_small_s,verdict_large,verdict_small"
        assert lines[1] == "N_11,0.0927,463.24804,0.19383,Safe,Uncertain"
        assert lines[2] == "N_14,0.0041,,0.34665,,Safe"

    def test_csv_id_with_comma_quote_and_newline_is_one_row(self):
        network_id = 'a,"b"\nc'
        report = BisimReport(network_id, 0.5, None, 0.25, None, Verdict(SAFE))
        rows = list(csv.reader(io.StringIO(report_csv([report]))))
        assert rows == [CSV_HEADER.split(","), [network_id, "0.5", "", "0.25000", "", "Safe"]]

    def test_csv_id_with_carriage_return_is_one_row(self):
        report = BisimReport("x\ry", 0.5, None, 0.25, None, Verdict(SAFE))
        rows = list(csv.reader(io.StringIO(report_csv([report]))))
        assert rows == [CSV_HEADER.split(","), ["x\ry", "0.5", "", "0.25000", "", "Safe"]]

    def test_empty_csv(self):
        assert report_csv([]) == (
            "id,epsilon,time_large_s,time_small_s,verdict_large,verdict_small\n")

    def test_table_mentions_columns(self):
        table = report_table(self._reports())
        for token in ("ID", "epsilon", "T_L", "T_S", "V_L", "V_S",
                      "N_11", "Uncertain"):
            assert token in table


class TestVerdictAndSpec:
    def test_verdict_witness_consistency(self):
        with pytest.raises(ValueError):
            Verdict(SAFE, witness=np.zeros(1))
        with pytest.raises(ValueError):
            Verdict(UNSAFE)

    def test_spec_requires_rows(self):
        with pytest.raises(ValueError):
            LinearSpec([(np.zeros((0, 2)), np.zeros(0))])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["a", "b"])
    def test_spec_rejects_non_finite_constraints(self, value, where):
        # An infinite row once read Unsafe by interval and Safe by split.
        A, d = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.0, 1.0])
        if where == "a":
            A[1, 0] = value
        else:
            d[1] = value
        with pytest.raises(ValueError, match=r"^unsafe polytope 1, row 1: constraint "
                                             r"must be finite$"):
            LinearSpec([(np.eye(2), np.zeros(2)), (A, d)])

    def test_holds_at_is_exact(self):
        spec = halfspace([1.0], 0.0)
        assert spec.holds_at([0.0])
        assert not spec.holds_at([1e-300])
