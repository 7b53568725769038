import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnbisim import formats
from nnbisim import (Box, Layer, Network, NNetMeta, ParseError, ShapeError, eval_normalized,
                     merge, parse_json_net, parse_nnet, parse_problem,
                     random_network, verify, write_json_net,
                     write_nnet)

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


def nets_equal(a, b):
    if a.input_dim != b.input_dim or a.num_layers != b.num_layers:
        return False
    for la, lb in zip(a.layers, b.layers):
        if not (np.array_equal(la.weights, lb.weights)
                and np.array_equal(la.bias, lb.bias)
                and la.activations == lb.activations):
            return False
    return True


class TestParseNNet:
    def test_minimal_file(self):
        net, meta = parse_nnet(MINIMAL_NNET)
        assert net.layer_sizes() == [1, 1]
        # a single layer is the output layer, so the activation is linear
        assert net.layers[0].activations == ("identity",)
        assert np.allclose(net.forward([1.0]), [2.5])
        assert meta.ranges[-1] == 1.0

    def test_crlf_tolerated(self):
        net, _ = parse_nnet(MINIMAL_NNET.replace("\n", "\r\n"))
        assert np.allclose(net.forward([1.0]), [2.5])

    def test_scientific_notation(self):
        net, _ = parse_nnet(MINIMAL_NNET.replace("2.0,", "2.0e0,")
                            .replace("0.5,", "5e-1,"))
        assert np.allclose(net.forward([1.0]), [2.5])

    def test_wrong_sizes_line(self):
        broken = MINIMAL_NNET.replace("1,1,\n0,", "1,1,1,\n0,")
        with pytest.raises(ParseError, match="line 3"):
            parse_nnet(broken)

    def test_non_numeric_token(self):
        broken = MINIMAL_NNET.replace("2.0,", "2.x,")
        with pytest.raises(ParseError, match="line 9"):
            parse_nnet(broken)

    def test_truncated_file(self):
        with pytest.raises(ParseError, match="line"):
            parse_nnet("\n".join(MINIMAL_NNET.splitlines()[:6]))

    def test_trailing_content(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_nnet(MINIMAL_NNET + "999.0\n")

    def test_bad_range(self):
        broken = MINIMAL_NNET.replace("1.0,1.0,", "0.0,1.0,")
        with pytest.raises(ParseError, match="nonzero"):
            parse_nnet(broken)

    def test_short_weight_row_names_its_line(self):
        lines = write_nnet(random_network([3, 4, 2], 1.0, seed=5),
                           NNetMeta.identity(3)).splitlines()
        lines[8] = lines[8].rsplit(",", 1)[0]  # layer 0, row 0 loses a weight
        with pytest.raises(ParseError, match=r"^line 9: expected 3 weights "
                                             r"\(layer 0, row 0\), found 2$"):
            parse_nnet("\n".join(lines))

    def test_tolerated_variants_take_the_one_pass_path(self, monkeypatch):
        net = random_network([3, 4, 2], 1.0, seed=5)
        lines = write_nnet(net, NNetMeta.identity(3)).splitlines()
        variant = "\r\n".join(line + (" , ,\t" if i % 2 else ",") + "\r\n" * (i % 3 == 0)
                               for i, line in enumerate(lines)) + "\r\n\r\n"

        def walk(reader, sizes, layers):
            raise AssertionError("the diagnosis walk ran")

        monkeypatch.setattr(formats, "_body_walk", walk)
        again, _ = parse_nnet(variant)
        assert nets_equal(net, again)

    def test_acas_like_shape(self):
        net = random_network([5, 50, 50, 5], 1.0, seed=77)
        meta = NNetMeta(np.full(5, -1.0), np.full(5, 1.0),
                        np.zeros(6), np.ones(6))
        again, meta2 = parse_nnet(write_nnet(net, meta))
        assert nets_equal(net, again)
        assert np.array_equal(meta.means, meta2.means)


def _body_case(lines, case):
    """The [3,4,2] file's lines with one body fault, plus the expected error
    as (message, 0-based line of the undecorated file it names, how):
    how is "at" that line, "after" it (the next raw line) or "eof"."""
    lines = list(lines)
    # 8-11 weight rows and 12-15 biases of layer 0, 16-17 and 18-19 of layer 1
    if case == "eof_in_weights":
        return lines[:10], ("unexpected end of file, expected weight row 2 of layer 0",
                            None, "eof")
    if case == "eof_in_biases":
        return lines[:14], ("unexpected end of file, expected bias 2 of layer 0", None, "eof")
    if case == "short_weight_row":
        lines[9] = lines[9].rsplit(",", 1)[0]
        return lines, ("expected 3 weights (layer 0, row 1), found 2", 9, "at")
    if case == "long_weight_row":
        lines[16] += ",0.5"
        return lines, ("expected 4 weights (layer 1, row 0), found 5", 16, "at")
    if case == "two_biases":
        lines[13] += ",0.5"
        return lines, ("expected 1 bias (layer 0, neuron 1), found 2", 13, "at")
    if case == "non_numeric_weight":
        lines[10] = "x1," + lines[10].split(",", 1)[1]
        return lines, ("non-numeric token 'x1' in weights (layer 0, row 2)", 10, "at")
    if case == "non_numeric_bias":
        lines[19] = "bias?"
        return lines, ("non-numeric token 'bias?' in bias (layer 1, neuron 1)", 19, "at")
    if case == "nan_weight":
        lines[11] = "nan," + lines[11].split(",", 1)[1]
        return lines, ("layer weights must be finite, found nan at index (3, 0) (layer 0)",
                       15, "at")
    if case == "inf_bias":
        lines[18] = "inf"
        return lines, ("layer bias must be finite, found inf at index 0 (layer 1)", 19, "at")
    assert case == "trailing_content"
    return lines + ["999.0"], ("unexpected trailing content", 19, "after")


def _decorate(lines, comments, blanks, crlf):
    """Text of lines, optionally with two leading comment lines, a blank
    line after each line and CRLF ends; also each line's number in that
    text, and the text's line count."""
    out, where = ["// extra", "// comments"] if comments else [], []
    for i, line in enumerate(lines):
        where.append(len(out) + 1)
        out.append(line)
        if blanks:
            out.append(" \t" if i % 2 else "")
    eol = "\r\n" if crlf else "\n"
    return eol.join(out) + eol, where, len(out)


class TestNNetBodyErrors:
    """Every body fault is named with its message and line, also when
    comments, blank lines and CRLF ends move the lines."""

    @pytest.mark.parametrize("style", ["plain", "comments", "blanks", "crlf", "all"])
    @pytest.mark.parametrize("case", ["eof_in_weights", "eof_in_biases", "short_weight_row",
                                      "long_weight_row", "two_biases", "non_numeric_weight",
                                      "non_numeric_bias", "nan_weight", "inf_bias",
                                      "trailing_content"])
    def test_message_and_line(self, case, style):
        plain = write_nnet(random_network([3, 4, 2], 1.0, seed=5),
                           NNetMeta.identity(3)).splitlines()
        assert len(plain) == 20
        lines, (message, anchor, how) = _body_case(plain, case)
        text, where, total = _decorate(lines, comments=style in ("comments", "all"),
                                       blanks=style in ("blanks", "all"),
                                       crlf=style in ("crlf", "all"))
        line = {"eof": lambda: total + 1, "at": lambda: where[anchor],
                "after": lambda: where[anchor] + 1}[how]()
        with pytest.raises(ParseError) as info:
            parse_nnet(text)
        assert str(info.value) == f"line {line}: {message}"

    def test_faults_are_named_in_layer_order(self):
        # A non-finite layer 0 is named before a bad line of layer 1.
        lines = write_nnet(random_network([3, 4, 2], 1.0, seed=5),
                           NNetMeta.identity(3)).splitlines()
        lines[12] = "inf"
        lines[16] = "0.5"
        with pytest.raises(ParseError) as info:
            parse_nnet("\n".join(lines))
        assert str(info.value) == ("line 16: layer bias must be finite, found inf "
                                   "at index 0 (layer 0)")


class TestWriteNNet:
    def test_round_trip_exact(self):
        for seed in range(5):
            net = random_network([3, 7, 4, 2], 2.0, seed=seed)
            meta = NNetMeta(np.full(3, -5.0), np.full(3, 5.0),
                            np.zeros(4), np.ones(4))
            text = write_nnet(net, meta)
            net2, meta2 = parse_nnet(text)
            assert nets_equal(net, net2)
            assert write_nnet(net2, meta2) == text

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4))
    def test_round_trip_bit_identical_with_tolerated_variants(self, data, sizes):
        """Any finite weights survive write_nnet -> parse_nnet bit for bit,
        also with trailing commas, CRLF line ends and blank lines."""
        finite = st.floats(allow_nan=False, allow_infinity=False)
        layers = []
        for k, (rows, cols) in enumerate(zip(sizes[1:], sizes[:-1])):
            W = data.draw(st.lists(finite, min_size=rows * cols, max_size=rows * cols))
            b = data.draw(st.lists(finite, min_size=rows, max_size=rows))
            make = Layer.linear if k == len(sizes) - 2 else Layer.relu
            layers.append(make(np.reshape(W, (rows, cols)), b))
        net = Network(sizes[0], layers)
        lines = write_nnet(net, NNetMeta.identity(sizes[0])).splitlines()
        style = st.tuples(st.sampled_from(["", ",", ", ", ",\t", " , ,"]),
                          st.sampled_from(["\n", "\r\n"]),
                          st.sampled_from(["", "\n", "  \r\n"]))
        ends = data.draw(st.lists(style, min_size=len(lines), max_size=len(lines)))
        text = "".join(line + tail + eol + blank
                       for line, (tail, eol, blank) in zip(lines, ends))
        again, _ = parse_nnet(text)
        for lay, lay2 in zip(net.layers, again.layers, strict=True):
            assert [v.hex() for v in lay2.weights.ravel()] == \
                [v.hex() for v in lay.weights.ravel()]
            assert [v.hex() for v in lay2.bias] == [v.hex() for v in lay.bias]
            assert lay2.activations == lay.activations

    def test_mixed_activations_rejected(self):
        big = random_network([2, 3, 3, 1], 1.0, seed=1)
        small = random_network([2, 2, 1], 1.0, seed=2)
        merged = merge(big, small)
        meta = NNetMeta.identity(2)
        with pytest.raises(ValueError, match="JSON"):
            write_nnet(merged, meta)

    def test_meta_dim_checked(self):
        net = random_network([2, 3, 1], 1.0, seed=1)
        with pytest.raises(ValueError):
            write_nnet(net, NNetMeta.identity(3))


class TestNormalization:
    def test_identity_meta_is_raw_eval(self):
        net = random_network([2, 4, 1], 1.0, seed=9)
        meta = NNetMeta.identity(2)
        x = np.array([0.3, -0.4])
        assert np.allclose(eval_normalized(net, meta, x), net.forward(x))

    def test_clamp_scale_denormalize(self):
        net, _ = parse_nnet(MINIMAL_NNET)
        meta = NNetMeta([0.0], [4.0], [2.0, 1.0], [2.0, 10.0])
        # x = 9 clamps to 4, normalizes to (4-2)/2 = 1, net gives 2*1+0.5,
        # then denormalizes to 2.5*10 + 1
        assert eval_normalized(net, meta, [9.0]) == pytest.approx([26.0])

    def test_off_switch(self):
        net, _ = parse_nnet(MINIMAL_NNET)
        meta = NNetMeta([0.0], [4.0], [2.0, 1.0], [2.0, 10.0])
        assert eval_normalized(net, meta, [9.0], normalize=False) == pytest.approx([18.5])


# An integer literal that no double can hold; test ids name it HUGE.
HUGE = "1" + "0" * 400


class TestJsonNet:
    def test_round_trip_plain(self):
        net = random_network([2, 5, 3], 1.5, seed=4)
        again = parse_json_net(write_json_net(net))
        assert nets_equal(net, again)

    def test_round_trip_merged_bitexact_eval(self):
        big = random_network([2, 4, 3, 2], 1.5, seed=11)
        small = random_network([2, 3, 2], 1.5, seed=12)
        merged = merge(big, small)
        again = parse_json_net(write_json_net(merged))
        assert nets_equal(merged, again)
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, (100, 2))
        assert np.array_equal(merged.forward_batch(X), again.forward_batch(X))

    def test_activation_length_mismatch(self):
        text = """{"input_dim": 1, "layers": [
            {"weights": [[1.0]], "bias": [0.0], "activations": ["relu", "relu"]}
        ]}"""
        with pytest.raises(ParseError, match="layers"):
            parse_json_net(text)

    def test_unknown_field(self):
        with pytest.raises(ParseError, match="unknown field"):
            parse_json_net('{"input_dim": 1, "layers": [], "note": "hi"}')

    @pytest.mark.parametrize("value", ["true", "false", "1.0", "0", '"1"'])
    def test_input_dim_must_be_a_positive_integer(self, value):
        text = f"""{{"input_dim": {value}, "layers": [
            {{"weights": [[1.0]], "bias": [0.0], "activations": ["identity"]}}
        ]}}"""
        with pytest.raises(ParseError, match="input_dim.*must be a positive integer"):
            parse_json_net(text)

    @pytest.mark.parametrize("field, weights, bias, message", [
        ("weights", "[[1.0, HUGE]]", "[0.0]", "integer too large for a double"),
        ("bias", "[[1.0, 2.0]]", "[-HUGE]", "integer too large for a double"),
        ("weights", "[[1.0, true]]", "[0.0]", "expected a numeric array"),
        ("bias", "[[1.0, 2.0]]", "[false]", "expected a numeric array"),
        ("weights", '[[1.0, "2.0"]]', "[0.0]", "expected a numeric array"),
        ("bias", "[[1.0, 2.0]]", '["0.5"]', "expected a numeric array"),
    ])
    def test_number_that_is_not_a_double_is_located(self, field, weights, bias, message):
        text = f"""{{"input_dim": 2, "layers": [
            {{"weights": {weights}, "bias": {bias}, "activations": ["identity"]}}
        ]}}""".replace("HUGE", HUGE)
        with pytest.raises(ParseError) as info:
            parse_json_net(text)
        assert str(info.value) == f"layers[0].{field}: {message}"

    def test_chaining_violation_reported(self):
        text = """{"input_dim": 2, "layers": [
            {"weights": [[1.0]], "bias": [0.0], "activations": ["identity"]}
        ]}"""
        with pytest.raises(ParseError, match="layer 0"):
            parse_json_net(text)

    def test_nnet_to_json_agrees(self):
        net, _ = parse_nnet(MINIMAL_NNET)
        again = parse_json_net(write_json_net(net))
        assert again.forward([1.0]) == pytest.approx([2.5])


class TestParseProblem:
    GOOD = """{
        "input": {"lower": [-1.0], "upper": [1.0]},
        "unsafe": [[{"a": [1.0], "b": -2.0}]]
    }"""

    def test_one_dimensional(self):
        box, spec, options = parse_problem(self.GOOD)
        assert np.allclose(box.lower, [-1.0]) and np.allclose(box.upper, [1.0])
        A, d = spec.unsafe_polytopes[0]
        assert np.allclose(A, [[1.0]]) and np.allclose(d, [-2.0])
        assert options == {}

    def test_options(self):
        text = self.GOOD.replace("}]]", '}]], "norm": "l2", "method": "split", "splits": 3')
        _, _, options = parse_problem(text)
        assert options == {"norm": "l2", "method": "split", "splits": 3}

    def test_inverted_box(self):
        text = self.GOOD.replace('"lower": [-1.0], "upper": [1.0]',
                                 '"lower": [2.0], "upper": [1.0]')
        with pytest.raises(ParseError, match="input"):
            parse_problem(text)

    def test_missing_field(self):
        with pytest.raises(ParseError, match="missing field 'unsafe'"):
            parse_problem('{"input": {"lower": [0.0], "upper": [1.0]}}')

    def test_unknown_field_path(self):
        text = self.GOOD.replace('"b": -2.0', '"b": -2.0, "c": 1')
        with pytest.raises(ParseError, match=r"unsafe\[0\]\[0\]"):
            parse_problem(text)

    def test_ragged_constraints(self):
        text = """{
            "input": {"lower": [-1.0], "upper": [1.0]},
            "unsafe": [[{"a": [1.0, 2.0], "b": 0.0}, {"a": [1.0], "b": 0.0}]]
        }"""
        with pytest.raises(ParseError, match=r"unsafe\[0\]\[1\].a"):
            parse_problem(text)

    def test_spec_dim_checked_at_verify_time(self):
        box, spec, _ = parse_problem("""{
            "input": {"lower": [-1.0], "upper": [1.0]},
            "unsafe": [[{"a": [1.0, 2.0], "b": 0.0}]]
        }""")
        net = random_network([1, 2, 1], 1.0, seed=0)
        with pytest.raises(ShapeError):
            verify(net, box, spec)

    def test_bad_option_values(self):
        for patch in ('"norm": "l3"', '"method": "brute"', '"splits": 0'):
            text = self.GOOD.replace("}]]", "}]], " + patch)
            with pytest.raises(ParseError):
                parse_problem(text)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["a", "b"])
    def test_non_finite_constraint_rejected(self, value, field):
        # Python's json reads NaN and Infinity as numbers.
        con = {"a": "[1.0]", "b": "0.0"}
        con[field] = f"[{value}]" if field == "a" else value
        text = f"""{{
            "input": {{"lower": [-1.0], "upper": [1.0]}},
            "unsafe": [[{{"a": [1.0], "b": 0.0}}, {{"a": {con["a"]}, "b": {con["b"]}}}]]
        }}"""
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert str(info.value) == f"unsafe[0][1].{field}: must be finite"

    @pytest.mark.parametrize("field, value, message", [
        ("input.lower", "[-HUGE]", "integer too large for a double"),
        ("input.upper", "[HUGE]", "integer too large for a double"),
        ("unsafe[0][0].a", "[HUGE]", "integer too large for a double"),
        ("unsafe[0][0].b", "HUGE", "integer too large for a double"),
        ("unsafe[0][0].b", "-HUGE", "integer too large for a double"),
        ("input.lower", "[true]", "expected a numeric array"),
        ("input.upper", "[false]", "expected a numeric array"),
        ("unsafe[0][0].a", "[true]", "expected a numeric array"),
        ("input.lower", '["0.5"]', "expected a numeric array"),
        ("input.upper", '["NaN"]', "expected a numeric array"),
        ("unsafe[0][0].a", '["1.0"]', "expected a numeric array"),
        ("unsafe[0][0].b", "true", "must be a number"),
    ])
    def test_number_that_is_not_a_double_is_located(self, field, value, message):
        values = {"input.lower": "[-1.0]", "input.upper": "[1.0]",
                  "unsafe[0][0].a": "[1.0]", "unsafe[0][0].b": "-2.0",
                  field: value.replace("HUGE", HUGE)}
        text = f"""{{
            "input": {{"lower": {values["input.lower"]}, "upper": {values["input.upper"]}}},
            "unsafe": [[{{"a": {values["unsafe[0][0].a"]}, "b": {values["unsafe[0][0].b"]}}}]]
        }}"""
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert str(info.value) == f"{field}: {message}"

    @pytest.mark.parametrize("value", ["true", "false", "2.0"])
    def test_splits_must_be_a_positive_integer(self, value):
        text = self.GOOD.replace("}]]", '}]], "splits": ' + value)
        with pytest.raises(ParseError, match="splits.*must be a positive integer"):
            parse_problem(text)
