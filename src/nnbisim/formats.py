"""Parsers and serializers for network and problem files.

Two network formats are supported:

  * NNet: the plain-text ACAS Xu interchange format (header, normalization
    vectors, row-wise weights and biases). Hidden layers are ReLU, the
    output layer is linear; per-neuron mixes are not expressible.
  * JSON: a structured object carrying input_dim and per-layer weights,
    bias and per-neuron activation tags. Merged difference networks mix
    ReLU and identity inside a layer, so they persist in this format only.

Both round-trip exactly: floats are written with 17 significant digits
(NNet) or shortest-repr (JSON).
"""

import json
from dataclasses import dataclass

import numpy as np

from .bisim import METHODS
from .errors import ParseError
from .network import IDENTITY, RELU, Box, Layer, Network
from .norms import NORMS
from .safety import LinearSpec


@dataclass
class NNetMeta:
    """NNet normalization block: per-input ranges plus one output entry.

    It is parsed, checked and written back, but not applied: every
    analysis runs the stored weights on raw inputs.
    """

    input_mins: np.ndarray
    input_maxes: np.ndarray
    means: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        self.input_mins = np.atleast_1d(np.asarray(self.input_mins, dtype=float))
        self.input_maxes = np.atleast_1d(np.asarray(self.input_maxes, dtype=float))
        self.means = np.atleast_1d(np.asarray(self.means, dtype=float))
        self.ranges = np.atleast_1d(np.asarray(self.ranges, dtype=float))
        n = self.input_mins.shape[0]
        if self.input_maxes.shape[0] != n:
            raise ValueError("input mins/maxes lengths differ")
        if self.means.shape[0] != n + 1 or self.ranges.shape[0] != n + 1:
            raise ValueError("means/ranges must have one entry per input plus one for outputs")
        if np.any(self.ranges == 0):
            raise ValueError("ranges entries must be nonzero")
        if np.any(self.input_mins > self.input_maxes):
            raise ValueError("input mins exceed maxes")

    @classmethod
    def identity(cls, input_dim):
        """No-op normalization for generated networks."""
        return cls(np.full(input_dim, -np.inf), np.full(input_dim, np.inf),
                   np.zeros(input_dim + 1), np.ones(input_dim + 1))


# What a line's end may carry past its last value: commas and whitespace
# (str.isspace; no such character lies past U+3000).
_TRAILING = "," + "".join(filter(str.isspace, map(chr, range(0x3001))))


class _LineReader:
    """A text's non-blank lines one at a time, after any leading // lines."""

    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0
        while self.pos < len(self.lines) and self.lines[self.pos].strip()[:2] in ("", "//"):
            self.pos += 1

    def next(self, what):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return self.pos, line.strip()
        raise ParseError(f"unexpected end of file, expected {what}",
                         location=f"line {self.pos + 1}")

    def numbers(self, what, cast, expect, label=None):
        """The next line's number and its expect comma-separated values, cast
        and with _TRAILING dropped; label (default what) names them in errors."""
        lineno, line = self.next(what)
        line, label = line.rstrip(_TRAILING), label or what
        values = []
        for t in line.split(",") if line else ():
            try:
                values.append(cast(t))
            except ValueError:
                raise ParseError(f"non-numeric token {t.strip()!r} in {label}",
                                 location=f"line {lineno}") from None
        if len(values) != expect:
            raise ParseError(f"expected {expect} {label}, found {len(values)}",
                             location=f"line {lineno}")
        return lineno, values


def _body_walk(reader, sizes, layers):
    """Read the first `layers` layers' lines one by one from the reader's
    position, raising the ParseError of the first bad line, else return the
    last line's number. Only bad files come here; good ones count no lines."""
    for k, (rows, cols) in enumerate(zip(sizes[1:layers + 1], sizes[:layers])):
        for i in range(rows):
            reader.numbers(f"weight row {i} of layer {k}", float, cols,
                           f"weights (layer {k}, row {i})")
        for i in range(rows):
            reader.numbers(f"bias {i} of layer {k}", float, 1, f"bias (layer {k}, neuron {i})")
    return reader.pos


def _nnet_body(reader, sizes):
    """The layers from the lines after the reader's position. Each layer is
    converted in one pass, so faults are named in layer order; one whose
    lines do not fit the header's layout or do not convert goes to _body_walk."""
    body = [s.rstrip(_TRAILING) for s in map(str.strip, reader.lines[reader.pos:]) if s]
    layers, pos = [], 0
    for k, (rows, cols) in enumerate(zip(sizes[1:], sizes[:-1])):
        lines, pos = body[pos:pos + 2 * rows], pos + 2 * rows
        try:
            if [s.count(",") for s in lines] != [cols - 1] * rows + [0] * rows:
                raise ValueError("body does not match the header layout")
            values = np.fromiter(map(float, ",".join(lines).split(",")), dtype=float)
        except ValueError:
            _body_walk(reader, sizes, k + 1)  # raises: it reads the lines alike
            raise
        make = Layer.linear if k == len(sizes) - 2 else Layer.relu
        try:
            layers.append(make(values[:-rows].reshape(rows, cols), values[-rows:]))
        except ValueError as exc:
            raise ParseError(f"{exc} (layer {k})",
                             location=f"line {_body_walk(reader, sizes, k + 1)}") from None
    if pos < len(body):
        raise ParseError("unexpected trailing content",
                         location=f"line {_body_walk(reader, sizes, len(layers)) + 1}")
    return layers


def parse_nnet(text):
    """Parse NNet text into (Network, NNetMeta).

    Comment lines (leading //) before the header are skipped; blank lines,
    trailing commas and whitespace, and CRLF line endings are tolerated.
    Errors carry the offending line number (see _nnet_body).
    """
    reader = _LineReader(text)
    lineno, (num_layers, input_size, output_size, _max_width) = reader.numbers(
        "header", int, 4, "header fields")
    if num_layers < 1 or input_size < 1 or output_size < 1:
        raise ParseError("header counts must be positive", location=f"line {lineno}")

    lineno, sizes = reader.numbers("layer sizes", int, num_layers + 1)
    if sizes[0] != input_size:
        raise ParseError(f"first layer size {sizes[0]} != inputSize {input_size}",
                         location=f"line {lineno}")
    if sizes[-1] != output_size:
        raise ParseError(f"last layer size {sizes[-1]} != outputSize {output_size}",
                         location=f"line {lineno}")
    if any(s < 1 for s in sizes):
        raise ParseError("layer sizes must be positive", location=f"line {lineno}")

    reader.next("legacy flag line")  # historical field, ignored

    mins_line, mins = reader.numbers("input minimums", float, input_size)
    _, maxes = reader.numbers("input maximums", float, input_size)
    if any(lo > hi for lo, hi in zip(mins, maxes)):
        raise ParseError("input minimums exceed maximums", location=f"line {mins_line}")
    _, means = reader.numbers("means", float, input_size + 1)
    ranges_line, ranges = reader.numbers("ranges", float, input_size + 1)
    if any(r == 0 for r in ranges):
        raise ParseError("ranges entries must be nonzero", location=f"line {ranges_line}")
    meta = NNetMeta(mins, maxes, means, ranges)
    return Network(input_size, _nnet_body(reader, sizes)), meta


def _fmt(x):
    return f"{x:.17g}"


def write_nnet(net, meta):
    """Serialize to NNet text (17 significant digits, no trailing commas)."""
    for lay in net.layers[:-1]:
        if any(a != RELU for a in lay.activations):
            raise ValueError("NNet requires all-ReLU hidden layers; use the JSON format")
    if any(a != IDENTITY for a in net.layers[-1].activations):
        raise ValueError("NNet requires a linear output layer; use the JSON format")
    if meta.input_mins.shape[0] != net.input_dim:
        raise ValueError("meta input length != network input_dim")
    sizes = net.layer_sizes()
    out = ["// nnbisim network"]
    out.append(",".join(str(v) for v in
                        [net.num_layers, net.input_dim, net.output_dim, max(sizes)]))
    out.append(",".join(str(s) for s in sizes))
    out.append("0")
    out.append(",".join(_fmt(v) for v in meta.input_mins))
    out.append(",".join(_fmt(v) for v in meta.input_maxes))
    out.append(",".join(_fmt(v) for v in meta.means))
    out.append(",".join(_fmt(v) for v in meta.ranges))
    for lay in net.layers:
        for row in lay.weights:
            out.append(",".join(_fmt(v) for v in row))
        for v in lay.bias:
            out.append(_fmt(v))
    return "\n".join(out) + "\n"


def _reject_unknown(obj, allowed, path):
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown field {key!r}", location=path)


def _require(obj, key, path):
    if key not in obj:
        raise ParseError(f"missing field {key!r}", location=path)
    return obj[key]


def _positive_int(value, path):
    """value, when it is a JSON integer >= 1 (true and false are not)."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ParseError("must be a positive integer", location=path)
    return value


def _float_array(value, path, ndim=1):
    """value as an ndim-dimensional float array; JSON true/false, strings
    and integers beyond the range of a double are rejected."""
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:
        raise ParseError("integer too large for a double", location=path) from None
    except (TypeError, ValueError):
        raise ParseError("expected a numeric array", location=path) from None
    if arr.ndim != ndim:
        raise ParseError(f"expected a {ndim}-dimensional numeric array", location=path)
    if any(not {bool, str}.isdisjoint(map(type, row))
           for row in (value if ndim == 2 else [value])):
        raise ParseError("expected a numeric array", location=path)
    return arr


def parse_json_net(text):
    """Parse the JSON network format (per-neuron activation tags)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    _reject_unknown(obj, {"input_dim", "layers"}, "network")
    input_dim = _positive_int(_require(obj, "input_dim", "network"), "input_dim")
    raw_layers = _require(obj, "layers", "network")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ParseError("must be a non-empty list", location="layers")
    layers = []
    for i, entry in enumerate(raw_layers):
        path = f"layers[{i}]"
        if not isinstance(entry, dict):
            raise ParseError("must be an object", location=path)
        _reject_unknown(entry, {"weights", "bias", "activations"}, path)
        W = _float_array(_require(entry, "weights", path), f"{path}.weights", ndim=2)
        b = _float_array(_require(entry, "bias", path), f"{path}.bias")
        acts = _require(entry, "activations", path)
        if (not isinstance(acts, list)
                or any(a not in (RELU, IDENTITY) for a in acts)):
            raise ParseError(f"activations must be a list of {RELU!r}/{IDENTITY!r} tags",
                             location=f"{path}.activations")
        try:
            layers.append(Layer(W, b, acts))
        except ValueError as exc:
            raise ParseError(str(exc), location=path) from None
    try:
        return Network(input_dim, layers)
    except ValueError as exc:
        raise ParseError(str(exc), location="layers") from None


def write_json_net(net):
    """Serialize to the JSON network format (lossless round trip)."""
    obj = {
        "input_dim": net.input_dim,
        "layers": [
            {
                "weights": [[float(v) for v in row] for row in lay.weights],
                "bias": [float(v) for v in lay.bias],
                "activations": list(lay.activations),
            }
            for lay in net.layers
        ],
    }
    return json.dumps(obj, indent=1) + "\n"


_PROBLEM_FIELDS = {"input", "unsafe", "norm", "method", "splits"}


def parse_problem(text):
    """Parse a problem file into (Box, LinearSpec, options).

    The document is JSON with an input box, a list of unsafe polytopes
    (each a list of constraints {"a": [...], "b": value} meaning
    a . y <= b), and optional norm/method/splits defaults. Unknown fields
    are rejected; errors carry the field path.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top level must be an object")
    _reject_unknown(obj, _PROBLEM_FIELDS, "problem")

    box_obj = _require(obj, "input", "problem")
    if not isinstance(box_obj, dict):
        raise ParseError("must be an object", location="input")
    _reject_unknown(box_obj, {"lower", "upper"}, "input")
    lower = _float_array(_require(box_obj, "lower", "input"), "input.lower")
    upper = _float_array(_require(box_obj, "upper", "input"), "input.upper")
    try:
        box = Box(lower, upper)
    except ValueError as exc:
        raise ParseError(str(exc), location="input") from None
    if not (np.isfinite(box.lower).all() and np.isfinite(box.upper).all()):
        raise ParseError("box bounds must be finite", location="input")

    raw_unsafe = _require(obj, "unsafe", "problem")
    if not isinstance(raw_unsafe, list):
        raise ParseError("must be a list of polytopes", location="unsafe")
    polytopes = []
    for j, poly in enumerate(raw_unsafe):
        ppath = f"unsafe[{j}]"
        if not isinstance(poly, list) or not poly:
            raise ParseError("must be a non-empty list of constraints", location=ppath)
        rows, rhs = [], []
        width = None
        for k, con in enumerate(poly):
            cpath = f"{ppath}[{k}]"
            if not isinstance(con, dict):
                raise ParseError("must be an object", location=cpath)
            _reject_unknown(con, {"a", "b"}, cpath)
            a = _float_array(_require(con, "a", cpath), f"{cpath}.a")
            if not np.isfinite(a).all():
                raise ParseError("must be finite", location=f"{cpath}.a")
            b = _require(con, "b", cpath)
            if not isinstance(b, (int, float)) or isinstance(b, bool):
                raise ParseError("must be a number", location=f"{cpath}.b")
            b = _float_array([b], f"{cpath}.b")[0]
            if not np.isfinite(b):
                raise ParseError("must be finite", location=f"{cpath}.b")
            if width is None:
                width = a.shape[0]
            elif a.shape[0] != width:
                raise ParseError(
                    f"constraint length {a.shape[0]} != {width} used earlier in this polytope",
                    location=f"{cpath}.a")
            rows.append(a)
            rhs.append(b)
        polytopes.append((np.array(rows), np.array(rhs)))
    spec = LinearSpec(polytopes)

    options = {}
    for key, names in (("norm", NORMS), ("method", METHODS)):
        if key in obj:
            if obj[key] not in names:
                quoted = [repr(n) for n in names]
                raise ParseError(f"must be {', '.join(quoted[:-1])} or {quoted[-1]}",
                                 location=key)
            options[key] = obj[key]
    if "splits" in obj:
        options["splits"] = _positive_int(obj["splits"], "splits")
    return box, spec, options
