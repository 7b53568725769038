"""Feedforward network data model with per-neuron activations.

Networks are sequences of affine layers; each neuron carries its own
activation tag (ReLU or identity), because merged difference networks mix
both within a single layer.
"""

import numpy as np

from .errors import ShapeError

RELU = "relu"
IDENTITY = "identity"

# Rows per forward_batch block: a 50-wide layer's block array is ~1.6 MB.
_BLOCK_ROWS = 4096


def _blocks(n):
    """The (start, end) row blocks of an n-row batch, for forward_batch and
    the Monte-Carlo bound's threads alike. Blocks start at multiples of
    _BLOCK_ROWS, so a row keeps its offset modulo any BLAS unroll that
    divides _BLOCK_ROWS; a remainder under half a block joins the last
    one."""
    cuts = [0, *range(_BLOCK_ROWS, n - _BLOCK_ROWS // 2 + 1, _BLOCK_ROWS), n]
    return list(zip(cuts[:-1], cuts[1:]))


def _workspace(rows, *nets):
    """Two flat buffers for Network._forward_block on blocks of up to rows
    rows of any of nets: each holds rows rows of their widest hidden
    layer."""
    width = max((lay.rows for net in nets for lay in net.layers[:-1]), default=0)
    return np.empty(rows * width), np.empty(rows * width)


def _require_finite(a, what):
    if np.isfinite(a).all():
        return
    at = tuple(int(i) for i in np.argwhere(~np.isfinite(a))[0])
    raise ValueError(f"{what} must be finite, found {a[at]} at index "
                     f"{at[0] if len(at) == 1 else at}")


def _integer(name, value):
    """value as an int: Python and numpy integers pass; bools and floats,
    which range and slicing would reject or truncate, are a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


def _freeze(a):
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


class Layer:
    """One affine layer: y = act(W x + b), activation applied per neuron.

    Raises ShapeError unless weights is a matrix, bias has one entry per
    row and there is one activation tag per row.

    Attributes:
        weights (ndarray): shape (rows, cols)
        bias (ndarray): shape (rows,)
        activations (tuple of str): "relu" or "identity" per output neuron
        relu_mask (ndarray of bool): True where the neuron is ReLU
    """

    def __init__(self, weights, bias, activations):
        self.weights = _freeze(np.atleast_2d(weights))
        self.bias = _freeze(np.atleast_1d(bias))
        acts = tuple(activations)
        if self.weights.ndim != 2:
            raise ShapeError(f"layer weights have {self.weights.ndim} dimensions, expected 2")
        if self.bias.shape != (self.rows,):
            raise ShapeError(f"layer bias has shape {self.bias.shape}, expected ({self.rows},)")
        if len(acts) != self.rows:
            raise ShapeError(f"layer has {len(acts)} activation tags for {self.rows} rows")
        _require_finite(self.weights, "layer weights")
        _require_finite(self.bias, "layer bias")
        for a in acts:
            if a not in (RELU, IDENTITY):
                raise ValueError(f"unknown activation tag {a!r}")
        self.activations = acts
        mask = np.array([a == RELU for a in acts], dtype=bool)
        mask.flags.writeable = False
        self.relu_mask = mask
        # Per-neuron floor for activate_inplace: 0 clips a ReLU, -inf
        # leaves an identity neuron alone; None when no neuron is ReLU.
        if mask.all():
            self._floor = 0.0
        elif mask.any():
            self._floor = _freeze(np.where(mask, 0.0, -np.inf))
        else:
            self._floor = None

    @classmethod
    def relu(cls, weights, bias):
        weights = np.atleast_2d(weights)
        return cls(weights, bias, (RELU,) * weights.shape[0])

    @classmethod
    def linear(cls, weights, bias):
        weights = np.atleast_2d(weights)
        return cls(weights, bias, (IDENTITY,) * weights.shape[0])

    @property
    def rows(self):
        return self.weights.shape[0]

    @property
    def cols(self):
        return self.weights.shape[1]

    def apply(self, x):
        z = self.weights @ x + self.bias
        return np.where(self.relu_mask, np.maximum(z, 0.0), z)

    def activate_inplace(self, Z):
        """Apply the activations to a (n, rows) pre-activation array in place."""
        if self._floor is not None:
            np.maximum(Z, self._floor, out=Z)


class Network:
    """Feedforward network: input_dim plus an ordered list of layers.

    The last layer is the output layer. Immutable after construction;
    safe to share across threads.
    """

    def __init__(self, input_dim, layers):
        self.input_dim = int(input_dim)
        self.layers = tuple(layers)
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.layers:
            raise ValueError("network must have at least one layer")
        for k, (lay, prev) in enumerate(zip(self.layers, self.layer_sizes())):
            if lay.cols != prev:
                raise ShapeError(f"layer {k}: weight cols {lay.cols} != preceding width {prev}")

    @property
    def output_dim(self):
        return self.layers[-1].rows

    @property
    def num_layers(self):
        return len(self.layers)

    def layer_sizes(self):
        """[input_dim, width of layer 1, ..., width of output layer]."""
        return [self.input_dim] + [lay.rows for lay in self.layers]

    def forward(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.input_dim,):
            raise ShapeError(
                f"input has shape {x.shape}, expected ({self.input_dim},)")
        for lay in self.layers:
            x = lay.apply(x)
        return x

    def forward_batch(self, X):
        """Evaluate a batch of inputs, rows = samples. Returns (n, out_dim).

        Rows run in _blocks(n), each through every layer before the next
        (see _forward_block), straight into one preallocated output; one
        workspace sized to the largest block serves every block, so the
        call's memory past X and the output stays cache-sized whatever n
        is. With one BLAS thread the result is the whole-batch pass bit
        for bit, also where numpy hands a one-output layer to gemv.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeError(
                f"batch has shape {X.shape}, expected (n, {self.input_dim})")
        out = np.empty((X.shape[0], self.output_dim))
        blocks = _blocks(X.shape[0])
        work = _workspace(max(b - a for a, b in blocks), self)
        for a, b in blocks:
            self._forward_block(X[a:b], out[a:b], work)
        return out

    def _forward_block(self, X, out, work):
        """Run the rows X through every layer into out. The hidden layers
        write into the two buffers of work (from _workspace) in turn, the
        last layer into out; each product is one np.matmul(..., out=),
        the BLAS call of X @ W.T."""
        n, Y = len(X), X
        for k, lay in enumerate(self.layers):
            if k == len(self.layers) - 1:
                Z = out
            else:
                Z = work[k % 2][:n * lay.rows].reshape(n, lay.rows)
            np.matmul(Y, lay.weights.T, out=Z)
            Z += lay.bias
            lay.activate_inplace(Z)
            Y = Z

    def parameter_count(self):
        return sum(lay.weights.size + lay.bias.size for lay in self.layers)


class Box:
    """Axis-aligned interval vector: {x : lower <= x <= upper}."""

    def __init__(self, lower, upper):
        self.lower = _freeze(np.atleast_1d(lower))
        self.upper = _freeze(np.atleast_1d(upper))
        if self.lower.ndim != 1 or self.upper.ndim != 1:
            raise ShapeError(f"box bounds must be 1-D, got {self.lower.ndim}-D and "
                             f"{self.upper.ndim}-D")
        if self.lower.shape != self.upper.shape:
            raise ShapeError("box bounds have different lengths")
        # Infinite bounds are allowed: unbounded LP ranges produce them.
        for name, bound in (("lower", self.lower), ("upper", self.upper)):
            bad = np.flatnonzero(np.isnan(bound))
            if bad.size:
                raise ValueError(f"box {name} bound {bad[0]} is nan")
        if np.any(self.lower > self.upper):
            raise ValueError("box has lower > upper")

    def __len__(self):
        return self.lower.shape[0]

    def require_finite(self):
        """Raise ValueError naming the first infinite bound; the analyses
        that take a box need finite ones."""
        _require_finite(self.lower, "box lower bound")
        _require_finite(self.upper, "box upper bound")

    def center(self):
        return (self.lower + self.upper) / 2.0

    def contains(self, x, tol=0.0):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def sample(self, rng, n):
        """n uniform points, rows = samples."""
        return rng.uniform(self.lower, self.upper, size=(n, len(self)))

    def __repr__(self):
        return f"Box({self.lower.tolist()}, {self.upper.tolist()})"


def random_network(layer_sizes, weight_range, seed):
    """Uniform random network: hidden layers ReLU, output layer identity.

    Deterministic for a fixed seed. Weights and biases are drawn uniformly
    from [-weight_range, weight_range].
    """
    sizes = [int(s) for s in layer_sizes]
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and output size")
    if any(s < 1 for s in sizes):
        raise ValueError("layer sizes must be positive")
    if weight_range <= 0:
        raise ValueError("weight_range must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(1, len(sizes)):
        W = rng.uniform(-weight_range, weight_range, size=(sizes[k], sizes[k - 1]))
        b = rng.uniform(-weight_range, weight_range, size=sizes[k])
        if k == len(sizes) - 1:
            layers.append(Layer.linear(W, b))
        else:
            layers.append(Layer.relu(W, b))
    return Network(sizes[0], layers)
