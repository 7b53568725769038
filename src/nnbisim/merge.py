"""Merged difference network construction.

Given a larger network (L affine layers) and a smaller one (S layers,
S <= L) with matching input and output widths, builds a single network of
L+1 layers whose output equals big(x) - small(x) for every input x. The
two originals run side by side in block-structured layers; the shallower
branch is padded with identity pass-through layers and a final comparison
layer subtracts the two output blocks.
"""

import numpy as np

from .errors import MergePreconditionError, UnsupportedShapeError
from .network import IDENTITY, Layer, Network


def _block_diag(top_left, bottom_right):
    r1, c1 = top_left.shape
    r2, c2 = bottom_right.shape
    W = np.zeros((r1 + r2, c1 + c2))
    W[:r1, :c1] = top_left
    W[r1:, c1:] = bottom_right
    return W


def merge(net_big, net_small):
    """Build the difference network of net_big and net_small.

    Preconditions (each violation is reported by name):
      - equal input dimensions,
      - equal output dimensions,
      - net_big has at least as many affine layers as net_small,
      - net_small has at least 2 affine layers.
    """
    L = net_big.num_layers
    S = net_small.num_layers
    if net_big.input_dim != net_small.input_dim:
        raise MergePreconditionError(
            f"input dimensions differ: {net_big.input_dim} vs {net_small.input_dim}")
    if net_big.output_dim != net_small.output_dim:
        raise MergePreconditionError(
            f"output dimensions differ: {net_big.output_dim} vs {net_small.output_dim}")
    if L < S:
        raise MergePreconditionError(
            f"layer count ordering violated: big has {L} layers, small has {S}")
    if S < 2:
        raise UnsupportedShapeError(
            f"small network must have at least 2 affine layers, got {S}")

    big = net_big.layers
    small = net_small.layers
    pass_width = small[S - 2].rows  # width of the small net's layer S-1
    out_width = net_big.output_dim

    layers = []
    # m = 1: stack both first layers on the shared input.
    layers.append(Layer(
        np.vstack([big[0].weights, small[0].weights]),
        np.concatenate([big[0].bias, small[0].bias]),
        big[0].activations + small[0].activations,
    ))
    # m = 2 .. L-1: run both branches in parallel; once the small branch is
    # out of hidden layers, pass its values through unchanged.
    for m in range(2, L):
        bl = big[m - 1]
        if m <= S - 1:
            sl = small[m - 1]
            layers.append(Layer(
                _block_diag(bl.weights, sl.weights),
                np.concatenate([bl.bias, sl.bias]),
                bl.activations + sl.activations,
            ))
        else:
            layers.append(Layer(
                _block_diag(bl.weights, np.eye(pass_width)),
                np.concatenate([bl.bias, np.zeros(pass_width)]),
                bl.activations + (IDENTITY,) * pass_width,
            ))
    # m = L: both output layers side by side.
    layers.append(Layer(
        _block_diag(big[L - 1].weights, small[S - 1].weights),
        np.concatenate([big[L - 1].bias, small[S - 1].bias]),
        big[L - 1].activations + small[S - 1].activations,
    ))
    # m = L+1: comparison layer [I, -I].
    layers.append(Layer(
        np.hstack([np.eye(out_width), -np.eye(out_width)]),
        np.zeros(out_width),
        (IDENTITY,) * out_width,
    ))
    return Network(net_big.input_dim, layers)

