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
from .network import Layer, Network


def _block_diag(top_left, bottom_right):
    r1, c1 = top_left.shape
    r2, c2 = bottom_right.shape
    W = np.zeros((r1 + r2, c1 + c2))
    W[:r1, :c1] = top_left
    W[r1:, c1:] = bottom_right
    return W


def _check_pair(net_big, net_small):
    """Raise MergePreconditionError unless the two networks have the same
    input and output widths, as any comparison of their outputs needs."""
    if net_big.input_dim != net_small.input_dim:
        raise MergePreconditionError(
            f"input dimensions differ: {net_big.input_dim} vs {net_small.input_dim}")
    if net_big.output_dim != net_small.output_dim:
        raise MergePreconditionError(
            f"output dimensions differ: {net_big.output_dim} vs {net_small.output_dim}")


def merge(net_big, net_small):
    """Build the difference network of net_big and net_small.

    Layer 1 stacks both first layers; each layer m = 2..L puts big's
    layer m block-diagonally beside a partner: small's layer m, then an
    identity pass-through once small's hidden layers run out, and small's
    output layer at m = L. Layer L+1 is the comparison [I, -I].

    Preconditions (each violation is reported by name):
      - equal input dimensions,
      - equal output dimensions,
      - net_big has at least as many affine layers as net_small,
      - net_small has at least 2 affine layers.
    """
    _check_pair(net_big, net_small)
    L, S = net_big.num_layers, net_small.num_layers
    if L < S:
        raise MergePreconditionError(
            f"layer count ordering violated: big has {L} layers, small has {S}")
    if S < 2:
        raise UnsupportedShapeError(
            f"small network must have at least 2 affine layers, got {S}")

    big, small = net_big.layers, net_small.layers
    width = small[S - 2].rows
    identity = Layer.linear(np.eye(width), np.zeros(width)) if L > S else None
    partners = [*small[1:S - 1], *[identity] * (L - S), small[S - 1]]
    layers = [Layer(np.vstack([big[0].weights, small[0].weights]),
                    np.concatenate([big[0].bias, small[0].bias]),
                    big[0].activations + small[0].activations)]
    for bl, sl in zip(big[1:], partners, strict=True):
        layers.append(Layer(_block_diag(bl.weights, sl.weights),
                            np.concatenate([bl.bias, sl.bias]),
                            bl.activations + sl.activations))
    out = net_big.output_dim
    layers.append(Layer.linear(np.hstack([np.eye(out), -np.eye(out)]), np.zeros(out)))
    return Network(net_big.input_dim, layers)
