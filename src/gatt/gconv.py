"""Lifting and group convolutions over the discrete roto-translation groups.

Feature maps on the group are plain Tensors [N, C, |H|, Y, X]; planar maps
use a group axis of extent 1.  A map carries no group: the layer that reads
it supplies one.  Filters are [O, C, |H_in|, k, k] with odd square k.

A group convolution decomposes into |H| spatial convolutions: for each output
pose h the filter is transformed by h (spatial index map plus a permutation of
its |H_in| axis) and cross-correlated with the input, summing over input
channels and input poses.  The bias is a single value per output channel,
shared across the |H| axis; a pose-dependent bias would break equivariance.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .autodiff import Parameter, he_init
from .groups import orbit
from .tensor import Tensor

class GConvLayer:
    """Weights for one lifting or group convolution layer.

    `weight` is [O, C, |H_in|, k, k] with |H_in| = 1 for a lifting layer and
    |H| for group-to-group layers.  `bias` is per out-channel or None.
    """

    def __init__(self, group, weight, bias=None, stride=1, padding="same"):
        if weight.ndim != 5:
            raise ValueError("gconv weight must be [O, C, |H_in|, k, k]")
        hin, k, k2 = weight.shape[2:]
        if hin not in (1, group.order):
            raise ValueError(f"filter pose axis {hin} not in {{1, {group.order}}}")
        if k != k2 or k % 2 == 0:
            raise ValueError(f"filter must be odd and square, got {(k, k2)}")
        if bias is not None and bias.shape != (weight.shape[0],):
            raise ValueError("bias must be one value per output channel")
        self.group = group
        self.weight = weight
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def params(self):
        out = [self.weight]
        if self.bias is not None:
            out.append(self.bias)
        return out


def make_gconv_layer(rng, group, in_channels, out_channels, kernel=3, lifting=False,
                     stride=1, padding="same", dtype="f32", name=""):
    hin = 1 if lifting else group.order
    fan_in = in_channels * hin * kernel * kernel
    w = he_init(rng, (out_channels, in_channels, hin, kernel, kernel), fan_in,
                dtype=dtype, name=f"{name}.weight")
    b = Parameter(np.zeros(out_channels), dtype=dtype, name=f"{name}.bias",
                  weight_decay=False)
    return GConvLayer(group, w, b, stride=stride, padding=padding)


def filter_bank(layer):
    """Stack of transformed filters, [(|H| * O), C * |H_in|, k, k].

    Row block h holds the filter transformed by group element h, flattened
    over (C, |H_in|); differentiable with respect to layer.weight.
    """
    o, c, hin, k, _ = layer.weight.shape
    bank = orbit(layer.group, layer.weight)
    return T.reshape(bank, (layer.group.order * o, c * hin, k, k))


def check_feature(f: Tensor, group):
    """Reject f unless it is [N, C, P, Y, X] with P in {1, |H|}."""
    if f.ndim != 5:
        raise ValueError(f"feature map must be [N, C, |H|, Y, X], got rank {f.ndim}")
    if f.shape[2] not in (1, group.order):
        raise ValueError(f"group axis extent {f.shape[2]} not in {{1, {group.order}}}")


def _check_input(f: Tensor, layer):
    check_feature(f, layer.group)
    if f.shape[1] != layer.weight.shape[1]:
        raise ValueError(f"channel mismatch: {f.shape[1]} vs {layer.weight.shape[1]}")
    if f.shape[2] != layer.weight.shape[2]:
        raise ValueError(f"pose mismatch: input {f.shape[2]} vs filter {layer.weight.shape[2]}")


def group_conv(f: Tensor, layer) -> Tensor:
    """Lifting or group-to-group convolution, summing over input channels and
    poses.

    The input's pose extent must match the filter's |H_in|: a planar map for
    a lifting layer, a full group axis otherwise.
    """
    _check_input(f, layer)
    grp = layer.group
    n, c, hin, y, x = f.shape
    o = layer.weight.shape[0]
    flat = T.reshape(f, (n, c * hin, y, x))
    out = T.conv2d(flat, filter_bank(layer), padding=layer.padding, stride=layer.stride)
    yo, xo = out.shape[2], out.shape[3]
    out = T.reshape(out, (n, grp.order, o, yo, xo))
    out = T.transpose(out, (0, 2, 1, 3, 4))
    if layer.bias is not None:
        out = T.add(out, T.reshape(layer.bias, (1, o, 1, 1, 1)))
    return out


def group_pool(f: Tensor, group) -> Tensor:
    """Max-pool the pose axis away: [N, C, |H|, Y, X] -> [N, C, Y, X]."""
    check_feature(f, group)
    return T.reduce(f, axes=(2,), mode="max")
