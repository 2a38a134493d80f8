"""Lifting and group convolutions over the discrete roto-translation groups.

Feature maps on the group are plain Tensors [N, C, |H|, Y, X]; planar maps
use a group axis of extent 1.  A map carries no group: the layer that reads
it supplies one.  Filters are [O, C, |H_in|, k, k] with odd square k.

A group convolution decomposes into |H| spatial convolutions: for each output
pose h the filter is transformed by h (spatial index map plus a permutation of
its |H_in| axis) and cross-correlated with the input, summing over input
channels and input poses.  No convolution carries a bias: in the product
nets every one but the classifier head feeds a batch norm, whose mean
subtraction cancels a per-channel constant, and the head's bias is added to
the logits instead (gatt.nn.SpatialMeanL).
"""
from __future__ import annotations

from . import tensor as T
from .autodiff import he_init
from .groups import orbit_index
from .tensor import Tensor

class GConvLayer:
    """Weights for one lifting or group convolution layer.

    `weight` is [O, C, |H_in|, k, k] with |H_in| = 1 for a lifting layer and
    |H| for group-to-group layers.
    """

    def __init__(self, group, weight, stride=1, padding="same"):
        if weight.ndim != 5:
            raise ValueError("gconv weight must be [O, C, |H_in|, k, k]")
        hin, k, k2 = weight.shape[2:]
        if hin not in (1, group.order):
            raise ValueError(f"filter pose axis {hin} not in {{1, {group.order}}}")
        if k != k2 or k % 2 == 0:
            raise ValueError(f"filter must be odd and square, got {(k, k2)}")
        self.group = group
        self.weight = weight
        self.stride = stride
        self.padding = padding

    def params(self):
        return [self.weight]


def make_gconv_layer(rng, group, in_channels, out_channels, kernel=3, lifting=False,
                     stride=1, padding="same", dtype="f32", name=""):
    hin = 1 if lifting else group.order
    fan_in = in_channels * hin * kernel * kernel
    w = he_init(rng, (out_channels, in_channels, hin, kernel, kernel), fan_in,
                dtype=dtype, name=f"{name}.weight")
    return GConvLayer(group, w, stride=stride, padding=padding)


def filter_bank(layer):
    """Stack of transformed filters, [O * |H|, C * |H_in|, k, k].

    Row o*|H| + h holds filter o transformed by group element h, flattened
    over (C, |H_in|); differentiable with respect to layer.weight.  It is
    orbit's gather with the index table's (h, o) axes swapped, so each
    filter's |H| copies are consecutive rows.
    """
    o, c, hin, k, _ = layer.weight.shape
    idx = orbit_index(layer.group, layer.weight.shape).swapaxes(0, 1)
    bank = T.gather_axis(T.reshape(layer.weight, (-1,)), 0, idx)
    return T.reshape(bank, (o * layer.group.order, c * hin, k, k))


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
    a lifting layer, a full group axis otherwise.  It is one conv2d with the
    (o, h)-ordered filter bank, so its output is already [N, O, |H|, Y, X]
    in memory.
    """
    _check_input(f, layer)
    n, c, hin, y, x = f.shape
    flat = T.reshape(f, (n, c * hin, y, x))
    out = T.conv2d(flat, filter_bank(layer), padding=layer.padding, stride=layer.stride)
    return T.reshape(out, (n, layer.weight.shape[0], layer.group.order) + out.shape[2:])


def group_pool(f: Tensor, group) -> Tensor:
    """Max-pool the pose axis away: [N, C, |H|, Y, X] -> [N, C, Y, X]."""
    check_feature(f, group)
    return T.reduce(f, axes=(2,), mode="max")
