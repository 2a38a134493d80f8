"""Layer containers and small reference networks.

Layers pass a feature map along as a plain Tensor [N, C, |H|, Y, X] until a
pooling head collapses it to logits; a layer that needs the group holds it.
A GBlock passes on only the output of its forward_maps, not the attention
maps it also returns.  Each batch norm applies the ReLU that follows it
in its own tape record (GBatchNorm), so a conv block of the tiny and digit
nets leaves two activations on the tape: the conv output and the rectified
one.  No convolution has a bias; the classifier's sits on the logits
(SpatialMeanL).  Everything is built from the differentiable ops in
gatt.tensor, so gradients come from the shared tape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import (attentive_group_conv, input_attention, make_channel_attention,
                        make_spatial_attention)
from .autodiff import Parameter, dropout, new_rng
from .gconv import GConvLayer, group_conv, group_pool, make_gconv_layer
from .groups import make_group
from .tensor import Tensor

VARIANTS = ("plain", "full", "channel", "spatial", "input")
BN_EPS = 2e-5       # GBatchNorm's variance floor
BN_MOMENTUM = 0.1   # weight of a batch's statistics in GBatchNorm's running ones


@dataclass
class ForwardCtx:
    training: bool = False
    rng: object = None


class GBlock:
    """One lifting or group convolution, optionally gated by attention."""

    def __init__(self, layer: GConvLayer, variant="plain", ch_params=None,
                 sp_params=None, pool_out=True, index_mode="relative"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        self.layer = layer
        self.variant = variant
        self.ch_params = ch_params
        self.sp_params = sp_params
        self.pool_out = pool_out
        self.index_mode = index_mode

    def forward_maps(self, f):
        """(output, alpha_C, alpha_X) of the block's variant; the maps are
        None for `plain` and carry no gradient."""
        if self.variant == "plain":
            return group_conv(f, self.layer), None, None
        if self.variant == "input":
            gated, ac, ax = input_attention(f, self.layer.group, self.ch_params, self.sp_params)
            return group_conv(gated, self.layer), ac, ax
        return attentive_group_conv(f, self.layer, self.ch_params, self.sp_params,
                                    pool_out=self.pool_out, index_mode=self.index_mode)

    def forward(self, f, ctx):
        return self.forward_maps(f)[0]

    def params(self):
        out = list(self.layer.params())
        for att in (self.ch_params, self.sp_params):
            if att is not None:
                out += att.params()
        return out


class ReLUG:
    """ReLU for the nets without batch norm: the parity stacks and the
    harness's random stacks."""

    def forward(self, f, ctx):
        return T.relu(f)

    def params(self):
        return []


class MaxPoolG:
    """2x2 spatial max pooling at stride 2, applied to every pose slice."""

    def forward(self, f, ctx):
        n, c, hh, y, x = f.shape
        p = T.max_pool2d(T.reshape(f, (n, c * hh, y, x)))
        return T.reshape(p, (n, c, hh, p.shape[2], p.shape[3]))

    def params(self):
        return []


class StrideSubsample:
    """Every second row and column of each pose slice, ending at the last one.

    These are the centres of a same-padded stride-2 convolution's windows
    (offset 1 - E % 2 of an extent E), so a stride-1 group conv followed by
    this layer is that strided conv: the stride arm of the parity demo.
    """

    def forward(self, f, ctx):
        for axis in (3, 4):
            e = f.shape[axis]
            f = T.gather_axis(f, axis, np.arange(1 - e % 2, e, 2))
        return f

    def params(self):
        return []


class GDropout:
    def __init__(self, rate):
        self.rate = rate

    def forward(self, f, ctx):
        if not ctx.training or self.rate == 0.0:
            return f
        return dropout(f, self.rate, ctx.rng)

    def params(self):
        return []


class GBatchNorm:
    """Per-channel batch norm of a map [N, C, |H|, Y, X] with statistics
    shared across the pose axis, followed by a ReLU.

    Sharing the statistics (and the affine pair) over |H| keeps the layer
    equivariant: a transformed batch has the same per-channel moments.  The
    layer rectifies in the same tape record (T.batch_norm), which keeps only
    the rectified output.
    """

    def __init__(self, channels, dtype="f32", name=""):
        self.gamma = Parameter(np.ones(channels), dtype=dtype, name=f"{name}.gamma",
                               weight_decay=False)
        self.beta = Parameter(np.zeros(channels), dtype=dtype, name=f"{name}.beta",
                              weight_decay=False)
        # buffers: saved with the parameters, but they take no gradient
        self.running_mean = Parameter(np.zeros(channels), dtype=dtype, name=f"{name}.running_mean")
        self.running_var = Parameter(np.ones(channels), dtype=dtype, name=f"{name}.running_var")
        for buf in self.buffers():
            buf.requires_grad = False

    def forward(self, f, ctx):
        c = f.shape[1]
        stats = None if ctx.training else (self.running_mean.data, self.running_var.data)
        out, mu, var = T.batch_norm(f, self.gamma, self.beta, (0, 2, 3, 4), BN_EPS, stats)
        if ctx.training:
            m = BN_MOMENTUM
            for buf, batch in zip(self.buffers(), (mu, var)):
                buf.data[...] = (1 - m) * buf.data + m * batch.reshape(c)
        return out

    def params(self):
        return [self.gamma, self.beta]

    def buffers(self):
        return [self.running_mean, self.running_var]


class PoseBias:
    """Adds a distinct bias per (channel, pose).  Breaks equivariance on
    purpose; exists as a verification control."""

    def __init__(self, channels, group, dtype="f32"):
        rng = new_rng(1234)
        data = rng.normal(0.0, 0.5, size=(1, channels, group.order, 1, 1))
        self.bias = Parameter(data, dtype=dtype, name="pose_bias", weight_decay=False)

    def forward(self, f, ctx):
        return T.add(f, self.bias)

    def params(self):
        return [self.bias]


class GroupPoolL:
    def __init__(self, group):
        self.group = group

    def forward(self, f, ctx):
        return group_pool(f, self.group)

    def params(self):
        return []


class SpatialMeanL:
    """Spatial mean of the pose-pooled head output plus the per-class bias
    `head.bias`, zero at init.

    The head convolution carries no bias: a per-channel constant shared over
    the poses commutes with the pose max-pool and the spatial mean, so adding
    it to the logits gives the same function.
    """

    def __init__(self, classes, dtype):
        self.bias = Parameter(np.zeros(classes), dtype=dtype, name="head.bias",
                              weight_decay=False)

    def forward(self, t, ctx):
        return T.add(T.reduce(t, axes=(2, 3), mode="mean"), self.bias)

    def params(self):
        return [self.bias]


class Network:
    def __init__(self, group, layers):
        self.group = group
        self.layers = list(layers)

    def forward(self, x, ctx=None):
        ctx = ctx or ForwardCtx()
        if isinstance(x, np.ndarray):
            x = Tensor(x)
        if x.ndim == 4:
            n, c, y, w = x.shape
            x = T.reshape(x, (n, c, 1, y, w))
        for layer in self.layers:
            x = layer.forward(x, ctx)
        return x

    def params(self):
        out = []
        for layer in self.layers:
            out += layer.params()
        return out

    def buffers(self):
        """The BatchNorm running statistics, which a checkpoint saves beside params()."""
        return [b for bn in self.layers if isinstance(bn, GBatchNorm) for b in bn.buffers()]

    def param_count(self):
        return sum(p.size for p in self.params())


# ---------------------------------------------------------------------------
# reference architectures

def _attention_for(rng, variant, in_channels, in_poses, reduction_ratio, kernel,
                   dtype, name):
    """Attention parameter pair sized for a block's input.

    A planar input (pose extent 1) has no relative pose, so a single matrix
    pair / filter slice is allocated and the identity index used throughout.
    """
    if variant == "plain":
        return None, None
    ch = sp = None
    if variant in ("full", "channel", "input"):
        ch = make_channel_attention(rng, in_poses, in_channels, reduction_ratio,
                                    dtype=dtype, name=f"{name}.att_c")
    if variant in ("full", "spatial", "input"):
        sp = make_spatial_attention(rng, in_poses, kernel=kernel, dtype=dtype,
                                    name=f"{name}.att_x")
    return ch, sp


def build_tiny_net(group_name="C4", variant="input", channels=8,
                   reduction_ratio=2, att_kernel=7, dtype="f32", seed=0,
                   pool_out=True, dropout_rate=0.0):
    """Two gconv layers plus a 1x1 head to the 4 glyph classes; fits 16x16 inputs.

    Attention (any variant) sits on the second, group-to-group layer; the
    lifting layer stays plain so the whole stack is exactly equivariant.
    """
    grp = make_group(group_name)
    rng = new_rng(seed)
    layers = [
        GBlock(make_gconv_layer(rng, grp, 1, channels, 3, lifting=True,
                                dtype=dtype, name="conv1")),
        GBatchNorm(channels, dtype=dtype, name="bn1"),
        MaxPoolG(),
    ]
    ch, sp = _attention_for(rng, variant, channels, grp.order, reduction_ratio,
                            att_kernel, dtype, "block2")
    layers += [
        GBlock(make_gconv_layer(rng, grp, channels, channels, 3, dtype=dtype,
                                name="conv2"),
               variant=variant, ch_params=ch, sp_params=sp, pool_out=pool_out),
        GBatchNorm(channels, dtype=dtype, name="bn2"),
    ]
    if dropout_rate:
        layers.append(GDropout(dropout_rate))
    layers += [
        GBlock(make_gconv_layer(rng, grp, channels, 4, 1, dtype=dtype, name="head")),
        GroupPoolL(grp),
        SpatialMeanL(4, dtype),
    ]
    return Network(grp, layers)


def build_parity_nets(dtype="f32", seed=0):
    """The two 2-layer C4 stacks (4 channels) of the stride/pooling comparison.

    Both convolve at stride 1 and share the same weights.  (a) downsamples
    like a stride-2 group conv, keeping its window centres (StrideSubsample);
    (b) uses 2x2 max pooling.
    """
    grp = make_group("C4")
    channels = 4
    rng_a = new_rng(seed)
    net_a = Network(grp, [
        GBlock(make_gconv_layer(rng_a, grp, 1, channels, 3, lifting=True,
                                dtype=dtype, name="a1")),
        ReLUG(),
        GBlock(make_gconv_layer(rng_a, grp, channels, channels, 3, dtype=dtype,
                                name="a2")),
        StrideSubsample(),
    ])
    rng_b = new_rng(seed)
    net_b = Network(grp, [
        GBlock(make_gconv_layer(rng_b, grp, 1, channels, 3, lifting=True,
                                dtype=dtype, name="b1")),
        ReLUG(),
        GBlock(make_gconv_layer(rng_b, grp, channels, channels, 3, dtype=dtype,
                                name="b2")),
        MaxPoolG(),
    ])
    return net_a, net_b


def build_digit_net(group_name="C4", variant="plain", channels=10,
                    reduction_ratio=2, att_kernel=7, dtype="f32", seed=0,
                    pool_out=True, dropout_rate=0.3):
    """Seven-layer 10-way digit classifier (28x28 inputs), 22,240 parameters
    for the plain variant at width 10."""
    grp = make_group(group_name)
    rng = new_rng(seed)
    layers = [
        GBlock(make_gconv_layer(rng, grp, 1, channels, 3, lifting=True,
                                dtype=dtype, name="conv1")),
        GBatchNorm(channels, dtype=dtype, name="bn1"),
    ]
    for i in range(2, 8):
        ch, sp = _attention_for(rng, variant, channels, grp.order, reduction_ratio,
                                att_kernel, dtype, f"block{i}")
        layers.append(GBlock(make_gconv_layer(rng, grp, channels, channels, 3,
                                              dtype=dtype, name=f"conv{i}"),
                             variant=variant, ch_params=ch, sp_params=sp,
                             pool_out=pool_out))
        layers.append(GBatchNorm(channels, dtype=dtype, name=f"bn{i}"))
        if i == 2:
            layers.append(MaxPoolG())
        if dropout_rate and i < 7:
            layers.append(GDropout(dropout_rate))
    layers += [
        GBlock(make_gconv_layer(rng, grp, channels, 10, 1, dtype=dtype, name="head")),
        GroupPoolL(grp),
        SpatialMeanL(10, dtype),
    ]
    return Network(grp, layers)
