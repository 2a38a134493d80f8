"""Pose-aware channel and spatial attention for group convolutions.

Attention is factorized into a channel map alpha_C in [0,1]^C and a spatial
map alpha_X in [0,1], both defined per (output pose h, input pose t) pair of
the per-pair response tensor.  Equivariance pins the parameter sharing: the
channel bottleneck matrices are selected by the relative pose h^-1 t, and the
spatial 7x7 filter enters through the same transform as a convolution filter.
Under a shift of the input by a group element, both maps then move by the
joint relabeling of (h, t) plus the spatial index map, which is exactly the
law a group feature map follows.

The gate on the pre-activation z is sigmoid(z), or 1 - sigmoid(z) when the
residual branch form is enabled (the default); both keep maps in [0, 1].
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .autodiff import Parameter, he_init
from .gconv import (FeatureMapG, GConvLayer, check_feature, group_conv,
                    intermediate_responses)
from .groups import make_group, transform_filter
from .tensor import Tensor


@dataclass
class ChannelAttentionParams:
    """Bottleneck matrices per relative pose: w1 [P, C/r, C], w2 [P, C, C/r]."""
    w1: Parameter
    w2: Parameter

    @property
    def n_poses(self):
        return self.w1.shape[0]

    @property
    def channels(self):
        return self.w1.shape[2]

    def params(self):
        return [self.w1, self.w2]


@dataclass
class SpatialAttentionParams:
    """Two-channel (mean, max) spatial filter: psi [1, 2, |H_in|, k, k]."""
    psi: Parameter

    @property
    def kernel(self):
        return self.psi.shape[-1]

    def params(self):
        return [self.psi]


def make_channel_attention(rng, n_poses, channels, reduction_ratio, dtype="f32", name=""):
    if channels % reduction_ratio != 0:
        raise ValueError(f"channels {channels} not divisible by reduction ratio {reduction_ratio}")
    mid = channels // reduction_ratio
    w1 = he_init(rng, (n_poses, mid, channels), channels, dtype=dtype, name=f"{name}.w1")
    w2 = he_init(rng, (n_poses, channels, mid), mid, dtype=dtype, name=f"{name}.w2")
    return ChannelAttentionParams(w1, w2)


def make_spatial_attention(rng, in_poses, kernel=7, dtype="f32", name=""):
    if kernel % 2 == 0:
        raise ValueError(f"spatial attention kernel must be odd, got {kernel}")
    fan_in = 2 * in_poses * kernel * kernel
    psi = he_init(rng, (1, 2, in_poses, kernel, kernel), fan_in, dtype=dtype,
                  name=f"{name}.psi")
    return SpatialAttentionParams(psi)


def residual_gate(z):
    """1 - sigmoid(z); algebraically sigmoid(-z), written as the residual form."""
    one = Tensor(np.ones((), dtype=z.data.dtype))
    return T.sub(one, T.sigmoid(z))


def _gate(z, residual_branch):
    return residual_gate(z) if residual_branch else T.sigmoid(z)


def _rel_index(grp, hin, index_mode):
    """Matrix index per (output pose, input pose).

    `relative` selects h^-1 t, the equivariant choice.  `absolute` selects t
    directly and deliberately breaks equivariance (verification control).
    A planar input pose axis always selects the identity matrix.
    """
    if hin == 1:
        return np.zeros((grp.order, 1), dtype=np.intp)
    if index_mode == "relative":
        return grp.cayley[grp.inverse].astype(np.intp)
    if index_mode == "absolute":
        return np.tile(np.arange(grp.order, dtype=np.intp), (grp.order, 1))
    raise ValueError(f"unknown index_mode {index_mode!r}")


# ---------------------------------------------------------------------------
# statistics over the per-pair response tensor [N, O, C, |H|, |H_in|, Y, X]

def channel_stats(ftilde, pool_out=True):
    """Average and max descriptors per (channel, pose pair).

    Pools over space and, by default, the out-channel axis as well, giving
    [N, C, |H|, |H_in|]; with pool_out=False the out-channel axis is kept.
    """
    if ftilde.ndim != 7:
        raise ValueError("channel_stats expects the rank-7 per-pair response tensor")
    axes = (1, 5, 6) if pool_out else (5, 6)
    s_avg = T.reduce(ftilde, axes=axes, mode="mean")
    s_max = T.reduce(ftilde, axes=axes, mode="max")
    return s_avg, s_max


def spatial_stats(ftilde, pool_out=True):
    """Mean and max over channels, stacked as a 2-channel stat map.

    Returns [N, 2, |H|, |H_in|, Y, X] (or with an out-channel axis kept in
    front when pool_out=False: [N, O, 2, |H|, |H_in|, Y, X]).
    """
    if ftilde.ndim != 7:
        raise ValueError("spatial_stats expects the rank-7 per-pair response tensor")
    axes = (1, 2) if pool_out else (2,)
    mean = T.reduce(ftilde, axes=axes, mode="mean")
    mx = T.reduce(ftilde, axes=axes, mode="max")
    return T.stack([mean, mx], axis=1 if pool_out else 2)


# ---------------------------------------------------------------------------
# attention maps

def channel_attention(s_avg, s_max, params: ChannelAttentionParams, grp,
                      residual_branch=True, index_mode="relative"):
    """Shared two-layer bottleneck on the average and max descriptors.

    For each pose pair (h, t) the matrices at relative pose h^-1 t are applied
    to both descriptors, the two pre-activations are summed and gated.
    Returns [N, C, |H|, |H_in|] (plus an out-channel axis if the stats kept one).
    """
    pooled = s_avg.ndim == 4
    if not pooled and s_avg.ndim != 5:
        raise ValueError("channel stats must be rank 4 (pooled) or rank 5")
    hh = s_avg.shape[-2]
    hin = s_avg.shape[-1]
    if hh != grp.order:
        raise ValueError(f"output pose axis {hh} does not match group order {grp.order}")
    if hin != params.n_poses:
        raise ValueError(f"input pose axis {hin} does not match attention matrices "
                         f"({params.n_poses})")
    kidx = _rel_index(grp, hin, index_mode).reshape(-1)
    w1g = T.gather_axis(params.w1, 0, kidx)  # [H*Hin, C/r, C]
    w2g = T.gather_axis(params.w2, 0, kidx)  # [H*Hin, C, C/r]

    def to_batched(s):
        if pooled:  # [N, C, H, Hin] -> [H*Hin, C, N]
            sb = T.transpose(s, (2, 3, 1, 0))
            return T.reshape(sb, (hh * hin, s.shape[1], s.shape[0]))
        # [N, O, C, H, Hin] -> [H*Hin, C, N*O]
        sb = T.transpose(s, (3, 4, 2, 0, 1))
        return T.reshape(sb, (hh * hin, s.shape[2], s.shape[0] * s.shape[1]))

    def branch(sb):
        return T.bmm(w2g, T.relu(T.bmm(w1g, sb)))

    z = T.add(branch(to_batched(s_avg)), branch(to_batched(s_max)))
    alpha = _gate(z, residual_branch)
    c = params.channels
    if pooled:
        n = s_avg.shape[0]
        alpha = T.reshape(alpha, (hh, hin, c, n))
        return T.transpose(alpha, (3, 2, 0, 1))  # [N, C, H, Hin]
    n, o = s_avg.shape[0], s_avg.shape[1]
    alpha = T.reshape(alpha, (hh, hin, c, n, o))
    return T.transpose(alpha, (3, 4, 2, 0, 1))  # [N, O, C, H, Hin]


def spatial_attention(s_x, params: SpatialAttentionParams, grp, residual_branch=True):
    """Per-pose-pair spatial gating from the 2-channel stat map.

    For output pose h, each input-pose slice t of the stats is correlated
    (same padding) with slice t of the h-transformed filter, the two stat
    channels are summed, and the result gated.  Returns
    [N, 1, |H|, |H_in|, Y, X] (an extra out-channel axis is folded in front
    when the stats kept one).
    """
    folded = None
    if s_x.ndim == 7:  # [N, O, 2, H, Hin, Y, X] -> fold O into the batch
        n, o = s_x.shape[0], s_x.shape[1]
        folded = (n, o)
        s_x = T.reshape(s_x, (n * o,) + s_x.shape[2:])
    if s_x.ndim != 6 or s_x.shape[1] != 2:
        raise ValueError("spatial stats must be [N, 2, |H|, |H_in|, Y, X]")
    n, _, hh, hin, y, x = s_x.shape
    if hh != grp.order:
        raise ValueError(f"output pose axis {hh} does not match group order {grp.order}")
    if hin != params.psi.shape[2]:
        raise ValueError(f"input pose axis {hin} does not match attention filter "
                         f"({params.psi.shape[2]})")
    slices = []
    for h in range(grp.order):
        fh = T.reshape(transform_filter(grp, h, params.psi), (1, 2 * hin,
                                                              params.kernel, params.kernel))
        sh = T.reshape(T.narrow(s_x, 2, h, 1), (n, 2 * hin, y, x))
        resp = T.conv2d_multi(sh, fh, padding="same", stride=1)  # [N, 1, 2*Hin, Y, X]
        resp = T.reshape(resp, (n, 1, 2, hin, y, x))
        slices.append(T.reduce(resp, axes=(2,), mode="sum"))  # [N, 1, Hin, Y, X]
    alpha = _gate(T.stack(slices, axis=2), residual_branch)  # [N, 1, H, Hin, Y, X]
    if folded is not None:
        nn, o = folded
        alpha = T.reshape(alpha, (nn, o) + alpha.shape[2:])  # [N, O, H, Hin, Y, X]
    return alpha


# ---------------------------------------------------------------------------
# full layers

def attention_maps(f: FeatureMapG, layer, ch_params=None, sp_params=None,
                   variant="full", residual_branch=True, pool_out=True,
                   index_mode="relative"):
    """Materialize (alpha_C, alpha_X, channel-gated responses) for one layer.

    The gated responses are the per-pair responses times alpha_C, or the
    responses themselves when the variant has no channel map.  Serial order:
    the spatial statistics are taken from the gated responses, so alpha_X
    depends on alpha_C.  Missing maps (per variant) are returned as None.
    """
    if variant not in ("full", "channel", "spatial"):
        raise ValueError(f"unknown attention variant {variant!r}")
    ftilde = intermediate_responses(f, layer)
    alpha_c = alpha_x = None
    gated = ftilde
    if variant in ("full", "channel"):
        if ch_params is None:
            raise ValueError(f"variant {variant!r} needs channel attention parameters")
        s_avg, s_max = channel_stats(ftilde, pool_out=pool_out)
        alpha_c = channel_attention(s_avg, s_max, ch_params, layer.group,
                                    residual_branch=residual_branch, index_mode=index_mode)
        gated = T.mul(ftilde, _expand_alpha_c(alpha_c))
    if variant in ("full", "spatial"):
        if sp_params is None:
            raise ValueError(f"variant {variant!r} needs spatial attention parameters")
        s_x = spatial_stats(gated, pool_out=pool_out)
        alpha_x = spatial_attention(s_x, sp_params, layer.group,
                                    residual_branch=residual_branch)
    return alpha_c, alpha_x, gated


def _expand_alpha_c(alpha_c):
    if alpha_c.ndim == 4:  # [N, C, H, Hin] -> [N, 1, C, H, Hin, 1, 1]
        n, c, hh, hin = alpha_c.shape
        return T.reshape(alpha_c, (n, 1, c, hh, hin, 1, 1))
    n, o, c, hh, hin = alpha_c.shape
    return T.reshape(alpha_c, (n, o, c, hh, hin, 1, 1))


def _expand_alpha_x(alpha_x):
    # [N, 1|O, H, Hin, Y, X] -> insert a singleton channel axis after 1|O
    n, o, hh, hin, y, x = alpha_x.shape
    return T.reshape(alpha_x, (n, o, 1, hh, hin, y, x))


def attentive_group_conv(f: FeatureMapG, layer, ch_params=None, sp_params=None,
                         variant="full", residual_branch=True, pool_out=True,
                         index_mode="relative") -> FeatureMapG:
    """Group convolution with its per-pair responses modulated by attention.

    Computes the responses, applies the channel map, then the spatial map
    (computed from the channel-modulated responses), reduces over input
    channels and poses, and adds the shared per-channel bias.
    """
    _, alpha_x, mod = attention_maps(
        f, layer, ch_params, sp_params, variant=variant,
        residual_branch=residual_branch, pool_out=pool_out, index_mode=index_mode)
    if alpha_x is not None:
        mod = T.mul(mod, _expand_alpha_x(alpha_x))
    out = T.reduce(mod, axes=(2, 4), mode="sum")  # [N, O, H, Y, X]
    if layer.bias is not None:
        out = T.add(out, T.reshape(layer.bias, (1, layer.bias.shape[0], 1, 1, 1)))
    return FeatureMapG(out, layer.group)


# ---------------------------------------------------------------------------
# input attention (single-argument form)

def _input_attention_pieces(f, ch_params, sp_params, residual_branch):
    n, c, hf, y, x = f.shape
    grp_eff = f.group if hf == f.group.order else make_group("C1")

    # channel branch: pool over space, bottleneck as a pose-axis group conv
    s_avg = T.reduce(f.data, axes=(3, 4), mode="mean")  # [N, C, Hf]
    s_max = T.reduce(f.data, axes=(3, 4), mode="max")
    k2 = _rel_index(grp_eff, hf, "relative")
    mid = ch_params.w1.shape[1]

    def big(w, rows, cols):
        # block matrix whose (out-pose, in-pose) block is w at the relative pose
        wg = T.gather_axis(w, 0, k2.reshape(-1))      # [Hf*Hf, rows, cols]
        wg = T.reshape(wg, (hf, hf, rows, cols))
        wg = T.transpose(wg, (0, 2, 1, 3))            # [Hf, rows, Hf, cols]
        return T.reshape(wg, (hf * rows, hf * cols))

    w1_big = big(ch_params.w1, mid, c)
    w2_big = big(ch_params.w2, c, mid)

    def branch(s):
        sf = T.reshape(T.transpose(s, (2, 1, 0)), (hf * c, n))
        return T.bmm(w2_big, T.relu(T.bmm(w1_big, sf)))  # [Hf*C, N]

    z = T.add(branch(s_avg), branch(s_max))
    alpha_c = T.transpose(T.reshape(_gate(z, residual_branch), (hf, c, n)), (2, 1, 0))
    f1 = T.mul(f.data, T.reshape(alpha_c, (n, c, hf, 1, 1)))

    # spatial branch: 2-channel stats, gated full group convolution
    mean = T.reduce(f1, axes=(1,), mode="mean")       # [N, Hf, Y, X]
    mx = T.reduce(f1, axes=(1,), mode="max")
    s_x = T.stack([mean, mx], axis=1)                 # [N, 2, Hf, Y, X]
    psi_layer = GConvLayer(grp_eff, sp_params.psi, bias=None, stride=1, padding="same")
    alpha_x = _gate(group_conv(FeatureMapG(s_x, grp_eff), psi_layer).data,
                    residual_branch)                  # [N, 1, Hf, Y, X]
    f2 = T.mul(f1, alpha_x)
    return alpha_c, alpha_x, f2


def _check_input_attention(f, ch_params, sp_params):
    check_feature(f)
    n, c, hf, y, x = f.shape
    if ch_params.channels != c:
        raise ValueError(f"channel mismatch: map has {c}, attention built for "
                         f"{ch_params.channels}")
    if ch_params.n_poses != hf or sp_params.psi.shape[2] != hf:
        raise ValueError("attention parameters do not match the map's pose axis")


def input_attention(f: FeatureMapG, ch_params: ChannelAttentionParams,
                    sp_params: SpatialAttentionParams,
                    residual_branch=True) -> FeatureMapG:
    """Gate a feature map itself before a standard group convolution.

    A map depending on one group argument stays equivariant only if every
    operator producing it is itself a group convolution, so the channel
    bottleneck here is a two-stage convolution over the pose axis (with the
    per-relative-pose matrices as the kernel) and the spatial branch is a
    full group convolution with the 2-channel stat filter.  Planar inputs are
    treated as carrying the trivial group, which reduces this to the familiar
    channel-then-spatial gating of a plain feature map.
    """
    _check_input_attention(f, ch_params, sp_params)
    _, _, f2 = _input_attention_pieces(f, ch_params, sp_params, residual_branch)
    return FeatureMapG(f2, f.group)


def input_attention_maps(f: FeatureMapG, ch_params, sp_params, residual_branch=True):
    """alpha_C [N, C, Hf] and alpha_X [N, 1, Hf, Y, X] as input_attention computes them."""
    _check_input_attention(f, ch_params, sp_params)
    alpha_c, alpha_x, _ = _input_attention_pieces(f, ch_params, sp_params, residual_branch)
    return alpha_c, alpha_x
