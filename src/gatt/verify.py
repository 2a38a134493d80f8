"""Verification routines: equivariance sweeps, map-relabeling laws, a literal
double-sum convolution oracle, the rank-7 reference of the attentive
convolution, the stride-2/pool parity measurement, and finite-difference
gradient checks.

These functions back both the command-line harness and the acceptance tests,
so each one returns a plain dict of numbers rather than printing.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .attention import _rel_index, attentive_group_conv, input_attention, residual_gate
from .autodiff import (FD_STEP, Parameter, backward, dropout, finite_diff_grad,
                       grad_rel_err, new_rng, zero_grads)
from .gconv import _check_input, filter_bank, group_conv, make_gconv_layer
from .groups import (AffineElement, compose_affine, feature_perm, invert_affine,
                     make_group, orbit, transform_array)
from .nn import (ForwardCtx, GBatchNorm, GBlock, MaxPoolG, Network, PoseBias, ReLUG,
                 VARIANTS, _attention_for, build_parity_nets)
from .tensor import Tape, Tensor

DEFAULT_SHIFTS = ((1, 0), (0, 1), (2, 1))  # translations of the stack sweep
RELABEL_SHIFTS = ((1, 0), (0, 2))          # translations of the map-relabeling law


# ---------------------------------------------------------------------------
# small geometry helpers (independent of the Tensor transform path)

def _max_shift(shifts):
    """Largest displacement along either axis over (dy, dx) shifts."""
    return max(max(abs(dy), abs(dx)) for dy, dx in shifts)


def shift_plane(arr, dy, dx):
    """Translate the last two axes by (dy, dx), filling with zeros."""
    out = np.zeros_like(arr)
    ysz, xsz = arr.shape[-2:]
    ys = slice(max(dy, 0), min(ysz + dy, ysz))
    xs = slice(max(dx, 0), min(xsz + dx, xsz))
    yr = slice(max(-dy, 0), min(ysz - dy, ysz))
    xr = slice(max(-dx, 0), min(xsz - dx, xsz))
    out[..., ys, xs] = arr[..., yr, xr]
    return out


def bordered_noise(rng, shape, margin, dtype=np.float64):
    """Random values with a zero border on the last two axes."""
    x = np.zeros(shape, dtype=dtype)
    inner = tuple(shape[:-2]) + (shape[-2] - 2 * margin, shape[-1] - 2 * margin)
    if inner[-1] <= 0 or inner[-2] <= 0:
        raise ValueError(f"margin {margin} leaves no interior in {shape}")
    x[..., margin:shape[-2] - margin, margin:shape[-1] - margin] = \
        rng.standard_normal(inner)
    return x


def max_abs(a, b):
    return float(np.max(np.abs(np.asarray(a, dtype=np.float64)
                               - np.asarray(b, dtype=np.float64))))


# ---------------------------------------------------------------------------
# random stacks and the end-to-end equivariance sweep

_STACK_WIDTHS = (4, 6, 4)


def random_stack(group_name="C4", variant="plain", depth=2, seed=0, dtype="f64",
                 negative_control=None):
    """A lifting layer plus depth-1 further group convolutions, with ReLUs.

    Two input channels, 3x3 convolutions, 5x5 spatial-attention filters and
    channel-attention ratio 2; stack_suite's input margin assumes these sizes.
    All convolutions are stride-1 same-padded so the stack commutes exactly
    with the group action.  The `input` variant keeps the lifting layer plain
    (gating a planar map with a trivial-group spatial filter would not
    commute with rotations of the surrounding stack).  `negative_control`
    inserts a known equivariance breaker: "per-h-bias" appends a per-pose
    bias layer, "broken-w-indexing" switches the channel-attention matrices
    to absolute pose indexing.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if negative_control not in (None, "per-h-bias", "broken-w-indexing"):
        raise ValueError(f"unknown negative control {negative_control!r}")
    index_mode = "absolute" if negative_control == "broken-w-indexing" else "relative"
    grp = make_group(group_name)
    rng = new_rng(seed)
    widths = [2] + [_STACK_WIDTHS[i % len(_STACK_WIDTHS)] for i in range(depth)]
    layers = []
    for i in range(depth):
        lifting = i == 0
        block_variant = variant
        if variant == "input" and lifting:
            block_variant = "plain"
        conv = make_gconv_layer(rng, grp, widths[i], widths[i + 1], kernel=3,
                                lifting=lifting, dtype=dtype, name=f"b{i}")
        ch, sp = _attention_for(rng, block_variant, widths[i],
                                1 if lifting else grp.order, 2, 5, dtype, f"b{i}")
        if index_mode == "absolute" and ch is None:
            raise ValueError("broken-w-indexing needs channel attention in every block")
        layers.append(GBlock(conv, variant=block_variant, ch_params=ch,
                             sp_params=sp, index_mode=index_mode))
        if i + 1 < depth:
            layers.append(ReLUG())
    if negative_control == "per-h-bias":
        layers.append(PoseBias(widths[depth], grp, dtype=dtype))
    return Network(grp, layers)


def stack_equivariance_report(net, x, tolerance=1e-10):
    """Transform-then-compute vs compute-then-transform for every h and every
    shift of DEFAULT_SHIFTS, each compared over the full plane.

    `x` must be a planar ndarray [N, C, Y, X] whose support clears the
    boundary by at least max(shift) + the stack's receptive halo; then both
    comparisons are exact up to float noise.  Zero padding is rotation
    symmetric, and the stacks carry no bias, so their output is zero off the
    receptive field of the data and shifts with it.  A layer with a nonzero
    output away from the data, such as the negative control's per-pose bias,
    fails the translation comparison where a shift's vacated band replaces
    that output with zeros.
    """
    grp = net.group
    ctx = ForwardCtx(training=False)

    def run(inp):
        return net.forward(Tensor(np.ascontiguousarray(inp)), ctx).data

    base = run(x)
    report = {"dtype": str(x.dtype), "tolerance": tolerance}
    errs = []
    for h in range(grp.order):
        got = run(transform_array(grp, h, x))
        want = transform_array(grp, h, base, pose_axes=(2,))
        report[f"err_h{h}"] = max_abs(got, want)
        errs.append(report[f"err_h{h}"])
    for dy, dx in DEFAULT_SHIFTS:
        report[f"err_shift_{dy}_{dx}"] = max_abs(run(shift_plane(x, dy, dx)),
                                                 shift_plane(base, dy, dx))
        errs.append(report[f"err_shift_{dy}_{dx}"])
    report["max_err"] = max(errs)
    report["mean_err"] = float(np.mean(errs))
    report["pass"] = report["max_err"] <= tolerance
    return report


def stack_suite(group_name="C4", variant="plain", max_depth=3, trials=5, seed=0,
                dtype="f64", tolerance=1e-10, negative_control=None):
    """Equivariance sweep over `trials` random stacks of depth 1..max_depth."""
    reports = []
    for t in range(trials):
        depth = 1 + t % max_depth
        net = random_stack(group_name, variant, depth=depth, seed=seed + t,
                           dtype=dtype, negative_control=negative_control)
        halo = depth * 1 + 2 + 1  # conv halos + attention filter halo + slack
        margin = _max_shift(DEFAULT_SHIFTS) + halo
        size = 2 * margin + 7
        rng = new_rng(seed + 1000 + t)
        x = bordered_noise(rng, (2, 2, size, size), margin, dtype=T.DTYPES[dtype])
        rep = stack_equivariance_report(net, x, tolerance=tolerance)
        rep["depth"] = depth
        reports.append(rep)
    summary = {
        "group": group_name,
        "variant": variant,
        "trials": trials,
        "dtype": dtype,
        "tolerance": tolerance,
        "max_err": max(r["max_err"] for r in reports),
        "mean_err": float(np.mean([r["mean_err"] for r in reports])),
    }
    summary["pass"] = summary["max_err"] <= tolerance
    if negative_control:
        summary["negative_control"] = negative_control
        summary["detected"] = not summary["pass"]
    return summary, reports


# ---------------------------------------------------------------------------
# attention-map relabeling law

def attention_relabel_report(group_name="C4", seed=0, dtype="f64", lifting=False,
                             index_mode="relative", pool_out=True, tolerance=1e-10,
                             att_kernel=5):
    """Check that both attention maps of a transformed input are the
    index-relabeled maps of the original input.

    The probe is one 4-to-3-channel 3x3 layer with full attention, on two
    15x15 inputs, under every group element and every shift of RELABEL_SHIFTS.

    For input transform h the predicted channel map is
    alpha_C[n, c, h0, t] -> alpha_C[n, c, h^-1 h0, h^-1 t] and the spatial map
    additionally moves x -> h^-1 x; translations leave alpha_C fixed and
    shift alpha_X.  `index_mode="absolute"` is the deliberate violation.
    """
    grp = make_group(group_name)
    rng = new_rng(seed)
    layer = make_gconv_layer(rng, grp, 4, 3, kernel=3, lifting=lifting, dtype=dtype,
                             name="probe")
    hin = 1 if lifting else grp.order
    ch, sp = _attention_for(rng, "full", 4, hin, 2, att_kernel, dtype, "probe")
    # the shifts, then the halos of the 3x3 conv and of the attention filter
    margin = _max_shift(RELABEL_SHIFTS) + 1 + att_kernel // 2
    x = bordered_noise(new_rng(seed + 1), (2, 4, hin, 15, 15), margin,
                       dtype=T.DTYPES[dtype])

    def maps(arr):
        _, ac, ax = attentive_group_conv(Tensor(np.ascontiguousarray(arr)), layer, ch, sp,
                                         pool_out=pool_out, index_mode=index_mode)
        return ac.data, ax.data

    ac0, ax0 = maps(x)
    report = {"group": group_name, "dtype": dtype, "lifting": lifting,
              "index_mode": index_mode, "tolerance": tolerance}
    errs_c, errs_x = [], []
    for h in range(grp.order):
        ac_h, ax_h = maps(transform_array(grp, h, x, pose_axes=(2,)))
        # alpha_C [.., H, Hin] has no spatial axes: only its poses move
        perm = feature_perm(grp, h)
        want_c = np.take(ac0, perm, axis=-2)
        if hin > 1:
            want_c = np.take(want_c, perm, axis=-1)
        errs_c.append(max_abs(ac_h, want_c))
        errs_x.append(max_abs(ax_h, transform_array(grp, h, ax0, pose_axes=(-4, -3))))
        report[f"err_alpha_c_h{h}"] = errs_c[-1]
        report[f"err_alpha_x_h{h}"] = errs_x[-1]
    for dy, dx in RELABEL_SHIFTS:
        # the band a shift vacates holds the gate's value at zero response,
        # not zeros: alpha_X is compared on the interior both maps share
        c = max(abs(dy), abs(dx))
        inner = (..., slice(c, -c), slice(c, -c))
        ac_s, ax_s = maps(shift_plane(x, dy, dx))
        errs_c.append(max_abs(ac_s, ac0))
        errs_x.append(max_abs(ax_s[inner], shift_plane(ax0, dy, dx)[inner]))
        report[f"err_alpha_c_shift_{dy}_{dx}"] = errs_c[-1]
        report[f"err_alpha_x_shift_{dy}_{dx}"] = errs_x[-1]
    report["max_err_alpha_c"] = max(errs_c)
    report["max_err_alpha_x"] = max(errs_x)
    report["max_err"] = max(report["max_err_alpha_c"], report["max_err_alpha_x"])
    report["pass"] = report["max_err"] <= tolerance
    if index_mode == "absolute":
        report["detected"] = not report["pass"]
    return report


# ---------------------------------------------------------------------------
# literal double-sum convolution oracle

def naive_group_conv(x, grp, weight):
    """Direct evaluation: out(g) = sum over (x~, t~) of f(x~, t~) w(g^-1 (x~, t~)).

    Works entirely through the affine group algebra and the raw weight array,
    sharing no code with the im2col path.  `x` is [N, C, |H_in|, Y, X] and
    `weight` [O, C, |H_in|, k, k]; a pose extent of 1 means a lifting layer.
    Every input pixel is an output centre, and pixels off the plane count as
    zeros.  Per (h, t), g^-1 (x~, t) is formed for all output centres and
    input pixels at once, by broadcasting coordinate arrays through the
    affine algebra.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(weight, dtype=np.float64)
    n, c, hin, ysz, xsz = x.shape
    o, _, _, k, _ = w.shape
    r = k // 2
    centre = (np.arange(ysz)[:, None, None, None], np.arange(xsz)[None, :, None, None])
    pixel = (np.arange(ysz)[:, None], np.arange(xsz))
    out = np.zeros((n, o, grp.order, ysz, xsz))
    for h in range(grp.order):
        ginv = invert_affine(grp, AffineElement(centre, h))
        for t in range(hin):
            rel = compose_affine(grp, ginv, AffineElement(pixel, t))
            du, dv = rel.x                                     # [Y, X, Y, X] (centre, pixel)
            inside = (np.abs(du) <= r) & (np.abs(dv) <= r)
            wg = w[:, :, rel.h if hin > 1 else 0,
                   np.where(inside, du + r, 0), np.where(inside, dv + r, 0)]
            wg = np.where(inside, wg, 0.0)                     # [O, C, Y, X, Y, X]
            out[:, :, h] += np.einsum("ncyx,ocpqyx->nopq", x[:, :, t], wg)
    return out


def conv_oracle_report(seed=0, tolerance=1e-12):
    """Compare group_conv (lifting and group-to-group) against the double-sum
    oracle on C4 and D4 at extents 4, 5 and 6, and the fused attentive block
    against its rank-7 reference."""
    worst = 0.0
    cases = 0
    report = {}
    for gname in ("C4", "D4"):
        grp = make_group(gname)
        for size in (4, 5, 6):
            for lifting in (False, True):
                rng = new_rng(seed + 3 * cases)     # the seeds these cases have always drawn
                layer = make_gconv_layer(rng, grp, 2, 2, kernel=3, lifting=lifting,
                                         dtype="f64", name="oracle")
                hin = 1 if lifting else grp.order
                x = rng.standard_normal((1, 2, hin, size, size))
                got = group_conv(Tensor(x), layer).data
                err = max_abs(got, naive_group_conv(x, grp, layer.weight.data))
                report[f"err_{gname}_s{size}_{'lift' if lifting else 'gc'}"] = err
                worst = max(worst, err)
                cases += 1
    for key, err in attentive_oracle_errors("C4", seed=seed).items():
        report[f"err_attentive_fast_vs_reference_{key}"] = err
        worst = max(worst, err)
    report["cases"] = cases
    report["max_err"] = worst
    report["tolerance"] = tolerance
    report["pass"] = worst <= tolerance
    return report


# ---------------------------------------------------------------------------
# reference attentive convolution: the per-pair tensor composed from tape ops
#
# The product evaluates the attentive block pose by pose as one fused tape
# record (gatt.attention).  This is the direct composition it replaced, kept
# as its oracle: materialize every per-pair response, take the statistics,
# gate, multiply and reduce, each step an ordinary differentiable op.

def intermediate_responses(f: Tensor, layer):
    """Per-pair responses before reduction, [N, O, C, |H|, |H_in|, Y, X].

    Entry [n, o, c, h, t] is the spatial cross-correlation of input slice
    (c, t) with slice (c, t) of the h-transformed filter; summing over
    (C, |H_in|) reproduces the layer output.  It is one conv2d whose filter
    is block-diagonal over the input channels (c, t): output channel
    (o, h, c, t) sees only input channel (c, t).
    """
    _check_input(f, layer)
    n, c, hin, y, x = f.shape
    o, k = layer.weight.shape[0], layer.weight.shape[-1]
    oh, ct = o * layer.group.order, c * hin
    bank = T.reshape(filter_bank(layer), (oh, 1, ct, k, k))
    eye = Tensor(np.eye(ct, dtype=bank.data.dtype)[None, :, :, None, None])
    diag = T.reshape(T.mul(bank, eye), (oh * ct, ct, k, k))
    resp = T.conv2d(T.reshape(f, (n, ct, y, x)), diag)
    resp = T.reshape(resp, (n, o, layer.group.order, c, hin, y, x))
    return T.transpose(resp, (0, 1, 3, 2, 4, 5, 6))


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


def channel_attention(s_avg, s_max, params, grp, index_mode="relative"):
    """Shared two-layer bottleneck on the average and max descriptors.

    For each pose pair (h, t) the matrices at relative pose h^-1 t are applied
    to both descriptors, the two pre-activations are summed and gated.  Each
    layer is one 1x1 conv2d over both descriptors of every pose pair, whose
    filter is block-diagonal over (h, t): output channel (h, t, m) sees only
    the input channels (h, t, .).
    Returns [N, C, |H|, |H_in|] (plus an out-channel axis if the stats kept one).
    """
    if s_avg.ndim not in (4, 5):
        raise ValueError("channel stats must be rank 4 (pooled) or rank 5")
    hh = s_avg.shape[-2]
    hin = s_avg.shape[-1]
    if hh != grp.order:
        raise ValueError(f"output pose axis {hh} does not match group order {grp.order}")
    if hin != params.n_poses:
        raise ValueError(f"input pose axis {hin} does not match attention matrices "
                         f"({params.n_poses})")
    kidx = _rel_index(grp, hin, index_mode).reshape(-1)
    ht = hh * hin
    eye = Tensor(np.eye(ht, dtype=params.w1.data.dtype)[:, None, :, None])

    def block_diag(w):      # [M, C] per (h, t) -> filter [(h, t, M), (h', t', C), 1, 1]
        wg = T.gather_axis(w, 0, kidx)
        m, c = wg.shape[1:]
        diag = T.mul(T.reshape(wg, (ht, m, 1, c)), eye)
        return T.reshape(diag, (ht * m, ht * c, 1, 1))

    lead = s_avg.shape[:-3]                     # (N,) pooled, else (N, O)
    nl = len(lead)
    s = T.stack([s_avg, s_max], axis=0)         # [2, *lead, C, H, Hin]
    s = T.transpose(s, tuple(range(nl + 1)) + (nl + 2, nl + 3, nl + 1))
    s = T.reshape(s, (-1, ht * params.channels, 1, 1))
    z = T.conv2d(T.relu(T.conv2d(s, block_diag(params.w1))), block_diag(params.w2))
    z = T.reduce(T.reshape(z, (2,) + lead + (hh, hin, params.channels)), axes=0)
    alpha = residual_gate(z)                    # [*lead, H, Hin, C]
    return T.transpose(alpha, tuple(range(nl)) + (nl + 2, nl, nl + 1))


def spatial_attention(s_x, params, grp):
    """Per-pose-pair spatial gating from the 2-channel stat map.

    For output pose h, each input-pose slice t of the stats is correlated
    (same padding) with slice t of the h-transformed filter, the two stat
    channels are summed, and the result gated.  All pose pairs take one
    conv2d whose filter is block-diagonal over (h, t): output channel
    (h, t) sums the stat channels (s, h, t).  Returns
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
    k = params.kernel
    psis = T.reshape(orbit(grp, params.psi), (hh, 1, 2, 1, hin, k, k))  # [h, -, s, -, t', k, k]
    mask = (np.eye(hh)[:, None, None, :, None, None, None]
            * np.eye(hin)[None, :, None, None, :, None, None])  # [h, t, -, h', t', -, -]
    diag = T.mul(psis, Tensor(mask.astype(psis.data.dtype)))    # [h, t, s, h', t', k, k]
    diag = T.reshape(diag, (hh * hin, 2 * hh * hin, k, k))
    resp = T.conv2d(T.reshape(s_x, (n, 2 * hh * hin, y, x)), diag)
    alpha = residual_gate(T.reshape(resp, (n, 1, hh, hin, y, x)))
    if folded is not None:
        nn, o = folded
        alpha = T.reshape(alpha, (nn, o) + alpha.shape[2:])  # [N, O, H, Hin, Y, X]
    return alpha


def reference_attention_maps(f: Tensor, layer, ch_params=None, sp_params=None,
                             pool_out=True, index_mode="relative"):
    """(alpha_C, alpha_X, channel-gated responses) from the rank-7 tensor.

    The gated responses are the per-pair responses times alpha_C, or the
    responses themselves when no channel parameters are given.  Serial
    order: the spatial statistics are taken from the gated responses, so
    alpha_X depends on alpha_C.  A map whose parameters are not given is
    returned as None.
    """
    ftilde = intermediate_responses(f, layer)
    alpha_c = alpha_x = None
    gated = ftilde
    if ch_params is not None:
        s_avg, s_max = channel_stats(ftilde, pool_out=pool_out)
        alpha_c = channel_attention(s_avg, s_max, ch_params, layer.group,
                                    index_mode=index_mode)
        if alpha_c.ndim == 4:  # [N, C, H, Hin] -> [N, 1, C, H, Hin, 1, 1]
            n, c, hh, hin = alpha_c.shape
            expand = T.reshape(alpha_c, (n, 1, c, hh, hin, 1, 1))
        else:
            expand = T.reshape(alpha_c, alpha_c.shape + (1, 1))
        gated = T.mul(ftilde, expand)
    if sp_params is not None:
        s_x = spatial_stats(gated, pool_out=pool_out)
        alpha_x = spatial_attention(s_x, sp_params, layer.group)
    return alpha_c, alpha_x, gated


def reference_attentive_group_conv(f: Tensor, layer, ch_params=None, sp_params=None,
                                   pool_out=True, index_mode="relative"):
    """Oracle of attention.attentive_group_conv: (output map, alpha_C, alpha_X).

    Gates the per-pair responses by alpha_C and alpha_X and reduces over
    input channels and poses.
    """
    alpha_c, alpha_x, mod = reference_attention_maps(
        f, layer, ch_params, sp_params, pool_out=pool_out, index_mode=index_mode)
    if alpha_x is not None:
        # [N, 1|O, H, Hin, Y, X] -> a singleton channel axis after 1|O
        n, o, hh, hin, y, x = alpha_x.shape
        mod = T.mul(mod, T.reshape(alpha_x, (n, o, 1, hh, hin, y, x)))
    out = T.reduce(mod, axes=(2, 4), mode="sum")  # [N, O, H, Y, X]
    return out, alpha_c, alpha_x


def attentive_oracle_errors(group_name="C4", variant="full", pool_out=True,
                            lifting=False, seed=0, ties=False, dtype="f64", batch=2):
    """Fast block against reference_attentive_group_conv on one small layer.

    Returns max|fast - reference| / max(1, max|reference|) for the output,
    alpha_C, alpha_X and the gradients of the input and of every parameter
    under a random linear loss, on `batch` samples.  The same for the output
    and maps of a forward with no tape (keys `tapeless_*`), and under
    `tapeless_vs_taped` the largest absolute difference between those and
    the taped forward's, 0 when the two agree bit for bit.  With `ties` the
    input and weights are rounded and the input has zero rows, so every max
    has ties to route.
    """
    grp = make_group(group_name)
    rng = new_rng(seed)
    hin = 1 if lifting else grp.order
    layer = make_gconv_layer(rng, grp, 4, 3, kernel=3, lifting=lifting, dtype=dtype,
                             name="conv")
    ch, sp = _attention_for(rng, variant, 4, hin, 2, 3, dtype, "att")
    x = rng.standard_normal((batch, 4, hin, 7, 7))
    if ties:
        layer.weight.data = np.round(2 * layer.weight.data) / 2
        x = np.maximum(np.round(x), 0.0)
        x[..., :2, :] = 0.0
    xp = Parameter(x, dtype=dtype, name="x")
    params = [xp] + layer.params() + (ch.params() if ch else []) + (sp.params() if sp else [])

    def values(out, *maps):
        got = {"out": out.data}
        got.update((name, m.data) for name, m in zip(("alpha_c", "alpha_x"), maps)
                   if m is not None)
        return got

    probe = None
    results = []
    for block in (attentive_group_conv, reference_attentive_group_conv):
        with Tape() as tape:
            out, *maps = block(xp, layer, ch, sp, pool_out=pool_out)
            if probe is None:
                probe = Tensor(new_rng(seed + 1).standard_normal(out.shape).astype(
                    out.data.dtype))
            backward(tape, T.reduce(T.mul(out, probe)))
        got = values(out, *maps)
        got.update((f"grad_{p.name.rsplit('.', 1)[-1]}", p.grad.copy()) for p in params)
        results.append(got)
        zero_grads(params)
    # with no tape the block keeps no record and takes its maxima without routes
    tapeless = values(*attentive_group_conv(xp, layer, ch, sp, pool_out=pool_out))
    fast, ref = results
    if fast.keys() != ref.keys():
        raise AssertionError(f"fast block reports {sorted(fast)}, reference {sorted(ref)}")

    def err(got, k):
        return max_abs(got[k], ref[k]) / max(1.0, float(np.max(np.abs(ref[k]))))

    errs = {k: err(fast, k) for k in ref}
    errs.update((f"tapeless_{k}", err(tapeless, k)) for k in tapeless)
    errs["tapeless_vs_taped"] = max(max_abs(tapeless[k], fast[k]) for k in tapeless)
    return errs


# ---------------------------------------------------------------------------
# reference batch norm: the composition T.batch_norm fuses

def reference_batch_norm(t, gamma, beta, axes, eps, stats=None):
    """T.batch_norm composed from elementwise, reduce, reshape and relu tape ops.

    Same arguments and returns; the oracle of the fused op.
    """
    axes = T._norm_axes(axes, t.ndim)
    kshape = tuple(1 if i in axes else s for i, s in enumerate(t.shape))
    if stats is None:
        mu = T.reduce(t, axes=axes, mode="mean", keepdims=True)
        diff = T.sub(t, mu)
        var = T.reduce(T.mul(diff, diff), axes=axes, mode="mean", keepdims=True)
    else:
        mu, var = (Tensor(np.asarray(s, dtype=t.data.dtype).reshape(kshape))
                   for s in stats)
        diff = T.sub(t, mu)
    eps = Tensor(np.full((), eps, dtype=t.data.dtype))
    xhat = T.div(diff, T.sqrt(T.add(var, eps)))
    out = T.add(T.mul(xhat, T.reshape(gamma, kshape)), T.reshape(beta, kshape))
    return T.relu(out), mu.data, var.data


# ---------------------------------------------------------------------------
# stride / pooling parity measurement

def parity_report(size=32, seed=0, dtype="f32"):
    """Quarter-turn equivariance error of a stride-2 stack vs a pool stack.

    Returns (report, maps): `maps` holds each stack's per-pixel error plane
    of the first sample, under "stride" and "pool".

    The stride-2 stack is a stride-1 group conv followed by nn.StrideSubsample,
    which keeps the centres of a same-padded stride-2 conv's windows: every
    second row and column, ending at the last one.  A quarter turn of an
    even-extent plane maps that grid, which starts at index 1, onto one that
    starts at index 0, so the two orders of operations disagree.  2x2
    pooling windows tile an even plane symmetrically instead.  On odd
    extents the situation flips: the stride grid becomes symmetric while no
    symmetric 2x2 tiling exists.
    """
    net_a, net_b = build_parity_nets(dtype=dtype, seed=seed)
    grp = net_a.group
    rng = new_rng(seed + 99)
    x = rng.standard_normal((2, 1, size, size)).astype(T.DTYPES[dtype])
    ctx = ForwardCtx(training=False)

    def err_and_map(net):
        base = net.forward(Tensor(x), ctx).data
        got = net.forward(Tensor(transform_array(grp, 1, x)), ctx).data
        want = transform_array(grp, 1, base, pose_axes=(2,))
        diff = np.abs(got.astype(np.float64) - want.astype(np.float64))
        return float(diff.max()), diff[0].max(axis=(0, 1))

    err_a, map_a = err_and_map(net_a)
    err_b, map_b = err_and_map(net_b)
    report = {
        "size": size,
        "dtype": dtype,
        "err_stride": err_a,
        "err_pool": err_b,
        "ratio": err_a / err_b if err_b > 0 else float("inf"),
    }
    return report, {"stride": map_a, "pool": map_b}


# ---------------------------------------------------------------------------
# gradient checking

def _p(rng, shape, name, scale=1.0):
    return Parameter(rng.standard_normal(shape) * scale, dtype="f64", name=name)


def gradcheck_cases(seed=0):
    """(name, params, loss_fn) triples that jointly call every taped op of gatt.tensor."""
    cases = []
    grp4 = make_group("C4")

    rng = new_rng(seed)
    a = _p(rng, (2, 3), "a")
    b = _p(rng, (3,), "b")
    c = _p(rng, (2, 3), "c")

    def loss_elementwise():
        u = T.add(T.mul(a, b), c)
        v = T.add(T.relu(u), T.sigmoid(T.sub(c, u)))
        w = T.sqrt(T.add(T.mul(u, u), Tensor(np.float64(1.0))))
        s = T.sqrt(T.add(T.mul(a, a), Tensor(np.float64(0.5))))
        q = T.div(T.sigmoid(T.mul(u, Tensor(np.float64(0.3)))), T.add(T.mul(b, b), Tensor(np.float64(1.0))))
        total = T.add(T.add(T.reduce(v), T.reduce(w)), T.add(T.reduce(s), T.reduce(q)))
        return total
    cases.append(("elementwise", [a, b, c], loss_elementwise))

    rng = new_rng(seed + 1)
    x1 = _p(rng, (2, 3, 4), "x1")

    def loss_shapes():
        m = T.reduce(x1, axes=(1,), mode="max", keepdims=True)
        mn = T.reduce(x1, axes=(0, 2), mode="mean")
        t = T.transpose(x1, (2, 0, 1))
        rs = T.reshape(t, (4, 6))
        st = T.stack([mn, mn], axis=1)
        return T.add(T.add(T.reduce(m), T.reduce(mn)),
                     T.add(T.reduce(rs), T.reduce(st)))
    cases.append(("shapes_reduce", [x1], loss_shapes))

    rng = new_rng(seed + 3)
    L = _p(rng, (4, 3), "L")
    labels = np.array([0, 2, 1, 2])

    def loss_sce():
        return T.softmax_cross_entropy(L, labels)
    cases.append(("cross_entropy", [L], loss_sce))

    rng = new_rng(seed + 4)
    xc = _p(rng, (1, 2, 5, 5), "xc")
    wc = _p(rng, (3, 2, 3, 3), "wc", 0.5)
    bc = _p(rng, (1, 3, 1, 1), "bc", 0.1)

    def loss_conv():
        return T.reduce(T.relu(T.add(T.conv2d(xc, wc), bc)))
    cases.append(("conv2d", [xc, wc, bc], loss_conv))

    rng = new_rng(seed + 5)
    xm = _p(rng, (2, 2, 6, 6), "xm")
    wm = _p(rng, (2, 2, 3, 3), "wm", 0.5)

    def loss_pool():
        p = T.max_pool2d(T.conv2d(xm, wm))
        return T.add(T.reduce(p), T.reduce(T.mul(p, p)))
    cases.append(("conv_pool", [xm, wm], loss_pool))

    rng = new_rng(seed + 6)
    lift_layer = make_gconv_layer(rng, grp4, 2, 2, kernel=3, lifting=True,
                                  dtype="f64", name="g.lift")
    gc_layer = make_gconv_layer(rng, grp4, 2, 2, kernel=3, lifting=False,
                                dtype="f64", name="g.gc")
    xg = _p(rng, (1, 2, 1, 5, 5), "xg")

    def loss_gconv():
        out = group_conv(T.relu(group_conv(xg, lift_layer)), gc_layer)
        return T.reduce(out)
    cases.append(("group_conv",
                  [xg] + list(lift_layer.params()) + list(gc_layer.params()),
                  loss_gconv))

    rng = new_rng(seed + 7)
    att_layer = make_gconv_layer(rng, grp4, 2, 2, kernel=3, dtype="f64",
                                 name="a.conv")
    att_ch, att_sp = _attention_for(rng, "full", 2, grp4.order, 2, 3, "f64", "a")
    xa = _p(rng, (1, 2, 4, 5, 5), "xa")

    def loss_attentive():
        return T.reduce(attentive_group_conv(xa, att_layer, att_ch, att_sp)[0])
    cases.append(("attentive_full",
                  [xa] + list(att_layer.params()) + att_ch.params() + att_sp.params(),
                  loss_attentive))

    rng = new_rng(seed + 8)
    in_ch, in_sp = _attention_for(rng, "input", 2, grp4.order, 2, 3, "f64", "i")
    in_layer = make_gconv_layer(rng, grp4, 2, 2, kernel=3, dtype="f64",
                                name="i.conv")
    xi = _p(rng, (1, 2, 4, 5, 5), "xi")

    def loss_input_att():
        return T.reduce(group_conv(input_attention(xi, grp4, in_ch, in_sp)[0], in_layer))
    cases.append(("input_attention",
                  [xi] + list(in_layer.params()) + in_ch.params() + in_sp.params(),
                  loss_input_att))

    rng = new_rng(seed + 12)
    bnr = GBatchNorm(3, dtype="f64", name="bnr")
    xr = _p(rng, (2, 3, 4, 3, 3), "xr")
    bnr_stats = (rng.standard_normal(3) * 0.3, 0.5 + rng.random(3))
    # a fixed weight per output entry, so that a gradient the mask should
    # have zeroed changes the loss's slope
    wr = Tensor(rng.standard_normal(xr.shape))

    def loss_bn_relu():
        bnr.running_mean.data[...], bnr.running_var.data[...] = bnr_stats
        ye = bnr.forward(xr, ForwardCtx(training=False))
        y = bnr.forward(xr, ForwardCtx(training=True))
        return T.add(T.reduce(T.mul(y, wr)), T.reduce(T.mul(ye, wr)))
    cases.append(("batchnorm_relu", [xr, bnr.gamma, bnr.beta], loss_bn_relu))

    rng = new_rng(seed + 10)
    xd = _p(rng, (3, 8), "xd")

    def loss_dropout():
        y = dropout(xd, 0.4, new_rng(777))
        return T.reduce(T.mul(y, y))
    cases.append(("dropout", [xd], loss_dropout))

    rng = new_rng(seed + 11)
    xt = _p(rng, (1, 2, 4, 4, 4), "xt")
    # a fixed weight per copy, so that copies swapped by a wrong index change the loss
    wt = Tensor(rng.standard_normal((grp4.order,) + xt.shape))

    def loss_transform():
        o = orbit(grp4, xt)
        return T.reduce(T.mul(T.mul(o, o), wt))
    cases.append(("pose_transforms", [xt], loss_transform))

    return cases


def run_gradcheck_case(params, loss_fn):
    """Max relative error between taped gradients and central differences
    at the fixed step h = FD_STEP (1e-5)."""
    with Tape() as tape:
        loss = loss_fn()
        backward(tape, loss)
    analytic = [None if p.grad is None else p.grad.copy() for p in params]
    zero_grads(params)

    def eval_loss():
        return float(loss_fn().data)

    worst = 0.0
    for p, g in zip(params, analytic):
        fd = finite_diff_grad(eval_loss, [p])[0]
        got = np.zeros_like(fd) if g is None else g
        worst = max(worst, grad_rel_err(got, fd))
    return worst


def gradcheck_report(seed=0, tolerance=1e-4):
    """Every gradcheck case at central-difference step h = FD_STEP (1e-5)."""
    report = {"tolerance": tolerance, "h": FD_STEP}
    worst = 0.0
    for name, params, loss_fn in gradcheck_cases(seed):
        err = run_gradcheck_case(params, loss_fn)
        report[f"err_{name}"] = err
        worst = max(worst, err)
    report["max_err"] = worst
    report["pass"] = worst <= tolerance
    return report


# ---------------------------------------------------------------------------
# attention maps of a built network (montage + consistency checks)

def attentive_block_indices(net):
    """Indices of the blocks that produce a spatial attention map."""
    return [i for i, layer in enumerate(net.layers)
            if isinstance(layer, GBlock) and layer.sp_params is not None]


def block_alpha_x(net, x, index):
    """The spatial attention map produced inside layer `index` for input x."""
    if not 0 <= index < len(net.layers):
        raise ValueError(f"layer {index} out of range: the network has {len(net.layers)} layers")
    blk = net.layers[index]
    if not isinstance(blk, GBlock) or blk.sp_params is None:
        raise ValueError(f"layer {index} has no spatial attention")
    f = Network(net.group, net.layers[:index]).forward(x)
    return blk.forward_maps(f)[2].data  # input: [N, 1, Hf, Y, X], else [N, 1|O, H, Hin, Y, X]


def alpha_x_consistency(net, x, index, tolerance=1e-4):
    """Are the maps of transformed inputs the relabeled maps of the input?

    The law holds only if every 2x2 pooling ahead of layer `index` halves
    its input exactly, so an input extent not divisible by 2^(pools) is
    rejected with a ValueError before the net runs.
    """
    grp = net.group
    scale = 2 ** sum(isinstance(layer, MaxPoolG) for layer in net.layers[:index])
    if any(e % scale for e in x.shape[-2:]):
        raise ValueError(f"{scale} does not divide the {x.shape[-2]}x{x.shape[-1]} input: "
                         f"the 2x2 pooling ahead of layer {index} cannot halve it exactly")
    base = block_alpha_x(net, x, index)
    pose_axes = (2,) if base.ndim == 5 else (-4, -3)
    report = {"layer": index, "tolerance": tolerance}
    maps = {0: base}
    errs = []
    for h in range(grp.order):
        got = block_alpha_x(net, transform_array(grp, h, x), index)
        maps[h] = got
        errs.append(max_abs(got, transform_array(grp, h, base, pose_axes)))
        report[f"err_h{h}"] = errs[-1]
    report["max_err"] = max(errs)
    report["pass"] = report["max_err"] <= tolerance
    return report, maps


def alpha_panels(alpha_x):
    """Flatten one sample's spatial attention map into a list of [Y, X] planes."""
    a = np.asarray(alpha_x)
    if a.ndim == 5:        # [N, 1, Hf, Y, X]
        a = a[0, 0]
    elif a.ndim == 6:      # [N, 1|O, H, Hin, Y, X]
        a = a[0, 0].reshape(-1, a.shape[-2], a.shape[-1])
    else:
        raise ValueError(f"unexpected attention map rank {a.ndim}")
    return a
