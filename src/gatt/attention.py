"""Pose-aware channel and spatial attention for group convolutions.

Attention is factorized into a channel map alpha_C in [0,1]^C and a spatial
map alpha_X in [0,1], both defined per (output pose h, input pose t) pair of
the per-pair response tensor.  Equivariance pins the parameter sharing: the
channel bottleneck matrices are selected by the relative pose h^-1 t, and the
spatial 7x7 filter enters through the same transform as a convolution filter.
Under a shift of the input by a group element, both maps then move by the
joint relabeling of (h, t) plus the spatial index map, which is exactly the
law a group feature map follows.

The gate on the pre-activation z is 1 - sigmoid(z) = sigmoid(-z), which
keeps maps strictly inside (0, 1), also where the logistic function
saturates.

Each attention kind is one function that returns its output and its maps:
`attentive_group_conv` (the fused block, one tape record) and
`input_attention` (CBAM-style gating of the input map, composed from
`group_conv`).  The maps carry no gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .autodiff import Parameter, he_init
from .gconv import GConvLayer, _check_input, check_feature, filter_bank, group_conv
from .groups import make_group, orbit
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
# the attentive group convolution, one output pose at a time

def _gate_np(z):
    """residual_gate on a numpy array of the storage dtype, clipped as T.sigmoid clips."""
    return 1.0 - T._logistic(z)


def _gate_slope(alpha):
    """d alpha / d z, written in terms of the gate's output."""
    return -(alpha * (1.0 - alpha))


def _im2col(fp, k, stride, yo, xo):
    """The padded samples fp [n, C, Yp, Xp] unfolded to columns [n, C*k*k, Yo*Xo]."""
    win = sliding_window_view(fp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c = win.shape[:2]
    return np.ascontiguousarray(win.transpose(0, 1, 4, 5, 2, 3)).reshape(n, c * k * k, yo * xo)


def _col2im(gcols, pad_shape, k, stride, yo, xo):
    """Adjoint of _im2col: sum column gradients back onto the padded samples."""
    n, c, yp, xp = pad_shape
    g = np.zeros(pad_shape, dtype=gcols.dtype)
    gw = gcols.reshape(n, c, k, k, yo, xo)
    for ki in range(k):
        for kj in range(k):
            g[:, :, ki:ki + stride * yo:stride, kj:kj + stride * xo:stride] += gw[:, :, ki, kj]
    return g


class _Chunk:
    """Samples [lo, hi) of a block: their columns and the per-pose state the
    backward reads."""
    __slots__ = ("lo", "hi", "x5", "xs", "poses", "gcs", "axt", "fs")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi
        self.poses = []


class _PoseKernel:
    """The attentive block as one tape record, evaluated pose by pose.

    For output pose h every quantity reads only slice h of the per-pair
    responses, held as R[n, c, t, o, p] (input channel, input pose,
    out-channel, output pixel): alpha_C pools over (o, p), alpha_X over
    (o, c) of the channel-gated slice, and the output sums over (c, t).  So
    one slice is alive at a time.  The backward needs no slice: apart from
    the two max routes, the gradient reaching a gated slice does not depend
    on c, so two GEMMs shared by all poses contract it with the im2col
    columns.  Max ties route to the first index in the flat (o, y, x) order
    for alpha_C and (o, c) for alpha_X.  All arithmetic runs in the storage
    dtype: float32 slices, GEMMs and FFTs for a float32 net.

    With pooled maps the gated channel sum sum_c alpha_C R is one GEMV per
    (n, t), [1, C] @ [C, O*P] of the ungated slice.  When no backward will
    run (no tape, or no parent needs a gradient) the forward locates no
    route: it takes m = max_o R once, alpha_C's max statistic is max_p m and
    alpha_X's is max_c alpha_C m, and the slice is never gated.  This is
    exact: every gate lies in (0, 1) and rounding is monotone, so
    fl(a max r) = max fl(a r), and the output and maps carry the same bits
    as on the taped path, which gates the slice in place to find the routes.

    Every per-pose quantity is per sample, so forward and backward run over
    chunks of whole samples, each as large as fits a slice [nb, C, Hin, O, P]
    in T.POSE_CHUNK_BYTES (at least one sample); only the parameter
    gradients sum over the chunks.  The sample-independent state (the
    bank and its sums, the bottleneck matrices, the filter spectra) is
    built once per block.  The record keeps no columns, and no padded
    copy of the input: a chunk pads and unfolds its samples (`_im2col`) in
    the forward and again in the backward, which folds the chunk's input
    gradient (`_col2im`) into one whole-input array and then frees the
    chunk's state.
    """

    def __init__(self, flat, bank, w1g, w2g, psis, order, hin, stride, padding, pool_out):
        k, (pt, pb, self.yo), (pl, pr, self.xo) = T._conv_geometry(flat, bank, padding, stride)
        self.geom = k, stride, (pt, pb), (pl, pr)
        n, ct = flat.shape[:2]
        o, c = bank.shape[0] // order, ct // hin
        kk = bank.shape[2] * bank.shape[3]
        p = self.yo * self.xo
        self.dims = n, c, hin, o, kk, p
        nb = max(1, min(n, T.POSE_CHUNK_BYTES // (8 * c * hin * o * p)))
        self.spans = [(lo, min(n, lo + nb)) for lo in range(0, n, nb)]
        self.order = order
        self.g = 1 if pool_out else o       # out-channel groups sharing one map
        self.pool_out = pool_out
        self.dtype = flat.data.dtype
        self.inputs = flat, bank, w1g, w2g, psis
        wb = bank.data.reshape(o, order, c, hin, kk)
        self.wb = np.ascontiguousarray(wb.transpose(1, 2, 3, 0, 4))    # [H, C, Hin, O, K]
        self.w1 = self.w2 = self.fpsi = None
        if w1g is not None:
            mid = w1g.shape[1]
            self.w1 = w1g.data.reshape(order, hin, mid, c)
            self.w2 = w2g.data.reshape(order, hin, c, mid)
            # the mean of R = W X over (o, p) needs only the column sums of X
            self.wsum = self.wb.reshape(order, c, hin, self.g, o // self.g, kk).sum(axis=4)
        if psis is not None:
            # same-padded correlation with psi through zero-padded 2-D FFTs;
            # lag d of a circular correlation sits at index d mod L
            ks = psis.shape[-1]
            self.fshape = tuple(_fft_length(e + ks - 1) for e in (self.yo, self.xo))
            psi = psis.data.reshape(order, 2, hin, ks, ks)
            self.fpsi = np.fft.rfft2(psi, s=self.fshape)
            self.lag_out = np.ix_(*[(np.arange(e) - ks // 2) % ln
                                    for e, ln in zip((self.yo, self.xo), self.fshape)])
            self.lag_psi = np.ix_(*[(np.arange(ks) - ks // 2) % ln for ln in self.fshape])
            # flat index of R[n, c, t, 0, p] in a chunk: a column over c is col_base + o* p
            self.col_base = _flat_index((nb, c, hin, o, p),
                                        np.arange(nb)[:, None, None, None, None],
                                        np.arange(c)[:, None, None, None],
                                        np.arange(hin)[:, None, None], 0, np.arange(p))
        self.chunks = []

    def _unfold(self, ck):
        """Give chunk ck its columns x5 [n, C, Hin, K, P] and their sums over p."""
        _, c, hin, o, kk, p = self.dims
        k, stride, pads_y, pads_x = self.geom
        fp = T._pad(self.inputs[0].data[ck.lo:ck.hi], pads_y, pads_x)
        ck.x5 = _im2col(fp, k, stride, self.yo, self.xo).reshape(ck.hi - ck.lo, c, hin, kk, p)
        ck.xs = ck.x5.sum(axis=-1)          # [n, C, Hin, K]

    # -- forward --------------------------------------------------------------

    def forward(self, keep):
        """Output [N, O, H, P], alpha_C per pose and alpha_X."""
        n, c, hin, o, kk, p = self.dims
        order, g, dt = self.order, self.g, self.dtype
        res = np.empty((n, order, o, p), dt)    # the output, laid out as [N, H, O, P]
        alpha_c = ([np.empty((n, c, hin, g), dt) for _ in range(order)]
                   if self.w1 is not None else [])
        alpha_x = (np.empty((order, n, g, hin, self.yo, self.xo), dt)
                   if self.fpsi is not None else None)
        for lo, hi in self.spans:
            ck = _Chunk(lo, hi)
            self._unfold(ck)
            self._forward_chunk(ck, keep, res[lo:hi], [a[lo:hi] for a in alpha_c],
                                None if alpha_x is None else alpha_x[:, lo:hi])
            if keep:
                self.chunks.append(ck)
        return res.transpose(0, 2, 1, 3), alpha_c, alpha_x

    def _forward_chunk(self, ck, keep, res, alpha_c, alpha_x):
        """Fill one chunk's share of the output res [n, H, O, P], alpha_C and alpha_X."""
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        order, g, dt = self.order, self.g, self.dtype
        gcs = np.empty((n, hin, order, o, p), dt)   # channel sums of the gated slices
        s_x = np.empty((order, n, g, 2, hin, p), dt) if alpha_x is not None else None
        r = np.empty((n, c, hin, o, p), dt)         # the one live slice
        rv = r.reshape(n, c, hin, g, -1)
        lean = self.pool_out and not keep       # no routes: maxima from one max over o
        for h in range(order):
            np.matmul(self.wb[h], ck.x5, out=r)                     # [n, C, Hin, O, P]
            st = {}
            m = r.max(axis=3) if lean else None                     # [n, C, Hin, P]
            ac = None
            if alpha_c:
                ac = alpha_c[h][...] = self._channel_forward(ck, h, r, m, st)
            if ac is not None and self.pool_out:
                # sum_c alpha_C r as one GEMV per (n, t): [n, Hin, 1, C] @ [n, Hin, C, O*P]
                np.matmul(ac.transpose(0, 2, 3, 1),
                          r.reshape(n, c, hin, o * p).swapaxes(1, 2),
                          out=gcs.reshape(n, hin, order, o * p)[:, :, h:h + 1])
                if s_x is not None and not lean:
                    rv *= ac[..., None]             # the routes read the gated slice
            else:
                if ac is not None:
                    rv *= ac[..., None]             # pool_out=False gates per (c, o)
                np.sum(r, axis=1, out=gcs[:, :, h])
            if lean and s_x is not None:
                self._pooled_stats(m, ac, gcs[:, :, h], s_x[h])
            elif s_x is not None:
                self._spatial_stats(r, gcs[:, :, h], st, s_x[h])
            if keep:
                ck.poses.append(st)
        del r, rv
        ck.x5 = ck.xs = None                    # the backward unfolds them again
        if s_x is None:
            np.sum(gcs, axis=1, out=res)
            return
        fs = np.fft.rfft2(s_x.reshape(order, n, g, 2, hin, self.yo, self.xo), s=self.fshape)
        q = np.fft.irfft2((fs * np.conj(self.fpsi)[:, None, None]).sum(axis=3),
                          s=self.fshape)
        alpha_x[...] = _gate_np(q[(...,) + self.lag_out])
        axt = alpha_x.reshape(order, n, g, hin, p).transpose(1, 3, 0, 2, 4)  # [n, Hin, H, g, P]
        if keep:
            ck.gcs, ck.axt, ck.fs = gcs, axt, fs
        np.sum(gcs * axt, axis=1, out=res)

    def _channel_forward(self, ck, h, r, m, st):
        """alpha_C [n, C, Hin, g] of the ungated slice r; its max statistic is
        m's max over p when m (r's max over o) is given, else read at the
        first (o, p) route, which st keeps for the backward."""
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        g, rep = self.g, o // self.g
        if m is not None:
            smax = m.max(axis=-1)[..., None]                        # [n, C, Hin, 1]
        else:
            rv = r.reshape(n, c, hin, g, -1)
            am = rv.argmax(axis=-1)                                 # [n, C, Hin, g]
            smax = np.take_along_axis(rv, am[..., None], axis=-1)[..., 0]
            st.update(am=am)
        s = np.stack((np.einsum("ctgk,nctk->nctg", self.wsum[h], ck.xs) / (rep * p), smax))
        sb = s.transpose(3, 2, 0, 1, 4).reshape(hin, c, 2 * n * g)  # [Hin, C, (2, n, g)]
        u = np.matmul(self.w1[h], sb)
        z = np.matmul(self.w2[h], np.maximum(u, 0.0)).reshape(hin, c, 2, n * g).sum(axis=2)
        ac = _gate_np(z).reshape(hin, c, n, g).transpose(2, 1, 0, 3)
        st.update(sb=sb, u=u, ac=ac)
        return ac                                                   # [n, C, Hin, g]

    def _pooled_stats(self, m, ac, gc, out):
        """Mean and max over (o, c) into out [n, 1, 2, Hin, P] from m, the
        ungated slice's max over o; the gates commute with that max."""
        _, c, hin, o, kk, p = self.dims
        if ac is not None:
            m = m * ac
        out[:, 0, 0] = gc.sum(axis=2) / (o * c)
        out[:, 0, 1] = m.max(axis=1)

    def _spatial_stats(self, r, gc, st, out):
        """Mean and max over (o, c) (over c with pool_out=False) into out [n, g, 2, Hin, P]."""
        n = r.shape[0]
        _, c, hin, o, kk, p = self.dims
        gmc = r.max(axis=1)                                         # [n, Hin, O, P]
        if self.pool_out:
            mx = gmc.max(axis=2, keepdims=True)                     # [n, Hin, 1, P]
            om = _first_true(gmc == mx, axis=2)
            mean = gc.sum(axis=2, keepdims=True) / (o * c)
            col = np.take(r, self.col_base[:n] + om[:, None] * p)  # [n, C, Hin, 1, P]
        else:
            om = np.arange(o)[:, None]
            mx, mean, col = gmc, gc / c, r
        cm = _first_true(col == mx[:, None], axis=1)[:, 0]          # [n, Hin, g, P]
        out[:, :, 0] = mean.transpose(0, 2, 1, 3)
        out[:, :, 1] = mx.transpose(0, 2, 1, 3)
        st.update(om=om, cm=cm, mx=mx)

    # -- backward -------------------------------------------------------------

    def backward(self, dout):
        flat, bank, w1g, w2g, psis = self.inputs
        n, c, hin, o, kk, p = self.dims
        dout = dout.reshape(n, o, self.order, p)
        gx = np.empty(flat.shape, self.dtype) if flat.requires_grad else None
        sums = {}                               # parameter gradients, summed over chunks
        for i, ck in enumerate(self.chunks):
            self.chunks[i] = None
            self._unfold(ck)
            part = self._backward_chunk(ck, dout[ck.lo:ck.hi],
                                        None if gx is None else gx[ck.lo:ck.hi])
            for key, val in part.items():
                if key in sums:
                    sums[key] += val
                else:
                    sums[key] = val
        if self.w1 is not None:
            for t, key in ((w1g, "w1"), (w2g, "w2")):
                if t.requires_grad:
                    T._accumulate(t, sums[key].reshape(t.shape), owned=True)
        if bank.requires_grad:
            T._accumulate(bank, sums["bank"].transpose(3, 0, 1, 2, 4).reshape(bank.shape),
                          owned=True)
        if self.fpsi is not None and psis.requires_grad:
            corr = np.fft.irfft2(sums["psi"], s=self.fshape)
            T._accumulate(psis, corr[(...,) + self.lag_psi].reshape(psis.shape), owned=True)
        if gx is not None:
            T._accumulate(flat, gx, owned=True)

    def _backward_chunk(self, ck, dout, gx):
        """Write chunk ck's input gradient into gx (if not None); return its
        shares of the parameter gradients (psi's as a cross-spectrum)."""
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        order, g, dt = self.order, self.g, self.dtype
        part = {}
        # e[n, t, (h, o), p]: the part of dL/d(gated slice h) that is the same for every c
        if self.fpsi is None:
            e = dout.transpose(0, 2, 1, 3).reshape(n, 1, order * o, p)
            routes = [None] * order
        else:
            e, routes, part["psi"] = self._spatial_backward(ck, dout.transpose(0, 2, 1, 3))
        q = np.matmul(e[:, None], ck.x5.swapaxes(-1, -2))          # [n, C, Hin, H*O, K]
        q = q.reshape(n, c, hin, order, o, kk)
        dwb = part["bank"] = np.empty((order, c, hin, o, kk), dt)
        if self.w1 is not None:
            dw1 = part["w1"] = np.empty(self.w1.shape, dt)
            dw2 = part["w2"] = np.empty(self.w2.shape, dt)
        dx5 = None                             # dL/dcols [n, C, Hin, K, P]
        if gx is not None:
            wt = self.wb.transpose(1, 2, 4, 0, 3)                   # [C, Hin, K, H, O]
            if self.w1 is not None:
                acs = np.stack([st["ac"] for st in ck.poses], axis=-2)  # [n, C, Hin, H, g]
                wt = wt * acs[:, :, :, None]
            dx5 = np.matmul(wt.reshape(wt.shape[:-2] + (order * o,)), e[:, None],
                            out=np.empty((n, c, hin, kk, p), dt))   # C order, for the scatters
            del wt
        const = np.zeros((n, c, hin, kk), dt)  # dL/dcols terms constant over p
        for h in range(order):
            qh = q[:, :, :, h]                                      # [n, C, Hin, O, K]
            dac = None
            if self.w1 is not None:
                ac = ck.poses[h]["ac"]
                dwb[h] = np.einsum("ncto,nctok->ctok", ac.repeat(o // g, axis=-1), qh)
                dac = np.einsum("ctok,nctok->ncto", self.wb[h], qh).reshape(
                    n, c, hin, g, -1).sum(axis=-1)
            else:
                dwb[h] = qh.sum(axis=0)
            if routes[h] is not None:
                self._route_max_x(ck, h, routes[h], dwb[h], dac, dx5)
            if dac is not None:
                self._channel_backward(ck, h, dac, dwb[h], const, dw1, dw2, dx5)
        ck.x5 = ck.xs = None
        if dx5 is not None:
            dx5 += const[..., None]
            k, stride, (pt, pb), (pl, pr) = self.geom
            y, x = gx.shape[2:]
            gp = _col2im(dx5, (n, gx.shape[1], pt + y + pb, pl + x + pr), k, stride,
                         self.yo, self.xo)
            gx[...] = gp[:, :, pt:pt + y, pl:pl + x]
        return part

    def _spatial_backward(self, ck, dh):
        """e, the alpha_X max routes and psi's cross-spectrum for dout dh [n, H, O, P]."""
        psis = self.inputs[4]
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        order, g = self.order, self.g
        prod = ck.gcs * dh[:, None]                                 # [n, Hin, H, O, P]
        dax = prod.sum(axis=3, keepdims=True) if self.pool_out else prod
        e = dh[:, None] * ck.axt
        dq = (dax * _gate_slope(ck.axt)).transpose(2, 0, 3, 1, 4)
        fdq = np.fft.rfft2(dq.reshape(order, n, g, hin, self.yo, self.xo), s=self.fshape)
        r0 = psis.shape[-1] // 2
        ds = np.fft.irfft2(fdq[:, :, :, None] * self.fpsi[:, None, None], s=self.fshape)[
            ..., r0:r0 + self.yo, r0:r0 + self.xo]                  # [H, n, g, 2, Hin, Yo, Xo]
        fcorr = (np.conj(fdq)[:, :, :, None] * ck.fs).sum(axis=(1, 2))
        dmean, dmax = ds.reshape(order, n, g, 2, hin, p).transpose(3, 1, 4, 0, 2, 5)
        e += dmean / (o * c if self.pool_out else c)
        routes = [(st["om"], st["cm"], dmax[:, :, h]) for h, st in enumerate(ck.poses)]
        return e.reshape(n, hin, order * o, p), routes, fcorr

    def _route_max_x(self, ck, h, route, dwb, dac, dx5):
        """Gradient of the alpha_X max statistic, which read the gated slice
        at (o*, c*) for every (n, t, p)."""
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        st = ck.poses[h]
        om, cm, dmax = route
        ni = np.arange(n)[:, None, None, None]
        ti = np.arange(hin)[:, None, None]
        val = dmax                                  # dL/dR at the route
        if dac is not None:
            at = _flat_index(dac.shape, ni, cm, ti, np.arange(self.g)[:, None])
            ac = np.take(st["ac"], at)
            _scatter_add(dac, at, dmax * st["mx"] / ac)
            val = dmax * ac
        # indexed per (n, t, g, k, p)
        at = (ni[..., None], cm[..., None, :], ti[..., None], om[..., None, :],
              np.arange(kk)[:, None], np.arange(p))
        self._route_back(ck, h, at, val[..., None, :], dwb, dx5)

    def _route_back(self, ck, h, at, val, dwb, dx5):
        """Send dL/dR = val at the routes R[at], at = (n, c, t, o, k, p) as
        broadcastable index arrays, into dL/dbank and dL/dcols: each (route, k)
        is one term bank[c, t, o, k] cols[n, c, t, k, p] of R."""
        ni, ci, ti, oi, ki, pi = at
        # k enters last, so only one add spans every (route, k)
        xi = _flat_index(ck.x5.shape, ni, ci, ti, 0, pi) + ki * ck.x5.shape[-1]
        wi = _flat_index(dwb.shape, ci, ti, oi, 0) + ki
        _scatter_add(dwb, wi, val * np.take(ck.x5, xi))
        if dx5 is not None:
            _scatter_add(dx5, xi, val * np.take(self.wb[h], wi))

    def _channel_backward(self, ck, h, dac, dwb, const, dw1, dw2, dx5):
        """Gate, bottleneck and statistics of alpha_C, given dL/dalpha_C."""
        n = ck.hi - ck.lo
        _, c, hin, o, kk, p = self.dims
        g, rep = self.g, o // self.g
        st = ck.poses[h]
        a = st["ac"].transpose(2, 1, 0, 3).reshape(hin, c, n * g)
        dz = dac.transpose(2, 1, 0, 3).reshape(hin, c, n * g) * _gate_slope(a)
        dv = np.concatenate((dz, dz), axis=-1)      # both branches add into z
        u = st["u"]
        dw2[h] = np.matmul(dv, np.maximum(u, 0.0).swapaxes(-1, -2))
        du = np.matmul(self.w2[h].swapaxes(-1, -2), dv) * (u > 0)
        dw1[h] = np.matmul(du, st["sb"].swapaxes(-1, -2))
        dsa, dsm = np.matmul(self.w1[h].swapaxes(-1, -2), du).reshape(
            hin, c, 2, n, g).transpose(2, 3, 1, 0, 4)               # [n, C, Hin, g] each
        # mean statistic: spread evenly over the (o, p) group it pooled
        span = rep * p
        dwb += np.einsum("nctg,nctk->ctgk", dsa, ck.xs).repeat(rep, axis=2) / span
        const += np.einsum("nctg,ctgk->nctk", dsa, self.wsum[h]) / span
        # max statistic: routed to the first (o, p) reaching it; indexed per (n, c, t, g, k)
        am = st["am"][..., None]
        at = (np.arange(n)[:, None, None, None, None], np.arange(c)[:, None, None, None],
              np.arange(hin)[:, None, None], am // p + np.arange(g)[:, None] * rep,
              np.arange(kk), am % p)
        self._route_back(ck, h, at, dsm[..., None], dwb, dx5)


def _fft_length(n):
    """The smallest 2^a 3^b 5^c >= n, a fast transform length."""
    while True:
        m = n
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        if m == 1:
            return n
        n += 1


def _first_true(mask, axis):
    """Index of the first True along `axis` (kept with extent 1)."""
    extent = mask.shape[axis]
    rank = np.arange(extent, 0, -1, dtype=np.min_scalar_type(extent))
    rank = rank.reshape((-1,) + (1,) * (mask.ndim - axis - 1))
    first = extent - (mask * rank).max(axis=axis, keepdims=True).astype(np.intp)
    return np.minimum(first, extent - 1)    # a row without True (NaN input) stays in range


def _flat_index(shape, *idx):
    """C-order flat index into an array of `shape` from broadcastable per-axis indices."""
    flat = 0
    for extent, i in zip(shape, idx):
        flat = flat * extent + i
    return flat


def _scatter_add(target, idx, val):
    """target.flat[idx] += val for a C-contiguous target, summing repeated indices."""
    if not target.flags.c_contiguous:
        raise ValueError("_scatter_add needs a C-contiguous target; a reshape would "
                         "copy it and drop the adds")
    np.add.at(target.reshape(-1), np.ravel(idx), np.ravel(val))


def attentive_group_conv(f: Tensor, layer, ch_params=None, sp_params=None,
                         pool_out=True, index_mode="relative"):
    """Group convolution with its per-pair responses modulated by attention;
    returns (output, alpha_C, alpha_X).

    Each per-pair response (output pose h, input channel c, input pose t) is
    scaled by alpha_C, then by alpha_X (computed from the channel-gated
    responses); the result is summed over input channels and poses.  A map
    whose parameters are not given is left out and returned as None; at
    least one must be given.  The whole block is one tape record.

    alpha_C is [N, C, |H|, |H_in|] ([N, O, C, |H|, |H_in|] with
    pool_out=False); alpha_X is [N, 1, |H|, |H_in|, Yo, Xo] (an out-channel
    axis in place of the 1 with pool_out=False).  The maps carry no gradient.
    """
    if ch_params is None and sp_params is None:
        raise ValueError("an attentive block needs channel or spatial attention parameters")
    _check_input(f, layer)
    grp = layer.group
    n, c, hin, y, x = f.shape
    w1g = w2g = psis = None
    if ch_params is not None:
        if (ch_params.channels, ch_params.n_poses) != (c, hin):
            raise ValueError(f"channel attention built for {ch_params.channels} channels "
                             f"and {ch_params.n_poses} poses, input has {c} and {hin}")
        kidx = _rel_index(grp, hin, index_mode).reshape(-1)
        w1g = T.gather_axis(ch_params.w1, 0, kidx)                  # [H*Hin, C/r, C]
        w2g = T.gather_axis(ch_params.w2, 0, kidx)                  # [H*Hin, C, C/r]
    if sp_params is not None:
        if sp_params.psi.shape[2] != hin:
            raise ValueError(f"input pose axis {hin} does not match attention filter "
                             f"({sp_params.psi.shape[2]})")
        psis = orbit(grp, sp_params.psi)                            # [H, 1, 2, Hin, k, k]
    flat = T.reshape(f, (n, c * hin, y, x))
    bank = filter_bank(layer)
    parents = [t for t in (flat, bank, w1g, w2g, psis) if t is not None]
    keep = T.active_tape() is not None and any(t.requires_grad for t in parents)
    kern = _PoseKernel(flat, bank, w1g, w2g, psis, grp.order, hin, layer.stride,
                       layer.padding, pool_out)
    res, alpha_c, alpha_x = kern.forward(keep)
    o = bank.shape[0] // grp.order
    out = Tensor(res.reshape(n, o, grp.order, kern.yo, kern.xo))   # a view, in res's order

    def bwd():
        kern.backward(out.grad)

    T._record(out, parents, bwd)
    ac = ax = None
    if alpha_c:
        ac = np.stack(alpha_c, axis=3)                              # [N, C, Hin, H, g]
        ac = ac[..., 0].transpose(0, 1, 3, 2) if pool_out else ac.transpose(0, 4, 1, 3, 2)
        ac = Tensor(ac)
    if alpha_x is not None:
        # [N, g, H, Hin, Yo, Xo], a copy: the record's backward reads alpha_x
        ax = Tensor(alpha_x.transpose(1, 2, 0, 3, 4, 5).copy(order="K"))
    return out, ac, ax


# ---------------------------------------------------------------------------
# input attention (single-argument form)

def _pose_conv(s, w, grp):
    """1x1 group convolution of s [N, cols, P, 1, 1] with the per-relative-pose
    matrices w [P, rows, cols]: out[n, :, h] = sum_t w[h^-1 t] s[n, :, t]."""
    p, rows, cols = w.shape
    kernel = T.reshape(T.transpose(w, (1, 2, 0)), (rows, cols, p, 1, 1))
    return group_conv(s, GConvLayer(grp, kernel))


def input_attention(f: Tensor, group, ch_params: ChannelAttentionParams,
                    sp_params: SpatialAttentionParams):
    """Gate a feature map itself before a standard group convolution; returns
    (gated map, alpha_C [N, C, Hf], alpha_X [N, 1, Hf, Y, X]).

    A map depending on one group argument stays equivariant only if every
    operator producing it is itself a group convolution, so the channel
    bottleneck here is two 1x1 group convolutions over the pose axis (with
    the per-relative-pose matrices as the kernel), applied to the mean and
    max descriptors as one batch, and the spatial branch is a full group
    convolution with the 2-channel stat filter.  Planar inputs are treated
    as carrying the trivial group, which reduces this to the familiar
    channel-then-spatial gating of a plain feature map.  The maps carry no
    gradient.
    """
    check_feature(f, group)
    n, c, hf = f.shape[:3]
    grp = group if hf == group.order else make_group("C1")

    # channel branch: pool over space, bottleneck as two pose-axis group convs
    s = T.stack([T.reduce(f, axes=(3, 4), mode=m) for m in ("mean", "max")])  # [2, N, C, Hf]
    s = T.reshape(s, (2 * n, c, hf, 1, 1))
    z = _pose_conv(T.relu(_pose_conv(s, ch_params.w1, grp)), ch_params.w2, grp)
    z = T.reduce(T.reshape(z, (2, n, c, hf, 1, 1)), axes=(0,))     # both branches add
    alpha_c = residual_gate(z)                                      # [N, C, Hf, 1, 1]
    f1 = T.mul(f, alpha_c)

    # spatial branch: 2-channel stats, gated full group convolution
    s_x = T.stack([T.reduce(f1, axes=(1,), mode=m) for m in ("mean", "max")],
                  axis=1)                                           # [N, 2, Hf, Y, X]
    alpha_x = residual_gate(group_conv(s_x, GConvLayer(grp, sp_params.psi)))
    return (T.mul(f1, alpha_x), Tensor(alpha_c.data.reshape(n, c, hf)),
            Tensor(alpha_x.data))
