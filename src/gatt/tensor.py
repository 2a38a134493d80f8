"""Dense float tensors with reverse-mode differentiation on an explicit tape.

A ``Tensor`` wraps a numpy array (float32 or float64) together with an
optional gradient buffer.  Differentiable operations append a record to the
currently active ``Tape``; because records are appended in execution order,
the record list is already a topological order of the data-flow graph and
``gatt.autodiff.backward`` simply pops it, in reverse.  Each record and its
output's intermediate gradient are freed as soon as the record has run, so
a tape is consumed by one backward.

conv2d is the one planar convolution, with an optional bias.  It works on
chunked im2col columns, so no k*k-inflated copy of the batch is allocated
or kept on the tape, and its record keeps the unpadded input, not a padded
float64 copy; its input gradient is a transposed convolution.  max_pool2d
pools fixed 2x2 windows at stride 2.  batch_norm is one record with a
closed-form backward.  relu reads its backward mask from its output, and
max_pool2d keeps its window offsets as uint8.

Numerical conventions, fixed for reproducibility:

* conv2d / bmm accumulate in float64 internally regardless of the
  storage dtype, then cast back.  With identical inputs this makes results
  bit-reproducible across runs at a fixed BLAS thread count.  A threaded
  GEMM may sum in another order; casting back to float32 storage rounds
  that away in practice, float64 storage keeps it.  conv2d's input
  gradient sums in another order than a col2im scatter would, so it is not
  bit-identical to one (about 1e-14 apart in float64).
* batch_norm's forward repeats the composed elementwise ops in the storage
  dtype, op for op, so its output is bit-identical to the composition.
* reductions use numpy's deterministic reduction kernels; ``max`` ties are
  resolved to the lowest flat index, which also fixes gradient routing.
* relu'(0) = 0.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPES = {"f32": np.float32, "f64": np.float64}
DTYPE_TAGS = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class Tape:
    """Record of executed differentiable ops, consumed by one backward.

    Usable as a context manager; while active, ops on tensors with
    ``requires_grad`` append ``(backward_fn, out)`` pairs.
    ``gatt.autodiff.backward`` pops the pairs as it runs them and then marks
    the tape ``consumed``.
    """

    def __init__(self):
        self.records = []
        self.consumed = False

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False


_TAPE_STACK: list[Tape] = []


def active_tape():
    return _TAPE_STACK[-1] if _TAPE_STACK else None


class Tensor:
    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, dtype=None, requires_grad=False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(DTYPES.get(dtype, dtype), copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return DTYPE_TAGS[self.data.dtype]

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"

def _accumulate(t, g, owned=False):
    """Add the gradient g (t's shape, any float dtype) into t.grad.

    The first gradient is assigned, not added to zeros.  It becomes t.grad
    itself only if the caller `owned` g: computed it just now, and nothing
    else refers to it.  Otherwise it is copied, so no .grad ever shares
    memory with an out.grad or with another tensor's .grad.
    """
    dtype = t.data.dtype
    if t.grad is not None:
        t.grad += np.asarray(g, dtype=dtype)
    elif owned:
        t.grad = np.asarray(g, dtype=dtype, order="C")
    else:
        t.grad = np.array(g, dtype=dtype, order="C")


def _record(out, parents, backward_fn):
    """Mark `out` as requiring grad and put `backward_fn` on the active tape."""
    tape = active_tape()
    if tape is None or not any(p.requires_grad for p in parents):
        return
    out.requires_grad = True
    tape.records.append((backward_fn, out))


def _unbroadcast(g, shape):
    """Reduce a broadcasted gradient back down to `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_same_dtype(a, b):
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"dtype mismatch: {a.dtype} vs {b.dtype}")


# ---------------------------------------------------------------------------
# elementwise ops

def add(a, b):
    _check_same_dtype(a, b)
    out = Tensor(a.data + b.data)

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    _record(out, (a, b), bwd)
    return out


def sub(a, b):
    _check_same_dtype(a, b)
    out = Tensor(a.data - b.data)

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(g, b.shape), owned=True)

    _record(out, (a, b), bwd)
    return out


def mul(a, b):
    _check_same_dtype(a, b)
    out = Tensor(a.data * b.data)

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape), owned=True)

    _record(out, (a, b), bwd)
    return out


def div(a, b):
    _check_same_dtype(a, b)
    out = Tensor(a.data / b.data)

    def bwd():
        g = out.grad
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape), owned=True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
                        owned=True)

    _record(out, (a, b), bwd)
    return out


def relu(a):
    # relu'(0) = 0 by convention; out > 0 exactly where a > 0, so the
    # backward reads its mask from the output instead of keeping one
    out = Tensor(np.where(a.data > 0, a.data, a.data.dtype.type(0)))

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad * (out.data > 0), owned=True)

    _record(out, (a,), bwd)
    return out


def _logistic(z, eps=None):
    """1 / (1 + exp(-z)) via tanh, clipped to [eps, 1 - eps].

    eps defaults to the dtype's epsneg (2^-53 in float64, 2^-24 in float32),
    the smallest clip at which neither s nor 1 - s rounds to 0 or 1.
    """
    half = z.dtype.type(0.5)
    s = half * (np.tanh(half * z) + z.dtype.type(1.0))
    if eps is None:
        eps = np.finfo(z.dtype).epsneg
    return np.clip(s, eps, 1 - eps)


def sigmoid(a):
    """Logistic function, strictly inside (0, 1) even where it saturates."""
    s = _logistic(a.data)
    out = Tensor(s)

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad * s * (1.0 - s), owned=True)

    _record(out, (a,), bwd)
    return out


def sqrt(a):
    r = np.sqrt(a.data)
    out = Tensor(r)

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad / (2.0 * r), owned=True)

    _record(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# reductions

def _norm_axes(axes, ndim):
    if axes is None:
        axes = tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(sorted(a % ndim for a in axes))


def reduce(a, axes=None, mode="sum", keepdims=False):
    """Reduce over `axes` with mode in {sum, mean, max}.

    An empty axis tuple is the identity.  Max ties route gradient to the
    lowest flat index of the reduced block.
    """
    if mode not in ("sum", "mean", "max"):
        raise ValueError(f"unknown reduce mode {mode!r}")
    axes = _norm_axes(axes, a.ndim)
    if mode == "sum":
        out = Tensor(a.data.sum(axis=axes, keepdims=keepdims))

        def bwd():
            if a.requires_grad:
                g = out.grad
                if not keepdims:
                    g = np.expand_dims(g, axes)
                _accumulate(a, np.broadcast_to(g, a.shape))

        _record(out, (a,), bwd)
        return out

    if mode == "mean":
        count = int(np.prod([a.shape[i] for i in axes]))
        out = Tensor(a.data.mean(axis=axes, keepdims=keepdims))

        def bwd():
            if a.requires_grad:
                g = out.grad
                if not keepdims:
                    g = np.expand_dims(g, axes)
                _accumulate(a, np.broadcast_to(g, a.shape) / a.data.dtype.type(count),
                            owned=True)

        _record(out, (a,), bwd)
        return out

    # max: move reduced axes last, flatten, argmax picks the first maximum
    kept = tuple(i for i in range(a.ndim) if i not in axes)
    perm = kept + axes
    moved = a.data.transpose(perm)
    outer = moved.shape[:len(kept)]
    flat = moved.reshape(outer + (-1,))
    idx = flat.argmax(axis=-1)
    vals = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    out_data = np.expand_dims(vals, axes) if keepdims else vals
    out = Tensor(out_data.copy())

    def bwd_max():
        if a.requires_grad:
            g = out.grad
            if keepdims:
                g = g.reshape(vals.shape)
            gflat = np.zeros_like(flat)
            np.put_along_axis(gflat, idx[..., None], g[..., None], axis=-1)
            gmoved = gflat.reshape(moved.shape)
            inv = np.argsort(perm)
            _accumulate(a, gmoved.transpose(inv), owned=True)

    _record(out, (a,), bwd_max)
    return out


# ---------------------------------------------------------------------------
# normalization

def batch_norm(t, gamma, beta, axes, eps, stats=None):
    """(t - mean) / sqrt(var + eps) * gamma + beta as one tape record.

    mean and the biased variance run over `axes`: the batch's own with
    stats=None (training), else the constants stats = (mean, var) (eval).
    gamma, beta and the stats hold one value per position of the kept axes.
    Returns (out, mean, var), the moments as arrays of t's rank.  The forward
    repeats the composed ops in t's dtype, op for op (the oracle is
    gatt.verify.reference_batch_norm); the backward is closed-form.
    """
    axes = _norm_axes(axes, t.ndim)
    kshape = tuple(1 if i in axes else s for i, s in enumerate(t.shape))
    dtype = t.data.dtype
    if stats is None:
        mean = t.data.mean(axis=axes, keepdims=True)
        diff = t.data - mean
        var = (diff * diff).mean(axis=axes, keepdims=True)
    else:
        mean, var = (np.asarray(s, dtype=dtype).reshape(kshape) for s in stats)
        diff = t.data - mean
    std = np.sqrt(var + dtype.type(eps))
    xhat = diff / std
    del diff
    g_k = gamma.data.reshape(kshape)
    out = Tensor(xhat * g_k + beta.data.reshape(kshape))

    def bwd():
        g = out.grad
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=axes).reshape(beta.shape), owned=True)
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=axes).reshape(gamma.shape), owned=True)
        if t.requires_grad:
            dxhat = g * g_k
            if stats is None:   # mean and var depend on t too
                proj = (dxhat * xhat).mean(axis=axes, keepdims=True)
                dxhat -= dxhat.mean(axis=axes, keepdims=True)
                dxhat -= xhat * proj
            dxhat /= std
            _accumulate(t, dxhat, owned=True)

    _record(out, (t, gamma, beta), bwd)
    return out, mean, var


# ---------------------------------------------------------------------------
# shape manipulation

def reshape(a, shape):
    out = Tensor(a.data.reshape(shape))

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad.reshape(a.shape))

    _record(out, (a,), bwd)
    return out


def transpose(a, axes):
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes).copy())
    inv = tuple(np.argsort(axes))

    def bwd():
        if a.requires_grad:
            _accumulate(a, out.grad.transpose(inv))

    _record(out, (a,), bwd)
    return out


def stack(parts, axis=0):
    parts = list(parts)
    out = Tensor(np.stack([p.data for p in parts], axis=axis))

    def bwd():
        g = np.moveaxis(out.grad, axis, 0)
        for i, p in enumerate(parts):
            if p.requires_grad:
                _accumulate(p, g[i])

    _record(out, tuple(parts), bwd)
    return out


def gather_axis(a, axis, idx):
    """General (possibly repeating) gather along `axis`; backward scatter-adds.

    As in np.take, the axes of `idx` replace `axis` in the output.  Repeated
    indices receive their gradients in the C order of `idx`.
    """
    axis = axis % a.ndim
    idx = np.asarray(idx, dtype=np.intp)
    out = Tensor(np.take(a.data, idx, axis=axis))
    idx_axes = list(range(idx.ndim))

    def bwd():
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            g = np.moveaxis(out.grad, [axis + i for i in idx_axes], idx_axes)
            # np.add.at is many times faster with a 1-D index than with an n-D one
            np.add.at(np.moveaxis(ga, axis, 0), idx.reshape(-1),
                      g.reshape((idx.size,) + g.shape[idx.ndim:]))
            _accumulate(a, ga, owned=True)

    _record(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# batched matrix product (float64 accumulation)

def bmm(a, b):
    """Batched matmul [..., M, K] @ [..., K, N]; batch axes broadcast."""
    _check_same_dtype(a, b)
    a64 = a.data.astype(np.float64, copy=False)
    b64 = b.data.astype(np.float64, copy=False)
    out = Tensor(np.matmul(a64, b64).astype(a.data.dtype))

    def bwd():
        g = out.grad.astype(np.float64, copy=False)
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b64, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.shape), owned=True)
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a64, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.shape), owned=True)

    _record(out, (a, b), bwd)
    return out


# ---------------------------------------------------------------------------
# spatial ops

def _pad_amounts(extent, k, stride, padding):
    if padding == "valid":
        if extent < k:
            raise ValueError(f"valid conv needs extent >= kernel ({extent} < {k})")
        return 0, 0, (extent - k) // stride + 1
    if padding == "same":
        out = -(-extent // stride)
        total = max((out - 1) * stride + k - extent, 0)
        return total // 2, total - total // 2, out
    raise ValueError(f"unknown padding {padding!r}")


def _conv_geometry(f, w, padding, stride):
    """Check conv operands; return k and the (before, after, out) pad triples of Y and X."""
    _check_same_dtype(f, w)
    if f.ndim != 4 or w.ndim != 4:
        raise ValueError("conv2d expects f [N,C,Y,X] and w [O,C,k,k]")
    if f.shape[1] != w.shape[1]:
        raise ValueError(f"channel mismatch: input {f.shape[1]} vs filter {w.shape[1]}")
    if w.shape[2] != w.shape[3] or w.shape[2] % 2 == 0:
        raise ValueError(f"kernel must be odd and square, got {w.shape[2]}x{w.shape[3]}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    k = w.shape[2]
    return (k, _pad_amounts(f.shape[2], k, stride, padding),
            _pad_amounts(f.shape[3], k, stride, padding))


def _pad64(a, pads_y, pads_x):
    """a [N, C, Y, X] zero-padded by (before, after) pairs, as a new float64 array."""
    n, c, y, x = a.shape
    (pt, pb), (pl, pr) = pads_y, pads_x
    out = np.zeros((n, c, pt + y + pb, pl + x + pr))
    out[:, :, pt:pt + y, pl:pl + x] = a
    return out


# float64 bytes of the column buffer conv2d fills per chunk of whole samples
CONV_CHUNK_BYTES = 2 << 20
# float64 bytes of the per-pose response slice [nb, C, |H_in|, O, Y*X] the
# attentive block (gatt.attention) holds per chunk of whole samples
POSE_CHUNK_BYTES = 8 << 20


def _correlate(xp, wm, k, stride, yo, xo, out):
    """out[n] = wm @ im2col(xp[n]): a float64 cross-correlation in chunks.

    xp is the padded float64 input [N, C, Yp, Xp] and wm the filter matrix
    [O, C*k*k]; out [N, O, Yo, Xo] receives the result in its own dtype.
    Each chunk of whole samples is unfolded into one reused buffer of at
    most CONV_CHUNK_BYTES (one sample if a sample is larger) as a
    [C*k*k, nb*Yo*Xo] matrix and takes a single GEMM.
    """
    o = wm.shape[0]
    for lo, hi, cols in _column_chunks(xp, k, stride, yo, xo):
        res = np.matmul(wm, cols).reshape(o, hi - lo, yo, xo)
        out[lo:hi] = res.transpose(1, 0, 2, 3)


def _column_chunks(xp, k, stride, yo, xo):
    """Yield (lo, hi, cols): samples [lo, hi) of xp unfolded to [C*k*k, (hi-lo)*Yo*Xo]."""
    n, c = xp.shape[:2]
    ckk, p = c * k * k, yo * xo
    nb = max(1, min(n, CONV_CHUNK_BYTES // (8 * ckk * p)))
    buf = np.empty(ckk * nb * p)
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    win = win.transpose(1, 4, 5, 0, 2, 3)                          # [C, k, k, N, Yo, Xo]
    for lo in range(0, n, nb):
        hi = min(n, lo + nb)
        cols = buf[:ckk * (hi - lo) * p].reshape(c, k, k, hi - lo, yo, xo)
        np.copyto(cols, win[:, :, :, lo:hi])
        yield lo, hi, cols.reshape(ckk, (hi - lo) * p)


def conv2d(f, w, padding="same", stride=1, bias=None):
    """Channel-summing cross-correlation: out(y) = sum_c sum_x f_c(x) w_c(x - y),
    plus a bias.

    `same` zero-pads to ceil(extent / stride) outputs; `valid` takes only fully
    covered positions.  `bias`, if given, is a vector of B values with B
    dividing the O output rows: entry b is added to the block of O/B
    consecutive rows b*O/B .. (b+1)*O/B - 1, in the storage dtype.
    Accumulation runs in float64 over chunked columns (see `_correlate`);
    the tape keeps only the unpadded input f, which the previous record
    already holds.  The weight gradient pads f again and recomputes each
    chunk's columns; the input gradient is a transposed convolution: the
    output gradient, dilated by the stride and padded so that the result
    lands on the input's extent, is correlated with the flipped,
    channel-transposed filter.
    """
    k, (pt, pb, yo), (pl, pr, xo) = _conv_geometry(f, w, padding, stride)
    n, c, y, x = f.shape
    o = w.shape[0]
    parents = (f, w)
    if bias is not None:
        _check_same_dtype(f, bias)
        if bias.ndim != 1 or o % bias.shape[0]:
            raise ValueError(f"bias of shape {bias.shape} does not divide {o} output rows")
        parents = (f, w, bias)
    blocks = (n, 1 if bias is None else bias.shape[0], -1, yo, xo)
    out = Tensor(np.empty((n, o, yo, xo), dtype=f.data.dtype))
    _correlate(_pad64(f.data, (pt, pb), (pl, pr)),
               w.data.astype(np.float64).reshape(o, c * k * k), k, stride, yo, xo, out.data)
    if bias is not None:
        rows = out.data.reshape(blocks)
        rows += bias.data[:, None, None, None]

    def bwd():
        g = out.grad
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g.reshape(blocks).sum(axis=(0, 2, 3, 4)), owned=True)
        if w.requires_grad:
            gw = np.zeros((o, c * k * k))
            for lo, hi, cols in _column_chunks(_pad64(f.data, (pt, pb), (pl, pr)), k,
                                               stride, yo, xo):
                gc = np.ascontiguousarray(g[lo:hi].transpose(1, 0, 2, 3), dtype=np.float64)
                gw += gc.reshape(o, -1) @ cols.T
            _accumulate(w, gw.reshape(w.shape), owned=True)
        if f.requires_grad:
            # output row i feeds padded input rows i*stride .. i*stride+k-1; the
            # input's row r sits at padded row r+pt, so k-1-pt leading zeros put
            # the taps of input row r at rows r .. r+k-1 of the dilated gradient
            ty, tx = k - 1 - pt, k - 1 - pl
            gd = np.zeros((n, o, y + k - 1, x + k - 1))
            gd[:, :, ty:ty + (yo - 1) * stride + 1:stride,
               tx:tx + (xo - 1) * stride + 1:stride] = g
            wt = w.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).astype(np.float64)
            gf = np.empty(f.shape, dtype=f.data.dtype)
            _correlate(gd, wt.reshape(c, o * k * k), k, 1, y, x, gf)
            _accumulate(f, gf, owned=True)

    _record(out, parents, bwd)
    return out


def max_pool2d(f):
    """2x2 max pooling at stride 2; an odd last row or column is dropped.

    Ties go to the first index of the window in (wy, wx) order.
    """
    if f.ndim != 4:
        raise ValueError("max_pool2d expects [N,C,Y,X]")
    n, c, y, x = f.shape
    yo, xo = y // 2, x // 2
    if yo == 0 or xo == 0:
        raise ValueError(f"2x2 pooling needs extents >= 2, got {(y, x)}")

    def windows(a):     # [N, C, Yo, Xo, 2, 2] view of the covered part of a
        return a[:, :, :2 * yo, :2 * xo].reshape(n, c, yo, 2, xo, 2).transpose(0, 1, 2, 4, 3, 5)

    flat = windows(f.data).reshape(n, c, yo, xo, 4)
    idx = flat.argmax(axis=-1)[..., None].astype(np.uint8)     # window offsets 0-3
    out = Tensor(np.take_along_axis(flat, idx, axis=-1)[..., 0])

    def bwd():
        if f.requires_grad:
            g = np.zeros((n, c, yo, xo, 4), dtype=f.data.dtype)
            np.put_along_axis(g, idx, out.grad[..., None], axis=-1)
            gf = np.zeros_like(f.data)
            windows(gf)[...] = g.reshape(n, c, yo, xo, 2, 2)
            _accumulate(f, gf, owned=True)

    _record(out, (f,), bwd)
    return out


# ---------------------------------------------------------------------------
# loss

def softmax_cross_entropy(logits, labels):
    """Mean softmax cross-entropy over the batch; labels are int class ids."""
    if logits.ndim != 2:
        raise ValueError("softmax_cross_entropy expects logits [N, K]")
    labels = np.asarray(labels)
    n = logits.shape[0]
    z = logits.data.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(n), labels] - np.log(e.sum(axis=1)))
    out = Tensor(np.asarray(nll.mean(), dtype=logits.data.dtype))

    def bwd():
        if logits.requires_grad:
            g = p.copy()
            g[np.arange(n), labels] -= 1.0
            _accumulate(logits, float(out.grad) * g / n, owned=True)

    _record(out, (logits,), bwd)
    return out
