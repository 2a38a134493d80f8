import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatt.tensor as T
from gatt.autodiff import Parameter, backward
from gatt.nn import StrideSubsample
from gatt.tensor import Tape, Tensor


def loop_conv2d(f, w, padding="same", stride=1):
    """Reference cross-correlation written as plain loops; no shared code.

    Besides conv2d's one geometry (same padding, stride 1) it computes a
    strided or `valid` conv, whose outputs lie on a grid of conv2d's (see
    `_grid`).
    """
    n, c, y, x = f.shape
    o, _, k, _ = w.shape
    r = k // 2
    if padding == "same":
        yo = -(-y // stride)
        xo = -(-x // stride)
        pt = max((yo - 1) * stride + k - y, 0) // 2
        pl = max((xo - 1) * stride + k - x, 0) // 2
    else:
        yo = (y - k) // stride + 1
        xo = (x - k) // stride + 1
        pt = pl = 0
    out = np.zeros((n, o, yo, xo))
    for ni in range(n):
        for oi in range(o):
            for yi in range(yo):
                for xi in range(xo):
                    acc = 0.0
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                sy = yi * stride - pt + ky
                                sx = xi * stride - pl + kx
                                if 0 <= sy < y and 0 <= sx < x:
                                    acc += float(f[ni, ci, sy, sx]) * float(w[oi, ci, ky, kx])
                    out[ni, oi, yi, xi] = acc
    return out


def _grid(extent, k, padding, stride):
    """Where a `padding`, stride-`stride` conv's outputs sit among conv2d's.

    Output i of that conv centres its window on input row first + i*stride,
    and conv2d's output row j is centred on input row j, so the strided conv
    is conv2d's output sampled on this slice.
    """
    if padding == "same":
        count = -(-extent // stride)
        first = k // 2 - max((count - 1) * stride + k - extent, 0) // 2
    else:
        count, first = (extent - k) // stride + 1, k // 2
    return slice(first, first + (count - 1) * stride + 1, stride)


def _on_grid(a, k, padding, stride):
    """The part of a conv2d output a [N, O, Y, X] that a `padding`,
    stride-`stride` conv computes."""
    return a[..., _grid(a.shape[2], k, padding, stride), _grid(a.shape[3], k, padding, stride)]


@pytest.mark.parametrize("padding,stride", [("same", 1), ("same", 2), ("same", 3),
                                            ("valid", 1), ("valid", 2)])
@pytest.mark.parametrize("size", [5, 6, 8])
def test_conv2d_matches_loop_oracle(padding, stride, size):
    # a strided or valid conv is conv2d's output on a grid: conv2d keeps
    # every window centre
    rng = np.random.default_rng(7)
    f = Tensor(rng.standard_normal((2, 3, size, size)))
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    got = _on_grid(T.conv2d(f, w).data, 3, padding, stride)
    want = loop_conv2d(f.data, w.data, padding=padding, stride=stride)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_conv2d_output_extents():
    # every filter extent is same-padded: the output keeps the input's extent
    for k in (1, 3, 5):
        for y, x in ((7, 7), (2, 9), (1, 1)):
            f = Tensor(np.zeros((2, 3, y, x)))
            assert T.conv2d(f, Tensor(np.zeros((4, 3, k, k)))).shape == (2, 4, y, x)


def test_conv2d_delta_stamps_flipped_kernel():
    # a centered unit impulse reproduces the kernel point-reflected about its center
    f = np.zeros((1, 1, 7, 7))
    f[0, 0, 3, 3] = 1.0
    w = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
    out = T.conv2d(Tensor(f), Tensor(w)).data
    np.testing.assert_array_equal(out[0, 0, 2:5, 2:5], w[0, 0, ::-1, ::-1])


def test_conv2d_commutes_with_translation():
    rng = np.random.default_rng(8)
    f = np.zeros((1, 2, 9, 9))
    f[:, :, 2:7, 2:7] = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    base = T.conv2d(Tensor(f), Tensor(w)).data
    shifted = np.roll(f, (1, 1), axis=(2, 3))
    got = T.conv2d(Tensor(shifted), Tensor(w)).data
    np.testing.assert_allclose(got, np.roll(base, (1, 1), axis=(2, 3)), atol=1e-12)


def test_conv2d_rejects_bad_inputs():
    f = Tensor(np.zeros((1, 2, 5, 5)))
    with pytest.raises(ValueError):
        T.conv2d(f, Tensor(np.zeros((1, 3, 3, 3))))  # channel mismatch
    with pytest.raises(ValueError):
        T.conv2d(f, Tensor(np.zeros((1, 2, 2, 2))))  # even kernel
    with pytest.raises(ValueError):
        T.conv2d(f, Tensor(np.zeros((1, 2, 3, 5))))  # non-square kernel
    with pytest.raises(ValueError):
        T.conv2d(f, Tensor(np.zeros((1, 2, 3, 3), dtype=np.float32)))  # dtype mix


def loop_conv2d_grads(f, w, g, padding="same", stride=1):
    """dL/df and dL/dw of loop_conv2d for an output gradient g, as plain loops."""
    n, c, y, x = f.shape
    o, _, k, _ = w.shape
    yo, xo = g.shape[2:]
    if padding == "same":
        pt = max((yo - 1) * stride + k - y, 0) // 2
        pl = max((xo - 1) * stride + k - x, 0) // 2
    else:
        pt = pl = 0
    df = np.zeros(f.shape)
    dw = np.zeros(w.shape)
    for ni in range(n):
        for oi in range(o):
            for yi in range(yo):
                for xi in range(xo):
                    gv = float(g[ni, oi, yi, xi])
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                sy = yi * stride - pt + ky
                                sx = xi * stride - pl + kx
                                if 0 <= sy < y and 0 <= sx < x:
                                    df[ni, ci, sy, sx] += gv * float(w[oi, ci, ky, kx])
                                    dw[oi, ci, ky, kx] += gv * float(f[ni, ci, sy, sx])
    return df, dw


def _conv_with_grads(f, w, g, padding, stride):
    """conv2d's output on the `padding`/`stride` grid, and its input and
    weight gradients for the output gradient g on that grid (0 elsewhere)."""
    fp = Parameter(f, dtype=f.dtype)
    wp = Parameter(w, dtype=w.dtype)
    with Tape() as tape:
        out = T.conv2d(fp, wp)
        k = w.shape[2]
        g_all = np.zeros(out.shape, f.dtype)
        _on_grid(g_all, k, padding, stride)[...] = g
        backward(tape, T.reduce(T.mul(out, Tensor(g_all))))
    return _on_grid(out.data, k, padding, stride), fp.grad, wp.grad


def _check_conv_against_loops(f, w, padding, stride, atol):
    rng = np.random.default_rng(17)
    want = loop_conv2d(f, w, padding=padding, stride=stride)
    g = rng.standard_normal(want.shape)
    out, df, dw = _conv_with_grads(f, w, g, padding, stride)
    want_df, want_dw = loop_conv2d_grads(f, w, g.astype(f.dtype), padding, stride)
    assert out.shape == want.shape and df.shape == f.shape and dw.shape == w.shape
    np.testing.assert_allclose(out, want, rtol=0, atol=atol)
    np.testing.assert_allclose(df, want_df, rtol=0, atol=atol)
    np.testing.assert_allclose(dw, want_dw, rtol=0, atol=atol)


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("size", [5, 6])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("c", [1, 5])
def test_conv2d_output_and_gradients_match_loops(padding, stride, size, k, c):
    rng = np.random.default_rng(31)
    f = rng.standard_normal((2, c, size, size + 1))
    w = rng.standard_normal((3, c, k, k))
    _check_conv_against_loops(f, w, padding, stride, atol=1e-12)


@pytest.mark.parametrize("padding,stride", [("same", 1), ("valid", 2)])
def test_conv2d_chunks_span_the_batch_with_a_ragged_last_one(monkeypatch, padding, stride):
    rng = np.random.default_rng(32)
    f = rng.standard_normal((5, 2, 7, 6))
    w = rng.standard_normal((3, 2, 3, 3))
    # columns of two samples per forward chunk: chunks of 2, 2 and 1 samples
    monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * 8 * 2 * 9 * 7 * 6)
    chunks = []
    column_chunks = T._column_chunks

    def spy(*args):
        for lo, hi, cols in column_chunks(*args):
            chunks.append(hi - lo)
            yield lo, hi, cols
    monkeypatch.setattr(T, "_column_chunks", spy)
    _check_conv_against_loops(f, w, padding, stride, atol=1e-12)
    assert chunks[:6] == [2, 2, 1] * 2     # forward, then the weight gradient
    assert max(chunks) < 5


def test_conv2d_float32_matches_loops():
    rng = np.random.default_rng(33)
    f = rng.standard_normal((3, 4, 7, 7)).astype(np.float32)
    w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
    _check_conv_against_loops(f, w, "same", 1, atol=1e-5)
    out, df, dw = _conv_with_grads(f, w, np.ones((3, 2, 7, 7)), "same", 1)
    assert out.dtype == df.dtype == dw.dtype == np.float32


def test_f32_conv2d_accumulates_in_f64():
    # a float32 conv sums its products in float64 and rounds once, so it
    # equals the float64 loop rounded to float32 bit for bit; summing in
    # float32 would round after every term
    rng = np.random.default_rng(36)
    f = rng.standard_normal((2, 24, 5, 5)).astype(np.float32)
    for k in (1, 3):
        w = rng.standard_normal((3, 24, k, k)).astype(np.float32)
        out = T.conv2d(Tensor(f), Tensor(w)).data
        assert out.dtype == np.float32
        np.testing.assert_array_equal(out, loop_conv2d(f, w).astype(np.float32))


def test_f32_conv2d_weight_gradient_accumulates_in_f64():
    # the weight gradient, like the forward, sums its products in float64 and
    # rounds once, so it equals the float64 loop's rounded to float32 bit for
    # bit; summing in float32 would round after every term
    rng = np.random.default_rng(37)
    f = rng.standard_normal((2, 24, 5, 5)).astype(np.float32)
    g = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
    for k in (1, 3):
        w = rng.standard_normal((3, 24, k, k)).astype(np.float32)
        _, _, dw = _conv_with_grads(f, w, g, "same", 1)
        assert dw.dtype == np.float32
        np.testing.assert_array_equal(dw, loop_conv2d_grads(f, w, g)[1].astype(np.float32))


@pytest.mark.parametrize("stride", [1, 2])
def test_f32_conv2d_input_gradient_runs_in_f32(monkeypatch, stride):
    # the forward's GEMM reads a float64 filter matrix, the input gradient's
    # a float32 one: an sgemm, which matches the float64 loops to float32
    # rounding
    rng = np.random.default_rng(38)
    f = rng.standard_normal((3, 6, 7, 8)).astype(np.float32)
    w = rng.standard_normal((4, 6, 3, 3)).astype(np.float32)
    gemm_dtypes = []
    correlate = T._correlate

    def recording(xp, wm, *args):
        gemm_dtypes.append(wm.dtype)
        correlate(xp, wm, *args)

    monkeypatch.setattr(T, "_correlate", recording)
    g = rng.standard_normal(_on_grid(np.empty((3, 4, 7, 8)), 3, "same", stride).shape)
    gemm_dtypes.clear()
    _, df, _ = _conv_with_grads(f, w, g, "same", stride)
    assert gemm_dtypes == [np.float64, np.float32] and df.dtype == np.float32
    want_df, _ = loop_conv2d_grads(f, w, g.astype(np.float32), "same", stride)
    np.testing.assert_allclose(df, want_df, rtol=0, atol=1e-5)


def test_conv2d_chunk_budget_is_bytes_in_the_gemm_dtype(monkeypatch):
    # CONV_CHUNK_BYTES bounds the column buffer in the dtype of the GEMM that
    # reads it, so a float32 chunk holds twice the samples of a float64 one
    xp = np.random.default_rng(39).standard_normal((9, 3, 8, 8)).astype(np.float32)
    ckk, p = 3 * 3 * 3, 6 * 6
    monkeypatch.setattr(T, "CONV_CHUNK_BYTES", 2 * 8 * ckk * p)
    sizes = {}
    for dtype in (np.float64, np.float32):
        chunks = list(T._column_chunks(xp, 3, dtype))
        assert all(cols.dtype == dtype for _, _, cols in chunks)
        sizes[dtype] = [hi - lo for lo, hi, _ in chunks]
    assert sizes[np.float64] == [2, 2, 2, 2, 1] and sizes[np.float32] == [4, 4, 1]


@pytest.mark.parametrize("stride", [1, 2])
def test_conv2d_1x1_pads_in_neither_pass(monkeypatch, stride):
    # a 1x1 filter's pads are zero: the forward and the weight gradient both
    # unfold the input itself, not a padded copy of it
    rng = np.random.default_rng(34)
    f = rng.standard_normal((3, 4, 7, 6)).astype(np.float32)
    w = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
    pads = []
    pad = T._pad
    monkeypatch.setattr(T, "_pad", lambda *args: pads.append(args) or pad(*args))
    _check_conv_against_loops(f, w, "same", stride, atol=1e-5)
    assert not pads


@pytest.mark.parametrize("size", [8, 9])
def test_stride_subsample_after_conv2d_is_the_stride2_conv(size):
    # the parity demo's stride arm: nn.StrideSubsample keeps the centres of a
    # same-padded stride-2 conv's windows, so after conv2d it is that conv,
    # forward and backward
    rng = np.random.default_rng(40)
    f = rng.standard_normal((2, 3, size, size))
    w = rng.standard_normal((4, 3, 3, 3))
    want = loop_conv2d(f, w, stride=2)
    g = rng.standard_normal(want.shape)
    fp, wp = Parameter(f, dtype="f64"), Parameter(w, dtype="f64")
    with Tape() as tape:
        out = T.reshape(T.conv2d(fp, wp), (2, 4, 1, size, size))
        sub = StrideSubsample().forward(out, None)
        backward(tape, T.reduce(T.mul(sub, Tensor(g[:, :, None]))))
    want_df, want_dw = loop_conv2d_grads(f, w, g, stride=2)
    np.testing.assert_allclose(sub.data[:, :, 0], want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fp.grad, want_df, rtol=0, atol=1e-12)
    np.testing.assert_allclose(wp.grad, want_dw, rtol=0, atol=1e-12)


def test_conv2d_tape_keeps_no_columns():
    # the record holds its operands and its output and nothing else: no
    # padded, float64 or k*k-inflated copy of the input, whether the filter
    # is 3x3 (unfolded in chunks) or 1x1 (one matmul)
    rng = np.random.default_rng(35)
    f = Parameter(rng.standard_normal((4, 3, 10, 10)), dtype="f32")
    for k in (3, 1):
        w = Parameter(rng.standard_normal((6, 3, k, k)), dtype="f32")
        with Tape() as tape:
            out = T.conv2d(f, w)
        (bwd, _), = tape.records
        held = [cell.cell_contents for cell in bwd.__closure__]
        held = [v.data if isinstance(v, Tensor) else v for v in held
                if isinstance(v, (Tensor, np.ndarray))]
        assert {id(a) for a in held} == {id(t.data) for t in (f, w, out)}


# ---------------------------------------------------------------------------
# reductions

def test_reduce_matches_numpy():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 4, 5))
    for axes in (None, (0,), (1, 2), (0, 2)):
        for keepdims in (False, True):
            got = T.reduce(Tensor(a), axes=axes, mode="sum", keepdims=keepdims).data
            np.testing.assert_allclose(got, a.sum(axis=axes, keepdims=keepdims),
                                       atol=1e-12)
            got = T.reduce(Tensor(a), axes=axes, mode="mean", keepdims=keepdims).data
            np.testing.assert_allclose(got, a.mean(axis=axes, keepdims=keepdims),
                                       atol=1e-12)
            got = T.reduce(Tensor(a), axes=axes, mode="max", keepdims=keepdims).data
            np.testing.assert_array_equal(got, a.max(axis=axes, keepdims=keepdims))


def test_reduce_empty_axes_is_identity():
    a = np.arange(6.0).reshape(2, 3)
    np.testing.assert_array_equal(T.reduce(Tensor(a), axes=()).data, a)


def test_reduce_rejects_unknown_mode():
    with pytest.raises(ValueError):
        T.reduce(Tensor(np.zeros(3)), mode="min")


def test_max_tie_routes_to_lowest_index():
    a = Parameter(np.array([[1.0, 3.0, 3.0, 2.0]]), dtype="f64")
    with Tape() as tape:
        m = T.reduce(a, axes=(1,), mode="max")
        backward(tape, m)
    np.testing.assert_array_equal(a.grad, [[0.0, 1.0, 0.0, 0.0]])


def test_max_pool_tie_routes_to_lowest_index():
    pool_in = np.zeros((1, 1, 2, 2))
    pool_in[0, 0] = [[5.0, 5.0], [5.0, 5.0]]
    p = Parameter(pool_in, dtype="f64")
    with Tape() as tape:
        out = T.max_pool2d(p)
        backward(tape, T.reduce(out))
    np.testing.assert_array_equal(p.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_mean_gradient_is_uniform():
    a = Parameter(np.arange(6.0).reshape(2, 3), dtype="f64")
    with Tape() as tape:
        backward(tape, T.reduce(a, mode="mean"))
    np.testing.assert_allclose(a.grad, np.full((2, 3), 1.0 / 6.0))


# ---------------------------------------------------------------------------
# pooling

def test_max_pool2d_matches_blocks():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((2, 3, 6, 8))
    got = T.max_pool2d(Tensor(a)).data
    want = a.reshape(2, 3, 3, 2, 4, 2).max(axis=(3, 5))
    np.testing.assert_array_equal(got, want)


def loop_max_pool2d(a, g):
    """2x2 / stride-2 max pool and its input gradient as plain loops; ties to
    the first window cell in (wy, wx) order."""
    n, c, y, x = a.shape
    out = np.zeros((n, c, y // 2, x // 2), dtype=a.dtype)
    ga = np.zeros_like(a)
    for ni in range(n):
        for ci in range(c):
            for i in range(y // 2):
                for j in range(x // 2):
                    cells = [(2 * i + wy, 2 * j + wx) for wy in range(2) for wx in range(2)]
                    best = cells[0]
                    for cell in cells[1:]:
                        if a[ni, ci][cell] > a[ni, ci][best]:
                            best = cell
                    out[ni, ci, i, j] = a[ni, ci][best]
                    ga[ni, ci][best] += g[ni, ci, i, j]
    return out, ga


@pytest.mark.parametrize("dtype", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(2, 3, 6, 8), (2, 3, 7, 9), (1, 2, 2, 3)])
def test_max_pool2d_matches_loops_with_ties_and_odd_extents(shape, dtype):
    rng = np.random.default_rng(13)
    a = Parameter(rng.integers(0, 3, shape).astype(float), dtype=dtype)   # many ties
    g = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
    with Tape() as tape:
        out = T.max_pool2d(a)
        backward(tape, T.reduce(T.mul(out, Tensor(g, dtype=dtype))))
    want, want_grad = loop_max_pool2d(a.data, g.astype(a.data.dtype))
    assert out.data.dtype == a.grad.dtype == a.data.dtype
    np.testing.assert_array_equal(out.data, want)
    np.testing.assert_array_equal(a.grad, want_grad)


def test_max_pool2d_window_too_large():
    # a 2x2 window needs two rows and two columns
    for shape in ((1, 1, 1, 4), (1, 1, 4, 1)):
        with pytest.raises(ValueError, match="extents >= 2"):
            T.max_pool2d(Tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# loss

def test_softmax_cross_entropy_matches_reference():
    rng = np.random.default_rng(15)
    z = rng.standard_normal((6, 4)) * 3.0
    labels = rng.integers(0, 4, size=6)
    got = float(T.softmax_cross_entropy(Tensor(z), labels).data)
    # independent log-sum-exp evaluation
    lse = np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1)) \
        + z.max(axis=1)
    want = float(np.mean(lse - z[np.arange(6), labels]))
    assert got == pytest.approx(want, abs=1e-12)


def test_softmax_cross_entropy_uniform_logits():
    z = np.zeros((3, 5))
    got = float(T.softmax_cross_entropy(Tensor(z), [0, 1, 2]).data)
    assert got == pytest.approx(np.log(5.0), abs=1e-12)


def test_softmax_cross_entropy_grad_sums_to_zero():
    z = Parameter(np.random.default_rng(16).standard_normal((4, 3)), dtype="f64")
    with Tape() as tape:
        backward(tape, T.softmax_cross_entropy(z, [0, 1, 2, 0]))
    np.testing.assert_allclose(z.grad.sum(axis=1), np.zeros(4), atol=1e-12)


def test_softmax_cross_entropy_rejects_rank3():
    with pytest.raises(ValueError):
        T.softmax_cross_entropy(Tensor(np.zeros((2, 3, 4))), [0, 1])


# ---------------------------------------------------------------------------
# misc semantics

def test_relu_subgradient_at_zero_is_zero():
    # -0.0 and NaN map to +0.0 with gradient 0, like 0.0
    a = Parameter(np.array([-1.0, 0.0, 2.0, -0.0, np.nan]), dtype="f64")
    with Tape() as tape:
        out = T.relu(a)
        backward(tape, T.reduce(out))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0, 0.0, 0.0])
    assert not np.signbit(out.data).any()
    np.testing.assert_array_equal(a.grad, [0.0, 0.0, 1.0, 0.0, 0.0])


def test_sigmoid_values():
    a = Tensor(np.array([0.0, 100.0, -100.0]))
    s = T.sigmoid(a).data
    assert s[0] == 0.5 and s[1] == pytest.approx(1.0) and s[2] == pytest.approx(0.0)


def test_gather_axis_repeats_and_scatter_adds():
    a = Parameter(np.array([1.0, 2.0, 3.0]), dtype="f64")
    with Tape() as tape:
        g = T.gather_axis(a, 0, [0, 0, 2])
        backward(tape, T.reduce(g))
    np.testing.assert_array_equal(g.data, [1.0, 1.0, 3.0])
    np.testing.assert_array_equal(a.grad, [2.0, 0.0, 1.0])


def test_gather_axis_index_axes_replace_the_gathered_axis():
    a = Parameter(np.arange(6.0).reshape(2, 3), dtype="f64")
    idx = np.array([[0, 2], [2, 2]])
    w = np.arange(8.0).reshape(2, 2, 2)
    with Tape() as tape:
        g = T.gather_axis(a, 1, idx)
        backward(tape, T.reduce(T.mul(g, Tensor(w))))
    np.testing.assert_array_equal(g.data, a.data[:, idx])
    want = np.zeros((2, 3))
    for i in range(2):
        for j in range(2):
            want[:, idx[i, j]] += w[:, i, j]
    np.testing.assert_array_equal(a.grad, want)


def test_stack_shapes():
    a = Tensor(np.ones((2, 3)))
    assert T.stack([a, a], axis=0).shape == (2, 2, 3)


def test_tensor_dtype_coercion():
    assert Tensor(np.arange(3)).dtype == "f64"  # ints become f64
    assert Tensor(np.arange(3), dtype="f32").dtype == "f32"
    assert Tensor(np.float32([1.0])).dtype == "f32"


def test_add_dtype_mismatch_rejected():
    with pytest.raises(ValueError):
        T.add(Tensor(np.zeros(2, dtype=np.float32)), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# tape mechanics

def test_tape_only_records_when_grad_required():
    with Tape() as tape:
        T.add(Tensor(np.ones(2)), Tensor(np.ones(2)))
        assert len(tape.records) == 0
        T.add(Parameter(np.ones(2), dtype="f64"), Tensor(np.ones(2)))
        assert len(tape.records) == 1


def test_no_tape_no_recording():
    out = T.mul(Parameter(np.ones(2), dtype="f64"), Tensor(np.ones(2)))
    assert out.requires_grad is False


def test_backward_requires_scalar():
    a = Parameter(np.ones(3), dtype="f64")
    with Tape() as tape:
        out = T.mul(a, a)
        with pytest.raises(ValueError):
            backward(tape, out)


def test_gradient_accumulates_across_uses():
    a = Parameter(np.array([2.0]), dtype="f64")
    with Tape() as tape:
        backward(tape, T.reduce(T.add(T.mul(a, a), a)))
    np.testing.assert_array_equal(a.grad, [5.0])  # 2a + 1


def test_unused_branch_gets_no_gradient():
    a = Parameter(np.ones(2), dtype="f64")
    b = Parameter(np.ones(2), dtype="f64")
    with Tape() as tape:
        T.mul(b, b)  # recorded but not part of the loss
        backward(tape, T.reduce(a))
    assert b.grad is None


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2))
def test_broadcast_add_grad_shapes(n, m, kind):
    # gradients always come back in the parameter's own shape; since the loss
    # is a plain sum, each entry's gradient is its broadcast multiplicity
    rng = np.random.default_rng(17)
    a = Parameter(rng.standard_normal((n, m)), dtype="f64")
    b_shape = [(1, m), (n, 1), (m,)][kind]
    b = Parameter(rng.standard_normal(b_shape), dtype="f64")
    with Tape() as tape:
        backward(tape, T.reduce(T.add(a, b)))
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape
    np.testing.assert_array_equal(a.grad, np.ones((n, m)))
    mult = n if kind != 1 else m
    np.testing.assert_array_equal(b.grad, np.full(b_shape, float(mult)))
