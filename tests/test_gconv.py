import numpy as np
import pytest

import gatt.tensor as T
from gatt.attention import (attentive_group_conv, input_attention, make_channel_attention,
                            make_spatial_attention)
from gatt.autodiff import Parameter, new_rng
from gatt.gconv import GConvLayer, filter_bank, group_conv, group_pool, make_gconv_layer
from gatt.groups import (AffineElement, compose_affine, invert_affine, make_group,
                         orbit_index, transform_array)
from gatt.nn import StrideSubsample
from gatt.tensor import Tensor
from gatt.verify import conv_oracle_report, intermediate_responses, naive_group_conv


def _feature(arr):
    return Tensor(np.ascontiguousarray(arr))


# ---------------------------------------------------------------------------
# degenerate group: everything collapses to a plain convolution

def test_c1_lift_is_plain_conv2d():
    grp = make_group("C1")
    rng = new_rng(0)
    layer = make_gconv_layer(rng, grp, 2, 3, kernel=3, lifting=True, dtype="f64")
    x = new_rng(1).standard_normal((2, 2, 6, 6))
    out = group_conv(_feature(x[:, :, None]), layer).data
    want = T.conv2d(Tensor(x), T.reshape(layer.weight, (3, 2, 3, 3))).data
    np.testing.assert_array_equal(out[:, :, 0], want)


def test_c1_group_layer_degenerates_to_lifting():
    # with a trivial pose axis, "group-to-group" and lifting coincide and the
    # result is a plain conv
    grp = make_group("C1")
    rng = new_rng(2)
    layer = make_gconv_layer(rng, grp, 2, 3, kernel=3, lifting=False, dtype="f64")
    assert layer.weight.shape[2] == 1
    x = new_rng(3).standard_normal((1, 2, 1, 5, 5))
    out = group_conv(_feature(x), layer).data
    want = T.conv2d(Tensor(x[:, :, 0]), T.reshape(layer.weight, (3, 2, 3, 3))).data
    np.testing.assert_array_equal(out[:, :, 0], want)


# ---------------------------------------------------------------------------
# equivariance of single layers (exact: index permutation + shared padding)

@pytest.mark.parametrize("group_name", ["C2", "C4", "D4"])
def test_lift_conv_equivariance(group_name):
    grp = make_group(group_name)
    layer = make_gconv_layer(new_rng(4), grp, 2, 3, kernel=3, lifting=True,
                             dtype="f64")
    x = new_rng(5).standard_normal((2, 2, 7, 7))
    base = group_conv(_feature(x[:, :, None]), layer).data
    for h in range(grp.order):
        xt = transform_array(grp, h, x)
        got = group_conv(_feature(xt[:, :, None]), layer).data
        want = transform_array(grp, h, base, pose_axes=(2,))
        np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("group_name", ["C2", "C4", "D4"])
def test_group_conv_equivariance(group_name):
    grp = make_group(group_name)
    layer = make_gconv_layer(new_rng(6), grp, 2, 3, kernel=3, dtype="f64")
    x = new_rng(7).standard_normal((1, 2, grp.order, 7, 7))
    base = group_conv(_feature(x), layer).data
    for h in range(grp.order):
        xt = transform_array(grp, h, x, pose_axes=(2,))
        got = group_conv(_feature(xt), layer).data
        want = transform_array(grp, h, base, pose_axes=(2,))
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# the double-sum cross-check (small cases; the wide sweep runs in acceptance)

@pytest.mark.parametrize("group_name,lifting", [("C4", True), ("C4", False),
                                                ("D4", False)])
def test_gconv_matches_double_sum(group_name, lifting):
    grp = make_group(group_name)
    layer = make_gconv_layer(new_rng(8), grp, 2, 2, kernel=3, lifting=lifting,
                             dtype="f64")
    hin = 1 if lifting else grp.order
    x = new_rng(9).standard_normal((1, 2, hin, 5, 5))
    got = group_conv(_feature(x), layer).data
    want = naive_group_conv(x, grp, layer.weight.data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def _centres(extent, k, padding, stride):
    """Input rows on which a `padding`, stride-`stride` conv centres its windows."""
    if padding == "same":
        count = -(-extent // stride)
        first = k // 2 - max((count - 1) * stride + k - extent, 0) // 2
    else:
        count, first = (extent - k) // stride + 1, k // 2
    return first + stride * np.arange(count)


def test_gconv_stride2_matches_double_sum():
    # the parity demo's stride arm, a group conv then StrideSubsample, is the
    # literal double sum at the centres of a same-padded stride-2 conv
    grp = make_group("C4")
    layer = make_gconv_layer(new_rng(10), grp, 2, 2, kernel=3, dtype="f64")
    for size in (6, 7):
        x = new_rng(11).standard_normal((1, 2, 4, size, size))
        got = StrideSubsample().forward(group_conv(_feature(x), layer), None).data
        c = _centres(size, 3, "same", 2)
        want = naive_group_conv(x, grp, layer.weight.data)[..., c[:, None], c]
        assert got.shape == want.shape == (1, 2, 4, len(c), len(c))
        np.testing.assert_allclose(got, want, atol=1e-12)


def _per_term_output(x, grp, w, h, cy, cx):
    """out[:, :, h] of the correlation at the window centre (cy, cx), one
    invert_affine / compose_affine call per term of the double sum."""
    _, _, hin, ysz, xsz = x.shape
    r = w.shape[-1] // 2
    ginv = invert_affine(grp, AffineElement((cy, cx), h))
    total = np.zeros((x.shape[0], w.shape[0]))
    for t in range(hin):
        for ty in range(ysz):
            for tx in range(xsz):
                rel = compose_affine(grp, ginv, AffineElement((ty, tx), t))
                du, dv = rel.x
                if abs(du) <= r and abs(dv) <= r:
                    total += x[:, :, t, ty, tx] @ w[:, :, rel.h if hin > 1 else 0,
                                                    du + r, dv + r].T
    return total


@pytest.mark.parametrize("group_name", ["C4", "D4"])
@pytest.mark.parametrize("lifting,stride,padding", [
    (True, 1, "same"), (False, 1, "same"), (False, 2, "same"), (False, 1, "valid")],
    ids=["lift", "group", "stride2", "valid"])
def test_naive_group_conv_matches_per_term_sum(group_name, lifting, stride, padding):
    # the array-evaluated oracle against its own definition, term by term, at
    # the first and last and a few sampled window centres of a conv of the
    # given geometry: every one is an output of the stride-1 same oracle
    grp = make_group(group_name)
    rng = new_rng(30)
    hin = 1 if lifting else grp.order
    w = rng.standard_normal((2, 3, hin, 3, 3))
    x = rng.standard_normal((2, 3, hin, 6, 6))
    out = naive_group_conv(x, grp, w)
    assert out.shape == (2, 2, grp.order, 6, 6)
    c = _centres(6, 3, padding, stride)
    samples = [(0, 0, 0), (grp.order - 1, len(c) - 1, len(c) - 1)] + [
        tuple(int(rng.integers(e)) for e in (grp.order, len(c), len(c))) for _ in range(4)]
    for h, i, j in samples:
        want = _per_term_output(x, grp, w, h, c[i], c[j])
        np.testing.assert_allclose(out[:, :, h, c[i], c[j]], want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("lifting", [True, False])
def test_group_conv_records_only_reshape_gather_and_conv2d(lifting):
    # the (o, h) bank puts the output in [N, O, |H|, Y, X] order, so no
    # transpose copies the output
    grp = make_group("D4")
    layer = make_gconv_layer(new_rng(19), grp, 2, 3, lifting=lifting)
    f = Parameter(np.ones((1, 2, 1 if lifting else grp.order, 5, 5)), dtype="f32")
    with T.Tape() as tape:
        group_conv(f, layer)
    ops = {fn.__qualname__.split(".")[0] for fn, _ in tape.records}
    assert ops == {"reshape", "gather_axis", "conv2d"}


def test_conv_oracle_flags_inverted_filter_orbit(monkeypatch):
    # negative control: transforming every filter by the inverse element is
    # a G-CNN with the wrong action, which the oracle must reject
    monkeypatch.setattr("gatt.gconv.orbit_index",
                        lambda grp, shape: orbit_index(grp, shape)[grp.inverse])
    assert not conv_oracle_report()["pass"]


# ---------------------------------------------------------------------------
# filter bank and per-pair responses

def test_filter_bank_shape_and_identity_block():
    grp = make_group("C4")
    layer = make_gconv_layer(new_rng(12), grp, 3, 2, kernel=3, dtype="f64")
    bank = filter_bank(layer).data
    assert bank.shape == (2 * 4, 3 * 4, 3, 3)
    # rows are (o, h): rows 0::|H| (h = 0) are the untransformed filters
    np.testing.assert_array_equal(bank[0::4], layer.weight.data.reshape(2, 12, 3, 3))


def test_filter_bank_is_a_fixed_number_of_records():
    # the whole orbit of the filter is gathered at once, whatever the group
    counts = set()
    for name in ("C1", "C4", "D4"):
        for lifting in (True, False):
            layer = make_gconv_layer(new_rng(13), make_group(name), 2, 3, lifting=lifting,
                                     dtype="f64")
            with T.Tape() as tape:
                filter_bank(layer)
            counts.add(len(tape.records))
    assert len(counts) == 1 and counts.pop() <= 3


def test_intermediate_responses_sum_reproduces_layer():
    grp = make_group("D4")
    layer = make_gconv_layer(new_rng(13), grp, 3, 2, kernel=3, dtype="f64")
    x = new_rng(14).standard_normal((2, 3, 8, 6, 6))
    f = _feature(x)
    resp = intermediate_responses(f, layer).data  # [N, O, C, H, Hin, Y, X]
    assert resp.shape == (2, 2, 3, 8, 8, 6, 6)
    summed = resp.sum(axis=(2, 4))
    full = group_conv(f, layer).data
    np.testing.assert_allclose(summed, full, atol=1e-13)


def test_intermediate_responses_lifting():
    grp = make_group("C4")
    layer = make_gconv_layer(new_rng(15), grp, 2, 3, kernel=3, lifting=True,
                             dtype="f64")
    x = new_rng(16).standard_normal((1, 2, 1, 5, 5))
    f = _feature(x)
    resp = intermediate_responses(f, layer).data
    assert resp.shape == (1, 3, 2, 4, 1, 5, 5)
    summed = resp.sum(axis=(2, 4))
    np.testing.assert_allclose(summed, group_conv(f, layer).data, atol=1e-13)


@pytest.mark.parametrize("lifting", [True, False])
def test_intermediate_responses_are_single_channel_convs(lifting):
    # slice [n, o, c, h, t] correlates input slice (c, t) with bank row (o, h),
    # column (c, t): the block-diagonal filter mixes no other input channel
    grp = make_group("D4")
    layer = make_gconv_layer(new_rng(17), grp, 2, 3, kernel=3, lifting=lifting,
                             dtype="f64")
    hin = 1 if lifting else grp.order
    x = new_rng(18).standard_normal((2, 2, hin, 7, 7))
    resp = intermediate_responses(_feature(x), layer).data
    bank = filter_bank(layer).data                 # [(O, H), (C, Hin), k, k]
    o = 3
    assert resp.shape == (2, o, 2, grp.order, hin, 7, 7)
    for c in range(2):
        for t in range(hin):
            plane = Tensor(x[:, c:c + 1, t])
            for h in range(grp.order):
                for oi in range(o):
                    w = Tensor(bank[oi * grp.order + h, c * hin + t][None, None])
                    want = T.conv2d(plane, w).data[:, 0]
                    np.testing.assert_allclose(resp[:, oi, c, h, t], want, rtol=0,
                                               atol=1e-12)


# ---------------------------------------------------------------------------
# pooling heads

def test_group_pool_invariant_under_pose_permutation():
    grp = make_group("C4")
    x = new_rng(18).standard_normal((2, 3, 4, 5, 5))
    pooled = group_pool(_feature(x), grp).data
    for h in range(grp.order):
        xt = transform_array(grp, h, x, pose_axes=(2,))
        got = group_pool(_feature(xt), grp).data
        want = transform_array(grp, h, pooled)  # only the spatial part remains
        np.testing.assert_array_equal(got, want)


def test_group_pool_takes_the_pose_max():
    grp = make_group("C4")
    x = new_rng(19).standard_normal((1, 2, 4, 3, 3))
    np.testing.assert_array_equal(group_pool(_feature(x), grp).data, x.max(axis=2))


# ---------------------------------------------------------------------------
# misuse

def test_layer_shape_validation():
    grp = make_group("C4")
    with pytest.raises(ValueError):
        GConvLayer(grp, Tensor(np.zeros((2, 2, 3, 3))))  # rank 4 weight
    with pytest.raises(ValueError):
        GConvLayer(grp, Tensor(np.zeros((2, 2, 3, 3, 3))))  # pose axis 3


def test_gconv_layer_requires_odd_square_filter():
    grp = make_group("C4")
    with pytest.raises(ValueError):
        GConvLayer(grp, Tensor(np.zeros((1, 1, 1, 2, 2))))
    with pytest.raises(ValueError):
        GConvLayer(grp, Tensor(np.zeros((1, 1, 1, 4, 4))))
    with pytest.raises(ValueError):
        GConvLayer(grp, Tensor(np.zeros((1, 1, 1, 3, 5))))
    GConvLayer(grp, Tensor(np.zeros((1, 1, 1, 3, 3))))


_C4 = make_group("C4")
_LIFT = make_gconv_layer(new_rng(21), _C4, 2, 2, lifting=True)
_GC = make_gconv_layer(new_rng(22), _C4, 2, 2)
_CH = make_channel_attention(new_rng(23), _C4.order, 2, 2)
_SP = make_spatial_attention(new_rng(24), _C4.order, kernel=3)
_CONSUMERS = {
    "group_conv": lambda f: group_conv(f, _GC),
    "lifting_conv": lambda f: group_conv(f, _LIFT),
    "attentive_group_conv": lambda f: attentive_group_conv(f, _GC, _CH, _SP),
    "input_attention": lambda f: input_attention(f, _C4, _CH, _SP),
    "group_pool": lambda f: group_pool(f, _C4),
    "intermediate_responses": lambda f: intermediate_responses(f, _GC),
}


@pytest.mark.parametrize("consumer,shape", [
    # a map is a plain Tensor: its rank and pose extent are all a C4 consumer can check
    *[(name, shape) for name in ("group_conv", "attentive_group_conv", "input_attention",
                                 "group_pool")
      for shape in ((1, 2, 5, 5),          # rank 4
                    (1, 2, 3, 5, 5),       # pose extent 3
                    (1, 2, 8, 5, 5))],     # a D4 map
    ("lifting_conv", (1, 2, 4, 5, 5)),     # a lifting layer wants planar input
    ("group_conv", (1, 2, 1, 5, 5)),       # group-to-group wants a full pose axis
    ("group_conv", (1, 3, 4, 5, 5)),       # channel mismatch
    ("intermediate_responses", (1, 2, 1, 5, 5)),  # pose mismatch vs filter
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
def test_forward_input_validation(consumer, shape):
    with pytest.raises(ValueError):
        _CONSUMERS[consumer](Tensor(np.zeros(shape, dtype=np.float32)))
