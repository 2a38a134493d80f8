import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gatt.tensor as T
import gatt.verify as V
from gatt.attention import (ChannelAttentionParams, SpatialAttentionParams,
                            _PoseKernel, _rel_index, _scatter_add, attentive_group_conv,
                            input_attention,
                            make_channel_attention, make_spatial_attention,
                            residual_gate)
from gatt.autodiff import Parameter, backward, new_rng, zero_grads
from gatt.gconv import group_conv, make_gconv_layer
from gatt.groups import feature_perm, make_group, transform_array
from gatt.tensor import Tape, Tensor
from gatt.verify import (attentive_oracle_errors, channel_attention, channel_stats,
                         intermediate_responses, reference_attention_maps,
                         spatial_attention, spatial_stats)

GRP = make_group("C4")


def _feature(arr):
    return Tensor(np.ascontiguousarray(arr))


def _setup(seed=0, channels=4, out_channels=3, group=GRP, att_kernel=3):
    rng = new_rng(seed)
    layer = make_gconv_layer(rng, group, channels, out_channels, kernel=3,
                             dtype="f64", name="l")
    ch = make_channel_attention(rng, group.order, channels, 2, dtype="f64", name="c")
    sp = make_spatial_attention(rng, group.order, kernel=att_kernel, dtype="f64",
                                name="s")
    x = new_rng(seed + 50).standard_normal((2, channels, group.order, 6, 6))
    return layer, ch, sp, x


# ---------------------------------------------------------------------------
# gates

def test_residual_gate_is_reflected_sigmoid():
    z = np.linspace(-6, 6, 25)
    got = residual_gate(Tensor(z)).data
    want = T.sigmoid(Tensor(-z)).data
    np.testing.assert_allclose(got, want, atol=1e-16)


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_gates_stay_inside_unit_interval_when_saturated(dtype):
    z = Tensor(np.array([-800.0, -40.0, -20.0, 20.0, 40.0, 800.0]), dtype=dtype)
    for gate in (T.sigmoid(z).data, residual_gate(z).data):
        assert gate.dtype == z.data.dtype
        assert np.all(gate > 0.0) and np.all(gate < 1.0)


def test_gate_at_zero_is_half():
    z = Tensor(np.zeros(3))
    assert np.all(residual_gate(z).data == 0.5)
    assert np.all(T.sigmoid(z).data == 0.5)


# ---------------------------------------------------------------------------
# statistics vs plain numpy

def test_channel_stats_match_numpy():
    layer, _, _, x = _setup()
    ft = intermediate_responses(_feature(x), layer).data
    s_avg, s_max = channel_stats(Tensor(ft), pool_out=True)
    np.testing.assert_allclose(s_avg.data, ft.mean(axis=(1, 5, 6)), atol=1e-15)
    np.testing.assert_array_equal(s_max.data, ft.max(axis=(1, 5, 6)))
    s_avg, s_max = channel_stats(Tensor(ft), pool_out=False)
    np.testing.assert_allclose(s_avg.data, ft.mean(axis=(5, 6)), atol=1e-15)
    np.testing.assert_array_equal(s_max.data, ft.max(axis=(5, 6)))


def test_spatial_stats_match_numpy():
    layer, _, _, x = _setup()
    ft = intermediate_responses(_feature(x), layer).data
    s = spatial_stats(Tensor(ft), pool_out=True).data
    np.testing.assert_allclose(s[:, 0], ft.mean(axis=(1, 2)), atol=1e-15)
    np.testing.assert_array_equal(s[:, 1], ft.max(axis=(1, 2)))
    s = spatial_stats(Tensor(ft), pool_out=False).data
    np.testing.assert_allclose(s[:, :, 0], ft.mean(axis=2), atol=1e-15)
    np.testing.assert_array_equal(s[:, :, 1], ft.max(axis=2))


def test_stats_reject_wrong_rank():
    with pytest.raises(ValueError):
        channel_stats(Tensor(np.zeros((2, 3, 4))))
    with pytest.raises(ValueError):
        spatial_stats(Tensor(np.zeros((2, 3, 4))))


# ---------------------------------------------------------------------------
# channel attention vs a direct per-pose-pair evaluation

def test_channel_attention_matches_manual():
    layer, ch, _, x = _setup()
    ft = intermediate_responses(_feature(x), layer).data
    s_avg = ft.mean(axis=(1, 5, 6))
    s_max = ft.max(axis=(1, 5, 6))
    got = channel_attention(Tensor(s_avg), Tensor(s_max), ch, GRP).data
    w1, w2 = ch.w1.data, ch.w2.data
    n, c, hh, hin = s_avg.shape
    want = np.zeros_like(got)
    for h in range(hh):
        for t in range(hin):
            k = int(GRP.cayley[GRP.inverse[h], t])
            for ni in range(n):
                z = (w2[k] @ np.maximum(w1[k] @ s_avg[ni, :, h, t], 0.0)
                     + w2[k] @ np.maximum(w1[k] @ s_max[ni, :, h, t], 0.0))
                want[ni, :, h, t] = 1.0 / (1.0 + np.exp(z))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_channel_attention_absolute_uses_input_pose():
    layer, ch, _, x = _setup()
    ft = intermediate_responses(_feature(x), layer).data
    s_avg = Tensor(ft.mean(axis=(1, 5, 6)))
    s_max = Tensor(ft.max(axis=(1, 5, 6)))
    rel = channel_attention(s_avg, s_max, ch, GRP, index_mode="relative").data
    absolute = channel_attention(s_avg, s_max, ch, GRP, index_mode="absolute").data
    # same table on the h=identity row (inv(e)=e so relative index is t there)
    np.testing.assert_array_equal(rel[:, :, 0], absolute[:, :, 0])
    assert np.abs(rel - absolute).max() > 1e-3  # but not elsewhere


def test_rel_index_tables():
    assert _rel_index(GRP, 1, "relative").shape == (4, 1)
    assert np.all(_rel_index(GRP, 1, "relative") == 0)
    np.testing.assert_array_equal(_rel_index(GRP, 4, "relative"),
                                  GRP.cayley[GRP.inverse])
    np.testing.assert_array_equal(_rel_index(GRP, 4, "absolute"),
                                  np.tile(np.arange(4), (4, 1)))
    with pytest.raises(ValueError):
        _rel_index(GRP, 4, "modular")


# ---------------------------------------------------------------------------
# spatial attention vs a direct per-pose evaluation

def test_spatial_attention_matches_manual():
    layer, ch, sp, x = _setup(att_kernel=3)
    ft = intermediate_responses(_feature(x), layer).data
    s_x = spatial_stats(Tensor(ft), pool_out=True)
    got = spatial_attention(s_x, sp, GRP).data
    n, _, hh, hin, y, xs = s_x.shape
    want = np.zeros((n, 1, hh, hin, y, xs))
    for h in range(hh):
        psi_h = transform_array(GRP, h, sp.psi.data, pose_axes=(2,))  # [1, 2, Hin, k, k]
        for t in range(hin):
            resp = np.zeros((n, y, xs))
            for s in range(2):
                plane = s_x.data[:, s, h, t][:, None]          # [N, 1, Y, X]
                kern = psi_h[:, s, t][:, None]                 # [1, 1, k, k]
                resp += T.conv2d(Tensor(plane), Tensor(kern)).data[:, 0]
            want[:, 0, h, t] = 1.0 / (1.0 + np.exp(resp))
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("pool_out", [True, False])
def test_spatial_response_is_a_two_channel_conv_per_pose_pair(monkeypatch, pool_out):
    # with the gate replaced by the identity, plane (h, t) of the response is
    # the (h, t) stats correlated with the h-transformed psi[:, :, t] alone
    grp = make_group("D4")
    layer, ch, sp, x = _setup(seed=4, channels=2, out_channels=2, group=grp)
    s_x = spatial_stats(intermediate_responses(_feature(x), layer), pool_out=pool_out)
    monkeypatch.setattr(V, "residual_gate", lambda z: z)
    got = spatial_attention(s_x, sp, grp).data
    stats = s_x.data if pool_out else s_x.data.reshape((-1,) + s_x.shape[2:])
    got = got.reshape((stats.shape[0], 1) + got.shape[-4:])
    for h in range(grp.order):
        psi_h = transform_array(grp, h, sp.psi.data, pose_axes=(2,))  # [1, 2, Hin, k, k]
        for t in range(grp.order):
            want = T.conv2d(Tensor(stats[:, :, h, t]), Tensor(psi_h[:, :, t])).data
            np.testing.assert_allclose(got[:, :, h, t], want, rtol=0, atol=1e-12)


def test_attention_maps_in_open_unit_interval():
    layer, ch, sp, x = _setup()
    _, ac, ax = attentive_group_conv(_feature(x), layer, ch, sp)
    for a in (ac.data, ax.data):
        assert a.min() > 0.0 and a.max() < 1.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
@example(seed=187624)   # a channel gate saturates here
def test_attention_maps_bounded_property(seed):
    rng = new_rng(seed)
    layer = make_gconv_layer(rng, GRP, 2, 2, kernel=3, dtype="f64")
    ch = make_channel_attention(rng, GRP.order, 2, 2, dtype="f64")
    sp = make_spatial_attention(rng, GRP.order, kernel=3, dtype="f64")
    x = rng.standard_normal((1, 2, 4, 5, 5)) * 3.0
    _, ac, ax = attentive_group_conv(_feature(x), layer, ch, sp)
    assert 0.0 < ac.data.min() and ac.data.max() < 1.0
    assert 0.0 < ax.data.min() and ax.data.max() < 1.0


# ---------------------------------------------------------------------------
# the gated layer against its closed-form special cases

def test_zero_parameter_attention_quarters_the_response():
    layer, _, _, x = _setup()
    ch = ChannelAttentionParams(
        Parameter(np.zeros((4, 2, 4)), dtype="f64", name="z1"),
        Parameter(np.zeros((4, 4, 2)), dtype="f64", name="z2"))
    sp = SpatialAttentionParams(
        Parameter(np.zeros((1, 2, 4, 3, 3)), dtype="f64", name="z3"))
    f = _feature(x)
    got = attentive_group_conv(f, layer, ch, sp)[0].data
    plain = group_conv(f, layer).data
    # both gates sit at 0.5, so the response is quartered
    np.testing.assert_allclose(got, 0.25 * plain, atol=1e-13)


def test_spatial_map_sees_channel_modulated_responses():
    # recompute alpha_X from the public pieces: it must come from the
    # channel-gated responses, not the raw ones
    layer, ch, sp, x = _setup()
    f = _feature(x)
    ac, ax, gated = reference_attention_maps(f, layer, ch, sp)
    ft = intermediate_responses(f, layer)
    n, c, hh, hin = ac.shape
    mod = ft.data * ac.data.reshape(n, 1, c, hh, hin, 1, 1)
    np.testing.assert_array_equal(gated.data, mod)
    s_x = spatial_stats(Tensor(mod), pool_out=True)
    again = spatial_attention(s_x, sp, GRP).data
    np.testing.assert_array_equal(ax.data, again)
    raw_s_x = spatial_stats(ft, pool_out=True)
    from_raw = spatial_attention(raw_s_x, sp, GRP).data
    assert np.abs(ax.data - from_raw).max() > 1e-3


def test_pool_out_false_keeps_out_channel_axis():
    layer, _, sp, x = _setup()
    rng = new_rng(33)
    ch = make_channel_attention(rng, GRP.order, 4, 2, dtype="f64")
    out, ac, ax = attentive_group_conv(_feature(x), layer, ch, sp, pool_out=False)
    assert ac.shape == (2, 3, 4, 4, 4)        # [N, O, C, H, Hin]
    assert ax.shape == (2, 3, 4, 4, 6, 6)     # [N, O, H, Hin, Y, X]
    assert out.data.shape == (2, 3, 4, 6, 6)


def test_channel_only_and_spatial_only_variants():
    layer, ch, sp, x = _setup()
    f = _feature(x)
    _, ac, ax = attentive_group_conv(f, layer, ch_params=ch)
    assert ax is None and ac is not None
    _, ac, ax = attentive_group_conv(f, layer, sp_params=sp)
    assert ac is None and ax is not None
    with pytest.raises(ValueError):
        attentive_group_conv(f, layer)   # missing parameters


def test_attentive_layer_equivariance():
    layer, ch, sp, x = _setup()
    f = _feature(x)
    base = attentive_group_conv(f, layer, ch, sp)[0].data
    for h in range(GRP.order):
        ft = _feature(transform_array(GRP, h, x, pose_axes=(2,)))
        got = attentive_group_conv(ft, layer, ch, sp)[0].data
        want = transform_array(GRP, h, base, pose_axes=(2,))
        np.testing.assert_allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# input attention

def test_planar_input_attention_matches_flat_reference():
    # on a planar map the construction reduces to the familiar
    # channel-then-spatial gating of an ordinary feature map
    rng = new_rng(40)
    c, k = 4, 3
    ch = make_channel_attention(rng, 1, c, 2, dtype="f64")
    sp = make_spatial_attention(rng, 1, kernel=k, dtype="f64")
    x = new_rng(41).standard_normal((2, c, 1, 7, 7))
    out = input_attention(_feature(x), GRP, ch, sp)[0].data

    flat = x[:, :, 0]                                   # [N, C, Y, X]
    w1, w2 = ch.w1.data[0], ch.w2.data[0]
    z = (w2 @ np.maximum(w1 @ flat.mean(axis=(2, 3)).T, 0.0)
         + w2 @ np.maximum(w1 @ flat.max(axis=(2, 3)).T, 0.0)).T
    a_c = 1.0 / (1.0 + np.exp(z))                       # residual gate
    f1 = flat * a_c[:, :, None, None]
    s_x = np.stack([f1.mean(axis=1), f1.max(axis=1)], axis=1)
    resp = T.conv2d(Tensor(s_x), Tensor(sp.psi.data[:, :, 0])).data
    a_x = 1.0 / (1.0 + np.exp(resp))
    np.testing.assert_allclose(out[:, :, 0], f1 * a_x, atol=1e-12)


def test_input_attention_equivariance_and_map_laws():
    rng = new_rng(42)
    ch = make_channel_attention(rng, GRP.order, 3, 3, dtype="f64")
    sp = make_spatial_attention(rng, GRP.order, kernel=3, dtype="f64")
    x = new_rng(43).standard_normal((2, 3, 4, 6, 6))
    f = _feature(x)
    base, ac0, ax0 = (m.data for m in input_attention(f, GRP, ch, sp))
    for h in range(GRP.order):
        ft = _feature(transform_array(GRP, h, x, pose_axes=(2,)))
        got, ac_h, ax_h = (m.data for m in input_attention(ft, GRP, ch, sp))
        np.testing.assert_allclose(got, transform_array(GRP, h, base, pose_axes=(2,)),
                                   atol=1e-12)
        np.testing.assert_allclose(ac_h, np.take(ac0, feature_perm(GRP, h), axis=-1),
                                   atol=1e-12)
        np.testing.assert_allclose(ax_h, transform_array(GRP, h, ax0, pose_axes=(2,)),
                                   atol=1e-12)


@pytest.mark.parametrize("group_name", ["C4", "D4"])
def test_input_attention_alpha_c_is_the_relative_pose_bottleneck(group_name):
    # u_h = relu(sum_t W1[h^-1 t] s_t) and z_h = sum_h' W2[h^-1 h'] u_h', for the
    # mean and the max descriptor s; the two z are summed and gated
    grp = make_group(group_name)
    rng = new_rng(46)
    ch = make_channel_attention(rng, grp.order, 4, 2, dtype="f64")
    sp = make_spatial_attention(rng, grp.order, kernel=3, dtype="f64")
    x = new_rng(47).standard_normal((2, 4, grp.order, 5, 5))
    _, ac, _ = input_attention(_feature(x), grp, ch, sp)
    rel = grp.cayley[grp.inverse]                       # rel[h, t] = h^-1 t
    w1, w2 = ch.w1.data[rel], ch.w2.data[rel]           # [H, H, rows, cols]
    z = 0.0
    for s in (x.mean(axis=(3, 4)), x.max(axis=(3, 4))):  # [N, C, H]
        u = np.maximum(np.einsum("htmc,nct->nmh", w1, s), 0.0)
        z = z + np.einsum("htcm,nmt->nch", w2, u)
    want = 1.0 - 1.0 / (1.0 + np.exp(-z))               # residual gate
    np.testing.assert_allclose(ac.data, want, rtol=0, atol=1e-12)


def test_input_attention_parameter_validation():
    rng = new_rng(44)
    ch = make_channel_attention(rng, GRP.order, 3, 3, dtype="f64")
    sp = make_spatial_attention(rng, GRP.order, kernel=3, dtype="f64")
    with pytest.raises(ValueError):
        input_attention(_feature(np.zeros((1, 2, 4, 5, 5))), GRP, ch, sp)  # channels
    with pytest.raises(ValueError):
        input_attention(_feature(np.zeros((1, 3, 1, 5, 5))), GRP, ch, sp)  # pose axis


# ---------------------------------------------------------------------------
# constructors and misuse

def test_make_attention_validation():
    rng = new_rng(45)
    with pytest.raises(ValueError):
        make_channel_attention(rng, 4, 5, 2)   # 5 not divisible by 2
    with pytest.raises(ValueError):
        make_spatial_attention(rng, 4, kernel=4)


def test_channel_attention_pose_mismatch():
    rng = new_rng(46)
    ch = make_channel_attention(rng, GRP.order, 4, 2, dtype="f64")
    bad_h = Tensor(np.zeros((1, 4, 3, 4)))
    with pytest.raises(ValueError):
        channel_attention(bad_h, bad_h, ch, GRP)
    bad_t = Tensor(np.zeros((1, 4, 4, 3)))
    with pytest.raises(ValueError):
        channel_attention(bad_t, bad_t, ch, GRP)
    with pytest.raises(ValueError):
        channel_attention(Tensor(np.zeros((4, 4))), Tensor(np.zeros((4, 4))),
                          ch, GRP)


def test_spatial_attention_shape_mismatch():
    rng = new_rng(47)
    sp = make_spatial_attention(rng, GRP.order, kernel=3, dtype="f64")
    with pytest.raises(ValueError):
        spatial_attention(Tensor(np.zeros((1, 3, 4, 4, 5, 5))), sp, GRP)  # 3 stats
    with pytest.raises(ValueError):
        spatial_attention(Tensor(np.zeros((1, 2, 3, 4, 5, 5))), sp, GRP)  # pose h
    with pytest.raises(ValueError):
        spatial_attention(Tensor(np.zeros((1, 2, 4, 3, 5, 5))), sp, GRP)  # pose t


# ---------------------------------------------------------------------------
# the fused per-pose block against the rank-7 reference composition

@pytest.mark.parametrize("group_name", ["C4", "D4"])
@pytest.mark.parametrize("variant", ["full", "channel", "spatial"])
def test_fast_block_matches_reference_oracle(group_name, variant):
    # output, both maps and every gradient, on plain and tie-heavy inputs; the
    # output and maps again with no tape, bit-identical to the taped forward's
    keys = {"out", "grad_x", "grad_weight", "tapeless_out", "tapeless_vs_taped"}
    if variant != "spatial":
        keys |= {"alpha_c", "grad_w1", "grad_w2", "tapeless_alpha_c"}
    if variant != "channel":
        keys |= {"alpha_x", "grad_psi", "tapeless_alpha_x"}
    cases = 0
    for pool_out in (True, False):
        for lifting in (False, True):
            for stride, padding in ((1, "same"), (2, "same"), (1, "valid")):
                seed = 12 * (not pool_out) + cases % 6     # seeds 0-5 and 12-17
                errs = attentive_oracle_errors(group_name, variant, pool_out, lifting,
                                               stride, padding, seed=seed,
                                               ties=seed % 2 == 1)
                assert set(errs) == keys
                assert max(errs.values()) <= 1e-10, errs
                assert errs["tapeless_vs_taped"] == 0.0, errs
                cases += 1
    assert cases == 12


@pytest.mark.parametrize("group_name", ["C4", "D4"])
@pytest.mark.parametrize("variant", ["full", "channel", "spatial"])
def test_fast_block_matches_reference_oracle_over_ragged_chunks(monkeypatch, group_name,
                                                                variant):
    # the chunk budget is cut to the per-pose slice of two samples, so a batch
    # of five runs as chunks of 2, 2 and 1 on tie-heavy inputs
    hin = make_group(group_name).order
    monkeypatch.setattr(T, "POSE_CHUNK_BYTES", 2 * 4 * hin * 3 * 7 * 7 * 8)
    spans = []
    forward = _PoseKernel.forward

    def spy(self, keep):
        spans.append(self.spans)
        return forward(self, keep)

    monkeypatch.setattr(_PoseKernel, "forward", spy)
    for pool_out in (True, False):
        errs = attentive_oracle_errors(group_name, variant, pool_out, seed=7, ties=True,
                                       batch=5)
        assert max(errs.values()) <= 1e-10, errs
        assert errs["tapeless_vs_taped"] == 0.0, errs
    assert spans and all(s == [(0, 2), (2, 4), (4, 5)] for s in spans)


def test_scatter_add_sums_repeated_indices():
    target = np.arange(6.0).reshape(2, 3)
    _scatter_add(target, np.array([[4, 1], [4, 4]]), np.array([[1.0, 2.0], [3.0, 0.5]]))
    np.testing.assert_array_equal(target, [[0.0, 3.0, 2.0], [3.0, 8.5, 5.0]])


def test_scatter_add_rejects_a_target_that_is_not_c_contiguous():
    # reshaping a transposed target copies it, so the adds would be lost
    target = np.zeros((3, 4)).T
    with pytest.raises(ValueError, match="C-contiguous"):
        _scatter_add(target, np.array([0, 5]), np.array([1.0, 2.0]))
    assert not target.any()


@pytest.mark.parametrize("group_name", ["C4", "D4"])
@pytest.mark.parametrize("variant", ["full", "channel", "spatial"])
@pytest.mark.parametrize("pool_out", [True, False])
@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("lifting", [False, True])
def test_fast_block_matches_reference_in_f32(group_name, variant, pool_out, ties, lifting):
    # the block computes in float32 storage; the reference composes taped ops
    errs = attentive_oracle_errors(group_name, variant, pool_out, lifting=lifting, seed=5,
                                   ties=ties, dtype="f32", batch=3)
    assert max(errs.values()) <= 1e-5, errs
    assert errs["tapeless_vs_taped"] == 0.0, errs


@pytest.mark.parametrize("group_name", ["C4", "D4"])
@pytest.mark.parametrize("pool_out", [True, False])
def test_nan_in_one_sample_stays_in_that_sample(group_name, pool_out):
    # a NaN row has no first maximum; its max route must stay in range, so the
    # taped block completes and the other sample's output and input gradient
    # are those of a run on that sample alone
    grp = make_group(group_name)
    rng = new_rng(11)
    layer = make_gconv_layer(rng, grp, 4, 3, kernel=3, dtype="f64", name="l")
    ch = make_channel_attention(rng, grp.order, 4, 2, dtype="f64", name="c")
    sp = make_spatial_attention(rng, grp.order, kernel=3, dtype="f64", name="s")
    params = layer.params() + ch.params() + sp.params()
    x = new_rng(12).standard_normal((2, 4, grp.order, 7, 7))
    x[0, 1, 2, 3, 4] = np.nan
    probe = new_rng(13).standard_normal((2, 3, grp.order, 7, 7))

    def run(xs, ps):
        xp = Parameter(xs, dtype="f64", name="x")
        with Tape() as tape:
            out, _, _ = attentive_group_conv(xp, layer, ch, sp, pool_out=pool_out)
            backward(tape, T.reduce(T.mul(out, Tensor(ps))))
        zero_grads(params)
        return out.data, xp.grad

    out, grad = run(x, probe)
    alone, grad_alone = run(x[1:], probe[1:])
    assert np.isnan(out[0]).any()
    assert np.isfinite(alone).all() and np.isfinite(grad_alone).all()
    np.testing.assert_array_equal(out[1], alone[0])
    np.testing.assert_array_equal(grad[1], grad_alone[0])


def test_attentive_forward_peaks_below_half_the_pair_tensor():
    # the rank-7 per-pair tensor of this block would need 52.4 MB; the
    # per-pose evaluation must stay under half of that with no tape active
    rng = new_rng(60)
    n, c, size = 1, 32, 20
    layer = make_gconv_layer(rng, GRP, c, c, kernel=3, dtype="f64", name="big")
    ch = make_channel_attention(rng, GRP.order, c, 2, dtype="f64", name="c")
    sp = make_spatial_attention(rng, GRP.order, kernel=7, dtype="f64", name="s")
    f = _feature(new_rng(61).standard_normal((n, c, GRP.order, size, size)))
    pair_bytes = n * c * c * GRP.order * GRP.order * size * size * 8
    assert pair_bytes >= 40e6
    tracemalloc.start()
    try:
        out, _, _ = attentive_group_conv(f, layer, ch, sp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.data.shape == (n, c, GRP.order, size, size)
    assert peak < pair_bytes / 2


def test_attentive_forward_and_backward_peak_below_the_whole_batch_slice():
    # chunked over samples, a wide block at N=8 never holds its whole-batch
    # per-pose slice [N, C, Hin, O, Y*X] (37.7 MB here), forward or backward
    rng = new_rng(62)
    n, c, size = 8, 24, 16
    layer = make_gconv_layer(rng, GRP, c, c, kernel=3, dtype="f64", name="wide")
    ch = make_channel_attention(rng, GRP.order, c, 2, dtype="f64", name="c")
    sp = make_spatial_attention(rng, GRP.order, kernel=7, dtype="f64", name="s")
    x = Parameter(new_rng(63).standard_normal((n, c, GRP.order, size, size)), dtype="f64")
    probe = Tensor(new_rng(64).standard_normal((n, c, GRP.order, size, size)))
    slice_bytes = n * c * GRP.order * c * size * size * 8
    tracemalloc.start()
    try:
        with Tape() as tape:
            out, _, _ = attentive_group_conv(x, layer, ch, sp)
            backward(tape, T.reduce(T.mul(out, probe)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad.shape == x.shape and layer.weight.grad is not None
    assert peak < slice_bytes
