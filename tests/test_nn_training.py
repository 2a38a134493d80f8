import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gatt.tensor as T
from gatt.autodiff import Parameter, backward, new_rng, zero_grads
from gatt.data import synth_shapes
from gatt.gconv import make_gconv_layer
from gatt.groups import make_group, transform_array
from gatt.nn import (BN_EPS, ForwardCtx, GBatchNorm, GBlock, GDropout, GroupPoolL,
                     MaxPoolG, Network, PoseBias, ReLUG, SpatialMeanL,
                     build_digit_net, build_parity_nets, build_tiny_net)
from gatt.tensor import Tape, Tensor
from gatt.training import accuracy, fit, minibatch_order, predict
from gatt.verify import reference_batch_norm

GRP = make_group("C4")
EVAL = ForwardCtx(training=False)


def _feature(arr):
    return Tensor(np.ascontiguousarray(arr))


# ---------------------------------------------------------------------------
# batch norm

def test_batchnorm_training_stats_match_manual():
    bn = GBatchNorm(3, dtype="f64", name="bn")
    x = new_rng(0).standard_normal((4, 3, 2, 5, 5))
    out = bn.forward(_feature(x), ForwardCtx(training=True)).data
    mu = x.mean(axis=(0, 2, 3, 4), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2, 3, 4), keepdims=True)
    want = (x - mu) / np.sqrt(var + 2e-5)
    np.testing.assert_allclose(out, want, atol=1e-12)
    # running stats moved one momentum step away from (0, 1)
    np.testing.assert_allclose(bn.running_mean, 0.1 * mu.reshape(3), atol=1e-12)
    np.testing.assert_allclose(bn.running_var, 0.9 + 0.1 * var.reshape(3),
                               atol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    bn = GBatchNorm(2, dtype="f64", name="bn")
    bn.running_mean = np.array([1.0, -1.0])
    bn.running_var = np.array([4.0, 0.25])
    x = new_rng(1).standard_normal((2, 2, 4, 3, 3))
    out = bn.forward(_feature(x), EVAL).data
    want = (x - bn.running_mean.reshape(1, 2, 1, 1, 1)) / \
        np.sqrt(bn.running_var.reshape(1, 2, 1, 1, 1) + 2e-5)
    np.testing.assert_allclose(out, want, atol=1e-12)


def test_batchnorm_affine_pair_applies_per_channel():
    bn = GBatchNorm(2, dtype="f64", name="bn")
    bn.gamma.data = np.array([2.0, 3.0])
    bn.beta.data = np.array([-1.0, 1.0])
    x = np.zeros((1, 2, 1, 2, 2))
    out = bn.forward(_feature(x), EVAL).data
    assert np.allclose(out[0, 0], -1.0) and np.allclose(out[0, 1], 1.0)


def test_batchnorm_equivariant_in_training_mode():
    # statistics shared over poses and space are permutation invariant, so the
    # transform commutes up to summation-order noise in the moments
    bn = GBatchNorm(3, dtype="f64", name="bn")
    x = new_rng(2).standard_normal((2, 3, 4, 6, 6))
    base = bn.forward(_feature(x), ForwardCtx(training=True)).data
    for h in range(GRP.order):
        bn2 = GBatchNorm(3, dtype="f64", name="bn")
        got = bn2.forward(_feature(transform_array(GRP, h, x, pose_axes=(2,))),
                          ForwardCtx(training=True)).data
        np.testing.assert_allclose(got, transform_array(GRP, h, base, pose_axes=(2,)),
                                   atol=1e-13)


def test_batchnorm_planar_input():
    bn = GBatchNorm(2, dtype="f64", name="bn")
    x = new_rng(3).standard_normal((3, 2, 4, 4))
    out = bn.forward(Tensor(x), ForwardCtx(training=True)).data
    mu = x.mean(axis=(0, 2, 3), keepdims=True)
    var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
    np.testing.assert_allclose(out, (x - mu) / np.sqrt(var + 2e-5), atol=1e-12)


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape,axes", [((4, 3, 2, 5, 5), (0, 2, 3, 4)),
                                        ((3, 3, 4, 4), (0, 2, 3))])
def test_fused_batch_norm_matches_reference_oracle(training, shape, axes):
    rng = new_rng(5)
    gamma = Parameter(rng.normal(1.0, 0.3, 3), dtype="f64")
    beta = Parameter(rng.normal(0.0, 0.3, 3), dtype="f64")
    x = Parameter(rng.standard_normal(shape), dtype="f64")
    probe = Tensor(rng.standard_normal(shape))
    stats = None if training else (rng.normal(0.0, 0.5, 3), rng.uniform(0.5, 2.0, 3))
    results = []
    for norm in (T.batch_norm, reference_batch_norm):
        with Tape() as tape:
            out, mean, var = norm(x, gamma, beta, axes, 2e-5, stats)
            backward(tape, T.reduce(T.mul(out, probe)))
        results.append((out.data, mean, var, x.grad, gamma.grad, beta.grad))
        zero_grads([x, gamma, beta])
    (out, mean, var, *grads), (ref_out, ref_mean, ref_var, *ref_grads) = results
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(mean, ref_mean)
    np.testing.assert_array_equal(var, ref_var)
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_batchnorm_running_stats_follow_the_reference_moments():
    bn = GBatchNorm(3, dtype="f64", name="bn")
    x = new_rng(6).standard_normal((4, 3, 2, 5, 5))
    _, mean, var = reference_batch_norm(Tensor(x), bn.gamma, bn.beta, (0, 2, 3, 4), BN_EPS)
    bn.forward(_feature(x), ForwardCtx(training=True))
    np.testing.assert_array_equal(bn.running_mean, 0.9 * np.zeros(3) + 0.1 * mean.reshape(3))
    np.testing.assert_array_equal(bn.running_var, 0.9 * np.ones(3) + 0.1 * var.reshape(3))


# ---------------------------------------------------------------------------
# pooling / bias layers

def test_maxpool_equivariant_on_even_extent():
    x = new_rng(4).standard_normal((1, 2, 8, 8, 8))
    d4 = make_group("D4")
    pool = MaxPoolG()
    base = pool.forward(_feature(x), EVAL).data
    for h in range(d4.order):
        got = pool.forward(_feature(transform_array(d4, h, x, pose_axes=(2,))), EVAL).data
        np.testing.assert_array_equal(got, transform_array(d4, h, base, pose_axes=(2,)))


def test_pose_bias_breaks_equivariance():
    layer = make_gconv_layer(new_rng(5), GRP, 1, 3, lifting=True, dtype="f64")
    net = Network(GRP, [GBlock(layer), PoseBias(3, GRP, dtype="f64")])
    x = new_rng(6).standard_normal((1, 1, 8, 8))
    base = net.forward(Tensor(x), EVAL).data
    got = net.forward(Tensor(transform_array(GRP, 1, x)), EVAL).data
    err = np.abs(got - transform_array(GRP, 1, base, pose_axes=(2,))).max()
    assert err > 0.1


def test_heads_collapse_to_invariant_logits():
    net = build_tiny_net("C4", variant="plain", channels=4, dtype="f64", seed=1)
    x = new_rng(7).standard_normal((2, 1, 16, 16))
    base = net.forward(Tensor(x), EVAL).data
    assert base.shape == (2, 4)
    for h in range(GRP.order):
        got = net.forward(Tensor(transform_array(GRP, h, x)), EVAL).data
        np.testing.assert_allclose(got, base, atol=1e-10)


def test_group_pool_and_spatial_mean_layers():
    x = new_rng(8).standard_normal((2, 3, 4, 5, 5))
    pooled = GroupPoolL(GRP).forward(_feature(x), EVAL)
    np.testing.assert_array_equal(pooled.data, x.max(axis=2))
    mean = SpatialMeanL().forward(pooled, EVAL)
    np.testing.assert_allclose(mean.data, x.max(axis=2).mean(axis=(2, 3)),
                               atol=1e-14)


def test_relu_and_dropout_wrappers():
    x = np.array([[-1.0, 2.0]])
    out = ReLUG().forward(Tensor(x), EVAL)
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])
    f = _feature(np.ones((1, 1, 4, 2, 2)))
    assert GDropout(0.5).forward(f, EVAL) is f  # eval mode: identity
    ctx = ForwardCtx(training=True, rng=new_rng(9))
    dropped = GDropout(0.5).forward(f, ctx).data
    assert set(np.unique(dropped)) <= {0.0, 2.0}


def test_gblock_validates_variant():
    layer = make_gconv_layer(new_rng(10), GRP, 1, 2, lifting=True)
    with pytest.raises(ValueError):
        GBlock(layer, variant="cbam")


# ---------------------------------------------------------------------------
# reference builders

def test_tiny_net_parameter_count_frozen():
    assert build_tiny_net("C4", variant="input").param_count() == 3204


def test_digit_net_parameter_count_frozen():
    assert build_digit_net("C4", variant="plain").param_count() == 22310


def test_builder_variant_parameter_deltas():
    base = build_tiny_net("C4", variant="plain", channels=8).param_count()
    ch_only = build_tiny_net("C4", variant="channel", channels=8).param_count()
    sp_only = build_tiny_net("C4", variant="spatial", channels=8).param_count()
    full = build_tiny_net("C4", variant="full", channels=8).param_count()
    # channel adds 2 * |H| * C^2/r, spatial adds 2 * |H| * k^2
    assert ch_only - base == 2 * 4 * 8 * 8 // 2
    assert sp_only - base == 2 * 4 * 7 * 7
    assert full == base + (ch_only - base) + (sp_only - base)


def test_parity_nets_share_first_layer():
    net_a, net_b = build_parity_nets(dtype="f64", seed=3)
    wa = net_a.layers[0].layer.weight.data
    wb = net_b.layers[0].layer.weight.data
    np.testing.assert_array_equal(wa, wb)
    assert net_a.layers[2].layer.stride == 2
    assert net_b.layers[2].layer.stride == 1
    assert isinstance(net_b.layers[3], MaxPoolG)


def test_network_wraps_planar_ndarray():
    net = build_tiny_net("C4", variant="plain", channels=2, dtype="f32", seed=0)
    out = net.forward(np.zeros((1, 1, 16, 16), dtype=np.float32))
    assert out.shape == (1, 4)


def test_digit_net_forward_shape():
    net = build_digit_net("C4", variant="plain", channels=4, dtype="f32", seed=0)
    out = net.forward(np.zeros((2, 1, 28, 28), dtype=np.float32), EVAL)
    assert out.shape == (2, 10)


def _tape_bytes(tape):
    """Bytes of the distinct buffers a tape holds: each record's output and
    the arrays and Tensors its backward closure captures, views counted once."""
    bufs = {}
    for fn, out in tape.records:
        held = [out]
        for cell in fn.__closure__ or ():
            v = cell.cell_contents
            held += v if isinstance(v, (tuple, list)) else [v]
        for a in held:
            a = a.data if isinstance(a, Tensor) else a
            if isinstance(a, np.ndarray):
                while isinstance(a.base, np.ndarray):
                    a = a.base
                bufs[id(a)] = a.nbytes
    return sum(bufs.values())


def test_plain_digit_training_forward_tape_bytes():
    # a group conv keeps no padded float64 input, transposed copy or bias-add
    # output, relu no mask, dropout a bool mask and max pooling uint8 offsets:
    # 8,301,460 bytes, against 15,981,460 when it kept all of them
    net = build_digit_net("C4", variant="plain", dtype="f32", seed=0)
    x = new_rng(1).standard_normal((4, 1, 28, 28)).astype(np.float32)
    with Tape() as tape:
        T.softmax_cross_entropy(net.forward(x, ForwardCtx(training=True, rng=new_rng(2))),
                                np.arange(4))
    assert _tape_bytes(tape) <= 8_301_460


_HASH_FORWARD = """
import hashlib
import numpy as np
from gatt.data import synth_shapes
from gatt.nn import build_digit_net
x, _ = synth_shapes(4, seed=3, size=28)
logits = build_digit_net("C4", variant="full", dtype="f32", seed=0).forward(x)
print(hashlib.sha256(np.ascontiguousarray(logits.data).tobytes()).hexdigest())
"""


def test_full_digit_forward_is_independent_of_blas_threads():
    # float32 storage: the float64 accumulations round back to the same bits
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _HASH_FORWARD], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.strip())
    assert len(hashes[0]) == 64 and hashes[0] == hashes[1]


# ---------------------------------------------------------------------------
# training loop

def test_minibatch_order_partitions_range():
    batches = minibatch_order(new_rng(11), 10, 4)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches)) == list(range(10))


def test_fit_is_deterministic():
    xy = synth_shapes(96, seed=5)

    def run():
        net = build_tiny_net("C4", variant="plain", channels=4, seed=2)
        history, opt = fit(net, xy, epochs=2, batch=32, lr=0.01, seed=2)
        return history, [p.data.copy() for p in net.params()], opt

    h1, p1, o1 = run()
    h2, p2, o2 = run()
    assert [e["train_loss"] for e in h1] == [e["train_loss"] for e in h2]
    for a, b in zip(p1, p2):
        np.testing.assert_array_equal(a, b)
    assert o1.step_count == o2.step_count == 6  # 2 epochs x 3 batches


def test_fit_zero_lr_leaves_parameters_fixed():
    xy = synth_shapes(64, seed=6)
    net = build_tiny_net("C4", variant="plain", channels=4, seed=3)
    before = [p.data.copy() for p in net.params()]
    fit(net, xy, epochs=1, batch=32, lr=0.0, weight_decay=0.0, seed=3)
    for prev, p in zip(before, net.params()):
        np.testing.assert_array_equal(prev, p.data)
    # no update rule ran, so test accuracy stays far below learned levels
    # (it need not sit at chance: an untrained net's argmax still correlates
    # with glyph geometry, so class-conditional accuracy can dip below 25%)
    assert accuracy(net, *synth_shapes(512, seed=2)) < 0.5


def test_fit_reports_validation_and_decay():
    xy = synth_shapes(64, seed=7)
    val = synth_shapes(32, seed=8)
    net = build_tiny_net("C4", variant="plain", channels=4, seed=4)
    lines = []
    history, _ = fit(net, xy, val, epochs=2, batch=32, lr=0.01, seed=4,
                     log=lines.append, lr_decay_epochs=(1,))
    assert len(history) == 2 and len(lines) == 2
    assert history[0]["lr"] == pytest.approx(0.01)
    assert history[1]["lr"] == pytest.approx(0.001)
    assert 0.0 <= history[-1]["val_acc"] <= 1.0
    assert "train_loss=" in lines[0]


def test_predict_and_accuracy():
    net = build_tiny_net("C4", variant="plain", channels=4, seed=5)
    x, y = synth_shapes(40, seed=9)
    preds = predict(net, x, batch=16)
    assert preds.shape == (40,)
    assert set(preds) <= {0, 1, 2, 3}
    acc = accuracy(net, x, y, batch=16)
    assert acc == pytest.approx(np.mean(preds == y))


def test_attentive_variant_tracks_plain_baseline():
    """At a matched parameter budget (3204 vs 3199), the fully attentive net's
    test error stays within 2 points of the plain net's on every seed.

    Slowest test in the file: trains six small nets, about two minutes.
    Margins at these settings are 6+ points in the attentive net's favor.
    """
    train = synth_shapes(1024, seed=10)
    test = synth_shapes(512, seed=12)

    def err(variant, channels, seed):
        net = build_tiny_net("C4", variant=variant, channels=channels,
                             dtype="f32", seed=seed)
        fit(net, train, epochs=6, batch=64, lr=0.001, weight_decay=1e-4,
            seed=seed)
        return 1.0 - accuracy(net, *test)

    for seed in (0, 1, 2):
        e_plain = err("plain", 9, seed)
        e_full = err("full", 8, seed)
        assert e_full < 0.7  # clearly above the 25% chance floor
        assert e_full <= e_plain + 0.02
