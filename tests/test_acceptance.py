"""End-to-end acceptance checks.

One test per shipped guarantee.  Each prints a single scoreboard line with
the measured numbers (visible with -rA or -s, and in any failure report) and
then asserts the guarantee at its stated tolerance and runtime budget.
"""
import gzip
import os
import struct
import time

import numpy as np
import pytest

from gatt.autodiff import Adam
from gatt.data import (load_idx_images, make_rotmnist, read_idx, read_pgm,
                       save_checkpoint, load_checkpoint, synth_shapes, write_pgm)
from gatt.nn import ForwardCtx, build_digit_net, build_tiny_net
from gatt.tensor import Tensor
from gatt.training import accuracy, fit
from gatt.verify import (alpha_x_consistency, attention_relabel_report,
                         attentive_block_indices, conv_oracle_report,
                         gradcheck_report, parity_report, stack_suite)


def scoreboard(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_a1_random_stacks_are_equivariant():
    t0 = time.monotonic()
    worst = {}
    for group in ("C4", "D4"):
        summary, _ = stack_suite(group, "plain", max_depth=3, trials=5,
                                 dtype="f64", tolerance=1e-10)
        worst[group] = summary["max_err"]
    dt = time.monotonic() - t0
    ok = max(worst.values()) <= 1e-10 and dt < 30
    scoreboard("stack-equivariance", ok,
               f"C4 {worst['C4']:.3g}, D4 {worst['D4']:.3g} (tol 1e-10, {dt:.1f}s)")
    assert ok


def test_a2_attention_maps_relabel_with_the_input():
    t0 = time.monotonic()
    worst = 0.0
    for group in ("C4", "D4"):
        for lifting in (False, True):
            rep = attention_relabel_report(group, dtype="f64", lifting=lifting,
                                           tolerance=1e-10)
            worst = max(worst, rep["max_err"])
    bad_idx = attention_relabel_report("C4", dtype="f64", index_mode="absolute",
                                       tolerance=1e-10)
    bias_summary, _ = stack_suite("C4", "full", max_depth=2, trials=2,
                                  dtype="f64", tolerance=1e-10,
                                  negative_control="per-h-bias")
    dt = time.monotonic() - t0
    ok = (worst <= 1e-10 and bad_idx["detected"] and bias_summary["detected"]
          and dt < 60)
    scoreboard("attention-map-relabeling", ok,
               f"max {worst:.3g} (tol 1e-10); controls: absolute-index err "
               f"{bad_idx['max_err']:.3g}, per-pose-bias err "
               f"{bias_summary['max_err']:.3g}, both detected ({dt:.1f}s)")
    assert ok


def test_a3_group_conv_matches_literal_double_sum():
    t0 = time.monotonic()
    rep = conv_oracle_report(tolerance=1e-12)
    dt = time.monotonic() - t0
    ok = rep["pass"] and rep["cases"] == 36 and dt < 60
    scoreboard("double-sum-oracle", ok,
               f"{rep['cases']} cases, max {rep['max_err']:.3g} "
               f"(tol 1e-12, {dt:.1f}s)")
    assert ok


def test_a4_gradients_match_finite_differences():
    t0 = time.monotonic()
    rep = gradcheck_report(tolerance=1e-4)
    dt = time.monotonic() - t0
    families = sorted(k for k in rep if k.startswith("err_"))
    ok = rep["pass"] and len(families) == 11 and dt < 300
    scoreboard("gradcheck", ok,
               f"{len(families)} families, max rel err {rep['max_err']:.3g} "
               f"(tol 1e-4, {dt:.1f}s)")
    assert ok


def test_a5_pooled_downsampling_beats_strided_at_even_extents():
    t0 = time.monotonic()
    even, _ = parity_report(size=32, dtype="f32")
    odd, _ = parity_report(size=33, dtype="f32")
    dt = time.monotonic() - t0
    ok = even["ratio"] >= 100 and odd["err_stride"] <= 1e-6 and dt < 30
    scoreboard("downsampling-parity", ok,
               f"32px stride/pool error ratio {even['ratio']:.3g} (>=100); "
               f"33px stride err {odd['err_stride']:.3g} (<=1e-6) ({dt:.1f}s)")
    assert ok


@pytest.mark.xfail(strict=True, reason=(
    "a quarter turn of an odd-extent plane maps the 2x2 pooling grid onto a "
    "misaligned grid, so the pool net cannot be exactly equivariant there "
    "(measured error ~4.6)"))
def test_a5_pooling_is_not_exact_at_odd_extents():
    odd, _ = parity_report(size=33, dtype="f32")
    scoreboard("downsampling-parity-odd-pool", odd["err_pool"] <= 1e-6,
               f"33px pool err {odd['err_pool']:.3g} (<=1e-6)")
    assert odd["err_pool"] <= 1e-6


def test_a6_tiny_attentive_net_learns_and_attends_consistently():
    t0 = time.monotonic()
    train = synth_shapes(2048, seed=0)
    test = synth_shapes(512, seed=2)
    net = build_tiny_net("C4", variant="input", dtype="f32", seed=0)
    fit(net, train, epochs=12, batch=128, lr=0.001, weight_decay=1e-4, seed=0)
    acc = accuracy(net, *test)
    x = synth_shapes(1, seed=7)[0]
    rep, _ = alpha_x_consistency(net, x, attentive_block_indices(net)[0],
                                 tolerance=1e-4)
    dt = time.monotonic() - t0
    ok = acc >= 0.95 and rep["pass"] and dt < 300
    scoreboard("learning-smoke", ok,
               f"test acc {acc:.3f} (>=0.95); trained attention-map "
               f"consistency {rep['max_err']:.3g} (<=1e-4) ({dt:.1f}s)")
    assert ok


def test_a7_digit_benchmark_wiring_and_optional_full_run(tmp_path):
    net = build_digit_net("C4", variant="plain", dtype="f32", seed=0)
    x = synth_shapes(2, seed=0, size=28)[0]
    logits = net.forward(Tensor(x), ForwardCtx(training=False))
    ok = logits.data.shape == (2, 10) and net.param_count() == 22240
    with pytest.raises(FileNotFoundError):
        make_rotmnist(str(tmp_path))
    scoreboard("digit-benchmark-wiring", ok,
               f"logits {logits.data.shape}, {net.param_count()} params, "
               f"missing source files raise")
    assert ok
    if not os.environ.get("GATT_EXTENDED"):
        pytest.skip("full digit benchmark runs for hours; set GATT_EXTENDED=1 "
                    "and GATT_DATA_DIR to enable")
    data = make_rotmnist(os.environ["GATT_DATA_DIR"], seed=0)
    train, val, test = data
    err = {}
    for variant in ("plain", "input"):
        accs = []
        for seed in (0, 1, 2):
            net = build_digit_net("C4", variant=variant, dtype="f32",
                                  seed=seed, dropout_rate=0.3)
            fit(net, train, val, epochs=100, batch=128, lr=0.001,
                weight_decay=1e-4, seed=seed, lr_decay_epochs=(60, 85))
            accs.append(accuracy(net, *test))
        err[variant] = 100.0 * (1.0 - float(np.mean(accs)))
    ok = abs(err["plain"] - 2.0) <= 1.0 and err["input"] <= err["plain"]
    scoreboard("digit-benchmark-full", ok,
               f"plain err {err['plain']:.2f}% (2.0 +- 1.0); attentive err "
               f"{err['input']:.2f}% (not worse)")
    assert ok


def test_a8_trained_net_reloads_to_bit_identical_logits(tmp_path):
    # a checkpoint carries the BatchNorm running statistics beside the
    # parameters; without them a reloaded net once scored 0.449 against 0.898
    train = synth_shapes(256, seed=0)
    test = synth_shapes(512, seed=2)
    net = build_tiny_net("C4", variant="input", dtype="f32", seed=0)
    _, opt = fit(net, train, epochs=3, batch=32, lr=0.01, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.params() + net.buffers(), opt)
    twin = build_tiny_net("C4", variant="input", dtype="f32", seed=1)
    moved = not any(np.array_equal(a.data, b.data)
                    for a, b in zip(net.buffers(), twin.buffers()))
    load_checkpoint(path, twin.params() + twin.buffers())
    x = Tensor(test[0])
    same = np.array_equal(net.forward(x).data, twin.forward(x).data)
    acc, twin_acc = accuracy(net, *test), accuracy(twin, *test)
    ok = moved and same and acc == twin_acc
    scoreboard("trained-reload", ok,
               f"statistics moved {moved}; eval logits bitwise {same}; "
               f"accuracy {acc:.3f} trained, {twin_acc:.3f} reloaded")
    assert ok


def _idx_images(vals):
    a = np.asarray(vals, dtype=np.uint8)
    return struct.pack(">IIII", 0x803, *a.shape) + a.tobytes()


def _idx_labels(vals):
    a = np.asarray(vals, dtype=np.uint8)
    return struct.pack(">II", 0x801, a.shape[0]) + a.tobytes()


def test_a8_persistence_round_trips(tmp_path):
    # checkpoint: train briefly so optimizer moments are nonzero, then reload
    # into a differently initialized twin and require bitwise equality
    net = build_tiny_net("C4", variant="input", channels=4, dtype="f32", seed=0)
    _, opt = fit(net, synth_shapes(8, seed=0), epochs=1, batch=8, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, net.params(), opt)
    twin = build_tiny_net("C4", variant="input", channels=4, dtype="f32", seed=1)
    topt = Adam(twin.params(), lr=opt.lr)
    load_checkpoint(path, twin.params(), topt)
    ckpt_ok = (all(np.array_equal(p.data, q.data)
                   for p, q in zip(net.params(), twin.params()))
               and topt.step_count == opt.step_count
               and all(np.array_equal(a, b) for a, b in zip(opt.m, topt.m))
               and all(np.array_equal(a, b) for a, b in zip(opt.v, topt.v)))

    # hand-built IDX bytes parse to the exact expected tensors
    vals = np.arange(12, dtype=np.uint8).reshape(2, 2, 3) * 20
    (tmp_path / "img.idx").write_bytes(_idx_images(vals))
    with gzip.open(tmp_path / "lab.idx.gz", "wb") as fh:
        fh.write(_idx_labels([3, 1]))
    magic, raw = read_idx(tmp_path / "img.idx")
    imgs = load_idx_images(tmp_path / "img.idx")
    _, labs = read_idx(tmp_path / "lab.idx.gz")
    idx_ok = (magic == 0x803 and np.array_equal(raw, vals)
              and imgs.dtype == np.float32
              and np.array_equal(imgs, vals.astype(np.float32) / np.float32(255))
              and np.array_equal(labs, np.array([3, 1])))

    # an emitted graymap re-reads to the floor-quantized plane
    rng = np.random.default_rng(5)
    plane = rng.random((5, 7))
    write_pgm(tmp_path / "p.pgm", plane)
    pgm_ok = np.array_equal(read_pgm(tmp_path / "p.pgm"),
                            np.floor(plane * 255).astype(np.uint8))

    ok = ckpt_ok and idx_ok and pgm_ok
    scoreboard("persistence", ok,
               f"checkpoint bitwise {ckpt_ok}, idx exact {idx_ok}, "
               f"graymap quantized {pgm_ok}")
    assert ok
