import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gatt.autodiff import Parameter, new_rng
from gatt.cli import main
from gatt.data import (load_checkpoint, read_pgm, save_checkpoint, synth_shapes,
                       write_pgm)
from gatt.nn import build_tiny_net
from gatt.tensor import Tensor
from gatt.training import _fmt, fit


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    report = {}
    for line in out.strip().splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            report[k.strip()] = v.strip()
    return code, report


# ---------------------------------------------------------------------------
# verification subcommands

def test_check_equivariance_passes(capsys, tmp_path):
    code, rep = run_cli(capsys, "check-equivariance", "--group", "p4",
                        "--dtype", "f64", "--depth", "1",
                        "--trials", "1", "--out", str(tmp_path))
    assert code == 0
    assert rep["pass"] == "true"
    assert float(rep["max_err"]) <= 1e-10
    saved = (tmp_path / "check_equivariance.txt").read_text()
    assert "pass=true" in saved


def test_check_equivariance_tight_tolerance_fails(capsys):
    code, rep = run_cli(capsys, "check-equivariance", "--variant", "full",
                        "--depth", "1", "--trials", "1", "--dtype", "f64",
                        "--tolerance", "1e-30")
    assert code == 1
    assert rep["pass"] == "false"


def test_check_equivariance_detects_pose_bias(capsys):
    code, rep = run_cli(capsys, "check-equivariance", "--negative-control",
                        "per-h-bias", "--depth", "1", "--trials", "1",
                        "--dtype", "f64")
    assert code == 0  # detection is the passing outcome for a control
    assert rep["detected"] == "true"
    assert float(rep["max_err"]) > 1e-3


def test_check_equivariance_detects_broken_indexing(capsys):
    code, rep = run_cli(capsys, "check-equivariance", "--variant", "channel",
                        "--negative-control", "broken-w-indexing",
                        "--depth", "2", "--trials", "2", "--dtype", "f64")
    assert code == 0
    assert rep["detected"] == "true"


@pytest.mark.parametrize("variant", ["plain", "input", "spatial"])
def test_broken_indexing_control_needs_channel_attention_in_every_block(capsys, variant):
    # plain and spatial blocks hold no channel attention, nor does the input
    # variant's lifting block: the control has nothing to break (exit 2)
    code = main(["check-equivariance", "--variant", variant, "--negative-control",
                 "broken-w-indexing", "--depth", "2", "--trials", "1", "--dtype", "f64"])
    assert code == 2
    assert "broken-w-indexing needs channel attention" in capsys.readouterr().err


def test_thm1_oracle_passes(capsys):
    code, rep = run_cli(capsys, "thm1-oracle", "--group", "p4", "--dtype", "f64")
    assert code == 0
    assert rep["pass"] == "true"
    assert float(rep["max_err"]) <= 1e-10
    assert "gc_max_err_alpha_c" in rep and "lift_max_err_alpha_x" in rep


def test_thm1_oracle_per_out_channel_maps_from_config(capsys, tmp_path):
    # pool_out=False (one map per output channel) is reachable only through
    # this config key
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pool_out_channels = no\n")
    code, rep = run_cli(capsys, "thm1-oracle", "--group", "p4m", "--config", str(cfg))
    assert code == 0
    assert rep["pass"] == "true" and rep["group"] == "D4"
    assert float(rep["max_err"]) <= float(rep["tolerance"])


def test_thm1_oracle_detects_absolute_indexing(capsys):
    code, rep = run_cli(capsys, "thm1-oracle", "--negative-control",
                        "broken-w-indexing", "--dtype", "f64")
    assert code == 0
    assert rep["detected"] == "true" and rep["index_mode"] == "absolute"


def test_conv_oracle(capsys):
    code, rep = run_cli(capsys, "conv-oracle", "--dtype", "f64")
    assert code == 0
    assert rep["cases"] == "12"
    assert float(rep["max_err"]) <= 1e-12


def test_parity_demo_reports_and_dumps(capsys, tmp_path):
    code, rep = run_cli(capsys, "parity-demo", "--size", "8",
                        "--out", str(tmp_path))
    assert code == 0  # a measurement, not a pass/fail property
    assert float(rep["err_stride"]) > 0.1
    assert float(rep["err_pool"]) == 0.0
    assert rep["ratio"] == "inf"
    for name in ("parity_diff_stride.pgm", "parity_diff_pool.pgm"):
        plane = read_pgm(tmp_path / name)
        assert plane.shape == (4, 4)


def test_gradcheck_command(capsys):
    code, rep = run_cli(capsys, "gradcheck")
    assert code == 0
    assert float(rep["max_err"]) <= 1e-4
    assert "err_group_conv" in rep and "err_attentive_full" in rep


# ---------------------------------------------------------------------------
# usage and config errors

def test_unknown_config_key_exits_2(capsys, tmp_path):
    # residual_branch is no key: the sigmoid gate it selected is a sign flip of w2 and psi
    cfg = tmp_path / "bad.cfg"
    for text in ("learning_rate = 0.1\n", "residual_branch = true\n"):
        cfg.write_text(text)
        code = main(["gradcheck", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2, text
        assert "unknown key" in err, text


def test_missing_config_file_exits_2(capsys, tmp_path):
    code = main(["gradcheck", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2


def test_argparse_rejects_unknown_choice():
    with pytest.raises(SystemExit) as exc:
        main(["check-equivariance", "--group", "p8"])
    assert exc.value.code == 2


def test_missing_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def input_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    assert main(_train_args(out, "--variant", "input")) == 0
    return str(out / "model.ckpt")


@pytest.mark.parametrize("argv", [
    ["check-equivariance", "--depth", "0"],
    ["check-equivariance", "--depth", "-1"],
    ["check-equivariance", "--trials", "0"],
    ["check-equivariance", "--tolerance", "nan"],
    ["check-equivariance", "--tolerance", "inf"],
    ["check-equivariance", "--tolerance", "-1"],
    ["parity-demo", "--size", "0"],
    ["attend", "--layer", "99"],
    ["attend", "--sample-index", "-1"],
    ["attend", "--channels", "0"],
    ["train", "--channels", "0"],
    ["train", "--epochs", "-1"],
    ["train", "--epochs", "0"],
    ["train", "--batch", "0"],
    ["train", "--train-size", "0"],
    ["train", "--limit", "0"],
    ["train", "--lr", "nan"],
    ["train", "--lr", "inf"],
    ["train", "--lr", "0"],
    ["train", "--lr", "-1"],
    ["train", "--weight-decay", "nan"],
    ["train", "--weight-decay", "inf"],
    ["train", "--weight-decay", "-1"],
    ["train", "--lr-decay", "-1"],
    ["train", "--lr-decay", "0"],
    ["train", "--dropout", "1.5"],
    ["train", "--dropout", "nan"],
], ids=lambda argv: " ".join(argv))
def test_out_of_range_arguments_exit_2(capsys, input_checkpoint, argv):
    # valid arguments first; the bad value comes last, so it wins over any earlier one
    if argv[0] == "attend":
        argv = ["attend", "--checkpoint", input_checkpoint, "--variant", "input",
                "--channels", "4", "--seed", "5"] + argv[1:]
    if argv[0] == "train":
        argv = ["train", "--data", "synth", "--train-size", "32", "--epochs", "1",
                "--channels", "4"] + argv[1:]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejects the value itself
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("line", ["epochs = -1", "epochs = 0", "batch = 0",
                                  "reduction_ratio = 0", "filter_size = 0"])
def test_train_config_counts_below_one_exit_2(capsys, tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    code = main(["train", "--config", str(cfg), "--data", "synth", "--train-size", "32",
                 "--channels", "4", "--variant", "full"])
    assert code == 2
    err = capsys.readouterr().err
    assert "must be >= 1" in err
    assert "Traceback" not in err


def test_rotmnist_without_data_dir_exits_2(capsys, monkeypatch):
    monkeypatch.delenv("GATT_DATA_DIR", raising=False)
    code = main(["train", "--data", "rotmnist", "--epochs", "1"])
    assert code == 2
    assert "data" in capsys.readouterr().err.lower()


def test_rotmnist_missing_files_exit_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("GATT_DATA_DIR", str(tmp_path))
    code = main(["train", "--data", "rotmnist", "--epochs", "1"])
    assert code == 2


def test_rotmnist_with_tiny_arch_exits_2_before_loading(capsys, monkeypatch, tmp_path):
    # the tiny net is 4-way: the pairing is rejected before the digits are rotated
    def unreachable(*args, **kwargs):
        raise AssertionError("make_rotmnist ran before the architecture check")
    monkeypatch.setattr("gatt.cli.make_rotmnist", unreachable)
    monkeypatch.setenv("GATT_DATA_DIR", str(tmp_path))
    code = main(["train", "--data", "rotmnist", "--arch", "tiny", "--epochs", "1"])
    assert code == 2
    assert "4-way" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# training and attention dumps

def _train_args(out_dir, *extra):
    return ["train", "--data", "synth", "--train-size", "64", "--epochs", "1",
            "--channels", "4", "--seed", "5", "--out", str(out_dir)] + list(extra)


def test_train_writes_log_and_checkpoint(capsys, tmp_path):
    code, rep = run_cli(capsys, *_train_args(tmp_path))
    assert code == 0
    assert 0.0 <= float(rep["test_acc"]) <= 1.0
    assert float(rep["test_err_percent"]) == pytest.approx(
        100.0 * (1.0 - float(rep["test_acc"])), abs=1e-6)
    log = (tmp_path / "train_log.txt").read_text()
    assert "final_val_acc=" in log and "epoch=0" in log
    # the checkpoint is the model: its parameters and BatchNorm statistics, no optimizer state
    net = build_tiny_net("C4", variant="plain", channels=4, seed=5)
    tensors = net.params() + net.buffers()
    initial = {t.name: t.data.copy() for t in tensors}
    with np.load(tmp_path / "model.ckpt") as ckpt:
        assert ckpt["format"] == 2
        assert sorted(ckpt.files) == sorted(["format", *initial])
        assert not np.array_equal(ckpt["bn1.running_var"], initial["bn1.running_var"])
        load_checkpoint(tmp_path / "model.ckpt", tensors)
        for t in tensors:
            np.testing.assert_array_equal(t.data, ckpt[t.name])


def test_train_exits_1_on_a_nan_input(capsys, monkeypatch):
    def nan_shapes(n, seed):
        x, y = synth_shapes(n, seed=seed)
        x[:, :, 0, 0] = np.nan
        return x, y
    monkeypatch.setattr("gatt.cli.synth_shapes", nan_shapes)
    code = main(["train", "--data", "synth", "--train-size", "32", "--channels", "4"])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: non-finite gradient of conv1.weight at epoch 0 step 0\n"


def test_train_is_deterministic(capsys, tmp_path):
    _, rep1 = run_cli(capsys, *_train_args(tmp_path / "a"))
    _, rep2 = run_cli(capsys, *_train_args(tmp_path / "b"))
    assert rep1["final_train_loss"] == rep2["final_train_loss"]
    assert rep1["test_acc"] == rep2["test_acc"]


def test_train_config_file_with_cli_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 9\nseed = 1\nvariant = plain\n")
    code = main(["train", "--config", str(cfg), "--data", "synth",
                 "--train-size", "32", "--epochs", "1", "--channels", "4"])
    out = capsys.readouterr().out
    assert code == 0
    # the --epochs flag overrides the config file's 9
    assert out.count("epoch=") == 1


def test_attend_round_trip(capsys, tmp_path):
    # input attention, and full attention with per-out-channel maps, which
    # only the pool_out_channels key reaches
    per_out = tmp_path / "per_out.cfg"
    per_out.write_text("pool_out_channels = no\n")
    for variant, config in (("input", []), ("full", ["--config", str(per_out)])):
        out = tmp_path / variant
        code, _ = run_cli(capsys, *_train_args(out, "--variant", variant, *config))
        assert code == 0, variant
        code, rep = run_cli(capsys, "attend", "--checkpoint", str(out / "model.ckpt"),
                            "--variant", variant, "--channels", "4", "--seed", "5",
                            "--out", str(out), *config)
        assert code == 0, variant
        assert rep["pass"] == "true", variant
        assert float(rep["max_err"]) <= 1e-4, variant
        for h in range(4):
            montage = read_pgm(out / f"attend_h{h}.pgm")
            assert montage.shape[0] == 16 * 8  # input extent x the montage's 8x upsample


def _reject_non_finite(token):
    raise AssertionError(f"report JSON holds the non-standard constant {token}")


@pytest.mark.parametrize("argv, name", [
    (["check-equivariance", "--depth", "1", "--trials", "1", "--dtype", "f64"],
     "check_equivariance"),
    (["thm1-oracle", "--dtype", "f64"], "thm1_oracle"),
    (["conv-oracle"], "conv_oracle"),
    (["parity-demo", "--size", "8"], "parity_demo"),
    (["gradcheck"], "gradcheck"),
    (["attend", "--variant", "input", "--channels", "4", "--seed", "5"], "attend"),
])
def test_report_json_twin_holds_the_text_report(capsys, tmp_path, input_checkpoint,
                                                argv, name):
    # <name>.json is strict JSON from the same dict as <name>.txt: the same
    # keys in the same order, each value printing as its text line, and a
    # non-finite float (parity-demo's ratio) as null
    if argv[0] == "attend":
        argv = argv + ["--checkpoint", input_checkpoint]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    text = (tmp_path / f"{name}.txt").read_text()
    assert printed == text
    lines = [line.split("=", 1) for line in text.splitlines()]
    doc = json.loads((tmp_path / f"{name}.json").read_text(),
                     parse_constant=_reject_non_finite)
    assert list(doc) == [k for k, _ in lines]
    for key, value in lines:
        if doc[key] is None:
            assert value in ("nan", "inf", "-inf"), key
        else:
            assert _fmt(doc[key]) == value, key
    if name == "parity_demo":
        assert doc["ratio"] is None


def test_attend_plain_variant_exits_2(capsys, tmp_path):
    run_cli(capsys, *_train_args(tmp_path))
    code = main(["attend", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--variant", "plain", "--channels", "4"])
    assert code == 2
    assert "attention" in capsys.readouterr().err


def test_attend_checkpoint_mismatch_exits_2(capsys, tmp_path):
    run_cli(capsys, *_train_args(tmp_path, "--variant", "input"))
    # wrong width: the manifest no longer matches the rebuilt network
    code = main(["attend", "--checkpoint", str(tmp_path / "model.ckpt"),
                 "--variant", "input", "--channels", "8"])
    assert code == 2


def test_attend_truncated_checkpoint_exits_2(capsys, tmp_path):
    run_cli(capsys, *_train_args(tmp_path, "--variant", "input"))
    ckpt = tmp_path / "model.ckpt"
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:-3])
    code = main(["attend", "--checkpoint", str(cut), "--variant", "input",
                 "--channels", "4", "--seed", "5"])
    assert code == 2
    assert "truncated" in capsys.readouterr().err


def test_attend_panel_misfit_exits_2_before_any_output(capsys, tmp_path):
    # the 2x2 pooling cannot halve a 15x15 input exactly: a usage error
    # found before the report is printed or attend.txt written
    run_cli(capsys, *_train_args(tmp_path, "--variant", "full"))
    image, out = tmp_path / "odd.pgm", tmp_path / "maps"
    write_pgm(image, new_rng(0).random((15, 15)))
    code = main(["attend", "--checkpoint", str(tmp_path / "model.ckpt"), "--variant", "full",
                 "--channels", "4", "--seed", "5", "--image", str(image), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "does not divide" in captured.err
    assert not (out / "attend.txt").exists()


def test_attend_unpoolable_extent_exits_2_without_out(capsys, tmp_path, input_checkpoint):
    # no map of a 15x15 input obeys the relabeling law after 2x2 pooling, so
    # its consistency error is a usage error, not a property failure
    image = tmp_path / "odd.pgm"
    write_pgm(image, new_rng(0).random((15, 15)))
    code = main(["attend", "--checkpoint", input_checkpoint, "--variant", "input",
                 "--channels", "4", "--seed", "5", "--image", str(image)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "does not divide" in captured.err


def test_attend_empty_image_exits_2_and_writes_nothing(capsys, tmp_path, input_checkpoint):
    # a 0x0 graymap is malformed input: read_pgm rejects it before the net runs
    image, out = tmp_path / "empty.pgm", tmp_path / "maps"
    image.write_bytes(b"P5\n0 0\n255\n")
    code = main(["attend", "--checkpoint", input_checkpoint, "--variant", "input",
                 "--channels", "4", "--seed", "5", "--image", str(image), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(image) in captured.err and "width must be a positive integer" in captured.err
    assert not (out / "attend.txt").exists()


def test_checkpoint_with_conv_biases_is_rejected(capsys, tmp_path):
    # a checkpoint of a net whose convolutions had biases holds convN.bias
    # members: the loader names them, assigns nothing, and attend exits 2
    old = build_tiny_net("C4", variant="full", channels=4, seed=6)
    conv_biases = [Parameter(np.ones(4), dtype="f32", name=f"conv{i}.bias") for i in (1, 2)]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, old.params() + old.buffers() + conv_biases)
    net = build_tiny_net("C4", variant="full", channels=4, seed=5)
    tensors = net.params() + net.buffers()
    before = [t.data.copy() for t in tensors]
    with pytest.raises(ValueError, match="conv2.bias"):
        load_checkpoint(path, tensors)
    for t, data in zip(tensors, before):
        np.testing.assert_array_equal(t.data, data)
    code = main(["attend", "--checkpoint", str(path), "--variant", "full",
                 "--channels", "4", "--seed", "5"])
    assert code == 2
    assert "conv2.bias" in capsys.readouterr().err


def _readme_conversion():
    """The README's one-line command that drops a checkpoint's Adam members."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [line] = [ln for ln in readme.read_text().splitlines()
              if ln.startswith("python3 -c") and "adam." in ln]
    return shlex.split(line)


def test_checkpoint_with_adam_state_is_rejected_and_converts(capsys, tmp_path):
    # earlier versions of `gatt train` also saved Adam's step and moments:
    # the loader names them and assigns nothing, and attend exits 2 and
    # writes nothing; the README's conversion drops them, and the result
    # reloads to the writer's eval logits bit for bit
    old = build_tiny_net("C4", variant="full", channels=4, seed=6)
    _, opt = fit(old, synth_shapes(16, seed=0), epochs=1, batch=8, seed=0)
    members = {"format": np.array(2), **{t.name: t.data for t in old.params() + old.buffers()},
               "adam.step": np.array(opt.step_count)}
    for p, m, v in zip(opt.params, opt.m, opt.v):
        members[f"adam.m.{p.name}"], members[f"adam.v.{p.name}"] = m, v
    path, out = tmp_path / "model.ckpt", tmp_path / "maps"
    with open(path, "wb") as fh:
        np.savez(fh, **members)
    net = build_tiny_net("C4", variant="full", channels=4, seed=5)
    tensors = net.params() + net.buffers()
    before = [t.data.copy() for t in tensors]
    with pytest.raises(ValueError, match=r"unexpected \['adam\."):
        load_checkpoint(path, tensors)
    for t, data in zip(tensors, before):
        np.testing.assert_array_equal(t.data, data)
    code = main(["attend", "--checkpoint", str(path), "--variant", "full",
                 "--channels", "4", "--seed", "5", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "adam.m.conv2.weight.npy" in captured.err
    assert not (out / "attend.txt").exists()

    converted = tmp_path / "model.npz"
    cmd = _readme_conversion()
    assert cmd[-2:] == ["model.ckpt", "model.npz"]
    subprocess.run([sys.executable] + cmd[1:-2] + [str(path), str(converted)],
                   check=True, timeout=120)
    load_checkpoint(converted, tensors)
    x = Tensor(synth_shapes(8, seed=3)[0])
    np.testing.assert_array_equal(net.forward(x).data, old.forward(x).data)
    assert main(["attend", "--checkpoint", str(converted), "--variant", "full",
                 "--channels", "4", "--seed", "5"]) == 0


@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_attend_unreadable_checkpoint_path_exits_2(capsys, tmp_path, where):
    # a directory, or a path whose parent is a regular file, is a usage error
    path = tmp_path
    if where == "under_a_file":
        (tmp_path / "plain").write_bytes(b"")
        path = tmp_path / "plain" / "model.ckpt"
    code = main(["attend", "--checkpoint", str(path), "--variant", "full",
                 "--channels", "4", "--seed", "5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# installed entry point

def test_console_entry_point_runs():
    exe = shutil.which("gatt")
    cmd = [exe] if exe else [sys.executable, "-m", "gatt.cli"]
    # the package's own src/ first, so an uninstalled checkout runs too
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(cmd + ["parity-demo", "--size", "8"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "err_stride=" in proc.stdout
