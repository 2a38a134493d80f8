"""Command-line harness.

Subcommands: check-equivariance, thm1-oracle, conv-oracle, parity-demo,
gradcheck, train, attend.  Every command but train prints a line-oriented
key=value report to stdout and, when an output directory is given, writes it
to `--out/<command>.txt` and, as one JSON object, to `--out/<command>.json`.
Exit codes: 0 = pass, 1 = property failure, 2 = usage or config error.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .data import (ConfigError, GROUP_ALIASES, attention_montage, load_config,
                   make_rotmnist, read_pgm, save_checkpoint, load_checkpoint,
                   synth_shapes, write_pgm)
from .groups import transform_array
from .nn import VARIANTS, build_digit_net, build_tiny_net
from .training import _fmt, accuracy, fit
from .verify import (alpha_panels, alpha_x_consistency, attention_relabel_report,
                     attentive_block_indices, conv_oracle_report, gradcheck_report,
                     parity_report, stack_suite)

DATA_DIR_ENV = "GATT_DATA_DIR"


def _json_value(v):
    """A report value as strict JSON: numpy scalars become Python scalars and
    a non-finite float becomes null."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def emit(report, out_dir, name):
    """Print the report; with out_dir, also write it to <name>.txt and,
    from the same dict, to <name>.json."""
    text = "".join(f"{k}={_fmt(v)}\n" for k, v in report.items())
    sys.stdout.write(text)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{name}.txt").write_text(text)
        doc = {k: _json_value(v) for k, v in report.items()}
        (out / f"{name}.json").write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")


def _resolve_config(args, **extra):
    overrides = {}
    for key in ("group", "variant", "seed", "dtype"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    for key, val in extra.items():
        if val is not None:
            overrides[key] = val
    return load_config(path=getattr(args, "config", None), overrides=overrides)


def _default_tolerance(dtype):
    return 1e-10 if dtype == "f64" else 1e-4


# ---------------------------------------------------------------------------
# subcommands

def cmd_check_equivariance(args):
    cfg = _resolve_config(args)
    tol = args.tolerance if args.tolerance is not None else _default_tolerance(cfg.dtype)
    summary, reports = stack_suite(cfg.group_name, cfg.variant,
                                   max_depth=args.depth, trials=args.trials,
                                   seed=cfg.seed, dtype=cfg.dtype, tolerance=tol,
                                   negative_control=args.negative_control)
    for i, rep in enumerate(reports):
        summary[f"trial{i}_depth"] = rep["depth"]
        summary[f"trial{i}_max_err"] = rep["max_err"]
    emit(summary, args.out, "check_equivariance")
    if args.negative_control:
        return 0 if summary["detected"] else 1
    return 0 if summary["pass"] else 1


def cmd_thm1_oracle(args):
    cfg = _resolve_config(args)
    tol = args.tolerance if args.tolerance is not None else _default_tolerance(cfg.dtype)
    index_mode = "absolute" if args.negative_control == "broken-w-indexing" else "relative"
    report = {"group": cfg.group_name, "dtype": cfg.dtype, "tolerance": tol,
              "index_mode": index_mode}
    cases = [("gc", False)] if args.negative_control else [("gc", False), ("lift", True)]
    worst = 0.0
    for prefix, lifting in cases:
        rep = attention_relabel_report(cfg.group_name, seed=cfg.seed,
                                       dtype=cfg.dtype, lifting=lifting,
                                       index_mode=index_mode,
                                       pool_out=cfg.pool_out_channels,
                                       tolerance=tol,
                                       att_kernel=cfg.filter_size)
        for k, v in rep.items():
            if k.startswith("err_") or k.startswith("max_err"):
                report[f"{prefix}_{k}"] = v
        worst = max(worst, rep["max_err"])
    report["max_err"] = worst
    report["pass"] = worst <= tol
    if args.negative_control:
        report["negative_control"] = args.negative_control
        report["detected"] = not report["pass"]
        emit(report, args.out, "thm1_oracle")
        return 0 if report["detected"] else 1
    emit(report, args.out, "thm1_oracle")
    return 0 if report["pass"] else 1


def cmd_conv_oracle(args):
    cfg = _resolve_config(args)
    tol = args.tolerance if args.tolerance is not None else 1e-12
    report = conv_oracle_report(seed=cfg.seed, tolerance=tol)
    emit(report, args.out, "conv_oracle")
    return 0 if report["pass"] else 1


def cmd_parity_demo(args):
    cfg = _resolve_config(args)
    report, maps = parity_report(size=args.size, seed=cfg.seed, dtype=cfg.dtype)
    emit(report, args.out, "parity_demo")
    if args.out:
        for name, plane in maps.items():
            hi = plane.max()
            write_pgm(Path(args.out) / f"parity_diff_{name}.pgm",
                      plane / hi if hi > 0 else plane)
    return 0


def cmd_gradcheck(args):
    cfg = _resolve_config(args)
    tol = args.tolerance if args.tolerance is not None else 1e-4
    report = gradcheck_report(seed=cfg.seed, tolerance=tol)
    emit(report, args.out, "gradcheck")
    return 0 if report["pass"] else 1


def _data_dir(args):
    path = args.data_dir or os.environ.get(DATA_DIR_ENV)
    if not path:
        raise ConfigError(f"no dataset directory: pass --data-dir or set {DATA_DIR_ENV}")
    return path


def _build_net(cfg, arch, dropout_rate, channels):
    build = build_tiny_net if arch == "tiny" else build_digit_net
    kwargs = dict(group_name=cfg.group_name, variant=cfg.variant,
                  reduction_ratio=cfg.reduction_ratio, att_kernel=cfg.filter_size,
                  dtype=cfg.dtype, seed=cfg.seed,
                  pool_out=cfg.pool_out_channels, dropout_rate=dropout_rate)
    if channels is not None:
        kwargs["channels"] = channels
    return build(**kwargs)


def cmd_train(args):
    cfg = _resolve_config(args, epochs=args.epochs, batch=args.batch, lr=args.lr)
    arch = args.arch or ("tiny" if args.data == "synth" else "digit")
    dropout_rate = args.dropout if args.dropout is not None else \
        (0.0 if args.data == "synth" else 0.3)
    if args.data == "synth":
        train = synth_shapes(args.train_size, seed=cfg.seed)
        val = synth_shapes(512, seed=cfg.seed + 1)
        test = synth_shapes(512, seed=cfg.seed + 2)
        n_classes = 4
    else:
        train, val, test = make_rotmnist(_data_dir(args), seed=cfg.seed)
        n_classes = 10
    if args.limit:
        train = (train[0][:args.limit], train[1][:args.limit])
        val = (val[0][:512], val[1][:512])
        test = (test[0][:2048], test[1][:2048])
    if args.normalize:
        mean = train[0].mean()
        train = (train[0] - mean, train[1])
        val = (val[0] - mean, val[1])
        test = (test[0] - mean, test[1])
    net = _build_net(cfg, arch, dropout_rate, args.channels)
    if arch == "tiny" and n_classes != 4:
        raise ConfigError("tiny architecture is 4-way; use --arch digit")

    lines = []

    def log(line):
        print(line)
        lines.append(line)

    log(f"data={args.data} arch={arch} group={cfg.group} variant={cfg.variant} "
        f"params={net.param_count()} dropout={dropout_rate:g} seed={cfg.seed}")
    history, opt = fit(net, train, val, epochs=cfg.epochs, batch=cfg.batch,
                       lr=cfg.lr, weight_decay=args.weight_decay, seed=cfg.seed,
                       log=log, lr_decay_epochs=args.lr_decay or ())
    test_acc = accuracy(net, *test)
    final = {
        "final_train_loss": history[-1]["train_loss"] if history else float("nan"),
        "final_val_acc": history[-1].get("val_acc", float("nan")) if history else float("nan"),
        "test_acc": test_acc,
        "test_err_percent": 100.0 * (1.0 - test_acc),
    }
    for k, v in final.items():
        log(f"{k}={_fmt(v)}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "train_log.txt").write_text("\n".join(lines) + "\n")
        save_checkpoint(out / "model.ckpt", net.params() + net.buffers(), opt)
    return 0


def cmd_attend(args):
    cfg = _resolve_config(args)
    arch = args.arch or "tiny"
    net = _build_net(cfg, arch, 0.0, args.channels)
    blocks = attentive_block_indices(net)
    if not blocks:
        raise ConfigError(f"variant {cfg.variant!r} produces no spatial attention map")
    load_checkpoint(args.checkpoint, net.params() + net.buffers())
    if args.image:
        plane = read_pgm(args.image).astype(np.float32) / np.float32(255.0)
        x = plane[None, None]
    else:
        xs, _ = synth_shapes(args.sample_index + 1, seed=cfg.seed + 3)
        x = xs[args.sample_index:args.sample_index + 1]
    if cfg.dtype == "f64":
        x = x.astype(np.float64)
    index = args.layer if args.layer is not None else blocks[0]
    tol = args.tolerance if args.tolerance is not None else _default_tolerance(cfg.dtype)
    report, maps = alpha_x_consistency(net, x, index, tolerance=tol)
    report["arch"] = arch
    report["variant"] = cfg.variant
    # montages before any output: a panel that does not fit the input is a
    # usage error, which must leave nothing printed or written
    grp = net.group
    montages = [attention_montage(transform_array(grp, h, x)[0, 0], alpha_panels(maps[h]))
                for h in range(grp.order)] if args.out else []
    emit(report, args.out, "attend")
    for h, montage in enumerate(montages):
        write_pgm(Path(args.out) / f"attend_h{h}.pgm", montage)
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# parser

def _int_from(minimum):
    """argparse type: an int no smaller than `minimum` (else a usage error)."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def _float_from(minimum, strict):
    """argparse type: a finite float >= `minimum` (> `minimum` if `strict`)."""
    def parse(text):
        value = float(text)
        if not math.isfinite(value) or value < minimum or (strict and value == minimum):
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {minimum:g}, got {value}")
        return value
    parse.__name__ = "float"
    return parse


def _dropout_rate(text):
    """argparse type: a finite float in [0, 1)."""
    value = _float_from(0.0, False)(text)
    if value >= 1.0:
        raise argparse.ArgumentTypeError(f"must be < 1, got {value}")
    return value


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key=value run configuration file")
    common.add_argument("--seed", type=int)
    common.add_argument("--dtype", choices=("f32", "f64"))
    common.add_argument("--group", choices=tuple(GROUP_ALIASES))
    common.add_argument("--variant", choices=VARIANTS)
    common.add_argument("--out", help="directory for reports and emitted images")
    common.add_argument("--tolerance", type=_float_from(0.0, False))

    parser = argparse.ArgumentParser(
        prog="gatt",
        description="Group-equivariant attention network harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-equivariance", parents=[common],
                       help="transform-vs-compute sweep over random stacks")
    p.add_argument("--depth", type=_int_from(1), default=3, help="maximum stack depth")
    p.add_argument("--trials", type=_int_from(1), default=5)
    p.add_argument("--negative-control",
                   choices=("per-h-bias", "broken-w-indexing"))
    p.set_defaults(func=cmd_check_equivariance)

    p = sub.add_parser("thm1-oracle", parents=[common],
                       help="attention-map relabeling law for one layer")
    p.add_argument("--negative-control", choices=("broken-w-indexing",))
    p.set_defaults(func=cmd_thm1_oracle)

    p = sub.add_parser("conv-oracle", parents=[common],
                       help="group convolution vs the literal double-sum")
    p.set_defaults(func=cmd_conv_oracle)

    p = sub.add_parser("parity-demo", parents=[common],
                       help="stride-2 subsampling vs 2x2 pooling: equivariance error")
    p.add_argument("--size", type=_int_from(1), default=32)
    p.set_defaults(func=cmd_parity_demo)

    p = sub.add_parser("gradcheck", parents=[common],
                       help="taped gradients vs central finite differences")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", parents=[common], help="train a small classifier")
    p.add_argument("--data", choices=("synth", "rotmnist"), default="synth")
    p.add_argument("--data-dir", help=f"digit file directory (or ${DATA_DIR_ENV})")
    p.add_argument("--arch", choices=("tiny", "digit"))
    p.add_argument("--epochs", type=_int_from(1))
    p.add_argument("--batch", type=_int_from(1))
    p.add_argument("--lr", type=_float_from(0.0, True))
    p.add_argument("--weight-decay", type=_float_from(0.0, False), default=1e-4)
    p.add_argument("--dropout", type=_dropout_rate)
    p.add_argument("--channels", type=_int_from(1))
    p.add_argument("--train-size", type=_int_from(1), default=2048)
    p.add_argument("--limit", type=_int_from(1), help="cap the training set (smoke runs)")
    p.add_argument("--normalize", action="store_true",
                   help="subtract the training-set mean")
    p.add_argument("--lr-decay", type=_int_from(1), nargs="*",
                   help="epochs at which to multiply the rate by 0.1")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("attend", parents=[common],
                       help="dump spatial attention maps for transformed inputs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--arch", choices=("tiny", "digit"))
    p.add_argument("--channels", type=_int_from(1))
    p.add_argument("--image", help="PGM input; default is a generated sample")
    p.add_argument("--sample-index", type=_int_from(0), default=0)
    p.add_argument("--layer", type=int, help="network layer index to inspect")
    p.set_defaults(func=cmd_attend)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:     # train's non-finite loss or gradient
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
