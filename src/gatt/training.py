"""Minimal deterministic training loop: Adam, shuffled minibatches, logging.

Everything is a pure function of (data, config, seed); running twice with the
same arguments reproduces losses bitwise.
"""
from __future__ import annotations

import time

import numpy as np

from . import tensor as T
from .autodiff import Adam, backward, new_rng, zero_grads
from .nn import ForwardCtx
from .tensor import Tape, Tensor


def minibatch_order(rng, n, batch):
    """List of index arrays covering a shuffled range; last one may be short."""
    order = rng.permutation(n)
    return [order[lo:lo + batch] for lo in range(0, n, batch)]


def predict(net, x, batch=256):
    """Class indices for a stack of inputs, evaluated without dropout."""
    ctx = ForwardCtx(training=False)
    outs = []
    for lo in range(0, x.shape[0], batch):
        logits = net.forward(Tensor(x[lo:lo + batch]), ctx)
        outs.append(np.argmax(logits.data, axis=1))
    return np.concatenate(outs)


def accuracy(net, x, y, batch=256):
    return float(np.mean(predict(net, x, batch=batch) == y))


def fit(net, train_xy, val_xy=None, epochs=10, batch=128, lr=0.001,
        weight_decay=0.0001, seed=0, log=None, lr_decay_epochs=()):
    """Train with Adam; returns (one metrics dict per epoch, the optimizer).

    The rate is multiplied by 0.1 from each epoch listed in `lr_decay_epochs`
    on.  `log`, if given, receives one preformatted key=value line per epoch.
    A non-finite minibatch loss or parameter gradient raises
    FloatingPointError before its update.  A NaN input sample need not reach
    the loss: batch norm spreads it over its channels and the ReLU maps NaN
    to 0, but the gradients of the layers before it turn NaN.
    """
    x, y = train_xy
    params = net.params()
    opt = Adam(params, lr=lr, weight_decay=weight_decay)
    shuffle_rng = new_rng(seed * 2 + 1)
    drop_rng = new_rng(seed * 2 + 2)
    ctx = ForwardCtx(training=True, rng=drop_rng)
    history = []
    for epoch in range(epochs):
        if lr_decay_epochs:
            opt.lr = lr * (0.1 ** sum(epoch >= e for e in lr_decay_epochs))
        t0 = time.monotonic()
        total_loss = 0.0
        total_hit = 0
        for step, idx in enumerate(minibatch_order(shuffle_rng, x.shape[0], batch)):
            xb = Tensor(x[idx])
            yb = y[idx]
            with Tape() as tape:
                logits = net.forward(xb, ctx)
                loss = T.softmax_cross_entropy(logits, yb)
                if not np.isfinite(loss.data):
                    raise FloatingPointError(f"non-finite training loss {float(loss.data)} "
                                             f"at epoch {epoch} step {step}")
                backward(tape, loss)
            for p in params:
                if p.grad is not None and not np.isfinite(p.grad).all():
                    raise FloatingPointError(f"non-finite gradient of {p.name} "
                                             f"at epoch {epoch} step {step}")
            opt.step()
            zero_grads(params)
            total_loss += float(loss.data) * idx.size
            total_hit += int(np.sum(np.argmax(logits.data, axis=1) == yb))
        entry = {
            "epoch": epoch,
            "lr": opt.lr,
            "train_loss": total_loss / x.shape[0],
            "train_acc": total_hit / x.shape[0],
            "seconds": time.monotonic() - t0,
        }
        if val_xy is not None:
            entry["val_acc"] = accuracy(net, *val_xy, batch=batch)
        history.append(entry)
        if log is not None:
            log(" ".join(f"{k}={_fmt(v)}" for k, v in entry.items()))
    return history, opt


def _fmt(v):
    """Report value text: true/false for bools, 10 significant digits for floats."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)
