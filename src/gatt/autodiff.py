"""Backward pass driver, gradient checking, the Adam optimizer and dropout.

The tape (see gatt.tensor) stores op records in execution order, which is a
topological order of the graph; ``backward`` consumes it once in strict
reverse, freeing each record as it goes.
All randomness goes through numpy's Philox engine, a counter-based generator
with a stable cross-platform stream for a given seed.
"""
from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def new_rng(seed):
    """Seeded counter-based generator (Philox 4x64)."""
    return np.random.Generator(np.random.Philox(seed))


class Parameter(Tensor):
    __slots__ = ("name", "weight_decay")

    def __init__(self, data, dtype=None, name="", weight_decay=True):
        super().__init__(data, dtype=dtype, requires_grad=True)
        self.name = name
        self.weight_decay = bool(weight_decay)


def he_init(rng, shape, fan_in, dtype="f32", name=""):
    """Fan-in scaled normal init, std = sqrt(2 / fan_in); weight-decayed."""
    data = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape)
    return Parameter(data, dtype=dtype, name=name)


def backward(tape, loss):
    """Seed d(loss)/d(loss) = 1 and consume the tape records in reverse.

    Each record is popped off the tape and run exactly once; records whose
    output never received a gradient are skipped (they do not influence the
    loss).  Once a record has run, its output's .grad is dropped unless the
    output is a Parameter, so the record, what its closure holds and the
    intermediate gradient are freed as the backward walks the tape.  Only
    leaf gradients are left afterwards.  A tape can be consumed once; a
    second call raises ValueError.
    """
    if loss.size != 1:
        raise ValueError("backward expects a scalar loss")
    if tape.consumed:
        raise ValueError("backward already consumed this tape; record a new one")
    tape.consumed = True
    loss.grad = np.ones_like(loss.data)
    records = tape.records
    while records:
        fn, out = records.pop()
        if out.grad is None:
            continue
        fn()
        if not isinstance(out, Parameter):
            out.grad = None


def zero_grads(params):
    for p in params:
        p.grad = None


FD_STEP = 1e-5  # central-difference step h of finite_diff_grad


def finite_diff_grad(loss_fn, params):
    """Central-difference gradient of a scalar-valued closure.

    `loss_fn` takes no arguments and must not depend on an active tape; it is
    re-evaluated with each parameter coordinate nudged by +/-FD_STEP.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data, dtype=np.float64)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            lp = float(loss_fn())
            flat[i] = orig - FD_STEP
            lm = float(loss_fn())
            flat[i] = orig
            gflat[i] = (lp - lm) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def grad_rel_err(a, b):
    """max_i |a_i - b_i| / max(1, |a_i|, |b_i|)."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


class Adam:
    """Adam with decoupled-from-nothing L2: decay is added to the raw gradient."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, lr=0.001, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.step_count = 0

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.BETA1, self.BETA2
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            dt = p.data.dtype.type
            g = p.grad
            if self.weight_decay and p.weight_decay:
                g = g + dt(self.weight_decay) * p.data
            m *= dt(b1)
            m += dt(1 - b1) * g
            v *= dt(b2)
            v += dt(1 - b2) * (g * g)
            mhat = m / dt(1 - b1 ** t)
            vhat = v / dt(1 - b2 ** t)
            p.data -= dt(self.lr) * mhat / (np.sqrt(vhat) + dt(self.EPS))


def dropout(t, rate, rng):
    """Inverted dropout: keep with prob 1-rate and scale kept units by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return t
    keep = rng.random(t.shape, dtype=t.data.dtype) >= rate
    scale = t.data.dtype.type(1.0 / (1.0 - rate))
    out = Tensor(t.data * (keep.astype(t.data.dtype) * scale))

    def bwd():     # the tape keeps the bool mask; the scaled one is rebuilt here
        if t.requires_grad:
            T._accumulate(t, out.grad * (keep.astype(t.data.dtype) * scale), owned=True)

    T._record(out, (t,), bwd)
    return out
