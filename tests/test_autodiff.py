import inspect

import numpy as np
import pytest

import gatt.tensor as T
from gatt.autodiff import (Adam, Parameter, backward, dropout, finite_diff_grad,
                           grad_rel_err, he_init, new_rng, zero_grads)
from gatt.tensor import Tape, Tensor
from gatt.verify import gradcheck_cases, run_gradcheck_case


# ---------------------------------------------------------------------------
# gradient checking machinery

def test_finite_diff_on_quadratic():
    p = Parameter(np.array([1.0, -2.0, 0.5]), dtype="f64")

    def loss():
        return float((p.data ** 2).sum())

    g = finite_diff_grad(loss, [p])[0]
    np.testing.assert_allclose(g, 2.0 * p.data, atol=1e-8)


def test_grad_rel_err_definition():
    assert grad_rel_err([1.0, 2.0], [1.0, 2.0]) == 0.0
    # denominator floors at 1 for small entries
    assert grad_rel_err([0.0], [1e-6]) == pytest.approx(1e-6)
    # and scales for large ones
    assert grad_rel_err([100.0], [99.0]) == pytest.approx(1.0 / 100.0)
    assert grad_rel_err([], []) == 0.0


@pytest.mark.parametrize("case", ["elementwise", "conv2d"])
def test_gradcheck_spot_cases(case):
    # the full op-family sweep runs in the acceptance suite
    by_name = {name: (params, fn) for name, params, fn in gradcheck_cases(seed=3)}
    params, fn = by_name[case]
    assert run_gradcheck_case(params, fn) <= 1e-4


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: central differences at h=1e-5 straddle a max-route kink of "
    "the fused attentive block (alpha_C's argmax over (o, y, x) or alpha_X's "
    "over (o, c)), unconfirmed; a fix must make this pass at the same tolerance"))
@pytest.mark.parametrize("seed", [18, 987654321])
def test_gradcheck_attentive_full_at_kink_seeds(seed):
    by_name = {name: (params, fn) for name, params, fn in gradcheck_cases(seed=seed)}
    params, fn = by_name["attentive_full"]
    assert run_gradcheck_case(params, fn) <= 1e-4


def test_gradcheck_catches_a_wrong_gradient():
    p = Parameter(np.array([0.3, -0.7]), dtype="f64")

    def bad_square(a):
        out = Tensor(a.data ** 2)

        def bwd():
            if a.requires_grad:
                T._accumulate(a, out.grad * a.data, owned=True)  # missing the factor 2

        T._record(out, (a,), bwd)
        return out

    assert run_gradcheck_case([p], lambda: T.reduce(bad_square(p))) > 1e-2


def test_gradcheck_cases_cover_every_op(monkeypatch):
    # every public op of gatt.tensor that records on the tape must be called
    # by at least one gradcheck case
    ops = {name for name, fn in vars(T).items()
           if inspect.isfunction(fn) and not name.startswith("_")
           and fn.__module__ == T.__name__ and "_record(" in inspect.getsource(fn)}
    called = set()

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ops:
        monkeypatch.setattr(T, name, spy(name, getattr(T, name)))
    for _, _, loss_fn in gradcheck_cases():
        loss_fn()
    assert {"conv2d", "sub", "batch_norm", "softmax_cross_entropy"} <= ops
    assert ops - called == set()


# ---------------------------------------------------------------------------
# optimizers

def test_adam_skips_missing_grads():
    p = Parameter(np.array([2.0]), dtype="f64")
    opt = Adam([p], lr=0.5)
    opt.step()  # no grad set
    assert float(p.data[0]) == 2.0


def test_adam_constant_gradient_closed_form():
    # with a constant gradient the bias-corrected moments equal g and g^2,
    # so every step moves by exactly lr * g / (|g| + eps)
    p = Parameter(np.array([1.0]), dtype="f64")
    opt = Adam([p], lr=0.1)
    g = 0.5
    for k in range(1, 4):
        p.grad = np.array([g])
        opt.step()
        want = 1.0 - k * 0.1 * g / (g + Adam.EPS)
        assert float(p.data[0]) == pytest.approx(want, rel=1e-12)
    assert opt.step_count == 3


def test_adam_state_shapes_match_params():
    ps = [Parameter(np.zeros((2, 3)), dtype="f32"),
          Parameter(np.zeros(4), dtype="f32")]
    opt = Adam(ps, lr=0.01)
    assert [m.shape for m in opt.m] == [(2, 3), (4,)]
    assert [v.shape for v in opt.v] == [(2, 3), (4,)]


def test_weight_decay_eligibility():
    decayed = Parameter(np.array([2.0]), dtype="f64", weight_decay=True)
    frozen = Parameter(np.array([2.0]), dtype="f64", weight_decay=False)
    opt = Adam([decayed, frozen], lr=1.0, weight_decay=0.1)
    decayed.grad = np.array([0.0])
    frozen.grad = np.array([0.0])
    opt.step()
    # decay enters the raw gradient, g = 0.1 * 2; a first Adam step moves by
    # lr * g / (|g| + eps)
    assert float(decayed.data[0]) == pytest.approx(2.0 - 0.2 / (0.2 + Adam.EPS), rel=1e-12)
    assert float(frozen.data[0]) == 2.0


def test_zero_grads():
    p = Parameter(np.ones(3), dtype="f64")
    p.grad = np.ones(3)
    zero_grads([p])
    assert p.grad is None


# ---------------------------------------------------------------------------
# dropout

def test_dropout_zero_rate_is_identity():
    t = Tensor(np.ones((4, 4)))
    assert dropout(t, 0.0, new_rng(0)) is t


def test_dropout_rate_validation():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        dropout(t, 1.0, new_rng(0))
    with pytest.raises(ValueError):
        dropout(t, -0.1, new_rng(0))


def test_dropout_scales_survivors():
    t = Tensor(np.ones((100, 100)))
    out = dropout(t, 0.25, new_rng(1)).data
    vals = np.unique(out)
    np.testing.assert_allclose(vals, [0.0, 1.0 / 0.75], atol=1e-7)
    # survivor fraction stays near the keep probability
    assert abs((out > 0).mean() - 0.75) < 0.02


def test_dropout_deterministic_per_seed():
    t = Tensor(np.ones((10, 10)))
    a = dropout(t, 0.4, new_rng(7)).data
    b = dropout(t, 0.4, new_rng(7)).data
    c = dropout(t, 0.4, new_rng(8)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_gradient_uses_same_mask():
    p = Parameter(np.ones((6, 6)), dtype="f64")
    with Tape() as tape:
        out = dropout(p, 0.5, new_rng(2))
        backward(tape, T.reduce(out))
    np.testing.assert_array_equal(p.grad, (out.data > 0) * 2.0)


# ---------------------------------------------------------------------------
# rng and initialization

def test_rng_streams_are_reproducible():
    a = new_rng(123).random(8)
    b = new_rng(123).random(8)
    c = new_rng(124).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_he_init_properties():
    p = he_init(new_rng(5), (64, 32), fan_in=32, dtype="f32", name="w")
    assert p.shape == (64, 32) and p.dtype == "f32"
    assert p.name == "w" and p.requires_grad and p.weight_decay
    std = float(p.data.std())
    assert abs(std - np.sqrt(2.0 / 32)) < 0.05


def test_parameter_defaults():
    p = Parameter(np.zeros(2), dtype="f64")
    assert p.requires_grad and p.weight_decay and p.name == ""


# ---------------------------------------------------------------------------
# first-gradient assignment

def test_first_gradient_is_assigned_without_aliasing():
    a = Parameter(np.array([[1.0, -2.0, 3.0]]), dtype="f64")
    b = Parameter(np.array([0.5, 4.0, -1.0]), dtype="f64")
    x = Parameter(np.array([2.0, -3.0, 0.5]), dtype="f64")
    u = Parameter(np.array([1.5, 0.25, -2.0]), dtype="f64")
    with Tape() as tape:
        s1 = T.add(a, b)                          # b broadcast, a passed through
        s2 = T.add(x, x)
        s3 = T.mul(x, x)
        r = T.reshape(u, (3, 1))
        v1 = T.relu(u)                            # u is used by two ops
        loss = T.add(T.add(T.reduce(s1), T.reduce(s2)),
                     T.add(T.reduce(T.add(s3, Tensor(np.zeros(3)))),
                           T.add(T.reduce(T.mul(r, r)), T.reduce(v1))))
        # the backward drops each intermediate gradient once its record has
        # run, so catch every one as it is handed to its record
        seen = []

        def spy(fn, out):
            def run():
                seen.append(out.grad)
                fn()
            return run

        n_records = len(tape.records)
        tape.records = [(spy(fn, out), out) for fn, out in tape.records]
        backward(tape, loss)
    np.testing.assert_array_equal(a.grad, np.ones((1, 3)))
    np.testing.assert_array_equal(b.grad, np.ones(3))
    np.testing.assert_array_equal(x.grad, 2.0 + 2.0 * x.data)
    np.testing.assert_array_equal(u.grad, 2.0 * u.data + (u.data > 0))
    assert len(seen) == n_records and all(g is not None for g in seen)
    grads = [t.grad for t in (a, b, x, u)] + seen
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


def test_backward_frees_the_tape_as_it_runs():
    p = Parameter(np.array([1.0, 2.0]), dtype="f64")
    with Tape() as tape:
        sq = T.mul(p, p)
        loss = T.reduce(sq)
        backward(tape, loss)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])
    assert sq.grad is None and loss.grad is None
    assert tape.records == [] and tape.consumed


def test_second_backward_on_a_tape_raises():
    # a replay would add every gradient again: [8, 16] instead of [2, 4]
    p = Parameter(np.array([1.0, 2.0]), dtype="f64")
    with Tape() as tape:
        loss = T.reduce(T.mul(p, p))
        backward(tape, loss)
        with pytest.raises(ValueError, match="already consumed"):
            backward(tape, loss)
    np.testing.assert_array_equal(p.grad, [2.0, 4.0])
