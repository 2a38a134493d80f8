"""Print the SHA-256 digests of a float32 digit net's forward and training step.

The first digest is the eval logits of the `full` net at batch 4; the next
two are the parameter gradients of one training step of the `full` net at
batch 8 and of the `plain` net at batch 32.  Run it at several
OPENBLAS_NUM_THREADS values: the three digests must not change.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 tests/digit_step_digests.py
"""
import hashlib
import numpy as np
import gatt.tensor as T
from gatt.autodiff import backward, new_rng
from gatt.data import synth_shapes
from gatt.nn import ForwardCtx, build_digit_net
from gatt.tensor import Tape


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


x, _ = synth_shapes(4, seed=3, size=28)
logits = build_digit_net("C4", variant="full", dtype="f32", seed=0).forward(x)
grads = []
for variant, batch in (("full", 8), ("plain", 32)):
    x, y = synth_shapes(batch, seed=4, size=28)
    net = build_digit_net("C4", variant=variant, dtype="f32", seed=0)
    with Tape() as tape:
        out = net.forward(x, ForwardCtx(training=True, rng=new_rng(5)))
        backward(tape, T.softmax_cross_entropy(out, y))
    grads.append(digest([p.grad for p in net.params()]))
print(digest([logits.data]), *grads)
