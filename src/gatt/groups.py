"""Finite grid symmetry groups and their action on stacked feature planes.

Supported point groups: C1, C2 (half-turn), C4 (quarter-turns) and D4
(quarter-turns plus mirrors).  Rotations are counterclockwise in the usual
display orientation (row 0 on top); the quarter-turn acts on (row, col)
offsets from the plane center by the matrix [[0, -1], [1, 0]], which is the
index map of numpy's rot90.  The base mirror reverses columns.

Element order is fixed: rotations by increasing angle first, then, for D4,
mirror followed by each rotation.  The identity is always index 0.

Plane transforms are pure index permutations, so they are exact in floating
point and compose exactly; rotation is about the geometric center of the
plane, which stays an integer index map even for even extents.

`transform_array` is the one definition of the action, on numpy arrays.
`orbit` gives a Tensor transformed by every element at once, as a single
gather whose index table is transform_array applied to an arange.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import tensor as T

GROUP_NAMES = ("C1", "C2", "C4", "D4")

_ROT90 = np.array([[0, -1], [1, 0]], dtype=np.int64)
_MIRROR = np.array([[1, 0], [0, -1]], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class FiniteGroup:
    name: str
    order: int
    cayley: np.ndarray       # [n, n] int, cayley[a][b] = index of a*b
    inverse: np.ndarray      # [n] int
    action: np.ndarray       # [n, 2, 2] int matrices on (row, col) offsets
    _plane_maps: dict = field(default_factory=dict, repr=False)
    _orbits: dict = field(default_factory=dict, repr=False)


class AffineElement(NamedTuple):
    """Roto-translation (x, h): integer translation x=(row, col), point-group index h.
    Row and col may be broadcasting integer arrays: a grid of translations sharing h."""
    x: tuple
    h: int


def _element_matrices(name):
    if name == "C1":
        rots = [np.eye(2, dtype=np.int64)]
    elif name == "C2":
        rots = [np.eye(2, dtype=np.int64), _ROT90 @ _ROT90]
    elif name in ("C4", "D4"):
        rots = [np.linalg.matrix_power(_ROT90, k) for k in range(4)]
    else:
        raise ValueError(f"unknown group {name!r}; expected one of {GROUP_NAMES}")
    mats = list(rots)
    if name == "D4":
        mats += [_MIRROR @ r for r in rots]
    return [m.astype(np.int64) for m in mats]


@functools.lru_cache(maxsize=None)
def make_group(name: str) -> FiniteGroup:
    mats = _element_matrices(name)
    n = len(mats)
    keys = {m.tobytes(): i for i, m in enumerate(mats)}

    def index_of(m):
        return keys[m.astype(np.int64).tobytes()]

    cayley = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            cayley[a, b] = index_of(mats[a] @ mats[b])
    inverse = np.empty(n, dtype=np.int64)
    for a in range(n):
        inverse[a] = index_of(np.linalg.inv(mats[a]).round().astype(np.int64))
    grp = FiniteGroup(name=name, order=n, cayley=cayley, inverse=inverse,
                      action=np.stack(mats))
    _validate(grp)
    return grp


def _validate(grp):
    n = grp.order
    assert (grp.cayley[0] == np.arange(n)).all() and (grp.cayley[:, 0] == np.arange(n)).all()
    for a in range(n):
        assert grp.cayley[a, grp.inverse[a]] == 0
    # associativity on the full table; n <= 8 so this is cheap
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert grp.cayley[grp.cayley[a, b], c] == grp.cayley[a, grp.cayley[b, c]]


def compose_affine(grp, g1: AffineElement, g2: AffineElement) -> AffineElement:
    """(x1, h1) * (x2, h2) = (x1 + h1 x2, h1 h2); array translations broadcast."""
    m = grp.action[g1.h]
    x = (g1.x[0] + int(m[0, 0]) * g2.x[0] + int(m[0, 1]) * g2.x[1],
         g1.x[1] + int(m[1, 0]) * g2.x[0] + int(m[1, 1]) * g2.x[1])
    return AffineElement(x, int(grp.cayley[g1.h, g2.h]))


def invert_affine(grp, g: AffineElement) -> AffineElement:
    """(x, h)^-1 = (-h^-1 x, h^-1); array translations invert entry by entry."""
    hinv = int(grp.inverse[g.h])
    m = grp.action[hinv]
    x = (-(int(m[0, 0]) * g.x[0] + int(m[0, 1]) * g.x[1]),
         -(int(m[1, 0]) * g.x[0] + int(m[1, 1]) * g.x[1]))
    return AffineElement(x, hinv)


def plane_index_map(grp, h, size):
    """Source-index map (I, J) with out[i, j] = in[I[i, j], J[i, j]].

    Implements out(x) = in(h^-1 x) about the geometric center (size-1)/2.
    Doubled coordinates keep everything integer for even extents.
    """
    key = (h, size)
    cached = grp._plane_maps.get(key)
    if cached is not None:
        return cached
    minv = grp.action[grp.inverse[h]]
    c2 = size - 1
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    a = 2 * ii - c2
    b = 2 * jj - c2
    p = minv[0, 0] * a + minv[0, 1] * b
    q = minv[1, 0] * a + minv[1, 1] * b
    I = (p + c2) // 2
    J = (q + c2) // 2
    grp._plane_maps[key] = (I, J)
    return I, J


def feature_perm(grp, h):
    """Source slice index per output slice for the group axis: t -> h^-1 t."""
    hinv = grp.inverse[h]
    return grp.cayley[hinv].copy()


def transform_array(grp, h, arr, pose_axes=()):
    """The action of h on a numpy array: x -> h^-1 x on the last two (square)
    axes and t -> h^-1 t on each of `pose_axes`; a pose axis of extent 1 (a
    planar map) passes through."""
    if arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"plane spatial dims must be square to transform, got {arr.shape[-2:]}")
    out = arr
    for axis in pose_axes:
        if out.shape[axis] != 1:
            if out.shape[axis] != grp.order:
                raise ValueError(f"group axis extent {out.shape[axis]} does not match "
                                 f"{grp.name} order {grp.order}")
            out = np.take(out, feature_perm(grp, h), axis=axis)
    I, J = plane_index_map(grp, h, arr.shape[-1])
    return out[..., I, J]


def orbit(grp, t):
    """Every group element's transform of t, as one gather.

    `t` is a Tensor [..., P, S, S] with P in {1, |H|}; the result is
    [|H|, ..., P, S, S] whose entry h is the left regular action
    out(x, s) = t(h^-1 x, h^-1 s), as transform_array computes it (P = 1
    marks a planar map and skips the slice permutation).  Two tape records:
    the flattening reshape and the gather.  The gather's backward
    scatter-adds the |H| copies back in h order, which sums each copy's
    gradient transformed by the inverse element.
    """
    if t.ndim < 3 or t.shape[-1] != t.shape[-2]:
        raise ValueError(f"orbit expects axes [..., |H|, S, S], got {t.shape}")
    idx = _orbit_index(grp, t.shape)
    return T.gather_axis(T.reshape(t, (-1,)), 0, idx)


def _orbit_index(grp, shape):
    """Flat source index per entry of orbit(grp, t) for t of this shape."""
    idx = grp._orbits.get(shape)
    if idx is None:
        src = np.arange(int(np.prod(shape))).reshape(shape)
        idx = np.stack([transform_array(grp, h, src, pose_axes=(-3,))
                        for h in range(grp.order)])
        idx.setflags(write=False)
        grp._orbits[shape] = idx
    return idx
