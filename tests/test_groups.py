import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatt.autodiff import Parameter, backward
from gatt.groups import (AffineElement, GROUP_NAMES, compose_affine, feature_perm,
                         invert_affine, make_group, orbit, plane_index_map,
                         transform_array)
from gatt.tensor import Tape, Tensor, mul, reduce

ALL_GROUPS = [make_group(n) for n in GROUP_NAMES]


# ---------------------------------------------------------------------------
# axioms, checked against the tables rather than trusting the constructor

@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
def test_group_axioms(grp):
    n = grp.order
    cay = grp.cayley
    assert cay.shape == (n, n)
    # closure + latin square
    assert set(cay.flatten()) <= set(range(n))
    for a in range(n):
        assert sorted(cay[a]) == list(range(n))
        assert sorted(cay[:, a]) == list(range(n))
    # identity is element 0
    assert all(cay[0, b] == b for b in range(n))
    assert all(cay[a, 0] == a for a in range(n))
    # inverses
    for a in range(n):
        assert cay[a, grp.inverse[a]] == 0
        assert cay[grp.inverse[a], a] == 0
    # associativity
    for a in range(n):
        for b in range(n):
            for c in range(n):
                assert cay[cay[a, b], c] == cay[a, cay[b, c]]


@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
def test_action_matrices_match_cayley(grp):
    for a in range(grp.order):
        assert abs(round(float(np.linalg.det(grp.action[a])))) == 1
        for b in range(grp.order):
            np.testing.assert_array_equal(grp.action[a] @ grp.action[b],
                                          grp.action[grp.cayley[a, b]])


def test_frozen_quarter_turn_matrix():
    c4 = make_group("C4")
    np.testing.assert_array_equal(c4.action[1], [[0, -1], [1, 0]])
    np.testing.assert_array_equal(c4.action[2], [[-1, 0], [0, -1]])


def test_frozen_mirror_matrix():
    d4 = make_group("D4")
    # elements 4..7 are the reflections; element 4 is the bare column flip
    np.testing.assert_array_equal(d4.action[4], [[1, 0], [0, -1]])
    dets = [round(float(np.linalg.det(m))) for m in d4.action]
    assert dets == [1] * 4 + [-1] * 4


def test_c1_c2_orders():
    assert make_group("C1").order == 1
    assert make_group("C2").order == 2
    assert make_group("C4").order == 4
    assert make_group("D4").order == 8


def test_unknown_group_rejected():
    with pytest.raises(ValueError):
        make_group("C3")


# ---------------------------------------------------------------------------
# plane transforms

def test_quarter_turn_worked_example():
    # counterclockwise quarter turn in display orientation
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = transform_array(make_group("C4"), 1, x)
    np.testing.assert_array_equal(got, [[2.0, 4.0], [1.0, 3.0]])


def test_mirror_worked_example():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = transform_array(make_group("D4"), 4, x)
    np.testing.assert_array_equal(got, [[2.0, 1.0], [4.0, 3.0]])


@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 8])
def test_plane_transform_is_permutation(grp, size):
    x = np.arange(size * size, dtype=np.float64).reshape(size, size)
    for h in range(grp.order):
        y = transform_array(grp, h, x)
        assert sorted(y.flatten()) == sorted(x.flatten())


@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
def test_odd_center_is_fixed(grp):
    x = np.zeros((5, 5))
    x[2, 2] = 7.0
    for h in range(grp.order):
        assert transform_array(grp, h, x)[2, 2] == 7.0


@settings(max_examples=60, deadline=None)
@given(gi=st.integers(0, 3), a=st.integers(0, 7), b=st.integers(0, 7),
       size=st.integers(2, 7))
def test_plane_representation_property(gi, a, b, size):
    grp = ALL_GROUPS[gi]
    a %= grp.order
    b %= grp.order
    x = np.arange(size * size, dtype=np.float64).reshape(size, size)
    lhs = transform_array(grp, a, transform_array(grp, b, x))
    rhs = transform_array(grp, int(grp.cayley[a, b]), x)
    np.testing.assert_array_equal(lhs, rhs)


@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
def test_inverse_transform_round_trip(grp):
    x = np.random.default_rng(0).random((2, 3, grp.order, 6, 6))
    for h in range(grp.order):
        back = transform_array(grp, int(grp.inverse[h]),
                               transform_array(grp, h, x, pose_axes=(2,)),
                               pose_axes=(2,))
        np.testing.assert_array_equal(back, x)


def test_non_square_plane_rejected():
    # also at the identity, which would otherwise crop or index out of range
    grp = make_group("C4")
    for h in (0, 1):
        for shape in ((5, 3), (3, 5), (3, 4)):
            with pytest.raises(ValueError, match="square"):
                transform_array(grp, h, np.arange(float(np.prod(shape))).reshape(shape))


# ---------------------------------------------------------------------------
# stacked (pose-axis) transforms

@pytest.mark.parametrize("grp", ALL_GROUPS, ids=GROUP_NAMES)
def test_feature_representation_property(grp):
    rng = np.random.default_rng(1)
    x = rng.random((2, 2, grp.order, 5, 5))
    for a in range(grp.order):
        for b in range(grp.order):
            lhs = transform_array(grp, a, transform_array(grp, b, x, pose_axes=(2,)),
                                  pose_axes=(2,))
            rhs = transform_array(grp, int(grp.cayley[a, b]), x, pose_axes=(2,))
            np.testing.assert_array_equal(lhs, rhs)


def test_feature_perm_identity():
    for grp in ALL_GROUPS:
        np.testing.assert_array_equal(feature_perm(grp, 0), np.arange(grp.order))


def test_tensor_transform_matches_array_path():
    # orbit's entry h is transform_array's action of h, for P = 1 and P = |H|,
    # at odd and even plane extents
    rng = np.random.default_rng(2)
    for grp in ALL_GROUPS:
        for poses in (1, grp.order):
            for size in (3, 4):
                x = rng.random((2, 3, poses, size, size))
                got = orbit(grp, Tensor(x)).data
                assert got.shape == (grp.order,) + x.shape
                for h in range(grp.order):
                    want = transform_array(grp, h, x, pose_axes=(-3,))
                    np.testing.assert_array_equal(got[h], want)


def test_tensor_transform_gradient_is_inverse_transform():
    for grp in ALL_GROUPS:
        x = Parameter(np.random.default_rng(3).random((2, grp.order, 4, 4)), dtype="f64")
        w = np.random.default_rng(4).random((grp.order,) + x.shape)
        with Tape() as tape:
            backward(tape, reduce(mul(orbit(grp, x), Tensor(w))))
        # d loss / d x: each copy's weight transformed back by the inverse
        # element, summed in h order
        want = np.zeros(x.shape)
        for h in range(grp.order):
            want = want + transform_array(grp, int(grp.inverse[h]), w[h], pose_axes=(-3,))
        np.testing.assert_array_equal(x.grad, want)


def test_orbit_rejects_a_bad_shape():
    grp = make_group("C4")
    with pytest.raises(ValueError):
        orbit(grp, Tensor(np.zeros((1, 4, 3, 5))))     # not square
    with pytest.raises(ValueError):
        orbit(grp, Tensor(np.zeros((1, 3, 5, 5))))     # pose axis 3
    with pytest.raises(ValueError):
        orbit(grp, Tensor(np.zeros((5, 5))))           # no pose axis


def test_wrong_pose_extent_rejected():
    grp = make_group("C4")
    with pytest.raises(ValueError):
        transform_array(grp, 1, np.zeros((1, 1, 3, 5, 5)), pose_axes=(2,))


# ---------------------------------------------------------------------------
# affine algebra

def test_compose_affine_frozen():
    grp = make_group("C4")
    g = compose_affine(grp, AffineElement((1, 0), 1), AffineElement((0, 1), 1))
    assert g == AffineElement((0, 0), 2)


def test_invert_affine_frozen():
    grp = make_group("C4")
    assert invert_affine(grp, AffineElement((1, 0), 1)) == AffineElement((0, 1), 3)


@settings(max_examples=80, deadline=None)
@given(gi=st.integers(0, 3), h1=st.integers(0, 7), h2=st.integers(0, 7),
       x1=st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
       x2=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_affine_group_laws(gi, h1, h2, x1, x2):
    grp = ALL_GROUPS[gi]
    g1 = AffineElement(x1, h1 % grp.order)
    g2 = AffineElement(x2, h2 % grp.order)
    e = AffineElement((0, 0), 0)
    assert compose_affine(grp, g1, invert_affine(grp, g1)) == e
    assert compose_affine(grp, invert_affine(grp, g1), g1) == e
    assert compose_affine(grp, g1, e) == g1
    # inverse of a product
    lhs = invert_affine(grp, compose_affine(grp, g1, g2))
    rhs = compose_affine(grp, invert_affine(grp, g2), invert_affine(grp, g1))
    assert lhs == rhs


@pytest.mark.parametrize("group_name", ["C4", "D4"])
def test_affine_array_translations_match_scalar_calls(group_name):
    # translations given as broadcasting [5, 1] and [1, 5] arrays give, entry
    # by entry over the 5 x 5 grid, what one scalar call per entry gives
    grp = make_group(group_name)
    ys, xs = np.arange(-2, 3)[:, None], np.arange(-3, 2)[None, :]
    for h1 in range(grp.order):
        first = AffineElement((ys, xs), h1)
        inv = invert_affine(grp, first)
        for h2 in range(grp.order):
            prod = compose_affine(grp, first, AffineElement((2 * ys - 1, 1 - xs), h2))
            for i, j in np.ndindex(5, 5):
                y, x = int(ys[i, 0]), int(xs[0, j])
                want = compose_affine(grp, AffineElement((y, x), h1),
                                      AffineElement((2 * y - 1, 1 - x), h2))
                assert (prod.x[0][i, j], prod.x[1][i, j], prod.h) == (*want.x, want.h)
        for i, j in np.ndindex(5, 5):
            want = invert_affine(grp, AffineElement((int(ys[i, 0]), int(xs[0, j])), h1))
            assert (inv.x[0][i, j], inv.x[1][i, j], inv.h) == (*want.x, want.h)


def test_plane_index_map_matches_action():
    # the index map must agree with the matrix acting on centered coordinates
    grp = make_group("C4")
    size = 5
    c = (size - 1) / 2
    I, J = plane_index_map(grp, 1, size)
    minv = grp.action[grp.inverse[1]]
    for i in range(size):
        for j in range(size):
            src = minv @ np.array([i - c, j - c]) + c
            assert (I[i, j], J[i, j]) == (int(src[0]), int(src[1]))
