import gzip
import io
import os
import struct
import zipfile

import numpy as np
import pytest

from gatt.autodiff import Parameter, new_rng
from gatt.data import (ConfigError, RunConfig, attention_montage, load_checkpoint,
                       load_config, load_idx_images, load_idx_labels,
                       make_rotmnist, read_idx, read_pgm, rotate_bilinear,
                       save_checkpoint, synth_shapes, write_pgm)
from gatt.groups import make_group, transform_array


def idx_images_bytes(arr):
    arr = np.asarray(arr, dtype=np.uint8)
    return struct.pack(">IIII", 0x803, *arr.shape) + arr.tobytes()


def idx_labels_bytes(vec):
    vec = np.asarray(vec, dtype=np.uint8)
    return struct.pack(">II", 0x801, vec.size) + vec.tobytes()


# ---------------------------------------------------------------------------
# IDX

def test_read_idx_round_trip(tmp_path):
    imgs = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
    p = tmp_path / "imgs"
    p.write_bytes(idx_images_bytes(imgs))
    magic, data = read_idx(p)
    assert magic == 0x803
    np.testing.assert_array_equal(data, imgs)


def test_read_idx_gzip(tmp_path):
    labels = np.array([3, 1, 4], dtype=np.uint8)
    p = tmp_path / "labels.gz"
    p.write_bytes(gzip.compress(idx_labels_bytes(labels)))
    np.testing.assert_array_equal(load_idx_labels(p), labels)


def test_load_idx_images_scales_to_unit(tmp_path):
    imgs = np.array([[[0, 51, 255]]], dtype=np.uint8)
    p = tmp_path / "imgs"
    p.write_bytes(idx_images_bytes(imgs))
    x = load_idx_images(p)
    assert x.dtype == np.float32
    np.testing.assert_allclose(x[0, 0], [0.0, 51 / 255, 1.0], atol=1e-7)


def test_idx_error_paths(tmp_path):
    short = tmp_path / "short"
    short.write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_idx(short)
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">I", 0x9999))
    with pytest.raises(ValueError, match="magic"):
        read_idx(bad)
    wrong_len = tmp_path / "len"
    wrong_len.write_bytes(struct.pack(">II", 0x801, 5) + b"\x00" * 3)
    with pytest.raises(ValueError, match="payload"):
        read_idx(wrong_len)
    labels = tmp_path / "labels"
    labels.write_bytes(idx_labels_bytes([1, 2]))
    with pytest.raises(ValueError, match="image"):
        load_idx_images(labels)
    imgs = tmp_path / "imgs"
    imgs.write_bytes(idx_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
    with pytest.raises(ValueError, match="label"):
        load_idx_labels(imgs)


def test_idx_rejects_every_truncation(tmp_path):
    raw = idx_images_bytes(np.arange(18, dtype=np.uint8).reshape(2, 3, 3))
    cut, cut_gz = tmp_path / "cut", tmp_path / "cut.gz"
    cut.write_bytes(raw)
    cut_gz.write_bytes(gzip.compress(raw))
    for path in (cut, cut_gz):
        for n in reversed(range(path.stat().st_size)):
            os.truncate(path, n)
            with pytest.raises(ValueError):
                read_idx(path)
    cut.write_bytes(raw + b"\x00")
    with pytest.raises(ValueError, match="payload"):
        read_idx(cut)


# ---------------------------------------------------------------------------
# rotation

def test_rotate_multiples_of_90_are_exact():
    x = new_rng(0).random((9, 9)).astype(np.float32)
    c4 = make_group("C4")
    for q in range(4):
        got = rotate_bilinear(x, 90.0 * q)
        np.testing.assert_array_equal(got, transform_array(c4, q, x))
    np.testing.assert_array_equal(rotate_bilinear(x, 360.0), x)


def test_rotate_preserves_isotropic_gaussian():
    size = 21
    c = (size - 1) / 2
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    g = np.exp(-((ii - c) ** 2 + (jj - c) ** 2) / (2 * 2.5 ** 2))
    got = rotate_bilinear(g, 37.0)
    assert np.abs(got - g).max() < 0.05


def test_rotate_inverse_recovers_smooth_interior():
    # bilinear resampling round-trips smooth content; rough content smears
    size = 21
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    x = np.exp(-((ii - 8) ** 2 + (jj - 12) ** 2) / (2 * 3.0 ** 2))
    back = rotate_bilinear(rotate_bilinear(x, 23.0), -23.0)
    assert np.abs(back - x)[3:-3, 3:-3].max() < 0.06


def test_rotate_stays_in_range_and_zero_fills():
    x = np.ones((8, 8))
    got = rotate_bilinear(x, 45.0)
    assert got.min() >= 0.0 and got.max() <= 1.0 + 1e-12
    assert got[0, 0] == 0.0  # corner swings outside the support


def test_rotate_rejects_non_square():
    with pytest.raises(ValueError):
        rotate_bilinear(np.zeros((3, 4)), 10.0)


# ---------------------------------------------------------------------------
# synthetic shapes

def test_synth_shapes_contract():
    x, y = synth_shapes(101, seed=3)
    assert x.shape == (101, 1, 16, 16) and x.dtype == np.float32
    assert y.shape == (101,) and y.dtype == np.int64
    assert set(np.unique(x)) <= {0.0, 1.0}
    counts = np.bincount(y, minlength=4)
    assert counts.min() >= 101 // 4 and counts.max() <= 101 // 4 + 1


def test_synth_shapes_deterministic():
    x1, y1 = synth_shapes(32, seed=4)
    x2, y2 = synth_shapes(32, seed=4)
    x3, _ = synth_shapes(32, seed=5)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert not np.array_equal(x1, x3)


def test_synth_shapes_glyphs_have_distinct_mass():
    # bar 5 px, corner 5, T 9, L 7: class is readable from the pixel count
    x, y = synth_shapes(64, seed=6)
    mass = x.sum(axis=(1, 2, 3))
    want = {0: 5, 1: 5, 2: 9, 3: 7}
    for cls, m in want.items():
        assert np.all(mass[y == cls] == m)


# ---------------------------------------------------------------------------
# rotated-digit regeneration on synthetic sources

def _write_digit_sources(root, n_train=8, n_test=4, size=9):
    rng = new_rng(7)
    files = {
        "train-images-idx3-ubyte": idx_images_bytes(
            rng.integers(0, 256, (n_train, size, size)).astype(np.uint8)),
        "train-labels-idx1-ubyte": idx_labels_bytes(
            rng.integers(0, 10, n_train).astype(np.uint8)),
        "t10k-images-idx3-ubyte": idx_images_bytes(
            rng.integers(0, 256, (n_test, size, size)).astype(np.uint8)),
        "t10k-labels-idx1-ubyte": idx_labels_bytes(
            rng.integers(0, 10, n_test).astype(np.uint8)),
    }
    for name, payload in files.items():
        (root / name).write_bytes(payload)


def test_make_rotmnist_splits_and_determinism(tmp_path):
    _write_digit_sources(tmp_path)
    out1 = make_rotmnist(tmp_path, splits=(4, 2, 3), seed=1)
    out2 = make_rotmnist(tmp_path, splits=(4, 2, 3), seed=1)
    assert [x.shape for x, _ in out1] == [(4, 1, 9, 9), (2, 1, 9, 9), (3, 1, 9, 9)]
    for (x1, y1), (x2, y2) in zip(out1, out2):
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert x1.min() >= 0.0 and x1.max() <= 1.0 + 1e-6
        assert y1.dtype == np.int64
    out3 = make_rotmnist(tmp_path, splits=(4, 2, 3), seed=2)
    assert not np.array_equal(out1[0][0], out3[0][0])


def test_make_rotmnist_accepts_gzip(tmp_path):
    _write_digit_sources(tmp_path)
    for name in ("train-images-idx3-ubyte", "t10k-labels-idx1-ubyte"):
        raw = (tmp_path / name).read_bytes()
        (tmp_path / name).unlink()
        (tmp_path / (name + ".gz")).write_bytes(gzip.compress(raw))
    out = make_rotmnist(tmp_path, splits=(2, 1, 1), seed=0)
    assert out[0][0].shape == (2, 1, 9, 9)


def test_make_rotmnist_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_rotmnist(tmp_path, splits=(1, 1, 1))
    _write_digit_sources(tmp_path)
    with pytest.raises(ValueError, match="splits"):
        make_rotmnist(tmp_path, splits=(100, 10, 10))


def _write_zero_sources(root, n_train_labels, label):
    # gzipped all-zero digit files: 12 + 4 images, the train labels all `label`
    files = {
        "train-images-idx3-ubyte": idx_images_bytes(np.zeros((12, 28, 28), np.uint8)),
        "train-labels-idx1-ubyte": idx_labels_bytes(np.full(n_train_labels, label, np.uint8)),
        "t10k-images-idx3-ubyte": idx_images_bytes(np.zeros((4, 28, 28), np.uint8)),
        "t10k-labels-idx1-ubyte": idx_labels_bytes(np.zeros(4, np.uint8)),
    }
    for name, payload in files.items():
        (root / (name + ".gz")).write_bytes(gzip.compress(payload))


def test_make_rotmnist_rejects_mismatched_sources(tmp_path):
    _write_zero_sources(tmp_path, 11, 0)
    with pytest.raises(ValueError, match="16 images but 15 labels"):
        make_rotmnist(tmp_path, splits=(4, 2, 2))
    _write_zero_sources(tmp_path, 12, 200)
    with pytest.raises(ValueError, match="label 200"):
        make_rotmnist(tmp_path, splits=(4, 2, 2))
    _write_zero_sources(tmp_path, 12, 9)
    (x, y), _, _ = make_rotmnist(tmp_path, splits=(4, 2, 2))
    assert x.shape == (4, 1, 28, 28) and not x.any() and y.max() <= 9


# ---------------------------------------------------------------------------
# PGM

def test_quantization_frozen_values(tmp_path):
    p = tmp_path / "q.pgm"
    write_pgm(p, np.array([[0.0, 0.5, 1.0, 0.999], [-0.5, 1.5, 0.25, 0.75]]))
    got = read_pgm(p)
    np.testing.assert_array_equal(got, [[0, 127, 255, 254], [0, 255, 63, 191]])


def test_pgm_round_trip_and_header(tmp_path):
    plane = new_rng(8).random((5, 7))
    p = tmp_path / "x.pgm"
    write_pgm(p, plane)
    raw = p.read_bytes()
    assert raw.startswith(b"P5\n7 5\n255\n")
    got = read_pgm(p)
    assert got.shape == (5, 7)
    np.testing.assert_array_equal(got, np.floor(plane * 255).astype(np.uint8))


def test_netpbm_comment_headers(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment line\n2 2\n# another\n255\n" + bytes([1, 2, 3, 4]))
    np.testing.assert_array_equal(read_pgm(p), [[1, 2], [3, 4]])


def test_netpbm_error_paths(tmp_path):
    p = tmp_path / "bad"
    p.write_bytes(b"P4\n2 2\n255\n1234")
    with pytest.raises(ValueError, match="P5"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ValueError, match="maxval"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(ValueError, match="payload"):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n255")     # no whitespace and no payload after maxval
    with pytest.raises(ValueError, match="payload"):
        read_pgm(p)
    # a missing, non-numeric, zero or negative extent: a ValueError naming the file
    for header, field in ((b"P5\n0 0\n255\n", "width"), (b"P5\n4 ", "height"),
                          (b"P5\n-2 -2\n255\n", "width"), (b"P5\n2 x\n255\n", "height"),
                          (b"P5\n3 0\n255\n", "height"), (b"P5\n2 2\n", "maxval")):
        p.write_bytes(header)
        with pytest.raises(ValueError, match=f"{field} must be a positive integer") as err:
            read_pgm(p)
        assert str(p) in str(err.value)
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))


def test_attention_montage_layout():
    inp = new_rng(10).random((8, 8))
    alphas = new_rng(11).random((3, 4, 4))  # will be nearest-upscaled 2x
    m = attention_montage(inp, alphas)
    # four 8-wide panels and three 1-wide gaps, the whole upsampled 8x
    assert m.shape == (8 * 8, 8 * (4 * 8 + 3 * 1))
    assert m.min() >= 0.0 and m.max() <= 1.0
    # gap columns are white at every upsampled position
    assert np.all(m[:, 8 * 8: 8 * 9] == 1.0)


def test_attention_montage_joint_normalization():
    inp = np.zeros((4, 4))
    alphas = np.stack([np.full((4, 4), 0.2), np.full((4, 4), 0.8)])
    m = attention_montage(inp, alphas)
    # panel k starts at column 5k before the 8x upsampling (4 wide, 1 gap)
    # the two alpha panels normalize jointly: one all 0, the other all 1
    np.testing.assert_array_equal(m[:, 40:72], np.zeros((32, 32)))
    np.testing.assert_array_equal(m[:, 80:112], np.ones((32, 32)))
    flat = attention_montage(inp, np.full((1, 4, 4), 0.3))
    np.testing.assert_array_equal(flat[:, 40:72], np.full((32, 32), 0.5))


def test_attention_montage_rejects_non_divisor_panels():
    with pytest.raises(ValueError, match="divide"):
        attention_montage(np.zeros((8, 8)), np.zeros((1, 3, 3)))


# ---------------------------------------------------------------------------
# config

def test_config_defaults():
    cfg = load_config()
    assert cfg == RunConfig()
    assert cfg.group == "p4" and cfg.group_name == "C4"
    assert cfg.variant == "plain" and cfg.dtype == "f32"


def test_config_full_file(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("""
# training setup
group = p4m
variant = full       # both attention maps
filter_size = 5
reduction_ratio = 4
lr = 0.01
epochs = 3
batch = 64
seed = 11
dtype = f64
pool_out_channels = no
""")
    cfg = load_config(p)
    assert cfg.group_name == "D4" and cfg.variant == "full"
    assert cfg.filter_size == 5 and cfg.reduction_ratio == 4
    assert cfg.lr == pytest.approx(0.01) and cfg.epochs == 3 and cfg.batch == 64
    assert cfg.seed == 11 and cfg.dtype == "f64"
    assert cfg.pool_out_channels is False


@pytest.mark.parametrize("text,match", [
    ("mystery = 3", "line 1: unknown key"),
    ("seed = 1\nseed = 2", "line 2: duplicate"),
    ("epochs = soon", "line 1: epochs expects an integer"),
    ("epochs = 0", "line 1: epochs must be >= 1"),
    ("seed = 1\nbatch = -2", "line 2: batch must be >= 1"),
    ("reduction_ratio = 0", "line 1: reduction_ratio must be >= 1"),
    ("filter_size = 0", "line 1: filter_size must be >= 1"),
    ("lr = fast", "line 1: lr expects a number"),
    ("lr = inf", "line 1: lr must be finite and > 0"),
    ("lr = nan", "line 1: lr must be finite and > 0"),
    ("lr = 0", "line 1: lr must be finite and > 0"),
    ("lr = -1", "line 1: lr must be finite and > 0"),
    ("group = p8", "line 1: group must be one of"),
    ("dtype = f16", "line 1: dtype"),
    ("variant = cbam", "line 1: variant"),
    ("pool_out_channels = maybe", "line 1: pool_out_channels expects a boolean"),
    ("just a line", "line 1: expected key=value"),
])
def test_config_rejects_bad_lines(text, match):
    with pytest.raises(ConfigError, match=match):
        load_config(text=text)


def test_config_error_line_numbers_skip_comments():
    with pytest.raises(ConfigError, match="line 3"):
        load_config(text="# header\nseed = 1\nwat = 2\n")


def test_config_overrides():
    cfg = load_config(text="seed = 1\n", overrides={"seed": 9, "group": "c2"})
    assert cfg.seed == 9 and cfg.group_name == "C2"


def test_config_group_aliases():
    for alias, name in (("p4", "C4"), ("p4m", "D4"), ("c1", "C1"), ("c2", "C2")):
        assert load_config(text=f"group = {alias}\n").group_name == name


# ---------------------------------------------------------------------------
# checkpoints

def _params(seed=0):
    rng = new_rng(seed)
    return [Parameter(rng.standard_normal((2, 3)), dtype="f64", name="w"),
            Parameter(rng.standard_normal(3).astype(np.float32), dtype="f32",
                      name="b")]


def test_checkpoint_round_trip_bitwise(tmp_path):
    ps = _params(1)
    want = [p.data.copy() for p in ps]
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps)
    assert path.read_bytes()[:4] == b"PK\x03\x04"   # a zip archive, not a .npz-suffixed file
    with zipfile.ZipFile(path) as zf:
        assert sorted(zf.namelist()) == ["b.npy", "format.npy", "w.npy"]
        assert all(info.compress_type == zipfile.ZIP_STORED for info in zf.infolist())
    fresh = _params(2)
    load_checkpoint(path, fresh)
    for p, w in zip(fresh, want):
        assert p.data.dtype == w.dtype
        np.testing.assert_array_equal(p.data, w)


def _version1_bytes(ps):
    """The retired layout: "GATT", version 1, then name, dtype tag, shape and data."""
    out = b"GATT" + struct.pack("<II", 1, len(ps))
    for p in ps:
        out += struct.pack("<H", len(p.name)) + p.name.encode()
        out += struct.pack(f"<BB{p.data.ndim}I", p.data.dtype == np.float64, p.data.ndim,
                           *p.data.shape) + p.data.tobytes()
    return out + b"\x00"   # no optimizer state


def _rewrite(raw, edit, save=np.savez):
    """The archive `raw` with its members passed through `edit`, written by `save`."""
    with np.load(io.BytesIO(raw)) as z:
        members = {k: z[k] for k in z.files}
    edit(members)
    out = io.BytesIO()
    save(out, **members)
    return out.getvalue()


def test_checkpoint_error_paths(tmp_path):
    ps = _params(7)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, ps)
    bad = tmp_path / "bad.ckpt"

    bad.write_bytes(b"NOPE" + path.read_bytes()[4:])   # the first local header's magic
    with pytest.raises(ValueError, match="corrupt"):
        load_checkpoint(bad, _params(7))

    bad.write_bytes(_rewrite(path.read_bytes(), lambda m: m.update(format=np.array(3))))
    with pytest.raises(ValueError, match="format 3"):
        load_checkpoint(bad, _params(7))

    bad.write_bytes(_version1_bytes(ps))
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(bad, _params(7))

    with pytest.raises(ValueError, match=r"unexpected \['b.npy'\]"):
        load_checkpoint(path, _params(7)[:1])

    renamed = _params(7)
    renamed[0].name = "other"
    with pytest.raises(ValueError, match=r"missing \['other.npy'\], unexpected \['w.npy'\]"):
        load_checkpoint(path, renamed)

    reshaped = _params(7)
    reshaped[0].data = np.zeros((3, 2))
    with pytest.raises(ValueError, match=r"w.npy holds float64 \(2, 3\)"):
        load_checkpoint(path, reshaped)

    truncated = tmp_path / "truncated"
    truncated.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated, _params(7))


def test_checkpoint_rejects_duplicate_names(tmp_path):
    ps = [Parameter(np.zeros(2), dtype="f32", name="w"),
          Parameter(np.zeros(2), dtype="f32", name="w")]
    with pytest.raises(ValueError, match="unique"):
        save_checkpoint(tmp_path / "m.ckpt", ps)


def _checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, _params(8))
    return path.read_bytes()


def _assert_untouched(fresh):
    for p, q in zip(fresh, _params(9)):
        np.testing.assert_array_equal(p.data, q.data)


def test_checkpoint_rejects_every_truncation(tmp_path):
    raw = _checkpoint(tmp_path)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(raw)
    for n in reversed(range(len(raw))):
        os.truncate(cut, n)
        fresh = _params(9)
        with pytest.raises(ValueError):
            load_checkpoint(cut, fresh)
        _assert_untouched(fresh)   # a rejected file assigns nothing


def test_checkpoint_rejects_corrupt_fields(tmp_path):
    raw = _checkpoint(tmp_path)
    path = tmp_path / "bad.ckpt"

    def rejects(data, match):
        path.write_bytes(bytes(data))
        fresh = _params(9)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path, fresh)
        _assert_untouched(fresh)

    def drop(name):
        return lambda m: m.pop(name)

    def recast(name, shape, dtype):
        return lambda m: m.update({name: np.zeros(shape, dtype)})

    rejects(_rewrite(raw, recast("w", (2, 3), np.float32)), r"w.npy holds float32")
    rejects(_rewrite(raw, recast("b", (4,), np.float32)), r"b.npy holds float32 \(4,\)")
    rejects(_rewrite(raw, recast("format", (1,), np.int64)), r"format.npy holds int64 \(1,\)")
    rejects(_rewrite(raw, drop("b")), r"missing \['b.npy'\]")
    rejects(_rewrite(raw, drop("format")), r"missing \['format.npy'\]")
    rejects(_rewrite(raw, lambda m: m.update(extra=np.zeros(1))), r"unexpected \['extra.npy'\]")
    rejects(_rewrite(raw, lambda m: None, np.savez_compressed), "compressed")
    dup = io.BytesIO(raw)
    with zipfile.ZipFile(dup, "a") as zf, pytest.warns(UserWarning, match="Duplicate name"):
        zf.writestr("w.npy", zf.read("w.npy"))
    rejects(dup.getvalue(), "distinct")
    miscount = bytearray(raw)
    miscount[-12] -= 1   # the end record's total member count
    rejects(miscount, "end record counts")
    rejects(raw + b"\x00", "trailing")
    flipped = bytearray(raw)
    flipped[raw.index(_params(8)[0].data.tobytes()) + 3] ^= 1   # a payload byte of w.npy
    rejects(flipped, "corrupt")
    # the untouched archive loads
    load_checkpoint(path.with_name("model.ckpt"), _params(9))


def test_checkpoint_bit_flips_are_rejected_or_harmless(tmp_path):
    # flip bits 0 and 7 of every byte: zip metadata that no reader uses may
    # change and load the same arrays, but nothing may load different numbers
    raw = _checkpoint(tmp_path)
    want = [p.data for p in _params(8)]
    path = tmp_path / "flip.ckpt"
    rejected = 0
    for i in range(len(raw)):
        for bit in (0, 7):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            fresh = _params(9)
            try:
                load_checkpoint(path, fresh)
            except ValueError:
                _assert_untouched(fresh)
                rejected += 1
                continue
            for p, w in zip(fresh, want):
                assert p.data.dtype == w.dtype and np.array_equal(p.data, w), (i, bit)
    assert rejected > len(raw)   # most flips land in CRC-checked payloads
