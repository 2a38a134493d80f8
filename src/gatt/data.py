"""Datasets, image file I/O, run configuration and checkpointing.

File formats kept deliberately plain: IDX for digit data (big-endian header,
raw payload), binary PGM for image dumps, a line-oriented key=value config,
and a checkpoint that is an uncompressed .npz of named arrays (parameters
and BatchNorm statistics, each under its tensor's name) and round-trips
them bitwise.  The readers reject every malformed file with ValueError.
"""
from __future__ import annotations

import gzip
import io
import math
import struct
import zipfile
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import new_rng
from .groups import make_group, transform_array
from .nn import VARIANTS

# ---------------------------------------------------------------------------
# IDX

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def _open_maybe_gz(path):
    p = str(path)
    return gzip.open(p, "rb") if p.endswith(".gz") else open(p, "rb")


def read_idx(path):
    """Parse an IDX file: u32 big-endian magic, u32 dims, raw payload."""
    try:
        with _open_maybe_gz(path) as fh:
            raw = fh.read()
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise ValueError(f"{path}: corrupt gzip stream ({exc})") from None
    if len(raw) < 4:
        raise ValueError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == IDX_IMAGES_MAGIC:
        ndim = 3
    elif magic == IDX_LABELS_MAGIC:
        ndim = 1
    else:
        raise ValueError(f"{path}: unsupported IDX magic 0x{magic:08x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise ValueError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) - header != count:
        raise ValueError(f"{path}: payload size {len(raw) - header} does not match "
                         f"dims {dims}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=header).reshape(dims)
    return magic, data


def load_idx_images(path):
    """[N, Y, X] float32 scaled to [0, 1]."""
    magic, data = read_idx(path)
    if magic != IDX_IMAGES_MAGIC:
        raise ValueError(f"{path}: expected an IDX image file")
    return data.astype(np.float32) / np.float32(255.0)


def load_idx_labels(path):
    magic, data = read_idx(path)
    if magic != IDX_LABELS_MAGIC:
        raise ValueError(f"{path}: expected an IDX label file")
    return data.astype(np.int64)


# ---------------------------------------------------------------------------
# rotation

def rotate_bilinear(img, angle_deg):
    """Rotate a square plane counterclockwise about its geometric center.

    Off-grid samples are bilinear; pixels pulled from outside the plane are
    zero.  Multiples of 90 degrees take the exact index-permutation path, so
    they match the group transform bit for bit.
    """
    img = np.asarray(img)
    if img.shape[-1] != img.shape[-2]:
        raise ValueError(f"rotate_bilinear needs square planes, got {img.shape[-2:]}")
    angle = float(angle_deg) % 360.0
    if angle % 90.0 == 0.0:
        quarter = int(angle // 90) % 4
        return transform_array(make_group("C4"), quarter, img)
    size = img.shape[-1]
    c = (size - 1) / 2.0
    th = np.deg2rad(angle)
    # inverse map: source = R(-theta) @ (offset), in (row, col) coordinates
    cs, sn = np.cos(th), np.sin(th)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    a = ii - c
    b = jj - c
    src_i = cs * a + sn * b + c
    src_j = -sn * a + cs * b + c
    i0 = np.floor(src_i).astype(np.int64)
    j0 = np.floor(src_j).astype(np.int64)
    di = src_i - i0
    dj = src_j - j0

    def sample(ir, jr):
        valid = (ir >= 0) & (ir < size) & (jr >= 0) & (jr < size)
        iv = np.clip(ir, 0, size - 1)
        jv = np.clip(jr, 0, size - 1)
        return img[..., iv, jv] * valid

    out = (sample(i0, j0) * (1 - di) * (1 - dj)
           + sample(i0, j0 + 1) * (1 - di) * dj
           + sample(i0 + 1, j0) * di * (1 - dj)
           + sample(i0 + 1, j0 + 1) * di * dj)
    return out.astype(img.dtype)


# ---------------------------------------------------------------------------
# datasets

MNIST_FILES = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
               "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def _find_idx(src_dir, stem):
    from pathlib import Path
    for suffix in ("", ".gz"):
        p = Path(src_dir) / (stem + suffix)
        if p.exists():
            return p
    raise FileNotFoundError(f"missing digit source file {stem}[.gz] under {src_dir}")


def make_rotmnist(src_dir, splits=(10000, 2000, 50000), seed=0):
    """Regenerate the rotated-digit benchmark from the plain digit files.

    Pools train and test images, shuffles them with the seed, rotates each
    kept image by an independent uniform angle in [0, 360), and cuts the
    given train/validation/test splits.  Raises ValueError when the pooled
    image and label counts differ or a label is not a digit.
    """
    xs = np.concatenate([load_idx_images(_find_idx(src_dir, MNIST_FILES[0])),
                         load_idx_images(_find_idx(src_dir, MNIST_FILES[2]))])
    ys = np.concatenate([load_idx_labels(_find_idx(src_dir, MNIST_FILES[1])),
                         load_idx_labels(_find_idx(src_dir, MNIST_FILES[3]))])
    if xs.shape[0] != ys.shape[0]:
        raise ValueError(f"digit sources hold {xs.shape[0]} images but {ys.shape[0]} labels")
    if ys.size and ys.max() > 9:
        raise ValueError(f"digit label {ys.max()} is not in 0..9")
    total = sum(splits)
    if total > xs.shape[0]:
        raise ValueError(f"splits need {total} images, source has {xs.shape[0]}")
    rng = new_rng(seed)
    order = rng.permutation(xs.shape[0])[:total]
    xs = xs[order]
    ys = ys[order]
    angles = rng.uniform(0.0, 360.0, size=total)
    rotated = np.empty_like(xs)
    for i in range(total):
        rotated[i] = rotate_bilinear(xs[i], angles[i])
    out = []
    lo = 0
    for n in splits:
        out.append((rotated[lo:lo + n, None], ys[lo:lo + n]))
        lo += n
    return out


_SHAPE_STAMPS = {}


def _shape_stamp(kind):
    if kind not in _SHAPE_STAMPS:
        s = np.zeros((5, 5), dtype=np.float32)
        if kind == 0:    # bar
            s[:, 2] = 1.0
        elif kind == 1:  # corner
            s[0, 0:3] = 1.0
            s[0:3, 0] = 1.0
        elif kind == 2:  # T
            s[0, :] = 1.0
            s[:, 2] = 1.0
        elif kind == 3:  # L
            s[:, 0] = 1.0
            s[4, 0:3] = 1.0
        else:
            raise ValueError(f"unknown shape class {kind}")
        _SHAPE_STAMPS[kind] = s
    return _SHAPE_STAMPS[kind]


def synth_shapes(n, seed=0, size=16):
    """N one-channel images, each a single oriented glyph of intensity 1.

    Four classes (bar / corner / T / L), stamped at a random position in one
    of the four quarter-turn orientations.  Class counts are balanced up to
    the remainder; the label order is shuffled.  Returns (x [N,1,S,S] f32 in
    {0,1}, y [N] int64).
    """
    rng = new_rng(seed)
    labels = np.arange(n) % 4
    labels = labels[rng.permutation(n)]
    x = np.zeros((n, 1, size, size), dtype=np.float32)
    grp = make_group("C4")
    margin = size - 5
    for i, cls in enumerate(labels):
        stamp = _shape_stamp(int(cls))
        orient = int(rng.integers(4))
        stamp = transform_array(grp, orient, stamp)
        top = int(rng.integers(margin + 1))
        left = int(rng.integers(margin + 1))
        x[i, 0, top:top + 5, left:left + 5] = stamp
    return x, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# PGM

def _quantize(plane):
    """Map [0,1] floats to bytes as floor(v * 255), clipped.

    floor keeps 0.0 -> 0 and 1.0 -> 255 exact and sends 0.5 to 127.
    """
    v = np.clip(np.asarray(plane, dtype=np.float64), 0.0, 1.0)
    return np.minimum(np.floor(v * 255.0), 255).astype(np.uint8)


def write_pgm(path, plane):
    """Binary (P5) graymap, maxval 255, row-major."""
    b = _quantize(plane)
    if b.ndim != 2:
        raise ValueError("write_pgm expects a single [Y, X] plane")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{b.shape[1]} {b.shape[0]}\n255\n".encode())
        fh.write(b.tobytes())


def read_pgm(path):
    """Binary (P5) graymap with maxval 255 as a [Y, X] uint8 array."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"{path}: not a P5 file")
    # header = magic, width, height, maxval; '#' starts a comment
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        if raw[pos:pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit() or int(token) == 0:
            field = ("width", "height", "maxval")[len(tokens)]
            raise ValueError(f"{path}: {field} must be a positive integer, got "
                             f"{token.decode(errors='replace') or 'nothing'}")
        tokens.append(int(token))
    pos += 1  # single whitespace after maxval
    w, h, maxval = tokens
    if maxval != 255:
        raise ValueError(f"{path}: unsupported maxval {maxval}")
    data = np.frombuffer(raw, dtype=np.uint8, offset=min(pos, len(raw)))
    if data.size != w * h:
        raise ValueError(f"{path}: payload does not match {w}x{h}")
    return data.reshape(h, w)


def attention_montage(input_plane, alpha_planes):
    """Input beside each attention plane, jointly normalized, as one graymap.

    The attention planes share one min-max normalization so their relative
    strengths stay comparable; the input is normalized on its own.  Attention
    planes from downsampled layers are nearest-upscaled to the input extent
    (which must be an integer multiple).  Panels are separated by one white
    column and the result nearest-upsampled 8x as a whole.
    """
    def norm(p):
        p = np.asarray(p, dtype=np.float64)
        lo, hi = p.min(), p.max()
        return np.full_like(p, 0.5) if hi <= lo else (p - lo) / (hi - lo)

    def fit_to(p, y):
        if p.shape[0] == y:
            return p
        if y % p.shape[0]:
            raise ValueError(f"panel extent {p.shape[0]} does not divide input "
                             f"extent {y}")
        f = y // p.shape[0]
        return np.repeat(np.repeat(p, f, axis=0), f, axis=1)

    alphas = norm(alpha_planes)
    y = np.asarray(input_plane).shape[0]
    panels = [norm(input_plane)] + [fit_to(alphas[k], y)
                                    for k in range(alphas.shape[0])]
    sep = np.ones((y, 1))
    row = []
    for i, p in enumerate(panels):
        if i:
            row.append(sep)
        row.append(p)
    montage = np.concatenate(row, axis=1)
    return np.repeat(np.repeat(montage, 8, axis=0), 8, axis=1)


# ---------------------------------------------------------------------------
# run configuration

class ConfigError(ValueError):
    pass


GROUP_ALIASES = {"p4": "C4", "p4m": "D4", "c1": "C1", "c2": "C2"}


@dataclass(frozen=True)
class RunConfig:
    group: str = "p4"
    variant: str = "plain"
    filter_size: int = 7
    reduction_ratio: int = 2
    lr: float = 0.001
    epochs: int = 30
    batch: int = 128
    seed: int = 0
    dtype: str = "f32"
    pool_out_channels: bool = True

    @property
    def group_name(self):
        return GROUP_ALIASES[self.group]


def _parse_bool(val, key, lineno):
    lv = val.lower()
    if lv in ("true", "1", "yes"):
        return True
    if lv in ("false", "0", "no"):
        return False
    raise ConfigError(f"line {lineno}: {key} expects a boolean, got {val!r}")


_CONFIG_PARSERS = {
    "group": lambda v, k, ln: _choice(v, k, ln, tuple(GROUP_ALIASES)),
    "variant": lambda v, k, ln: _choice(v, k, ln, VARIANTS),
    "filter_size": lambda v, k, ln: _int(v, k, ln, minimum=1),
    "reduction_ratio": lambda v, k, ln: _int(v, k, ln, minimum=1),
    "lr": lambda v, k, ln: _positive_float(v, k, ln),
    "epochs": lambda v, k, ln: _int(v, k, ln, minimum=1),
    "batch": lambda v, k, ln: _int(v, k, ln, minimum=1),
    "seed": lambda v, k, ln: _int(v, k, ln),
    "dtype": lambda v, k, ln: _choice(v, k, ln, ("f32", "f64")),
    "pool_out_channels": _parse_bool,
}


def _choice(val, key, lineno, options):
    if val not in options:
        raise ConfigError(f"line {lineno}: {key} must be one of {options}, got {val!r}")
    return val


def _int(val, key, lineno, minimum=None):
    try:
        value = int(val)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects an integer, got {val!r}") from None
    if minimum is not None and value < minimum:
        raise ConfigError(f"line {lineno}: {key} must be >= {minimum}, got {value}")
    return value


def _positive_float(val, key, lineno):
    try:
        value = float(val)
    except ValueError:
        raise ConfigError(f"line {lineno}: {key} expects a number, got {val!r}") from None
    if not math.isfinite(value) or value <= 0:
        raise ConfigError(f"line {lineno}: {key} must be finite and > 0, got {value}")
    return value


def load_config(path=None, text=None, overrides=None) -> RunConfig:
    """key=value per line; '#' comments; unknown or repeated keys are errors."""
    if text is None:
        text = ""
        if path is not None:
            with open(path) as fh:
                text = fh.read()
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}; valid keys: "
                              f"{sorted(_CONFIG_PARSERS)}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = _CONFIG_PARSERS[key](val, key, lineno)
    cfg = RunConfig(**seen)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


# ---------------------------------------------------------------------------
# checkpoints

def _members(tensors):
    """Member name -> the array stored under it."""
    members = {"format": np.array(2), **{t.name: t.data for t in tensors}}
    if len(members) != len(tensors) + 1:
        raise ValueError("tensor names must be unique, and not 'format', for checkpointing")
    return members


def save_checkpoint(path, tensors):
    """Each tensor under its name, and `format` 2, as an uncompressed .npz."""
    with open(path, "wb") as fh:    # a file object: np.savez adds no .npz suffix
        np.savez(fh, **_members(tensors))


def load_checkpoint(path, tensors):
    """Restore tensors by name.

    Nothing is assigned until the archive has passed every check: its zip end
    record closes the file and counts every member once; every member is
    stored, neither compressed nor encrypted, and passes its CRC-32; the names
    are exactly those save_checkpoint writes for `tensors`; and each member's
    .npy header matches its target's shape and dtype before its payload is
    read.  A truncated, corrupt or mismatched file, a version-1 ("GATT") file
    among them, raises ValueError and leaves the tensors untouched.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    sig, _, _, _, count, cd_size, cd_offset, comment = struct.unpack(
        "<4s4H2IH", raw[-22:].rjust(22, b"\0"))
    if sig != b"PK\x05\x06" or comment or cd_offset + cd_size + 22 != len(raw):
        raise ValueError(f"{path}: no zip end record closes the file (truncated, "
                         "trailing bytes or not a checkpoint)")
    try:
        with zipfile.ZipFile(io.BytesIO(raw)) as zf:
            infos = zf.infolist()
            names = {info.filename for info in infos}
            want = {f"{k}.npy": a for k, a in _members(tensors).items()}
            if not len(infos) == len(names) == count:
                raise ValueError(f"{path}: {len(infos)} members, {len(names)} distinct names, "
                                 f"but the end record counts {count}")
            if names != want.keys():
                raise ValueError(f"{path}: members missing {sorted(want.keys() - names)}, "
                                 f"unexpected {sorted(names - want.keys())}")
            if any(i.compress_type or i.flag_bits & 1 or i.compress_size != i.file_size
                   for i in infos) or zf.testzip():
                raise ValueError(f"{path}: a member is compressed, encrypted or corrupt")
            arrays = {}
            for info in infos:
                with zf.open(info) as member:
                    np.lib.format.read_magic(member)
                    shape, fortran, dtype = np.lib.format.read_array_header_1_0(member)
                    target = want[info.filename]
                    if fortran or shape != target.shape or dtype != target.dtype:
                        raise ValueError(f"{path}: {info.filename} holds {dtype} {shape}, "
                                         f"the model needs {target.dtype} {target.shape}")
                    arrays[info.filename[:-4]] = np.frombuffer(member.read(), dtype).reshape(shape)
    except (zipfile.BadZipFile, EOFError, NotImplementedError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint ({exc})") from None
    if arrays["format"] != want["format.npy"]:
        raise ValueError(f"{path}: unsupported checkpoint format {arrays['format']}")
    for t in tensors:
        t.data = arrays[t.name].copy()
