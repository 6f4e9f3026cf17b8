"""Image/mask ingestion, augmentation, synthetic data, and manifests.

Only binary Netpbm files are decoded: P6 (color) for images and P5
(gray) for masks, 8-bit with maxval 255. Samples are resized
bilinearly, masks re-thresholded, and images normalized per channel
with the standard ImageNet constants. Augmentations and the synthetic
ellipse dataset are fully deterministic under their seeds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    ContractError,
    DimensionError,
    FormatError,
    UnsupportedFormatError,
)
from .losses import _check_binary
from .tensor import Tensor

NORM_MEAN = np.asarray([0.485, 0.456, 0.406], dtype=np.float32)
NORM_STD = np.asarray([0.229, 0.224, 0.225], dtype=np.float32)


@dataclass
class SegmentationSample:
    """Normalized image [3,S,S] plus binary mask [1,S,S]."""

    id: str
    image: Tensor
    mask: Tensor

    def __post_init__(self):
        if self.image.rank != 3 or self.image.shape[0] != 3:
            raise DimensionError(f"image must be [3,H,W], got {self.image.shape}")
        if self.mask.rank != 3 or self.mask.shape[0] != 1:
            raise DimensionError(f"mask must be [1,H,W], got {self.mask.shape}")
        if self.image.shape[1:] != self.mask.shape[1:]:
            raise DimensionError(
                f"image {self.image.shape} and mask {self.mask.shape} extents differ"
            )
        _check_binary(self.mask.data, "mask")


# ---------------------------------------------------------------------------
# Netpbm codec (binary P6/P5, maxval 255)


def _parse_netpbm(buf: bytes, magic: bytes, what: str) -> tuple[int, int, int]:
    """Returns (width, height, payload offset); validates magic and maxval."""
    if len(buf) < 2 or buf[:1] != b"P":
        raise FormatError(f"not a Netpbm file ({what})", offset=0)
    if buf[:2] != magic:
        if buf[:2] in (b"P1", b"P2", b"P3", b"P4", b"P5", b"P6", b"P7"):
            raise UnsupportedFormatError(
                f"expected {magic.decode()} ({what}), got {buf[:2].decode()}",
                offset=0,
            )
        raise FormatError(f"bad magic for {what}", offset=0)
    pos = 2
    values: list[int] = []
    while len(values) < 3:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos] == ord("#"):
            while pos < len(buf) and buf[pos] != ord("\n"):
                pos += 1
            continue
        start = pos
        while pos < len(buf) and buf[pos : pos + 1].isdigit():
            pos += 1
        if not 0 < pos - start <= 9:  # and int() reads at most 4300 digits
            raise FormatError(
                f"expected a decimal header field of 1 to 9 digits in {what}", offset=start
            )
        values.append(int(buf[start:pos]))
    if pos >= len(buf) or not buf[pos : pos + 1].isspace():
        raise FormatError(
            f"missing whitespace after maxval in {what}", offset=pos
        )
    pos += 1
    width, height, maxval = values
    if width < 1 or height < 1:
        raise FormatError(f"degenerate extents {width}x{height} in {what}", offset=2)
    if maxval != 255:
        raise UnsupportedFormatError(
            f"maxval {maxval} unsupported in {what} (only 255)", offset=2
        )
    return width, height, pos


def _decode_netpbm(buf: bytes, magic: bytes, what: str, channels: int) -> np.ndarray:
    """Binary Netpbm bytes -> uint8 array [H,W,channels], or [H,W] for
    one channel; the payload must fill the extents exactly."""
    w, h, off = _parse_netpbm(buf, magic, what)
    need = w * h * channels
    if len(buf) - off < need:
        raise FormatError(
            f"payload truncated: need {need} bytes, have {len(buf) - off}",
            offset=len(buf),
        )
    if len(buf) - off > need:
        raise FormatError(f"{len(buf) - off - need} trailing bytes", offset=off + need)
    shape = (h, w, channels) if channels > 1 else (h, w)
    return np.frombuffer(buf, dtype=np.uint8, count=need, offset=off).reshape(shape)


def decode_ppm(buf: bytes) -> np.ndarray:
    """P6 bytes -> uint8 array [H,W,3]."""
    return _decode_netpbm(buf, b"P6", "P6 image", 3)


def decode_pgm(buf: bytes) -> np.ndarray:
    """P5 bytes -> uint8 array [H,W]."""
    return _decode_netpbm(buf, b"P5", "P5 image", 1)


def encode_pgm(arr: np.ndarray) -> bytes:
    if arr.ndim != 2 or arr.dtype != np.uint8:
        raise ContractError(f"encode_pgm needs uint8 [H,W], got {arr.shape}")
    h, w = arr.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes()


def read_ppm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_ppm(f.read())


def read_pgm(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        return decode_pgm(f.read())


def write_pgm(path: str, arr: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write(encode_pgm(arr))


# ---------------------------------------------------------------------------
# Loading and normalization


def _resize_chw(arr: np.ndarray, size: int) -> np.ndarray:
    """A new [c, size, size] bilinear resize of arr [c, h, w]; a copy
    when the extents already match."""
    c, h, w = arr.shape
    if (h, w) == (size, size):
        return arr.copy()
    u = T._resize_coords(1, h, w, size, size, arr.dtype)
    return T._sample_pixel_forward(np.ascontiguousarray(arr[None]), u)[0].reshape(c, size, size)


def normalize_image(img01: np.ndarray) -> np.ndarray:
    """[3,H,W] floats in [0,1] -> per-channel (x - mean)/std."""
    return (img01 - NORM_MEAN.reshape(3, 1, 1)) / NORM_STD.reshape(3, 1, 1)


def _image_tensor(raw: np.ndarray, size: int) -> Tensor:
    """Decoded P6 pixels [H,W,3] -> normalized f32 image tensor [3,size,size]."""
    img01 = (raw.astype(np.float32) / 255.0).transpose(2, 0, 1)
    img01 = _resize_chw(img01, size)
    return Tensor._wrap(normalize_image(img01).astype(np.float32))


def load_image(path: str, size: int) -> Tensor:
    """P6 file -> normalized f32 image tensor [3,size,size]."""
    return _image_tensor(read_ppm(path), size)


def load_sample(image_path: str, mask_path: str, size: int = 224) -> SegmentationSample:
    """Decode, scale to [0,1], resize, threshold the mask, normalize. A
    mask whose extents differ from its image's raises ``FormatError``."""
    raw, raw_mask = read_ppm(image_path), read_pgm(mask_path)
    if raw_mask.shape != raw.shape[:2]:
        (h, w), (mh, mw) = raw.shape[:2], raw_mask.shape
        raise FormatError(f"mask {mask_path} is {mw}x{mh}, its image {image_path} {w}x{h}")
    image = _image_tensor(raw, size)
    m01 = (raw_mask.astype(np.float32) / 255.0)[None]
    m01 = _resize_chw(m01, size)
    mask = Tensor._wrap((m01 > 0.5).astype(np.float32))
    sample_id = os.path.splitext(os.path.basename(image_path))[0]
    return SegmentationSample(sample_id, image, mask)


# ---------------------------------------------------------------------------
# Augmentation

CROP_SCALE = (0.5, 1.0)  # range of the square crop's side, as a share of the frame
P_HFLIP = 0.5
P_VFLIP = 0.5
P_ROT = 0.6
P_ELASTIC = 0.3
P_PHOTOMETRIC = 0.2
ROT_MAX_DEG = 15.0
ELASTIC_GRID = 4
ELASTIC_AMP_PX = 8.0
BRIGHTNESS_RANGE = 0.2
CONTRAST_RANGE = 0.15
# Out-of-frame fill: images are already normalized, so the per-channel
# mean pixel maps exactly to 0; masks fill with background.
IMAGE_FILL = 0.0
MASK_FILL = 0.0


@dataclass(frozen=True)
class AugmentConfig:
    """Turns augmentation on in ``train``. The probabilities and ranges are
    the module constants above; ``seed`` is unread, and stays only because
    the benchmark's workloads pass it."""

    seed: int = 0


def _warp(img: np.ndarray, mask: np.ndarray, src_x: np.ndarray,
          src_y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Output pixel (i, j) of image and mask reads source pixel coords
    (src_x, src_y)[i, j]: the image bilinearly, the mask from its nearest
    pixel. Points outside the frame read ``IMAGE_FILL`` / ``MASK_FILL``."""
    c, hh, ww = img.shape
    u = np.stack([src_x, src_y]).reshape(1, 2, -1).astype(img.dtype)
    img = T._sample_pixel_forward(img[None], u)[0].reshape(c, hh, ww)
    xi = np.clip(np.rint(src_x), 0, ww - 1).astype(np.int64)
    yi = np.clip(np.rint(src_y), 0, hh - 1).astype(np.int64)
    mask = mask[:, yi, xi]
    outside = (src_x < 0) | (src_x > ww - 1) | (src_y < 0) | (src_y > hh - 1)
    img[:, outside] = IMAGE_FILL
    mask[:, outside] = MASK_FILL
    return img, mask


def _identity_grid(s: int) -> tuple[np.ndarray, np.ndarray]:
    xs = np.arange(s, dtype=np.float64)
    return np.broadcast_to(xs[None, :], (s, s)), np.broadcast_to(xs[:, None], (s, s))


def augment(sample: SegmentationSample, rng: np.random.Generator) -> SegmentationSample:
    """Apply the augmentation stack; deterministic for a given rng state.

    Geometric stages transform image and mask identically (mask via
    nearest sampling, re-binarized); the photometric stage touches only
    the image. A crop that would erase all foreground is redrawn up to
    10 times, then skipped.
    """
    img = sample.image.numpy()
    mask = sample.mask.numpy()
    s = img.shape[1]

    # square crop, always drawn (scale 1.0 keeps the frame)
    scale = float(rng.uniform(*CROP_SCALE))
    side = max(1, min(s, int(round(scale * s))))
    if side < s:
        had_fg = mask.sum() > 0
        chosen = None
        for _ in range(10):
            y0 = int(rng.integers(0, s - side + 1))
            x0 = int(rng.integers(0, s - side + 1))
            if not had_fg or mask[:, y0 : y0 + side, x0 : x0 + side].sum() > 0:
                chosen = (y0, x0)
                break
        if chosen is not None:
            y0, x0 = chosen
            img = _resize_chw(img[:, y0 : y0 + side, x0 : x0 + side], s)
            m = _resize_chw(mask[:, y0 : y0 + side, x0 : x0 + side], s)
            mask = (m > 0.5).astype(np.float32)

    if rng.uniform() < P_HFLIP:
        img = np.ascontiguousarray(img[:, :, ::-1])
        mask = np.ascontiguousarray(mask[:, :, ::-1])
    if rng.uniform() < P_VFLIP:
        img = np.ascontiguousarray(img[:, ::-1, :])
        mask = np.ascontiguousarray(mask[:, ::-1, :])

    if rng.uniform() < P_ROT:
        theta = math.radians(float(rng.uniform(-ROT_MAX_DEG, ROT_MAX_DEG)))
        gx, gy = _identity_grid(s)
        ctr = (s - 1) / 2.0
        xc, yc = gx - ctr, gy - ctr
        src_x = math.cos(theta) * xc + math.sin(theta) * yc + ctr
        src_y = -math.sin(theta) * xc + math.cos(theta) * yc + ctr
        img, mask = _warp(img, mask, src_x, src_y)

    if rng.uniform() < P_ELASTIC:
        coarse = rng.uniform(
            -ELASTIC_AMP_PX, ELASTIC_AMP_PX, size=(2, ELASTIC_GRID, ELASTIC_GRID)
        ).astype(np.float32)
        disp = _resize_chw(coarse, s)
        gx, gy = _identity_grid(s)
        src_x = gx + disp[0]
        src_y = gy + disp[1]
        img, mask = _warp(img, mask, src_x, src_y)

    if rng.uniform() < P_PHOTOMETRIC:
        contrast = 1.0 + float(rng.uniform(-CONTRAST_RANGE, CONTRAST_RANGE))
        brightness = float(rng.uniform(-BRIGHTNESS_RANGE, BRIGHTNESS_RANGE))
        img = img * np.float32(contrast) + np.float32(brightness)

    return SegmentationSample(
        sample.id,
        Tensor._wrap(np.ascontiguousarray(img, dtype=np.float32)),
        Tensor._wrap(np.ascontiguousarray(mask, dtype=np.float32)),
    )


# ---------------------------------------------------------------------------
# Synthetic dataset


def _ellipse_alpha(
    size: int, cx: float, cy: float, ax: float, ay: float, angle: float
) -> np.ndarray:
    gx, gy = _identity_grid(size)
    xr = (gx - cx) * math.cos(angle) + (gy - cy) * math.sin(angle)
    yr = -(gx - cx) * math.sin(angle) + (gy - cy) * math.cos(angle)
    q = np.sqrt((xr / ax) ** 2 + (yr / ay) ** 2)
    dist_px = (1.0 - q) * min(ax, ay)
    return np.clip(dist_px + 0.5, 0.0, 1.0)


def synth_dataset(n: int, seed: int, size: int = 64) -> list[SegmentationSample]:
    """Deterministic noisy backgrounds with 1-3 anti-aliased ellipses.

    The mask is the union of ellipse interiors; its pixel fraction is
    constrained to [0.02, 0.6] by redrawing. Every sample is fully
    determined by (seed, size, index).
    """
    if n < 1:
        raise ContractError(f"n must be >= 1, got {n}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    samples = []
    for k in range(n):
        rng = np.random.default_rng([seed, size, k])
        alpha = None
        for _ in range(50):
            m = int(rng.integers(1, 4))
            cand = np.zeros((size, size))
            for _ in range(m):
                cx, cy = rng.uniform(0.3, 0.7, size=2) * size
                ax, ay = rng.uniform(0.10, 0.28, size=2) * size
                angle = float(rng.uniform(0.0, math.pi))
                cand = np.maximum(cand, _ellipse_alpha(size, cx, cy, ax, ay, angle))
            frac = float((cand > 0.5).mean())
            if 0.02 <= frac <= 0.6:
                alpha = cand
                break
        if alpha is None:
            alpha = _ellipse_alpha(
                size, size / 2.0, size / 2.0, 0.2 * size, 0.2 * size, 0.0
            )
        mask = (alpha > 0.5).astype(np.float32)[None]
        base = float(rng.uniform(0.25, 0.5))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        magnitude = float(rng.uniform(0.35, 0.55))
        if base + sign * magnitude < 0.05 or base + sign * magnitude > 0.95:
            sign = -sign
        jitter = rng.uniform(-0.05, 0.05, size=3)
        noise = rng.normal(0.0, 0.025, size=(3, size, size))
        img01 = base + alpha[None] * (sign * magnitude + jitter.reshape(3, 1, 1)) + noise
        img01 = np.clip(img01, 0.0, 1.0).astype(np.float32)
        image = Tensor._wrap(normalize_image(img01).astype(np.float32))
        samples.append(
            SegmentationSample(f"synth-{seed}-{size}-{k:05d}", image, Tensor._wrap(mask))
        )
    return samples


# ---------------------------------------------------------------------------
# Manifests

_SPLITS = ("train", "valid", "test")


def read_text(path: str) -> str:
    """A UTF-8 text file with universal newlines, as ``open`` reads it;
    bytes that are not UTF-8 raise ``FormatError`` at their offset."""
    with open(path, "rb") as f:
        buf = f.read()
    try:
        return buf.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path} is not UTF-8 text", offset=e.start) from e


def load_manifest(path: str) -> dict[str, list[tuple[str, str]]]:
    """Read an ``image<TAB>mask<TAB>split`` manifest into
    ``{split: [(image, mask), ...]}`` for all three splits, in file
    order. Blank lines are skipped; every listed file must exist."""
    splits: dict[str, list[tuple[str, str]]] = {tag: [] for tag in _SPLITS}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise FormatError(
                f"{path}:{lineno}: expected image<TAB>mask<TAB>split"
            )
        image, mask, split = parts
        if split not in _SPLITS:
            raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
        for p in (image, mask):
            if not os.path.exists(p):
                raise ContractError(f"{path}:{lineno}: missing file {p}")
        splits[split].append((image, mask))
    if not any(splits.values()):
        raise ContractError(f"manifest {path} is empty")
    return splits
