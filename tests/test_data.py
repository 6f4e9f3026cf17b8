"""Data pipeline: netpbm codec byte contracts, normalization arithmetic,
augmentation determinism/consistency, the synthetic generator contract,
and the manifest reader."""
from __future__ import annotations

import numpy as np
import pytest

from dyglnet import data
from dyglnet.data import (
    NORM_MEAN,
    NORM_STD,
    SegmentationSample,
    augment,
    decode_pgm,
    decode_ppm,
    encode_pgm,
    load_manifest,
    load_sample,
    normalize_image,
    synth_dataset,
    write_pgm,
)
from dyglnet.errors import (
    ContractError,
    DimensionError,
    FormatError,
    UnsupportedFormatError,
)
from dyglnet.tensor import Tensor


# ---------------------------------------------------------------------------
# Netpbm codec


def test_decode_ppm_single_red_pixel():
    buf = b"P6\n1 1\n255\n" + bytes([255, 0, 0])
    arr = decode_ppm(buf)
    assert arr.shape == (1, 1, 3)
    np.testing.assert_array_equal(arr[0, 0], [255, 0, 0])
    # Scaled to [0,1] before normalization the tensor reads [1, 0, 0].
    np.testing.assert_array_equal(arr[0, 0] / 255.0, [1.0, 0.0, 0.0])


def test_codec_round_trip_reproduces_bytes():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    buf = b"P6\n7 5\n255\n" + img.tobytes()
    np.testing.assert_array_equal(decode_ppm(buf), img)
    assert b"P6\n7 5\n255\n" + decode_ppm(buf).tobytes() == buf
    gray = rng.integers(0, 256, size=(4, 6), dtype=np.uint8)
    gbuf = encode_pgm(gray)
    np.testing.assert_array_equal(decode_pgm(gbuf), gray)
    assert encode_pgm(decode_pgm(gbuf)) == gbuf


def test_decode_handles_comments_and_whitespace():
    buf = b"P6 # inline comment\n# full line\n  2\t1 \n# again\n255\n" + bytes(
        [1, 2, 3, 4, 5, 6]
    )
    arr = decode_ppm(buf)
    assert arr.shape == (1, 2, 3)
    np.testing.assert_array_equal(arr.ravel(), [1, 2, 3, 4, 5, 6])


def test_decode_rejects_wrong_maxval():
    buf = b"P6\n1 1\n65535\n" + bytes(6)
    with pytest.raises(UnsupportedFormatError):
        decode_ppm(buf)
    with pytest.raises(UnsupportedFormatError):
        decode_pgm(b"P5\n1 1\n127\n" + bytes(1))


def test_decode_rejects_ascii_variants():
    with pytest.raises(UnsupportedFormatError):
        decode_ppm(b"P3\n1 1\n255\n255 0 0\n")
    with pytest.raises(UnsupportedFormatError):
        decode_pgm(b"P2\n1 1\n255\n0\n")


def test_decode_rejects_wrong_magic_for_function():
    ppm = b"P6\n1 1\n255\n" + bytes(3)
    with pytest.raises(UnsupportedFormatError):
        decode_pgm(ppm)


def test_decode_truncated_payload_reports_offset():
    header = b"P6\n2 2\n255\n"
    buf = header + bytes(5)  # needs 12 payload bytes
    with pytest.raises(FormatError) as err:
        decode_ppm(buf)
    assert err.value.offset == len(buf)


def test_decode_trailing_bytes_rejected():
    buf = b"P6\n1 1\n255\n" + bytes(3) + b"x"
    with pytest.raises(FormatError) as err:
        decode_ppm(buf)
    assert err.value.offset == len(b"P6\n1 1\n255\n") + 3


def test_decode_rejects_garbage_header():
    with pytest.raises(FormatError):
        decode_ppm(b"P6\nabc def\n255\n")
    with pytest.raises(FormatError):
        decode_ppm(b"P6\n0 1\n255\n")


# ---------------------------------------------------------------------------
# Normalization / sample loading


def test_normalization_constants():
    np.testing.assert_allclose(NORM_MEAN, [0.485, 0.456, 0.406])
    np.testing.assert_allclose(NORM_STD, [0.229, 0.224, 0.225])


def test_load_sample_white_image_pinned(tmp_path):
    img_path = str(tmp_path / "white.ppm")
    mask_path = str(tmp_path / "white_mask.pgm")
    with open(img_path, "wb") as f:
        f.write(b"P6\n4 4\n255\n" + bytes([255] * 48))
    with open(mask_path, "wb") as f:
        f.write(encode_pgm(np.full((4, 4), 255, np.uint8)))
    sample = load_sample(img_path, mask_path, size=16)
    assert sample.id == "white"
    assert sample.image.shape == (3, 16, 16)
    ch0 = sample.image.data[0]
    want = (1.0 - 0.485) / 0.229
    assert want == pytest.approx(2.24891, abs=1e-4)
    np.testing.assert_allclose(ch0, want, atol=1e-4)
    np.testing.assert_array_equal(sample.mask.data, 1.0)


def test_mean_pixel_normalizes_to_zero(tmp_path):
    mean_rgb = np.rint(NORM_MEAN * 255).astype(np.uint8)
    img = np.broadcast_to(mean_rgb, (4, 4, 3)).copy()
    img_path = str(tmp_path / "mean.ppm")
    mask_path = str(tmp_path / "mean_m.pgm")
    with open(img_path, "wb") as f:
        f.write(b"P6\n4 4\n255\n" + img.tobytes())
    with open(mask_path, "wb") as f:
        f.write(encode_pgm(np.zeros((4, 4), np.uint8)))
    sample = load_sample(img_path, mask_path, size=4)
    # Quantization to 8 bits leaves a sub-1/255 residue around zero.
    assert np.abs(sample.image.data).max() < (0.5 / 255.0) / NORM_STD.min() + 1e-6


def test_normalize_image_matches_its_formula():
    rng = np.random.default_rng(1)
    img01 = rng.random((3, 8, 8)).astype(np.float32)
    want = np.stack([
        (img01[k].astype(np.float64) - float(NORM_MEAN[k])) / float(NORM_STD[k])
        for k in range(3)
    ])
    np.testing.assert_allclose(normalize_image(img01), want, rtol=1e-6, atol=1e-6)


def test_sample_validation():
    img = Tensor(np.zeros((3, 4, 4), np.float32), dtype="f32")
    good_mask = Tensor(np.ones((1, 4, 4), np.float32), dtype="f32")
    SegmentationSample("ok", img, good_mask)
    with pytest.raises(DimensionError):
        SegmentationSample("bad", img, Tensor(np.ones((1, 5, 4), np.float32), dtype="f32"))
    with pytest.raises(ContractError):
        SegmentationSample(
            "bad", img, Tensor(np.full((1, 4, 4), 0.5, np.float32), dtype="f32")
        )


def test_netpbm_sample_round_trip(tmp_path):
    # Undoing the normalization of a loaded sample recovers every byte
    # of the files; a 0/255 mask loads as exactly 0/1.
    rng = np.random.default_rng(3)
    raw = rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8)
    raw_mask = np.where(rng.random((32, 32)) < 0.3, 255, 0).astype(np.uint8)
    img_path = str(tmp_path / "s.ppm")
    mask_path = str(tmp_path / "s.pgm")
    with open(img_path, "wb") as f:
        f.write(b"P6\n32 32\n255\n" + raw.tobytes())
    write_pgm(mask_path, raw_mask)
    back = load_sample(img_path, mask_path, size=32)
    img01 = back.image.data * NORM_STD.reshape(3, 1, 1) + NORM_MEAN.reshape(3, 1, 1)
    np.testing.assert_array_equal(np.rint(img01 * 255.0).transpose(1, 2, 0), raw)
    np.testing.assert_array_equal(back.mask.data[0], raw_mask / 255.0)


def test_load_sample_rejects_a_mask_of_other_extents(tmp_path, monkeypatch):
    # Both files would resize to 64x64 and pass as a sample: the extents
    # are compared as decoded, before anything is resized.
    img_path, mask_path = str(tmp_path / "wide.ppm"), str(tmp_path / "wide.pgm")
    with open(img_path, "wb") as f:
        f.write(b"P6\n100 100\n255\n" + bytes(100 * 100 * 3))
    write_pgm(mask_path, np.zeros((50, 80), np.uint8))
    resized = []
    monkeypatch.setattr(data, "_resize_chw", lambda *a: resized.append(a))
    with pytest.raises(FormatError) as err:
        load_sample(img_path, mask_path, size=64)
    assert "80x50" in str(err.value) and "100x100" in str(err.value)
    assert mask_path in str(err.value)
    assert resized == []


# ---------------------------------------------------------------------------
# Augmentation


def _stages(monkeypatch, crop=(1.0, 1.0), **probs):
    """Fix the crop scale and set each stage's probability: the ones named
    in ``probs`` (e.g. ``P_HFLIP=1.0``), and 0 for the rest."""
    monkeypatch.setattr(data, "CROP_SCALE", crop)
    for name in ("P_HFLIP", "P_VFLIP", "P_ROT", "P_ELASTIC", "P_PHOTOMETRIC"):
        monkeypatch.setattr(data, name, probs.pop(name, 0.0))
    assert not probs, probs


def test_augment_disabled_is_bit_identical(monkeypatch):
    _stages(monkeypatch)
    sample = synth_dataset(1, seed=5, size=32)[0]
    out = augment(sample, np.random.default_rng(0))
    np.testing.assert_array_equal(out.image.data, sample.image.data)
    np.testing.assert_array_equal(out.mask.data, sample.mask.data)


def test_augment_deterministic_under_fixed_rng():
    sample = synth_dataset(1, seed=7, size=32)[0]
    a = augment(sample, np.random.default_rng(123))
    b = augment(sample, np.random.default_rng(123))
    np.testing.assert_array_equal(a.image.data, b.image.data)
    np.testing.assert_array_equal(a.mask.data, b.mask.data)


def test_augment_hflip_is_involution(monkeypatch):
    _stages(monkeypatch, P_HFLIP=1.0)
    sample = synth_dataset(1, seed=11, size=32)[0]
    once = augment(sample, np.random.default_rng(1))
    twice = augment(once, np.random.default_rng(2))
    np.testing.assert_array_equal(twice.image.data, sample.image.data)
    np.testing.assert_array_equal(twice.mask.data, sample.mask.data)


def test_augment_vflip_is_involution(monkeypatch):
    _stages(monkeypatch, P_VFLIP=1.0)
    sample = synth_dataset(1, seed=13, size=32)[0]
    once = augment(sample, np.random.default_rng(1))
    twice = augment(once, np.random.default_rng(2))
    np.testing.assert_array_equal(twice.image.data, sample.image.data)
    np.testing.assert_array_equal(twice.mask.data, sample.mask.data)


def test_augment_flip_geometry_consistent(monkeypatch):
    # Flipping image and mask together: flip(mask(x)) == mask(flip(x)).
    _stages(monkeypatch, P_HFLIP=1.0)
    sample = synth_dataset(1, seed=17, size=32)[0]
    out = augment(sample, np.random.default_rng(3))
    np.testing.assert_array_equal(out.image.data, sample.image.data[:, :, ::-1])
    np.testing.assert_array_equal(out.mask.data, sample.mask.data[:, :, ::-1])


def test_augment_photometric_leaves_mask_alone(monkeypatch):
    _stages(monkeypatch, P_PHOTOMETRIC=1.0)
    sample = synth_dataset(1, seed=19, size=32)[0]
    out = augment(sample, np.random.default_rng(5))
    np.testing.assert_array_equal(out.mask.data, sample.mask.data)
    assert not np.array_equal(out.image.data, sample.image.data)


def test_augment_preserves_size_and_mask_binarity():
    sample = synth_dataset(1, seed=23, size=32)[0]
    for seed in range(6):
        out = augment(sample, np.random.default_rng(seed))
        assert out.image.shape == (3, 32, 32)
        assert out.mask.shape == (1, 32, 32)
        md = out.mask.data
        assert np.all((md == 0.0) | (md == 1.0))


def test_augment_crop_changes_content(monkeypatch):
    _stages(monkeypatch, crop=(0.5, 0.5))
    sample = synth_dataset(1, seed=29, size=32)[0]
    out = augment(sample, np.random.default_rng(7))
    assert out.image.shape == (3, 32, 32)
    assert not np.array_equal(out.image.data, sample.image.data)


# ---------------------------------------------------------------------------
# Synthetic dataset


def test_synth_deterministic_bit_identical():
    a = synth_dataset(3, seed=42, size=32)
    b = synth_dataset(3, seed=42, size=32)
    for sa, sb in zip(a, b):
        assert sa.id == sb.id
        np.testing.assert_array_equal(sa.image.data, sb.image.data)
        np.testing.assert_array_equal(sa.mask.data, sb.mask.data)


def test_synth_prefix_stability():
    # Sample k is a function of (seed, size, k): growing n keeps a prefix.
    short = synth_dataset(2, seed=9, size=32)
    longer = synth_dataset(4, seed=9, size=32)
    for sa, sb in zip(short, longer):
        np.testing.assert_array_equal(sa.image.data, sb.image.data)
        np.testing.assert_array_equal(sa.mask.data, sb.mask.data)


def test_synth_mask_fraction_in_contract_range():
    for sample in synth_dataset(24, seed=1, size=48):
        frac = float(sample.mask.data.mean())
        assert 0.02 <= frac <= 0.6, frac


def test_synth_mask_nonempty_with_connected_component():
    for sample in synth_dataset(8, seed=2, size=32):
        mask = sample.mask.data[0].astype(bool)
        assert mask.any()
        # Flood-fill from one foreground pixel; a 4-connected component
        # of size >= 1 must exist (ellipse interiors are solid).
        ys, xs = np.nonzero(mask)
        seen = set()
        stack = [(int(ys[0]), int(xs[0]))]
        while stack:
            y, x = stack.pop()
            if (y, x) in seen or not mask[y, x]:
                continue
            seen.add((y, x))
            for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ny, nx = y + dy, x + dx
                if 0 <= ny < mask.shape[0] and 0 <= nx < mask.shape[1]:
                    stack.append((ny, nx))
        assert len(seen) >= 4  # solid interior, not scattered speckle


def test_synth_shapes_and_types():
    sample = synth_dataset(1, seed=0, size=64)[0]
    assert sample.image.shape == (3, 64, 64)
    assert sample.mask.shape == (1, 64, 64)
    assert sample.image.dtype == "f32"


def test_synth_rejects_bad_count():
    with pytest.raises(ContractError):
        synth_dataset(0, seed=0)


def test_synth_rejects_a_negative_seed():
    # A negative seed would otherwise alias its absolute value: the same
    # images and masks under other ids.
    with pytest.raises(ContractError, match="seed"):
        synth_dataset(3, seed=-5, size=32)
    synth_dataset(1, seed=0, size=32)


# ---------------------------------------------------------------------------
# Manifest


def test_manifest_file_round_trip(tmp_path):
    rows = []
    for name, split in (("a", "train"), ("b", "valid"), ("c", "test"), ("d", "train")):
        image, mask = str(tmp_path / f"{name}.ppm"), str(tmp_path / f"{name}.pgm")
        for p in (image, mask):
            open(p, "wb").close()  # the reader checks only that they exist
        rows.append((image, mask, split))
    path = str(tmp_path / "data.tsv")
    with open(path, "w") as f:
        f.write("".join(f"{image}\t{mask}\t{split}\n" for image, mask, split in rows))
        f.write("\n")  # blank lines are skipped
    back = load_manifest(path)
    # Each split keeps its (image, mask) pairs in file order.
    assert back == {
        split: [(image, mask) for image, mask, s in rows if s == split]
        for split in ("train", "valid", "test")
    }
    assert [pair[0] for pair in back["train"]] == [rows[0][0], rows[3][0]]


def test_manifest_missing_file_rejected(tmp_path):
    path = str(tmp_path / "data.tsv")
    with open(path, "w") as f:
        f.write("missing.ppm\tmissing.pgm\ttrain\n")
    with pytest.raises(ContractError):
        load_manifest(path)


def test_manifest_bad_lines_rejected(tmp_path):
    path = str(tmp_path / "bad.tsv")
    with open(path, "w") as f:
        f.write("only_two\tfields\n")
    with pytest.raises(FormatError) as err:
        load_manifest(path)
    assert ":1:" in str(err.value)
    with open(path, "w") as f:
        f.write("a.ppm\tb.pgm\tholdout\n")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_manifest_unknown_split_query(tmp_path):
    # Every known split is a key, empty when the file lists none of it;
    # an unknown split is not a key.
    image, mask = str(tmp_path / "a.ppm"), str(tmp_path / "a.pgm")
    for p in (image, mask):
        open(p, "wb").close()
    path = str(tmp_path / "data.tsv")
    with open(path, "w") as f:
        f.write(f"{image}\t{mask}\ttrain\n")
    splits = load_manifest(path)
    assert splits == {"train": [(image, mask)], "valid": [], "test": []}
    assert "eval" not in splits
