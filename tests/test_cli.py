"""Command-line interface: argument handling, exit-code contract, config
file parsing (including the ``lambda`` alias), and end-to-end train /
eval / predict / gradcheck / info runs."""
from __future__ import annotations

import errno
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyglnet import cli, network
from dyglnet.cli import _load_configs, main
from dyglnet.data import load_image, read_pgm, write_pgm
from dyglnet.network import Model, ModelConfig
from dyglnet.tensor import Tensor, _sigmoid_forward

_TINY_LINES = [
    "# compact configuration for fast runs",
    "stage_channels = [8, 16, 32, 64]",
    "input_size = 32",
    "total_epochs = 2",
    "warmup_epochs = 1",
    "batch_size = 4",
    "seed = 3",
    "lambda = 0.25",
]


def _write_manifest(path, rows):
    """Write (image, mask, split) rows as the manifest TSV."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines("\t".join(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text("\n".join(_TINY_LINES) + "\n")
    return str(path)


@pytest.fixture(scope="module")
def tiny_ckpt(tmp_path_factory):
    model = Model(ModelConfig.tiny(input_size=32), seed=0)
    path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    network.save(model, str(path))
    return str(path)


@pytest.fixture(scope="module")
def disk_dataset(tmp_path_factory):
    """A manifest of four random netpbm samples."""
    root = tmp_path_factory.mktemp("data")
    rng = np.random.default_rng(21)
    rows = []
    for i in range(4):
        img = str(root / f"img_{i}.ppm")
        msk = str(root / f"msk_{i}.pgm")
        with open(img, "wb") as f:
            f.write(b"P6\n32 32\n255\n"
                    + rng.integers(0, 256, size=(32, 32, 3), dtype=np.uint8).tobytes())
        write_pgm(msk, np.where(rng.random((32, 32)) < 0.3, 255, 0).astype(np.uint8))
        split = "train" if i < 2 else ("valid" if i == 2 else "test")
        rows.append((img, msk, split))
    manifest = str(root / "manifest.tsv")
    _write_manifest(manifest, rows)
    return manifest


# ---------------------------------------------------------------------------
# Argument and config handling


def test_help_and_missing_args_use_argparse_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--synthetic", "4"])  # missing --out
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_file_feeds_both_dataclasses(tiny_config):
    model_cfg, train_cfg = _load_configs(tiny_config)
    assert model_cfg.stage_channels == (8, 16, 32, 64)
    assert model_cfg.input_size == 32
    assert train_cfg.total_epochs == 2
    assert train_cfg.batch_size == 4
    assert train_cfg.lambda_ == 0.25  # set through the `lambda` alias


def test_config_defaults_without_file():
    model_cfg, train_cfg = _load_configs(None)
    assert model_cfg == ModelConfig()
    assert train_cfg.lr0 == 1e-3


def test_unknown_config_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("mystery_field = 3\n")
    rc = main(["train", "--config", str(path), "--synthetic", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("input_size = 30\n")  # not a multiple of 16
    rc = main(["train", "--config", str(path), "--synthetic", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_repeated_dilation_rates_exit_2(tmp_path, capsys):
    # Two branches of one rate would share a checkpoint name, and the
    # saved model could not be loaded.
    path = tmp_path / "rates.cfg"
    path.write_text("\n".join(_TINY_LINES + ["dilation_rates = [2, 2]"]) + "\n")
    rc = main(["train", "--config", str(path), "--synthetic", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "dilation_rates" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_upsample_mode_exits_2(tmp_path, capsys):
    path = tmp_path / "old.cfg"
    path.write_text("\n".join(_TINY_LINES + ["upsample_mode = zero_offset"]) + "\n")
    rc = main(["train", "--config", str(path), "--synthetic", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "upsample_mode" in capsys.readouterr().err


def test_batch_size_one_exits_2(tmp_path, capsys):
    # A batch of one would be skipped every step: the run would train
    # nothing and still write final.ckpt, so it is refused up front.
    path = tmp_path / "one.cfg"
    lines = [ln for ln in _TINY_LINES if not ln.startswith("batch_size")]
    path.write_text("\n".join(lines + ["batch_size = 1"]) + "\n")
    out = tmp_path / "out"
    rc = main(["train", "--config", str(path), "--synthetic", "4", "--out", str(out)])
    assert rc == 2
    assert "batch_size" in capsys.readouterr().err
    assert not (out / "final.ckpt").exists()


def test_nan_clip_norm_exits_2_before_any_step(tmp_path, capsys):
    # A NaN clip norm is a config error, not a run that diverges at its
    # first step and exits 1.
    path = tmp_path / "nan.cfg"
    path.write_text("\n".join(_TINY_LINES + ["clip_norm = nan"]) + "\n")
    out = tmp_path / "out"
    rc = main(["train", "--config", str(path), "--synthetic", "4", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "clip_norm" in captured.err
    assert "epoch=" not in captured.out
    assert not (out / "last.ckpt").exists()


def test_nan_split_ratio_exits_2_before_any_model_is_built(tmp_path, capsys, monkeypatch):
    # The model config rejects the split itself, so no block is allocated.
    built = []
    monkeypatch.setattr(cli, "Model", lambda *args, **kwargs: built.append(args))
    path = tmp_path / "nan.cfg"
    path.write_text("\n".join(_TINY_LINES + ["split_ratio = nan"]) + "\n")
    out = tmp_path / "out"
    rc = main(["train", "--config", str(path), "--synthetic", "4", "--out", str(out)])
    assert rc == 2
    assert "split_ratio" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize(
    "line, field",
    [
        ("blocks_per_stage = [2, 4, 6, 100000000]", "blocks per stage"),
        ("stage_channels = [32, 64, 128, 1099511627776]", "stage channels"),
        ("ffn_ratio = 1e308", "ffn_ratio"),
        # numpy refused these later, with a ValueError ("array is too big")
        ("input_size = 1099511627776", "input_size"),
        ("dilation_rates = [1, 1000000000]", "dilation_rates"),
    ],
    ids=["depths", "widths", "ffn", "size", "rate"],
)
def test_a_model_too_large_exits_2_before_any_model_is_built(tmp_path, capsys, monkeypatch,
                                                             line, field):
    built = []
    monkeypatch.setattr(cli, "Model", lambda *args, **kwargs: built.append(args))
    path = tmp_path / "huge.cfg"
    lines = [ln for ln in _TINY_LINES if not ln.startswith(line.split()[0])]
    path.write_text("\n".join(lines + [line]) + "\n")
    rc = main(["train", "--config", str(path), "--synthetic", "4", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert built == []


def test_negative_seed_exits_2_naming_the_field(tmp_path, capsys):
    # numpy's own ValueError for a negative seed ("expected
    # non-negative integer") names no config key.
    path = tmp_path / "seed.cfg"
    lines = [ln for ln in _TINY_LINES if not ln.startswith("seed")]
    path.write_text("\n".join(lines + ["seed = -1"]) + "\n")
    rc = main(["train", "--config", str(path), "--synthetic", "4",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "seed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_synthetic_smoke(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["train", "--config", tiny_config, "--synthetic", "8",
               "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "done epochs=2" in captured
    assert "epoch=0 lr=" in captured
    for name in ("last.ckpt", "best.ckpt", "final.ckpt"):
        assert (out / name).exists(), name


def test_train_from_a_manifest(tiny_config, disk_dataset, tmp_path, capsys):
    # Two train images at batch 4: one step per epoch; one valid image.
    out = tmp_path / "run"
    rc = main(["train", "--config", tiny_config, "--data", disk_dataset,
               "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "done epochs=2 steps=2" in captured
    for name in ("last.ckpt", "best.ckpt", "final.ckpt"):
        assert (out / name).exists(), name
    assert network.load(str(out / "final.ckpt")).cfg.input_size == 32


def test_train_bad_synthetic_count_exits_2(tiny_config, tmp_path, capsys):
    rc = main(["train", "--config", tiny_config, "--synthetic", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    capsys.readouterr()


def test_train_divergence_exits_1(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "\n".join(_TINY_LINES + ["lr0 = 1e8", "clip_norm = 1e9",
                                 "total_epochs = 4"]) + "\n"
    )
    with np.errstate(all="ignore"):
        rc = main(["train", "--config", str(cfg), "--synthetic", "8",
                   "--out", str(tmp_path / "out")])
    captured = capsys.readouterr().out
    assert rc == 1
    assert "abort:" in captured


def test_train_checkpoint_write_failure_exits_3(tiny_config, tmp_path, capsys, monkeypatch):
    # A disk that fills while train writes a checkpoint is a run-time
    # storage failure, not a usage error (2): the error names the file,
    # and the temp file is gone.
    def full(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", full)
    out = tmp_path / "run"
    rc = main(["train", "--config", tiny_config, "--synthetic", "8",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert str(out / "last.ckpt") in err
    assert os.strerror(errno.ENOSPC) in err
    assert list(out.iterdir()) == []  # no checkpoint and no *.tmp


# ---------------------------------------------------------------------------
# eval


def test_eval_prints_metric_table(tiny_ckpt, disk_dataset, capsys):
    manifest = disk_dataset
    rc = main(["eval", "--ckpt", tiny_ckpt, "--data", manifest, "--split", "test"])
    out = capsys.readouterr().out
    assert rc == 0
    for key in ("dice", "iou", "precision", "recall", "specificity",
                "accuracy", "counts"):
        assert key in out, key
    assert "tp=" in out


def test_eval_missing_checkpoint_exits_2(disk_dataset, tmp_path, capsys):
    manifest = disk_dataset
    rc = main(["eval", "--ckpt", str(tmp_path / "nope.ckpt"), "--data", manifest])
    assert rc == 2
    capsys.readouterr()


def test_eval_empty_split_exits_2(tiny_ckpt, disk_dataset, tmp_path, capsys):
    manifest = str(tmp_path / "train_only.tsv")
    with open(disk_dataset) as f:
        rows = [line.split("\t") for line in f.read().splitlines()]
    _write_manifest(manifest, [r for r in rows if r[2] == "train"])
    # No test entries at all -> contract failure before any image is read.
    rc = main(["eval", "--ckpt", tiny_ckpt, "--data", manifest, "--split", "test"])
    assert rc == 2
    assert "no 'test' entries" in capsys.readouterr().err


def test_eval_a_mask_of_other_extents_exits_2(tiny_ckpt, tmp_path, capsys):
    img, msk = str(tmp_path / "img.ppm"), str(tmp_path / "msk.pgm")
    with open(img, "wb") as f:
        f.write(b"P6\n32 32\n255\n" + bytes(32 * 32 * 3))
    write_pgm(msk, np.zeros((16, 32), np.uint8))
    manifest = str(tmp_path / "mismatch.tsv")
    _write_manifest(manifest, [(img, msk, "test")])
    rc = main(["eval", "--ckpt", tiny_ckpt, "--data", manifest, "--split", "test"])
    assert rc == 2
    assert msk in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
def test_eval_bad_threshold_exits_2(tiny_ckpt, disk_dataset, value, capsys):
    # NaN or a value outside [0, 1] would score every pixel as background.
    manifest = disk_dataset
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--ckpt", tiny_ckpt, "--data", manifest, "--threshold", value])
    assert exc.value.code == 2
    assert "threshold" in capsys.readouterr().err


def _counts(out):
    line = next(line for line in out.splitlines() if line.startswith("counts"))
    return dict(field.split("=") for field in line.split()[1:])


def test_eval_threshold_sets_the_foreground_cut(tiny_ckpt, disk_dataset, capsys):
    # A pixel is foreground when its probability exceeds the threshold, so
    # at 1 none is; at the default 0.5 this model marks some.
    counts = {}
    for value in ("1", "0.5"):
        rc = main(["eval", "--ckpt", tiny_ckpt, "--data", disk_dataset,
                   "--threshold", value])
        assert rc == 0
        line = next(x for x in capsys.readouterr().out.splitlines()
                    if x.startswith("counts"))
        counts[value] = dict(field.split("=") for field in line.split()[1:])
    assert counts["1"]["tp"] == counts["1"]["fp"] == "0"
    assert int(counts["0.5"]["tp"]) + int(counts["0.5"]["fp"]) > 0


# ---------------------------------------------------------------------------
# predict


def test_predict_writes_binary_mask(tiny_ckpt, disk_dataset, tmp_path, capsys):
    manifest = disk_dataset
    image_path = None
    with open(manifest) as f:
        image_path = f.readline().split("\t")[0]
    out = str(tmp_path / "pred.pgm")
    rc = main(["predict", "--ckpt", tiny_ckpt, "--image", image_path, "--out", out])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    mask = read_pgm(out)
    assert mask.shape == (32, 32)
    assert set(np.unique(mask)) <= {0, 255}


@pytest.mark.parametrize("value", ["nan", "1.5", "-0.1"])
def test_predict_bad_threshold_exits_2(tiny_ckpt, disk_dataset, value, tmp_path, capsys):
    manifest = disk_dataset
    with open(manifest) as f:
        image_path = f.readline().split("\t")[0]
    out = tmp_path / "pred.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["predict", "--ckpt", tiny_ckpt, "--image", image_path,
              "--out", str(out), "--threshold", value])
    assert exc.value.code == 2
    assert "threshold" in capsys.readouterr().err
    assert not out.exists()


def test_predict_threshold_sets_the_foreground_cut(tiny_ckpt, disk_dataset, tmp_path, capsys):
    with open(disk_dataset) as f:
        image_path = f.readline().split("\t")[0]
    model = network.load(tiny_ckpt)
    logits = model.predict(Tensor._wrap(load_image(image_path, 32).data[None]))
    probs = _sigmoid_forward(logits.data[0, 0])
    masks = []
    for value in ("1", "0"):
        out = str(tmp_path / f"pred_{value}.pgm")
        rc = main(["predict", "--ckpt", tiny_ckpt, "--image", image_path,
                   "--out", out, "--threshold", value])
        assert rc == 0
        masks.append(read_pgm(out))
    capsys.readouterr()
    assert not masks[0].any()
    np.testing.assert_array_equal(masks[1], np.where(probs > 0.0, 255, 0))
    assert masks[1].any()


def test_predict_then_eval_is_self_consistent(tiny_ckpt, disk_dataset, tmp_path, capsys):
    # Scoring a model against its own thresholded predictions must give
    # a perfect Dice: predict and eval share the preprocessing path.
    manifest = disk_dataset
    with open(manifest) as f:
        rows = [line.split("\t") for line in f.read().splitlines()]
    entries = []
    for i, (img, _, _) in enumerate(rows[:2]):
        pred = str(tmp_path / f"pred_{i}.pgm")
        assert main(["predict", "--ckpt", tiny_ckpt, "--image", img,
                     "--out", pred]) == 0
        entries.append((img, pred, "test"))
    self_manifest = str(tmp_path / "self.tsv")
    _write_manifest(self_manifest, entries)
    capsys.readouterr()
    rc = main(["eval", "--ckpt", tiny_ckpt, "--data", self_manifest])
    out = capsys.readouterr().out
    assert rc == 0
    dice_line = next(line for line in out.splitlines() if line.startswith("dice"))
    assert float(dice_line.split()[1]) == 1.0


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_single_block(capsys):
    rc = main(["gradcheck", "--block", "dyt"])
    out = capsys.readouterr().out
    assert rc == 0
    header, *rows = [line for line in out.splitlines() if line.strip()]
    assert "block" in header and "max_rel_err" in header
    assert any(row.startswith("dyt") and row.endswith("pass") for row in rows)


def test_gradcheck_unknown_block_exits_2(capsys):
    rc = main(["gradcheck", "--block", "warp_core"])
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_gradcheck_without_seeds_exits_2(seeds, capsys):
    # No seed means nothing is checked, which must not read as a pass.
    rc = main(["gradcheck", "--block", "dyt", "--seeds", seeds])
    assert rc == 2
    captured = capsys.readouterr()
    assert "--seeds" in captured.err
    assert captured.out == ""


# ---------------------------------------------------------------------------
# info


def test_info_reports_count_and_ratio(tiny_ckpt, capsys):
    rc = main(["info", "--ckpt", tiny_ckpt])
    out = capsys.readouterr().out
    assert rc == 0
    model = network.load(tiny_ckpt)
    count = network.param_count(model)
    assert f"trainable parameters: {count}" in out
    assert str(network.REFERENCE_PARAM_BUDGET) in out
    ratio = count / network.REFERENCE_PARAM_BUDGET
    assert f"{ratio:.4f}" in out
    assert "input_size = 32" in out


# ---------------------------------------------------------------------------
# installed entry point


def test_each_module_imports_alone_and_the_root_exports_nothing():
    # Callers import the modules; the package root defines no names, so
    # after any one import its only public attributes are submodules.
    src = Path(network.__file__).parent
    modules = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert {"autodiff", "cli", "network", "tensor"} <= set(modules)
    for module in modules:
        code = (f"import types, dyglnet, dyglnet.{module}; print([n for n, v in "
                "vars(dyglnet).items() if not (n.startswith('_') or isinstance(v, types.ModuleType))])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, (module, proc.stderr)
        assert proc.stdout.strip() == "[]", module


def test_console_script_help_runs():
    # the console script's entry point, and ``python -m dyglnet``
    for argv in (["-c", "import dyglnet.cli, sys; sys.exit(dyglnet.cli.main(['--help']))"],
                 ["-m", "dyglnet", "--help"]):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True)
        assert proc.returncode == 0, (argv, proc.stderr)
        assert "train" in proc.stdout and "gradcheck" in proc.stdout, argv
