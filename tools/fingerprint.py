"""Byte-identity check of two revisions: SHA-256 digests of what the model
computes, compared name by name.

    python tools/fingerprint.py REV_A REV_B
    python tools/fingerprint.py HEAD .    # HEAD against the working tree

Each revision is exported with ``git archive`` into a temporary directory
and hashed in a fresh interpreter that imports ``dyglnet`` from that
export, so both sides run this file's digest code on their own sources.
The revision ``.`` stands for the working tree: its ``src/`` is hashed
where it is, uncommitted edits included.
One digest per array covers:
- taped logits, loss, every parameter and gradient, and then ``predict``
  logits, for the default config at 64x64 (batch 2) and the tiny config
  at 32x32 (batch 3), each in f32 and f64, in "dynamic" and "bilinear"
  mode, with DyT on and off, and with non-zero offset weights;
- the same for the tiny config at 64x64, batch 16, f32, dynamic mode:
  the tiny-train benchmark's step, whose samplers walk several chunks;
- one default 224x224 f32 train step at batch 2;
- a tiny two-epoch augmented ``train()``: its step losses and the bytes
  of each checkpoint it writes;
- the gradient-check suite at seeds 0-4.

Prints every digest that differs or exists on one side only, and exits 1
if there is any; 0 when every digest is equal. Passing the same revision
twice checks that two processes compute the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
    return h.hexdigest()


def _array(a) -> str:
    return _sha(str(a.dtype), a.shape, a.tobytes())


def _emit(src: str) -> dict[str, str]:
    """The digests of the dyglnet sources under ``src``."""
    sys.path.insert(0, src)
    import numpy as np

    import dyglnet
    from dyglnet import autodiff as ad
    from dyglnet import data, gradsuite, train
    from dyglnet.losses import hybrid_loss
    from dyglnet.network import Model, ModelConfig
    from dyglnet.tensor import Tensor

    assert Path(dyglnet.__file__).resolve().is_relative_to(Path(src).resolve()), dyglnet.__file__
    out: dict[str, str] = {}

    def step(tag: str, model, x: np.ndarray, y: np.ndarray, dtype: str) -> None:
        xt, yt = Tensor(x, dtype=dtype), Tensor(y, dtype=dtype)
        with ad.Tape() as tape:
            logits = model(ad.constant(xt), training=True)
            loss = hybrid_loss(logits, yt, 0.5)
            ad.backward(loss, tape)
        out[f"{tag}/logits"] = _array(logits.tensor.data)
        out[f"{tag}/loss"] = _array(loss.tensor.data)
        for p in model.parameters():
            out[f"{tag}/value/{p.name}"] = _array(p.value.data)
            if p.trainable:
                out[f"{tag}/grad/{p.name}"] = _array(p.grad)

    def model_step(tag: str, cfg, size: int, batch: int, dtype: str) -> None:
        """A step and a ``predict`` of cfg, with non-zero offset weights in
        dynamic mode."""
        model = Model(cfg, seed=0, dtype=dtype)
        rng = np.random.default_rng(1)
        for up in model.ups if cfg.upsample_mode == "dynamic" else ():
            w = up.offset.weight
            w.assign(Tensor(rng.uniform(-0.05, 0.05, w.value.shape), dtype=dtype))
        x = rng.normal(size=(batch, 3, size, size))
        step(tag, model, x, (rng.random((batch, 1, size, size)) < 0.3) * 1.0, dtype)
        out[f"{tag}/predict"] = _array(model.predict(Tensor(x, dtype=dtype)).data)

    for name, base, size, batch in (("default", ModelConfig(), 64, 2),
                                    ("tiny", ModelConfig.tiny(), 32, 3)):
        for dtype in ("f32", "f64"):
            for mode in ("dynamic", "bilinear"):
                for dyt in (True, False):
                    cfg = dataclasses.replace(base, upsample_mode=mode, use_dyt=dyt)
                    model_step(f"{name}{size}/{dtype}/{mode}/dyt={dyt}", cfg, size, batch, dtype)
    model_step("tiny64/f32/b16", ModelConfig.tiny(), 64, 16, "f32")

    rng = np.random.default_rng(2)
    step("default224/f32", Model(ModelConfig(), seed=0), rng.normal(size=(2, 3, 224, 224)),
         (rng.random((2, 1, 224, 224)) < 0.3) * 1.0, "f32")

    cfg = ModelConfig.tiny(input_size=32)
    samples = data.synth_dataset(6, 3, 32)
    with tempfile.TemporaryDirectory() as run:
        result = train.train(
            Model(cfg, seed=0), train.TrainConfig(total_epochs=2, warmup_epochs=0, batch_size=2),
            samples[:4], samples[4:], out_dir=run, aug=data.AugmentConfig(),
        )
        out["train/step_losses"] = _sha(result.step_losses)
        for ckpt in sorted(Path(run).glob("*.ckpt")):
            out[f"train/{ckpt.name}"] = _sha(ckpt.read_bytes())

    for row in gradsuite.run_suite(seeds=(0, 1, 2, 3, 4)):
        r = row.report
        out[f"gradsuite/{row.name}/{row.seed}"] = _sha(r.max_rel_err, r.checked, r.skipped)
    return out


def _digests(rev: str, tree: Path) -> dict[str, str]:
    """The digests of ``rev``, exported into the empty directory ``tree``,
    or of the working tree for ``.``."""
    if rev == ".":
        tree = ROOT
    else:
        tar = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], capture_output=True, check=True
        )
        subprocess.run(["tar", "-x", "-C", str(tree)], input=tar.stdout, check=True)
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--emit", str(tree / "src")],
        cwd=tree, capture_output=True, text=True,
    )
    if child.returncode:
        sys.exit(f"{rev}: the digest run failed\n{child.stderr}")
    return json.loads(child.stdout.strip().splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--emit":
        print(json.dumps(_emit(argv[1])))
        return 0
    if len(argv) != 2:
        sys.exit("usage: python tools/fingerprint.py REV_A REV_B  (REV . is the working tree)")
    with tempfile.TemporaryDirectory() as scratch:
        a, b = (_digests(rev, Path(tempfile.mkdtemp(dir=scratch))) for rev in argv)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    for k in differ:
        print(f"DIFFERS {k}: {a.get(k, '-')[:16]} {b.get(k, '-')[:16]}")
    print(f"{len(a.keys() | b.keys()) - len(differ)} of {len(a.keys() | b.keys())} digests equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
