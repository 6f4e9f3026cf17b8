"""Command-line entry points: train, eval, predict, gradcheck, info.

Exit codes: 0 on success, 1 when an operation runs but fails its goal
(training aborts on a non-finite loss, a gradient check exceeds its
tolerance), 2 for usage, config, or input-format errors, 3 when a
checkpoint cannot be written at run time (a full disk, a file-size
limit).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import network
from .configtext import coerce_fields, parse_text
from .data import (
    AugmentConfig,
    SegmentationSample,
    load_image,
    load_manifest,
    load_sample,
    read_text,
    synth_dataset,
    write_pgm,
)
from .errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    DyglError,
    FormatError,
    StorageError,
)
from .gradsuite import run_suite
from .losses import _check_threshold
from .network import Model, ModelConfig
from .tensor import Tensor, _sigmoid_forward
from .train import TrainConfig, evaluate_model, train

_USAGE_ERRORS = (
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    OSError,
)


def _load_configs(path: str | None) -> tuple[ModelConfig, TrainConfig]:
    """One flat key = value file feeds both config dataclasses."""
    raw: dict[str, str] = {}
    if path is not None:
        raw = parse_text(read_text(path))
    model_kwargs, rest = coerce_fields(ModelConfig, raw)
    train_kwargs, rest = coerce_fields(TrainConfig, rest, aliases={"lambda": "lambda_"})
    if rest:
        raise FormatError(f"unknown config keys: {sorted(rest)}")
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def _manifest_samples(
    manifest_path: str, split: str, size: int
) -> list[SegmentationSample]:
    pairs = load_manifest(manifest_path)[split]
    if not pairs:
        raise ContractError(f"manifest has no {split!r} entries")
    return [load_sample(image, mask, size=size) for image, mask in pairs]


def _cmd_train(args: argparse.Namespace) -> int:
    model_cfg, train_cfg = _load_configs(args.config)
    model = Model(model_cfg, seed=train_cfg.seed)
    if args.synthetic is not None:
        if args.synthetic < 1:
            raise ConfigurationError("--synthetic needs a positive sample count")
        train_samples = synth_dataset(
            args.synthetic, train_cfg.seed, model_cfg.input_size
        )
        valid_samples = synth_dataset(
            max(1, args.synthetic // 4), train_cfg.seed + 1, model_cfg.input_size
        )
    else:
        train_samples = _manifest_samples(args.data, "train", model_cfg.input_size)
        valid_samples = _manifest_samples(args.data, "valid", model_cfg.input_size)
    aug = AugmentConfig() if args.augment else None
    result = train(
        model, train_cfg, train_samples, valid_samples,
        out_dir=args.out, aug=aug, log=print,
    )
    if result.aborted:
        return 1
    print(
        f"done epochs={result.epochs_run} steps={result.steps_run} "
        f"best_val_dice={result.best_val_dice:g} best_epoch={result.best_epoch}"
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    model = network.load(args.ckpt)
    samples = _manifest_samples(args.data, args.split, model.cfg.input_size)
    report = evaluate_model(model, samples, threshold=args.threshold)
    print(report.to_text())
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    model = network.load(args.ckpt)
    image = load_image(args.image, model.cfg.input_size)
    batch = image.numpy()[None]
    logits = model.predict(Tensor._wrap(batch))
    probs = _sigmoid_forward(logits.data[0, 0])
    mask = ((probs > args.threshold) * np.uint8(255)).astype(np.uint8)
    write_pgm(args.out, mask)
    print(f"wrote {args.out} ({mask.shape[1]}x{mask.shape[0]})")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    names = [args.block] if args.block else None
    if args.seeds < 1:
        raise ConfigurationError(f"--seeds must be >= 1, got {args.seeds}")
    seeds = tuple(range(args.seeds))
    rows = run_suite(names, seeds=seeds)
    print(f"{'block':<12} {'seed':>4} {'max_rel_err':>12} {'checked':>8} "
          f"{'skipped':>8} verdict")
    ok = True
    for row in rows:
        r = row.report
        verdict = "pass" if r.passed else "FAIL"
        ok = ok and r.passed
        print(
            f"{row.name:<12} {row.seed:>4} {r.max_rel_err:>12.3e} "
            f"{r.checked:>8} {r.skipped:>8} {verdict}"
        )
    return 0 if ok else 1


def _cmd_info(args: argparse.Namespace) -> int:
    model = network.load(args.ckpt)
    count = network.param_count(model)
    ratio = count / network.REFERENCE_PARAM_BUDGET
    print(f"trainable parameters: {count}")
    print(f"reference budget:     {network.REFERENCE_PARAM_BUDGET}")
    print(f"ratio:                {ratio:.4f}")
    print("config:")
    for line in model.cfg.to_text().strip().splitlines():
        print(f"  {line}")
    return 0


def _threshold(text: str) -> float:
    """argparse type of ``--threshold``: a probability in [0, 1], not NaN."""
    value = float(text)
    try:
        _check_threshold(value)
    except ContractError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyglnet",
        description="Train and run the dynamic global-local segmentation network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="optimize a model")
    p_train.add_argument("--config", help="key = value config file")
    src = p_train.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="manifest TSV with train/valid entries")
    src.add_argument("--synthetic", type=int, help="train on N generated samples")
    p_train.add_argument("--out", required=True, help="checkpoint directory")
    p_train.add_argument("--augment", action="store_true",
                         help="enable training-time augmentation")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a manifest split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True, help="manifest TSV")
    p_eval.add_argument("--split", default="test", choices=("train", "valid", "test"))
    p_eval.add_argument("--threshold", type=_threshold, default=0.5)
    p_eval.set_defaults(func=_cmd_eval)

    p_pred = sub.add_parser("predict", help="segment one image")
    p_pred.add_argument("--ckpt", required=True)
    p_pred.add_argument("--image", required=True, help="input P6 file")
    p_pred.add_argument("--out", required=True, help="output P5 mask path")
    p_pred.add_argument("--threshold", type=_threshold, default=0.5)
    p_pred.set_defaults(func=_cmd_predict)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--block", help="check one block only")
    p_grad.add_argument("--seeds", type=int, default=1,
                        help="number of seeds per block")
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_info = sub.add_parser("info", help="describe a checkpoint")
    p_info.add_argument("--ckpt", required=True)
    p_info.set_defaults(func=_cmd_info)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StorageError as e:  # an OSError too, so ahead of the usage tuple
        print(f"error: {e}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DyglError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
