"""Seeded fuzzing of every input parser: mutated bytes and text fed to the
checkpoint reader, the Netpbm decoders, the manifest reader and the
config parser behind the CLI must parse or raise a ``DyglError``, never
anything else."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from dyglnet import checkpoint, cli, data
from dyglnet.errors import DyglError
from dyglnet.network import ModelConfig
from dyglnet.tensor import Tensor
from dyglnet.train import TrainConfig

_CASES = 800  # mutated inputs per parser

# spliced into bytes, or set as a config value: numbers past every bound
# and past int()'s digit limit, non-finite floats, separators, bytes that
# are not UTF-8, and the Netpbm magics
_TOKENS = (
    "9" * 5000, "0", "-1", "1", "2", "4294967295", "nan", "inf", "-inf", "1e999",
    "1e-999", "0x10", "1_0", "true", "[]", "[1]", "[0, 0, 0, 0]", "[8, 16, 32, 64]",
    "(1, 2)", "[1,,2]", "[", "]", ",", "=", "#", "\t", "\n", " ", "", "\x00",
    "dynamic", "bilinear", "train", "P5", "P6",
)


def _mutate(rng: np.random.Generator, buf: bytes) -> bytes:
    """buf after one to three random edits: overwrite bytes, truncate,
    insert random bytes, delete a run, duplicate a run, or splice in a
    token (one in eight as bytes that are not UTF-8)."""
    b = bytearray(buf)
    for _ in range(int(rng.integers(1, 4))):
        kind, at = int(rng.integers(6)), int(rng.integers(0, len(b) + 1))
        if kind == 0 and b:
            for i in rng.integers(0, len(b), size=int(rng.integers(1, 5))):
                b[i] = int(rng.integers(256))
        elif kind == 1:
            del b[at:]
        elif kind == 2:
            b[at:at] = rng.integers(0, 256, size=int(rng.integers(1, 9)), dtype=np.uint8).tobytes()
        elif kind == 3:
            del b[at : at + int(rng.integers(1, 17))]
        elif kind == 4:
            b[at:at] = b[at : at + int(rng.integers(1, 33))]
        else:
            b[at:at] = b"\xff\xfe" if rng.random() < 0.125 else _TOKENS[
                int(rng.integers(len(_TOKENS)))].encode()
    return bytes(b)


def _fuzz(seed: int, base: bytes, parse, mutate=_mutate) -> None:
    """Feeds ``_CASES`` mutations of base to parse, which may return or
    raise a DyglError; any other exception fails with the input."""
    rng = np.random.default_rng(seed)
    for case in range(_CASES):
        buf = mutate(rng, base)
        try:
            parse(buf)
        except DyglError:
            pass
        except Exception as e:  # noqa: BLE001 - the point of the test
            pytest.fail(f"case {case}: {type(e).__name__}: {e} escaped for {buf[:120]!r}")


def _via_file(path, read):
    """A parser of bytes that writes them to path and reads the file."""

    def parse(buf: bytes):
        path.write_bytes(buf)
        return read(str(path))

    return parse


def test_fuzz_checkpoint_reader(tmp_path):
    path = tmp_path / "seed.ckpt"
    rng = np.random.default_rng(0)
    checkpoint.write_checkpoint(str(path), [
        ("enc.w", Tensor(rng.normal(size=(2, 3, 1, 1)), dtype="f32")),
        ("enc.b", Tensor(rng.normal(size=4), dtype="f64")),
    ], ModelConfig.tiny().to_text())
    _fuzz(1, path.read_bytes(), _via_file(tmp_path / "case.ckpt", checkpoint.read_checkpoint))


@pytest.mark.parametrize("magic, decode", [(b"P6", data.decode_ppm), (b"P5", data.decode_pgm)])
def test_fuzz_netpbm_decoders(magic, decode):
    channels = 3 if magic == b"P6" else 1
    base = magic + b"\n# comment\n4 3\n255\n" + bytes(range(12 * channels))
    _fuzz(2 + channels, base, decode)


def test_fuzz_manifest_reader(tmp_path):
    img, msk = tmp_path / "a.ppm", tmp_path / "a.pgm"
    img.write_bytes(b"P6\n1 1\n255\n\0\0\0")
    msk.write_bytes(b"P5\n1 1\n255\n\0")
    base = "".join(f"{img}\t{msk}\t{split}\n" for split in ("train", "valid", "test"))
    _fuzz(5, base.encode(), _via_file(tmp_path / "case.tsv", data.load_manifest))


def test_fuzz_config_parser(tmp_path):
    # Half the cases set one known key to a token, so values reach the
    # coercion and the dataclass checks, not only the line grammar.
    keys = [f.name for f in dataclasses.fields(ModelConfig)]
    keys += [f.name for f in dataclasses.fields(TrainConfig) if f.name != "lambda_"] + ["lambda"]
    base = (ModelConfig.tiny().to_text() + "total_epochs = 3\nbatch_size = 2\nlambda = 0.5\n").encode()

    def mutate(rng, buf):
        if rng.random() < 0.5:
            return _mutate(rng, buf)
        key, token = keys[int(rng.integers(len(keys)))], _TOKENS[int(rng.integers(len(_TOKENS)))]
        return buf + f"{key} = {token}\n".encode()

    _fuzz(6, base, _via_file(tmp_path / "case.cfg", cli._load_configs), mutate)
