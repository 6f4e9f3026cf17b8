"""Bit-exact binary checkpoint format.

Layout, all integers little-endian:

    magic "DYGL" | u32 version (=1) | u32 tensor count
    per tensor: u16 name length | UTF-8 name | u8 rank | rank x u32 dims
                | u8 dtype code (0=f32, 1=f64) | raw LE IEEE-754 payload
    trailer:    u32 config length | UTF-8 config snapshot

Writers replace the target atomically and durably. Readers fail with
the byte offset of the first inconsistency and never return partial state.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .errors import FormatError, VersionError
from .tensor import Tensor

MAGIC = b"DYGL"
VERSION = 1
_DTYPE_CODES = {"f32": 0, "f64": 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def write_checkpoint(
    path: str, tensors: list[tuple[str, Tensor]], config_text: str
) -> None:
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    names: set[str] = set()  # read_checkpoint refuses a repeated name
    for name, t in tensors:
        if name in names:
            raise FormatError(f"duplicate tensor name {name!r}")
        names.add(name)
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise FormatError(f"tensor name too long: {name[:40]}...")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", t.rank))
        chunks.append(struct.pack(f"<{t.rank}I", *t.shape))
        code = _DTYPE_CODES[t.dtype]
        chunks.append(struct.pack("<B", code))
        chunks.append(t.data.astype(_CODE_DTYPES[code], copy=False).tobytes())
    snapshot = config_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(snapshot)))
    chunks.append(snapshot)
    # Write a sibling temp file and rename it over the target, so a crash
    # mid-write keeps the previous file; a directory fsync makes it durable.
    tmp = f"{path}.tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(b"".join(chunks))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    if hasattr(os, "O_DIRECTORY"):
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


class _Reader:
    """Bounds-checked cursor; ``take`` returns views, not copies."""

    def __init__(self, buf: bytes):
        self.buf = memoryview(buf)
        self.off = 0

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.buf):
            raise FormatError(f"truncated while reading {what}", offset=self.off)
        out = self.buf[self.off : self.off + n]
        self.off += n
        return out

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def read_checkpoint(path: str) -> tuple[dict[str, Tensor], str]:
    """Returns (ordered name -> tensor mapping, config snapshot text)."""
    with open(path, "rb") as f:
        buf = f.read()
    r = _Reader(buf)
    if r.take(4, "magic") != MAGIC:
        raise FormatError("bad magic, not a checkpoint file", offset=0)
    version = r.u32("version")
    if version != VERSION:
        raise VersionError(f"unsupported checkpoint version {version}", offset=4)
    count = r.u32("tensor count")
    tensors: dict[str, Tensor] = {}
    for i in range(count):
        name_off = r.off
        name_len = r.u16(f"tensor {i} name length")
        try:
            name = str(r.take(name_len, f"tensor {i} name"), "utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"tensor {i} name is not UTF-8", offset=name_off) from e
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}", offset=name_off)
        rank = r.u8(f"{name} rank")
        if not 1 <= rank <= 4:
            raise FormatError(f"{name}: rank {rank} outside 1..4", offset=r.off - 1)
        dims_off = r.off
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"{name} dims"))
        if any(d < 1 for d in dims):
            raise FormatError(f"{name}: zero extent in {dims}", offset=dims_off)
        code_off = r.off
        code = r.u8(f"{name} dtype code")
        if code not in _CODE_DTYPES:
            raise FormatError(f"{name}: unknown dtype code {code}", offset=code_off)
        dt = _CODE_DTYPES[code]
        n_bytes = math.prod(dims) * dt.itemsize
        payload = r.take(n_bytes, f"{name} payload")
        arr = np.frombuffer(payload, dtype=dt).reshape(dims)  # a view of buf
        tensors[name] = Tensor._wrap(arr.astype(dt.newbyteorder("=")))  # one copy
    cfg_off = r.off
    cfg_len = r.u32("config length")
    try:
        config_text = str(r.take(cfg_len, "config snapshot"), "utf-8")
    except UnicodeDecodeError as e:
        raise FormatError("config snapshot is not UTF-8", offset=cfg_off) from e
    if r.off != len(buf):
        raise FormatError(
            f"{len(buf) - r.off} trailing bytes after config snapshot", offset=r.off
        )
    return tensors, config_text
