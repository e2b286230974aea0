"""Versioned, self-describing binary checkpoint for model parameters.

Layout (version 2): 8-byte magic, u32 version, 32-byte sha256 of the
config text, u32 config length, the canonical ``ModelConfig.to_json()``
text (utf-8), u32 tensor count, then per tensor: u16 name length, utf-8
name, u8 rank, u32 dims, float64 little-endian values. All integers are
little-endian and the file ends after the last tensor.
"""

from __future__ import annotations

import hashlib
import math
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .models import ModelConfig, ModelParams, param_layout

MAGIC = b"CMILCKPT"
VERSION = 2


def save_checkpoint(params: ModelParams, path: str | Path) -> Path:
    path = Path(path)
    text = params.config.to_json().encode()
    chunks = [MAGIC, struct.pack("<I", VERSION), params.config.digest()]
    chunks += [struct.pack("<I", len(text)), text]
    names = params.names()
    chunks.append(struct.pack("<I", len(names)))
    for name in names:
        data = params.tensors[name].data
        encoded = name.encode()
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.astype("<f8").tobytes())
    path.write_bytes(b"".join(chunks))
    return path


def load_checkpoint(path: str | Path) -> ModelParams:
    """Parameters and the model config they were saved with.

    Any file that is not exactly a well-formed version 2 checkpoint is a
    FormatError naming the path.
    """
    raw = Path(path).read_bytes()
    offset = 0

    def take(n: int) -> bytes:
        nonlocal offset
        if offset + n > len(raw):
            raise FormatError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
        offset += n
        return raw[offset - n : offset]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    if take(8) != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    (version,) = unpack("<I")
    if version == 1:
        raise FormatError(
            f"{path}: checkpoint version 1 carries no model config; retrain to write version {VERSION}"
        )
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    digest = take(32)
    (text_len,) = unpack("<I")
    text = take(text_len)
    if hashlib.sha256(text).digest() != digest:
        raise FormatError(f"{path}: model config does not match its digest")
    try:
        cfg = ModelConfig.from_json(text.decode())
    except (UnicodeDecodeError, ConfigError) as e:
        raise FormatError(f"{path}: bad model config: {e}") from None
    if cfg.to_json().encode() != text:
        raise FormatError(f"{path}: model config is not in canonical form")
    (count,) = unpack("<I")
    values: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<H")
        name = take(name_len).decode(errors="replace")  # a mangled name fails the match below
        (rank,) = unpack("<B")
        shape = unpack(f"<{rank}I")
        data = take(8 * math.prod(shape))
        values[name] = np.frombuffer(data, dtype="<f8").reshape(shape)
    if offset != len(raw):
        raise FormatError(f"{path}: {len(raw) - offset} bytes after the last tensor")
    layout = param_layout(cfg)
    if len(values) != count or {n: v.shape for n, v in values.items()} != dict(layout):
        raise FormatError(f"{path}: tensors do not match the model config")
    return ModelParams(cfg, np.concatenate([values[n].reshape(-1) for n, _ in layout]))
