"""Versioned binary checkpoint of a model: its config and its flat values.

Layout (version 3): 8-byte magic, u32 version, the 32-byte sha256 of
every byte after it, u32 config length, the canonical
``ModelConfig.to_json()`` text (utf-8), then ``ModelParams.flat`` as
float64 values. All numbers are little-endian and the file ends after
the last value.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError
from .models import ModelConfig, ModelParams

MAGIC = b"CMILCKPT"
VERSION = 3
_HEAD = len(MAGIC) + 4  # magic and version
_BODY = _HEAD + 32  # the digest covers every byte from here on


def save_checkpoint(params: ModelParams, path: str | Path) -> Path:
    path = Path(path)
    text = params.config.to_json().encode()
    body = [struct.pack("<I", len(text)), text, params.flat.astype("<f8", copy=False).data]
    digest = hashlib.sha256()
    for chunk in body:
        digest.update(chunk)
    with path.open("wb") as f:
        f.writelines([MAGIC, struct.pack("<I", VERSION), digest.digest(), *body])
    return path


def load_checkpoint(path: str | Path) -> ModelParams:
    """The model a checkpoint holds: its config and its values.

    Any file that is not exactly a well-formed version 3 checkpoint is a
    FormatError naming the path.
    """
    raw = Path(path).read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a checkpoint file (bad magic)")
    if len(raw) < _BODY + 4:
        raise FormatError(f"{path}: truncated checkpoint ({len(raw)} bytes)")
    (version,) = struct.unpack_from("<I", raw, len(MAGIC))
    if version in (1, 2):
        raise FormatError(
            f"{path}: checkpoint version {version} is no longer read; retrain to write version 3"
        )
    if version != VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if hashlib.sha256(memoryview(raw)[_BODY:]).digest() != raw[_HEAD:_BODY]:
        raise FormatError(f"{path}: contents do not match their digest")
    (text_len,) = struct.unpack_from("<I", raw, _BODY)
    start = _BODY + 4 + text_len
    if start > len(raw):
        raise FormatError(f"{path}: config length {text_len} runs past the end of the file")
    if (len(raw) - start) % 8:
        raise FormatError(f"{path}: {len(raw) - start} value bytes are not whole float64 values")
    text = raw[_BODY + 4 : start]
    try:
        cfg = ModelConfig.from_json(text.decode())
    except (UnicodeDecodeError, ConfigError) as e:
        raise FormatError(f"{path}: bad model config: {e}") from None
    if cfg.to_json().encode() != text:
        raise FormatError(f"{path}: model config is not in canonical form")
    try:
        return ModelParams(cfg, np.frombuffer(raw, dtype="<f8", offset=start))
    except ConfigError as e:
        raise FormatError(f"{path}: {e}") from None
