"""Binary checkpoint format shared by all trained networks.

Layout (little-endian):
  magic "LFCKPT1" | u64 architecture hash | u64 parameter count | u64 version
  then per parameter: u32 name length | name utf-8 | u32 rank | u32 dims... |
  raw float32 data (row-major).
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"LFCKPT1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: dict, arch_hash: int, version: int) -> None:
    path = Path(path)
    chunks = [MAGIC, struct.pack("<QQQ", arch_hash, len(params), version)]
    for name, value in params.items():
        data = value.data if hasattr(value, "data") else np.asarray(value)
        arr = np.ascontiguousarray(data, dtype="<f4")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(b"".join(chunks))
    tmp.replace(path)


def _take(path, raw: memoryview, off: int, size: int) -> tuple[memoryview, int]:
    """The ``size`` bytes at ``off`` and the offset after them."""
    end = off + size
    if end > len(raw):
        raise CheckpointError(f"{path}: truncated at byte {len(raw)} "
                              f"(field at byte {off} needs {size} bytes)")
    return raw[off:end], end


def _header(path, raw: memoryview) -> tuple[tuple, int]:
    """(arch_hash, count, version) and the offset of the first parameter."""
    magic, off = _take(path, raw, 0, len(MAGIC))
    if magic != MAGIC:
        raise CheckpointError(f"{path}: bad magic at byte 0")
    fields, off = _take(path, raw, off, 24)
    return struct.unpack("<QQQ", fields), off


def load_checkpoint(path, expected_arch_hash: int | None = None):
    """Returns (params: dict[str, float32 ndarray], arch_hash, version).

    Truncated or corrupt bytes raise CheckpointError naming the file and the
    byte offset.
    """
    raw = memoryview(Path(path).read_bytes())
    (arch_hash, count, version), off = _header(path, raw)
    if expected_arch_hash is not None and arch_hash != expected_arch_hash:
        raise CheckpointError(
            f"{path}: architecture hash mismatch "
            f"(file {arch_hash:#018x}, expected {expected_arch_hash:#018x})"
        )
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        field, name_at = _take(path, raw, off, 4)
        name, off = _take(path, raw, name_at, struct.unpack("<I", field)[0])
        try:
            name = str(name, "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: byte {name_at}: parameter name is not UTF-8") from None
        field, off = _take(path, raw, off, 4)
        (rank,) = struct.unpack("<I", field)
        field, off = _take(path, raw, off, 4 * rank)
        dims = struct.unpack(f"<{rank}I", field)
        data, off = _take(path, raw, off, 4 * math.prod(dims))
        params[name] = np.frombuffer(data, dtype="<f4").reshape(dims).copy()
    if off != len(raw):
        raise CheckpointError(f"{path}: trailing bytes after last parameter at byte {off}")
    return params, arch_hash, version


def peek_version(path) -> int:
    with Path(path).open("rb") as f:
        raw = memoryview(f.read(len(MAGIC) + 24))
    return _header(path, raw)[0][2]
