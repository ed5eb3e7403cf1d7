"""Versioned binary container for named parameter tensors.

Layout (all little-endian):
    magic   4 bytes  b"RCKP"
    u16     version (=1)
    u32     tensor count
    per tensor:
        u16  name length, then UTF-8 name
        u8   ndim, then ndim x u32 dims
        f32  payload, C order
    u32     CRC32 of every preceding byte

Payloads are stored as float32, the compute dtype, so a write/read round
trip restores a model's parameters bit for bit. Loading returns float64
arrays upcast from those bits; models cast them back to the compute dtype,
and the optimizer keeps them as its float64 moments. `checkpoint_tensor`
and `load_parameters` read a loaded container: a tensor that is missing or
shaped otherwise than expected raises CheckpointError naming it. Every error
names the file; a non-finite tensor is rejected when the file is read.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Mapping

import numpy as np

from ..fileio import atomic_open
from .tensor import Tensor, compute_dtype

MAGIC = b"RCKP"
VERSION = 1


class CheckpointError(IOError):
    """Malformed or corrupt checkpoint file."""


class CheckpointArrays(dict):
    """{name: float64 array} read from the checkpoint file at `path`."""

    def __init__(self, path, arrays: dict):
        super().__init__(arrays)
        self.path = path


def save_checkpoint(path, tensors: Mapping[str, np.ndarray]):
    """Write named arrays (cast to float32) to a checksummed container, atomically."""
    chunks = [MAGIC, struct.pack("<HI", VERSION, len(tensors))]
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype=np.float32)
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<B", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    blob = b"".join(chunks)
    blob += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    with atomic_open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path) -> CheckpointArrays:
    """Read a container back into {name: float64 array}; validates the
    checksum and that every value is finite."""

    def bad(msg: str) -> CheckpointError:
        return CheckpointError(f"checkpoint {path}: {msg}")

    blob = Path(path).read_bytes()
    if len(blob) < 14:
        raise bad(f"truncated: {len(blob)} bytes")
    if blob[:4] != MAGIC:
        raise bad(f"bad magic {blob[:4]!r} at offset 0")
    stored = struct.unpack("<I", blob[-4:])[0]
    actual = zlib.crc32(blob[:-4]) & 0xFFFFFFFF
    if stored != actual:
        raise bad(f"checksum mismatch: stored {stored:#x}, computed {actual:#x}")
    version, count = struct.unpack_from("<HI", blob, 4)
    if version != VERSION:
        raise bad(f"unsupported version {version}")
    off = 10
    end = len(blob) - 4
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        try:
            (nlen,) = struct.unpack_from("<H", blob, off)
            off += 2
            name = blob[off : off + nlen].decode("utf-8")
            off += nlen
            (ndim,) = struct.unpack_from("<B", blob, off)
            off += 1
            dims = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            size = int(np.prod(dims)) if ndim else 1
            nbytes = 4 * size
            if off + nbytes > end:
                raise bad(f"payload for {name!r} truncated at offset {off}")
            payload = np.frombuffer(blob, dtype="<f4", count=size, offset=off).reshape(dims)
            off += nbytes
        except (struct.error, UnicodeDecodeError) as exc:
            raise bad(f"corrupt tensor record at offset {off}: {exc}") from exc
        if not np.isfinite(payload).all():
            raise bad(f"tensor {name} holds non-finite values")
        out[name] = payload.astype(np.float64)
    if off != end:
        raise bad(f"trailing bytes after tensor records at offset {off}")
    return CheckpointArrays(path, out)


def checkpoint_tensor(arrays: CheckpointArrays, name: str, shape) -> np.ndarray:
    """arrays[name] of a loaded checkpoint; CheckpointError unless it is there with `shape`."""
    if name not in arrays:
        raise CheckpointError(f"checkpoint {arrays.path} lacks tensor {name}")
    arr = arrays[name]
    if arr.shape != tuple(shape):
        raise CheckpointError(f"checkpoint {arrays.path}: tensor {name} has shape {arr.shape}, "
                              f"expected {tuple(shape)}")
    return arr


def load_parameters(params: Mapping[str, Tensor], arrays: CheckpointArrays):
    """Set every parameter's data to a compute-dtype copy of its same-named,
    same-shaped array of a loaded checkpoint."""
    for name, p in params.items():
        p.data = np.array(checkpoint_tensor(arrays, name, p.data.shape), dtype=compute_dtype())
