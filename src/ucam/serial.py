"""Binary container: a JSON header plus named float32 tensors.

Layout, all little-endian:
  magic "UCAM" | format version u32 | header length u32 | header JSON bytes |
  repeated tensor records: name length u32 | name bytes | rank u32 |
  one u32 per dimension | raw float32 data.

It is ucam's one binary format: the header's "kind" names what a file
holds, "model", "lin" or "features", and ``read_container`` refuses a
file of another kind than its caller asks for, and any record that holds
NaN or inf. Every read is exact-length and checked against the file's
size before it is made; a file that ends inside any field raises a
truncation error distinct from a malformed-header error, and a tensor
name may appear once. Every write goes through ``atomic_write``, so an
interrupted write leaves the old file.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from typing import Iterable

import numpy as np

from .errors import (DataError, FileFormatError, StructureError,
                     TruncatedFileError)

MAGIC = b"UCAM"
VERSION = 1


def read_exact(f, n: int, what: str, size: int) -> bytes:
    """``n`` bytes of a file of ``size`` bytes, refused before reading when
    fewer are left, so a corrupt length allocates nothing."""
    if n > size - f.tell():
        raise TruncatedFileError(f"file ends inside {what}")
    return f.read(n)


def read_text(f, n: int, what: str, size: int) -> str:
    try:
        return read_exact(f, n, what, size).decode()
    except UnicodeDecodeError as e:
        raise FileFormatError(f"{what} is not valid UTF-8: {e}") from None


@contextlib.contextmanager
def atomic_write(path):
    """Write ``path`` through a temp file beside it, fsynced and renamed over
    ``path`` when the block succeeds; if the block raises, the temp file is
    removed and the old file at ``path`` stays as it was."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only when the block or a write failed
            os.remove(tmp)


def write_container(path, header: dict,
                    tensors: Iterable[tuple[str, np.ndarray]]) -> None:
    with atomic_write(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        blob = json.dumps(header, sort_keys=True).encode()
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        for name, arr in tensors:
            nb = name.encode()
            a = np.ascontiguousarray(arr, dtype="<f4")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            for dim in a.shape:
                f.write(struct.pack("<I", dim))
            f.write(a.tobytes())


def read_container(path, kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the records of a container whose header's "kind" is
    ``kind``; every record is finite."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        magic = read_exact(f, 4, "magic", size)
        if magic != MAGIC:
            raise FileFormatError(
                f"bad magic {magic!r}; expected {MAGIC!r}")
        (version,) = struct.unpack(
            "<I", read_exact(f, 4, "format version", size))
        if version != VERSION:
            raise FileFormatError(
                f"unsupported format version {version}; this build reads "
                f"version {VERSION}")
        (hlen,) = struct.unpack(
            "<I", read_exact(f, 4, "header length", size))
        try:
            header = json.loads(read_text(f, hlen, "header", size))
        except json.JSONDecodeError as e:
            raise FileFormatError(f"unreadable header: {e}") from None
        if not isinstance(header, dict):
            raise FileFormatError(f"header must be a JSON object, got "
                                  f"{json.dumps(header)[:80]}")
        if header.get("kind") != kind:
            raise StructureError(f"expected a file of kind {kind!r}, got "
                                 f"kind {header.get('kind')!r}")

        tensors: dict[str, np.ndarray] = {}
        while f.tell() < size:
            (nlen,) = struct.unpack(
                "<I", read_exact(f, 4, "a tensor record", size))
            name = read_text(f, nlen, "tensor name", size)
            if name in tensors:
                raise FileFormatError(f"tensor '{name}' appears twice")
            (rank,) = struct.unpack(
                "<I", read_exact(f, 4, f"rank of tensor '{name}'", size))
            dims = struct.unpack(
                f"<{rank}I",
                read_exact(f, 4 * rank, f"dims of tensor '{name}'", size))
            # a Python int: a numpy product of corrupt dims can overflow
            raw = read_exact(f, 4 * math.prod(dims),
                             f"data of tensor '{name}'", size)
            arr = np.frombuffer(raw, dtype="<f4").reshape(dims).astype(
                np.float32)
            if not np.isfinite(arr).all():
                raise DataError(f"{kind} file record '{name}' holds "
                                f"non-finite values")
            tensors[name] = arr
        return header, tensors
