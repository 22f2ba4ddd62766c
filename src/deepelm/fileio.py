"""Binary-file plumbing: atomic writes, checksum framing, a cursor reader.

All on-disk integers and floats are little-endian regardless of platform.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

from .errors import DataError


def write_atomic(path: str | Path, data: bytes | str) -> None:
    """Write data to path via a temp file in the same directory plus rename.

    A failed write never leaves a partial file at the destination.
    """
    path = Path(path)
    binary = isinstance(data, bytes)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if binary else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def seal(payload: bytes) -> bytes:
    """Append a CRC32 of the payload."""
    return payload + struct.pack("<I", zlib.crc32(payload))


def unseal(buf: bytes, source: str) -> bytes:
    """Verify and strip the trailing CRC32."""
    if len(buf) < 4:
        raise DataError(f"{source}: truncated file ({len(buf)} bytes)")
    payload, stored = buf[:-4], struct.unpack("<I", buf[-4:])[0]
    if zlib.crc32(payload) != stored:
        raise DataError(f"{source}: checksum mismatch (corrupt or truncated file)")
    return payload


def pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long to serialize")
    return struct.pack("<H", len(raw)) + raw


class Reader:
    """Sequential cursor over a byte buffer with truncation diagnostics."""

    def __init__(self, buf: bytes, source: str):
        self.buf = buf
        self.pos = 0
        self.source = source

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise DataError(
                f"{self.source}: truncated file (needed {n} more bytes at offset {self.pos})"
            )
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def u8(self) -> int:
        return self.unpack("<B")[0]

    def u16(self) -> int:
        return self.unpack("<H")[0]

    def u32(self) -> int:
        return self.unpack("<I")[0]

    def u64(self) -> int:
        return self.unpack("<Q")[0]

    def i64(self) -> int:
        return self.unpack("<q")[0]

    def f64(self) -> float:
        return self.unpack("<d")[0]

    def text(self) -> str:
        start = self.pos
        try:
            return self.take(self.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.source}: invalid UTF-8 text at offset {start}") from None

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise DataError(
                f"{self.source}: {len(self.buf) - self.pos} unexpected trailing bytes"
            )
