"""Binary-file plumbing: sealed containers, atomic writes, a streaming reader.

A sealed container is a payload followed by the CRC32 of the payload.
Writers never join a payload into one ``bytes``. They build it as a list
of parts: header bytes, then ``f64_view``s of the weight arrays, which
alias the arrays' own memory. ``seal`` chains the CRC over the parts and
``write_atomic`` writes them one after another, so a save copies no array
(on a little-endian machine).

Readers read the file once, front to back, with a ``Reader`` that chains
the CRC over every byte it reads. Header fields are parsed from small
read-ahead windows; ``Reader.f64_array`` reads each array, past what the
window already holds, straight from the file into a fresh, aligned,
writable array. So no file-sized buffer is ever allocated, and views into
file data, which may start at any byte offset, are never handed out.
``unseal`` then checks the trailing CRC. A container nested in another (a model inside a bundle) is
read through a Reader over the enclosing one, so both CRCs see its
bytes. ``open_sealed`` keeps the old order of diagnoses: when decoding
fails, the rest of the file is read and a CRC mismatch is reported in
place of the decoding error.

All on-disk integers and floats are little-endian regardless of platform.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
import zlib
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import DataError

Buffer = bytes | memoryview


def f64_view(a: np.ndarray) -> memoryview:
    """The row-major little-endian float64 bytes of a, as a flat byte view.

    A C-contiguous float64 array is not copied on a little-endian machine:
    the view aliases its memory, so it must not change before the view is
    written.
    """
    flat = np.ascontiguousarray(a, dtype="<f8").reshape(-1)
    return memoryview(flat.view(np.uint8))


def write_atomic(path: str | Path, data: str | Iterable[Buffer]) -> None:
    """Write data to path via a temp file in the same directory plus rename.

    data is text, written as UTF-8 whatever the locale, or buffers, written
    one after another. A failed write never leaves a partial file at the
    destination. The file gets the mode open() would give a new file,
    0o666 less the umask.
    """
    path = Path(path)
    parts = [data.encode("utf-8")] if isinstance(data, str) else data
    # 64 random bits name the temp file; O_EXCL refuses one that exists.
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def seal(parts: list[Buffer]) -> list[Buffer]:
    """The payload parts followed by the CRC32 of their concatenation."""
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [*parts, struct.pack("<I", crc)]


def pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long to serialize")
    return struct.pack("<H", len(raw)) + raw


# Header fields are read ahead in windows of this many bytes, one read and
# one CRC call per window; the part of an array past the window is read
# straight into the array.
_WINDOW = 1 << 16


def _fill(src, view: memoryview, source: str) -> None:
    """Fill view from src, a binary file or a Reader."""
    while view:
        n = src.readinto(view)
        if not n:
            raise DataError(f"{source}: truncated file")
        view = view[n:]


class Reader:
    """Sequential reader of one sealed container that verifies it.

    The container is the next ``size`` bytes of src: a binary file, or the
    Reader of the container it is nested in. Every payload byte fetched
    from src is chained into a CRC32, which ``unseal`` compares with the
    trailing four bytes. No read goes past the payload, so a corrupt
    length can never make it allocate more than the container holds.
    """

    def __init__(self, src, size: int, source: str):
        if size < 4:
            raise DataError(f"{source}: truncated file ({size} bytes)")
        self.src = src
        self.source = source
        self.end = size - 4
        self.pos = 0  # payload bytes consumed
        self.window = bytearray()  # fetched bytes; those from wpos on are unconsumed
        self.wpos = 0
        self.crc = 0
        self.stored: int | None = None

    def _need(self, n: int) -> None:
        """Raise DataError unless n more payload bytes remain."""
        if self.pos + n > self.end:
            raise DataError(
                f"{self.source}: truncated file (needed {n} more bytes at offset {self.pos})"
            )

    def _fetch(self, view: memoryview) -> None:
        _fill(self.src, view, self.source)
        self.crc = zlib.crc32(view, self.crc)

    def _claim(self, n: int) -> int:
        """Consume the next n payload bytes from the window; return their offset."""
        left = len(self.window) - self.wpos
        if left < n:
            self._need(n)  # before allocating: a corrupt length may ask for anything
            fetched = self.pos + left
            buf = bytearray(max(n, left + min(_WINDOW, self.end - fetched)))
            buf[:left] = memoryview(self.window)[self.wpos :]
            self._fetch(memoryview(buf)[left:])
            self.window, self.wpos = buf, 0
        at = self.wpos
        self.wpos += n
        self.pos += n
        return at

    def readinto(self, view: memoryview) -> int:
        """Fill view with the next payload bytes; returns its length."""
        n = len(view)
        self._need(n)
        have = min(n, len(self.window) - self.wpos)
        at = self._claim(have)
        view[:have] = memoryview(self.window)[at : at + have]
        if n > have:
            self._fetch(view[have:])
            self.pos += n - have
        return n

    def take(self, n: int) -> bytearray:
        at = self._claim(n)
        return self.window[at : at + n]

    def unpack(self, fmt: str):
        at = self._claim(struct.calcsize(fmt))
        return struct.unpack_from(fmt, self.window, at)

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

    def f64_array(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next row-major float64 array of this shape, as a fresh array."""
        self._need(8 * math.prod(shape))
        out = np.empty(shape, dtype="<f8")
        self.readinto(memoryview(out.reshape(-1).view(np.uint8)))
        return out.astype(float, copy=False)

    def text(self) -> str:
        start = self.pos
        try:
            return self.take(self.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.source}: invalid UTF-8 text at offset {start}") from None

    def sealed(self, size: int, source: str) -> Reader:
        """A Reader of the sealed container held in the next size bytes."""
        self._need(size)
        return Reader(self, size, source)

    def intact(self) -> bool:
        """Read the rest of the container; whether its CRC32 matches."""
        while self.pos < self.end:
            self.take(min(self.end - self.pos, _WINDOW))
        if self.stored is None:
            tail = bytearray(4)
            _fill(self.src, memoryview(tail), self.source)
            self.stored = struct.unpack("<I", tail)[0]
        return self.stored == self.crc


def unseal(r: Reader) -> None:
    """Check the trailing CRC32 of r's container, once its payload is read."""
    if r.pos != r.end:
        raise DataError(f"{r.source}: {r.end - r.pos} unexpected trailing bytes")
    if not r.intact():
        raise DataError(f"{r.source}: checksum mismatch (corrupt or truncated file)")


@contextmanager
def open_sealed(path: Path) -> Iterator[Reader]:
    """A Reader over the sealed file at path.

    If reading raises DataError, the rest of the file is read first, and a
    CRC mismatch is raised in place of that error: a corrupt file is
    reported as corrupt, whichever field the corruption reached.
    """
    source = str(path)
    with open(path, "rb") as fh:
        r = Reader(fh, os.fstat(fh.fileno()).st_size, source)
        try:
            yield r
        except DataError:
            if not r.intact():
                raise DataError(
                    f"{source}: checksum mismatch (corrupt or truncated file)"
                ) from None
            raise
