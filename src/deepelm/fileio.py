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
``unseal`` then checks the trailing CRC. A container nested in another (a
model inside a bundle) is read through a Reader over the enclosing one,
so both CRCs see its bytes. ``open_sealed`` keeps the old order of
diagnoses: when decoding fails, the rest of the file is read and a CRC
mismatch is reported in place of the decoding error.

Large containers are checksummed on a second core. From a payload of
``_SEAL_THREADED`` bytes (1 MiB) on, ``seal`` hands the parts to a
``CRCWorker`` thread and returns it in place of the trailer, and
``write_atomic`` writes the parts while the worker chains the CRC, then
writes the trailer once it is joined. A file of ``_OPEN_THREADED`` bytes
(2.5 MiB) or more is read in ``_CHUNK``-sized pieces, and the file-level
Reader hands each piece, in order, to one worker while it reads the next;
``unseal`` joins it before it compares. A nested Reader chains its CRC
inline. The bytes written, the arrays read and the order of diagnoses
are the same on both paths, and every save and load joins its workers
before it returns or raises.

All on-disk integers and floats are little-endian regardless of platform.
"""

from __future__ import annotations

import math
import os
import queue
import secrets
import struct
import threading
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


# Header fields are read ahead in windows of this many bytes, one read and
# one CRC call per window; the part of an array past the window is read
# straight into the array.
_WINDOW = 1 << 16

# The CRC32 of a payload of at least _SEAL_THREADED bytes is chained on a
# worker thread while the payload is written, and that of a file of at
# least _OPEN_THREADED bytes while the file is read, in chunks of _CHUNK
# bytes. Below them, starting and joining the thread costs more than the
# overlap saves: on 2 vCPUs the crossovers measured 1.0-1.25 MiB for a
# save and 2-2.5 MiB for a load.
_SEAL_THREADED = 16 * _WINDOW
_OPEN_THREADED = 40 * _WINDOW
_CHUNK = 8 * _WINDOW
# A window stays allocated until the worker has chained it, and a worker the
# scheduler holds back can fall several windows behind, so a Reader with a
# worker reads ahead in windows this much smaller. On the benchmark bundles
# that takes no time and bounds what the held windows add to a load's peak.
_THREADED_WINDOW = _WINDOW // 8


class CRCWorker:
    """The CRC32 of a payload, chained on a thread of its own.

    The buffers put to it are chained in order while the caller goes on
    writing or reading the next ones: ``zlib.crc32`` releases the GIL over
    buffers above 5 KB, as file reads and writes do. In ``seal``'s output
    it stands for the four trailer bytes (its ``len`` is 4), which
    ``write_atomic`` or an enclosing container's worker resolve once this
    thread has chained every part. The thread calls nothing but
    ``zlib.crc32`` and the workers of nested containers.
    """

    def __init__(self):
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._crc = 0
        self._error: Exception | None = None
        self._thread = threading.Thread(target=self._run, name="deepelm-crc32")
        self._thread.start()

    def __len__(self) -> int:
        return 4

    def _run(self) -> None:
        crc = 0
        try:
            while (part := self._queue.get()) is not None:
                if isinstance(part, CRCWorker):
                    part = part.trailer()
                crc = zlib.crc32(part, crc)
        except Exception as exc:  # raised to the caller by value()
            self._error = exc
        self._crc = crc

    def put(self, part: Buffer | CRCWorker) -> None:
        self._queue.put(part)

    def close(self) -> None:
        """No more buffers follow."""
        # No lock: seal closes its worker before another thread sees it, and
        # a Reader's worker is closed by the reading thread alone.
        if not self._closed:
            self._closed = True
            self._queue.put(None)

    def join(self) -> None:
        """Close, then wait until the thread has chained every buffer."""
        self.close()
        self._thread.join()

    def value(self) -> int:
        """The CRC32 of every buffer put, once the thread is joined."""
        self.join()
        if self._error is not None:
            raise self._error
        return self._crc

    def trailer(self) -> bytes:
        return struct.pack("<I", self.value())


def write_atomic(path: str | Path, data: str | Iterable[Buffer | CRCWorker]) -> None:
    """Write data to path via a temp file in the same directory plus rename.

    data is text, written as UTF-8 whatever the locale, or buffers, written
    one after another; a ``CRCWorker`` among them is written as its
    trailer once its thread has chained the parts before it. A failed
    write never leaves a partial file at the destination, nor a worker
    running. The file gets the mode open() would give a new file, 0o666
    less the umask.
    """
    path = Path(path)
    parts = [data.encode("utf-8")] if isinstance(data, str) else list(data)
    try:
        # 64 random bits name the temp file; O_EXCL refuses one that exists.
        tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
        flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
        fd = os.open(tmp, flags, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                for part in parts:
                    fh.write(part.trailer() if isinstance(part, CRCWorker) else part)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    finally:
        for part in parts:
            if isinstance(part, CRCWorker):
                part.join()


def seal(parts: list[Buffer | CRCWorker]) -> list[Buffer | CRCWorker]:
    """The payload parts followed by the CRC32 of their concatenation.

    From a payload of ``_SEAL_THREADED`` bytes on, the trailer is a started
    ``CRCWorker`` over the parts, which ``write_atomic`` resolves and joins.
    It waits on nothing but the workers of the parts, so parts that are
    never written leave it to end once it has chained them. A smaller
    payload holds no worker, since a nested container is never larger than
    the one that holds it, so its trailer is computed here.
    """
    if sum(map(len, parts)) >= _SEAL_THREADED:
        worker = CRCWorker()
        for part in parts:
            worker.put(part)
        worker.close()
        return [*parts, worker]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return [*parts, struct.pack("<I", crc)]


def pack_text(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError("string too long to serialize")
    return struct.pack("<H", len(raw)) + raw


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
    ``open_sealed`` gives the Reader of a large file a ``worker``, which
    then chains the CRC over the bytes fetched in its place, and smaller
    read-ahead windows, which Readers nested in it share.
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
        self.worker: CRCWorker | None = None
        # a nested Reader's windows reach the enclosing Reader's worker too
        self.lookahead = src.lookahead if isinstance(src, Reader) else _WINDOW
        self.stored: int | None = None

    def _need(self, n: int) -> None:
        """Raise DataError unless n more payload bytes remain."""
        if self.pos + n > self.end:
            raise DataError(
                f"{self.source}: truncated file (needed {n} more bytes at offset {self.pos})"
            )

    def _fetch(self, view: memoryview) -> None:
        if self.worker is None:
            _fill(self.src, view, self.source)
            self.crc = zlib.crc32(view, self.crc)
            return
        # chunk by chunk, so the worker chains one while the next is read
        for at in range(0, len(view), _CHUNK):
            chunk = view[at : at + _CHUNK]
            _fill(self.src, chunk, self.source)
            self.worker.put(chunk)

    def _claim(self, n: int) -> int:
        """Consume the next n payload bytes from the window; return their offset."""
        left = len(self.window) - self.wpos
        if left < n:
            self._need(n)  # before allocating: a corrupt length may ask for anything
            fetched = self.pos + left
            buf = bytearray(max(n, left + min(self.lookahead, self.end - fetched)))
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
        return self.stored == (self.crc if self.worker is None else self.worker.value())


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
    reported as corrupt, whichever field the corruption reached. A file of
    ``_OPEN_THREADED`` bytes or more is checksummed by a ``CRCWorker``,
    which is joined however the block exits.
    """
    source = str(path)
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        r = Reader(fh, size, source)
        try:
            if size >= _OPEN_THREADED:
                r.worker, r.lookahead = CRCWorker(), _THREADED_WINDOW
            yield r
        except DataError:
            if not r.intact():
                raise DataError(
                    f"{source}: checksum mismatch (corrupt or truncated file)"
                ) from None
            raise
        finally:
            if r.worker is not None:
                r.worker.join()
