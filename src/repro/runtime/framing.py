"""Length-prefixed frame I/O for the live transport.

Frames are ``<4-byte big-endian length><payload bytes>``.  The length covers
the payload only.  A hard ceiling protects peers from hostile or corrupted
length prefixes; at 500-byte transactions even a 4096-transaction block stays
far below it.

Two batching constructs sit on top of the basic frame:

* :class:`FrameReader` — a buffered reader that parses every complete frame
  out of each socket read, so a burst of small frames costs one ``await``
  instead of two ``readexactly`` awaits per frame;
* *super-frames* — one frame whose payload packs many envelopes
  (``0xB3 magic, u32 count, then count × <u32 length><envelope>``).  The
  envelope bytes inside are the codec's ordinary envelopes, so batching
  lives entirely at the framing layer and the codec knows nothing of it.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Sequence

from repro.errors import NetworkError

#: Maximum accepted frame payload (bytes).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")

#: First payload byte of a super-frame.  Distinct from the envelope magic
#: (``0xB2``), so a decoder can sniff the payload kind from one byte.
SUPER_FRAME_MAGIC = 0xB3

_SUPER_HEADER = struct.Struct(">BI")


class FrameError(NetworkError):
    """A frame violated the length-prefix protocol."""


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with its length."""
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {len(payload)} bytes exceeds {MAX_FRAME_BYTES}")
    return _LENGTH.pack(len(payload)) + payload


async def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    """Write one frame and drain the transport buffer."""
    writer.write(encode_frame(payload))
    await writer.drain()


class FrameReader:
    """Buffered frame reader over an :class:`asyncio.StreamReader`.

    Reading a frame as a ``readexactly`` pair costs two scheduler
    round-trips per frame, which dominates the receive path under load.
    ``FrameReader`` instead reads the socket in large chunks and slices every
    complete frame out of its buffer, so all the frames that arrived together
    (one TCP segment, or a backlog the kernel already buffered) surface from
    a single ``await``.
    """

    __slots__ = ("_reader", "_buffer", "_eof")

    #: Bytes requested per socket read.
    CHUNK_BYTES = 256 * 1024

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = bytearray()
        self._eof = False

    async def read_batch(self) -> list[bytes] | None:
        """Return every complete frame available, reading at least one.

        Returns ``None`` on clean EOF (connection closed on a frame
        boundary); raises :class:`FrameError` if the peer vanished
        mid-frame.
        """
        frames = self._split_buffer()
        while not frames:
            if self._eof:
                return self._finish_eof()
            chunk = await self._reader.read(self.CHUNK_BYTES)
            if not chunk:
                self._eof = True
                return self._finish_eof()
            self._buffer.extend(chunk)
            frames = self._split_buffer()
        return frames

    def _finish_eof(self) -> None:
        if self._buffer:
            raise FrameError("connection closed mid-frame")
        return None

    def _split_buffer(self) -> list[bytes]:
        buffer = self._buffer
        available = len(buffer)
        frames: list[bytes] = []
        offset = 0
        while available - offset >= _LENGTH.size:
            (length,) = _LENGTH.unpack_from(buffer, offset)
            if length > MAX_FRAME_BYTES:
                raise FrameError(
                    f"peer announced a {length}-byte frame (max {MAX_FRAME_BYTES})"
                )
            end = offset + _LENGTH.size + length
            if end > available:
                break
            frames.append(bytes(buffer[offset + _LENGTH.size : end]))
            offset = end
        if offset:
            del buffer[:offset]
        return frames


# -- super-frames ------------------------------------------------------------


def encode_super_frame(envelopes: Sequence[bytes]) -> bytes:
    """Pack ``envelopes`` into one super-frame payload.

    The envelope bytes are carried verbatim — a super-frame of one envelope
    and the envelope itself decode to the same message, and peers that split
    a super-frame see exactly the bytes a sequential sender would have put in
    individual frames.
    """
    out = [_SUPER_HEADER.pack(SUPER_FRAME_MAGIC, len(envelopes))]
    for envelope in envelopes:
        out.append(_LENGTH.pack(len(envelope)))
        out.append(envelope)
    return b"".join(out)


def is_super_frame(payload: bytes) -> bool:
    """Whether a frame payload is a super-frame (vs a single envelope)."""
    return bool(payload) and payload[0] == SUPER_FRAME_MAGIC


def split_super_frame(payload: bytes) -> list[bytes]:
    """Unpack a super-frame payload into its envelope byte strings."""
    if not is_super_frame(payload):
        raise FrameError("payload is not a super-frame")
    try:
        _, count = _SUPER_HEADER.unpack_from(payload, 0)
    except struct.error as exc:
        raise FrameError(f"truncated super-frame header: {exc}") from exc
    offset = _SUPER_HEADER.size
    # Each envelope needs at least its 4-byte length prefix.
    if offset + count * _LENGTH.size > len(payload):
        raise FrameError(f"super-frame count {count} exceeds its payload")
    envelopes: list[bytes] = []
    for _ in range(count):
        (length,) = _LENGTH.unpack_from(payload, offset)
        offset += _LENGTH.size
        end = offset + length
        if end > len(payload):
            raise FrameError("super-frame truncated mid-envelope")
        envelopes.append(payload[offset:end])
        offset = end
    if offset != len(payload):
        raise FrameError(f"super-frame has {len(payload) - offset} trailing bytes")
    return envelopes
