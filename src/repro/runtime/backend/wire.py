"""Wire protocol for cross-process parcel transport.

Messages between the driver (locality 0) and the workers are tuples
``(kind, ...)`` encoded with the parcel layer's own
:func:`~repro.runtime.parcel.serialization.serialize` -- the same
encode-once format parcels already use.  Parcel payloads inside a
``"parcels"`` message are the *already-encoded* bytes produced by
``Runtime._encode``; they are never re-pickled, only wrapped.

Framing
-------
Each message travels as one frame: a 4-byte big-endian length, then the
encoded message.  The backend writes frames with ``os.write`` on the raw
pipe descriptors and reads them with ``os.read`` into a per-connection
:class:`FrameReader`, so one read can yield several frames and a frame
can span several reads.

Message kinds
-------------
``("parcels", [entry, ...])``
    Batch of parcels for this process, ``entry = (source, destination,
    payload, target_gid, target_locality, token, fire_and_forget,
    priority)``.  ``token`` is ``(origin_locality, seq)`` for sends that
    expect a reply, ``None`` for fire-and-forget.
``("reply", origin, token, ok, data)``
    Result of a tokened parcel: ``data`` is the serialized value when
    ``ok``, the serialized exception otherwise.  Routed to ``origin``.
``("create", origin, gid, home, data)``
    AGAS mirror of a new registration; ``data`` is the serialized
    component (decoded only by the home process).
``("resolve", req_id, gid, origin)`` / ``("resolved", req_id, gid, home)``
    Synchronous AGAS brokering for a GID unknown locally (``home`` is
    -1 when the driver does not know it either).
``("sync", seq)`` / ("sync-ack", seq, worker, busy)``
    Termination-detection round: the worker acks with ``busy`` True
    while it has pending tasks, outstanding reply tokens, or sent
    traffic since its last ack.
``("stop",)`` / ``("stopped", worker, stats)``
    Clean shutdown; the worker answers with its runtime statistics
    (perfcounter aggregation back to locality 0) and exits.
``("abort",)``
    Error-path shutdown: exit immediately, no draining.
``("error", worker, text)``
    A worker process died; ``text`` is its formatted traceback.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Any

from ..parcel.serialization import deserialize, serialize

if TYPE_CHECKING:  # pragma: no cover
    from ..parcel.parcel import Parcel

__all__ = [
    "FrameReader",
    "decode_message",
    "encode_message",
    "frame",
    "parcel_entry",
]

_HEADER = struct.Struct("!I")
_HEADER_SIZE = _HEADER.size


def encode_message(message: tuple) -> bytes:
    """Encode one protocol message as wire bytes (no frame header)."""
    return serialize(message)


def decode_message(data: bytes) -> tuple:
    """Inverse of :func:`encode_message`."""
    return deserialize(data)


def frame(data: bytes) -> bytes:
    """Prefix encoded message bytes with their length (below 4 GiB)."""
    return _HEADER.pack(len(data)) + data


class FrameReader:
    """Reassembles frames from the byte stream of one connection.

    :meth:`feed` takes whatever one ``os.read`` returned and hands back
    every frame it completed; the bytes of an unfinished frame wait in
    the buffer for the next read.
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, chunk: bytes) -> list[bytes]:
        buf = self._buf
        if buf:
            buf += chunk
            data: bytes | bytearray = buf
        else:
            data = chunk  # common case: the read starts on a frame boundary
        frames = []
        pos = 0
        end = len(data)
        unpack = _HEADER.unpack_from
        while end - pos >= _HEADER_SIZE:
            stop = pos + _HEADER_SIZE + unpack(data, pos)[0]
            if stop > end:
                break
            frames.append(bytes(data[pos + _HEADER_SIZE : stop]))
            pos = stop
        if data is buf:
            del buf[:pos]
        elif pos < end:
            buf += data[pos:]
        return frames


def parcel_entry(
    parcel: "Parcel", destination: int, token: tuple[int, int] | None
) -> tuple[Any, ...]:
    """The wire entry for one cross-process parcel.

    ``by_ref_body`` deliberately does not travel: a zero-copy loopback
    send downgrades to the real serialized payload the moment it crosses
    a process boundary.
    """
    return (
        parcel.source_locality,
        destination,
        parcel.payload,
        parcel.target_gid,
        parcel.target_locality,
        token,
        parcel.fire_and_forget,
        parcel.priority,
    )
