"""Wire protocol of the live supervision service.

Framing is deliberately boring: every frame is a 4-byte big-endian
payload length followed by one UTF-8 JSON object.  The object always
carries ``v`` (the protocol schema version) and ``type``; everything
else is frame-specific payload.  Length-delimited JSON keeps the
protocol zero-dependency, debuggable with ``socat``, and — crucially
for a dependability service — *resynchronizable*: a malformed payload
is still cleanly delimited by its length header, so the decoder can
reject the one frame and keep the connection alive.  Only a corrupt
length header (raising :class:`FatalProtocolError`) forces a
disconnect, because framing itself can no longer be trusted.

Client → server frames
======================

========== ==========================================================
``HELLO``     handshake; carries ``client`` (a display name)
``REGISTER``  a fault hypothesis (``hypothesis`` in the
              :func:`repro.core.config_io.hypothesis_to_dict` format)
              under a unique ``name``; optional ``app_of_task``
``HEARTBEAT`` a batch of aliveness indications:
              ``[[runnable, time, task], ...]`` (``time`` may be
              ``null`` — the server stamps its own clock)
``FLOW``      a batch of task-activation starts: ``[[task, time], ...]``
``BYE``       graceful goodbye; the registration is deactivated
              instead of being treated as crashed
========== ==========================================================

Server → client frames
======================

============= =======================================================
``ACK``        response to HELLO/REGISTER/BYE and to malformed frames
               (``ok`` plus ``re`` naming the acked type; failures
               carry ``error``, REGISTER acks carry ``shard`` and the
               ``lint`` diagnostics)
``DETECTION``  one watchdog detection pushed to the owning client
``STATE``      a state-machine transition (``scope`` of ``task``,
               ``ecu`` or ``fleet``)
============= =======================================================

HEARTBEAT and FLOW are fire-and-forget (no ACK): heartbeats are the
hot path and the watchdog's own counters are the integrity check — a
lost indication is exactly a missed heartbeat, which is the event the
service exists to detect.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Optional, Union

__all__ = [
    "FatalProtocolError",
    "Frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REQUEST_TYPES",
    "SERVER_TYPES",
    "T_ACK",
    "T_BYE",
    "T_DETECTION",
    "T_FLOW",
    "T_HEARTBEAT",
    "T_HELLO",
    "T_REGISTER",
    "T_STATE",
    "encode_frame",
    "encode_payload",
]

#: Version stamped into every frame; bump on incompatible changes.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's payload; a length header above this is
#: treated as framing corruption (:class:`FatalProtocolError`).
MAX_FRAME_BYTES = 1 << 20

_HEADER = struct.Struct("!I")
HEADER_BYTES = _HEADER.size
_unpack_header = _HEADER.unpack_from

T_HELLO = "HELLO"
T_REGISTER = "REGISTER"
T_HEARTBEAT = "HEARTBEAT"
T_FLOW = "FLOW"
T_BYE = "BYE"
T_ACK = "ACK"
T_DETECTION = "DETECTION"
T_STATE = "STATE"

REQUEST_TYPES = (T_HELLO, T_REGISTER, T_HEARTBEAT, T_FLOW, T_BYE)
SERVER_TYPES = (T_ACK, T_DETECTION, T_STATE)
_KNOWN_TYPES = frozenset(REQUEST_TYPES + SERVER_TYPES)


class ProtocolError(Exception):
    """One frame was malformed; the connection remains usable."""


class FatalProtocolError(ProtocolError):
    """The byte stream itself is corrupt; the connection must close."""


class Frame:
    """One decoded protocol frame."""

    __slots__ = ("type", "data", "version")

    def __init__(
        self,
        type: str,
        data: Optional[Dict[str, Any]] = None,
        version: int = PROTOCOL_VERSION,
    ) -> None:
        self.type = type
        self.data = {} if data is None else data
        self.version = version

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.type, self.data, self.version) == (
            other.type, other.data, other.version)

    def __repr__(self) -> str:
        return (f"Frame(type={self.type!r}, data={self.data!r}, "
                f"version={self.version!r})")


def encode_payload(type: str, **data: Any) -> Dict[str, Any]:
    """The JSON object for one frame (before framing)."""
    payload = dict(data)
    payload["v"] = PROTOCOL_VERSION
    payload["type"] = type
    return payload


def encode_frame(type: str, **data: Any) -> bytes:
    """Serialize one frame: length header plus JSON payload."""
    body = json.dumps(
        encode_payload(type, **data), separators=(",", ":")
    ).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


_json_decoder = json.JSONDecoder()
_json_decode = _json_decoder.decode
#: The decoder's scanner (C when available): one JSON value from a
#: start index, returned with the index just past it.
_scan_once = _json_decoder.scan_once


def _decode_body(body: bytes) -> Frame:
    """Parse one delimited payload into a :class:`Frame`.

    Raises :class:`ProtocolError` (recoverable — the stream is still
    framed correctly) for anything wrong *inside* the payload.
    """
    try:
        payload = _json_decode(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's limit.
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if type(payload) is not dict:
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.pop("v", None)
    if version != PROTOCOL_VERSION:
        raise ProtocolError(f"unsupported protocol version: {version!r}")
    frame_type = payload.pop("type", None)
    if type(frame_type) is not str or frame_type not in _KNOWN_TYPES:
        raise ProtocolError(f"unknown frame type: {frame_type!r}")
    return Frame(frame_type, payload, version)


class FrameDecoder:
    """Incremental decoder: feed bytes, iterate frames.

    :meth:`feed` returns a list whose entries are either :class:`Frame`
    objects or :class:`ProtocolError` instances — a malformed payload is
    surfaced *in order* so the server can ACK the failure and keep
    decoding subsequent frames from the same connection.

    A corrupt length header fails the decoder for good: it is kept in
    :attr:`error`, and :meth:`feed` raises it.  The frames that came
    before it in the same chunk are still returned first — the error is
    raised by the *next* :meth:`feed` — so a caller that checks
    :attr:`error` after handling them loses no frame.
    """

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._buffer = bytearray()
        self._max = max_frame_bytes
        #: The :class:`FatalProtocolError` that failed the stream, if any.
        self.error: Optional[FatalProtocolError] = None
        #: Totals kept by the decoder (cheap ints; exported by the
        #: server's telemetry).
        self.frames_decoded = 0
        self.frames_rejected = 0

    def feed(self, chunk: bytes) -> List[Union[Frame, ProtocolError]]:
        """Consume ``chunk``; return every complete frame it finished.

        Walks an offset through the buffer and trims the consumed bytes
        once per call, not once per frame.  A payload that is malformed
        in any way, nesting deeper than the interpreter's recursion
        limit included, is one :class:`ProtocolError` in the list."""
        if self.error is not None:
            raise self.error
        buffer = self._buffer
        buffer.extend(chunk)
        size = len(buffer)
        items: List[Union[Frame, ProtocolError]] = []
        scan_once = _scan_once
        known_types = _KNOWN_TYPES
        offset = decoded = 0
        while size - offset >= HEADER_BYTES:
            (length,) = _unpack_header(buffer, offset)
            if length > self._max:
                self.error = FatalProtocolError(
                    f"frame length {length} exceeds the {self._max}-byte "
                    "limit; stream framing is corrupt"
                )
                if not items:
                    raise self.error
                break
            start = offset + HEADER_BYTES
            end = start + length
            if end > size:
                break
            offset = end
            # Fast path: scan the payload directly and accept only a
            # well-formed frame.  Anything else, including whitespace
            # around the object, is decoded again by _decode_body, so a
            # rejection carries the one error message it defines.
            frame = None
            try:
                text = buffer[start:end].decode("utf-8")
                payload, stop = scan_once(text, 0)
            except (ValueError, StopIteration, RecursionError):
                # UnicodeDecodeError and JSONDecodeError are ValueErrors;
                # StopIteration: no JSON value at index 0.
                pass
            else:
                if stop == len(text) and type(payload) is dict:
                    version = payload.pop("v", None)
                    frame_type = payload.pop("type", None)
                    if (version == PROTOCOL_VERSION
                            and type(frame_type) is str
                            and frame_type in known_types):
                        frame = Frame(frame_type, payload, version)
            if frame is None:
                try:
                    frame = _decode_body(buffer[start:end])
                except ProtocolError as exc:
                    self.frames_rejected += 1
                    items.append(exc)
                    continue
            decoded += 1
            items.append(frame)
        self.frames_decoded += decoded
        if offset:
            del buffer[:offset]
        return items

    def pending_bytes(self) -> int:
        """Bytes buffered but not yet framing a complete frame."""
        return len(self._buffer)
