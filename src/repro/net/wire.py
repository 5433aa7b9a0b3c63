"""Framed wire protocol: length-prefixed, versioned JSON messages.

Every frame on a live socket is ``4-byte big-endian length ‖ UTF-8 JSON``.
The JSON object always carries the protocol version (``"v"``) and a
``"kind"`` discriminator; protocol messages additionally carry the sender,
the traffic category (so live byte accounting matches the simulator's
category breakdown), and a typed body built with the canonical encoders
from :mod:`repro.core.serialization` — a block decoded off a socket goes
through the same hash re-verification as one read back from disk.

Defences expected of a real listener:

* frames longer than :data:`MAX_FRAME_BYTES` are rejected *from the
  header alone*, before any payload is buffered;
* non-JSON payloads (nesting too deep for the parser included),
  non-object payloads, unknown versions, and unknown or non-string
  message types raise :class:`WireError` instead of crashing the reader;
* truncated frames simply stay buffered until more bytes arrive
  (:class:`FrameDecoder` is incremental).
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import messages as m
from repro.core.errors import ValidationError
from repro.core.serialization import (
    block_from_dict,
    block_to_dict,
    metadata_from_dict,
    metadata_to_dict,
)

#: Version tag carried by every frame; peers reject any mismatch at
#: handshake time, so it only changes on breaking format revisions.
PROTOCOL_VERSION = 1

#: Length-prefix size: one unsigned 32-bit big-endian integer.
FRAME_HEADER_BYTES = 4

#: Hard ceiling on a single frame's JSON payload.  A whole-chain
#: ``ChainResponse`` for a long run fits comfortably; anything larger is
#: hostile or corrupt.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")


class WireError(ValidationError):
    """A frame or message failed to encode/decode."""


# -- frame codec ---------------------------------------------------------------


def encode_frame(payload: Dict[str, Any], max_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """Serialise one JSON-object frame to length-prefixed bytes."""
    try:
        body = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
            "utf-8"
        )
    except (TypeError, ValueError) as error:
        raise WireError(f"frame payload is not JSON-serialisable: {error}") from error
    if len(body) > max_bytes:
        raise WireError(
            f"frame of {len(body)} bytes exceeds the {max_bytes}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_frame(data: bytes, max_bytes: int = MAX_FRAME_BYTES) -> Dict[str, Any]:
    """Decode exactly one complete frame (header + full payload)."""
    decoder = FrameDecoder(max_bytes=max_bytes)
    frames = decoder.feed(data)
    if len(frames) != 1 or decoder.pending_bytes:
        raise WireError(
            f"expected exactly one complete frame, got {len(frames)} "
            f"with {decoder.pending_bytes} byte(s) left over"
        )
    return frames[0]


class FrameDecoder:
    """Incremental frame parser for a TCP byte stream.

    ``feed(chunk)`` returns every frame completed by the chunk; partial
    frames stay buffered.  Oversized or malformed frames raise
    :class:`WireError` — after which the stream is unusable and the
    connection should be dropped (there is no resynchronisation point in
    a length-prefixed stream).
    """

    def __init__(self, max_bytes: int = MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buffer)

    def feed(self, chunk: bytes) -> List[Dict[str, Any]]:
        self._buffer.extend(chunk)
        frames: List[Dict[str, Any]] = []
        while True:
            if len(self._buffer) < FRAME_HEADER_BYTES:
                return frames
            (length,) = _HEADER.unpack_from(self._buffer, 0)
            if length > self.max_bytes:
                raise WireError(
                    f"announced frame of {length} bytes exceeds the "
                    f"{self.max_bytes}-byte limit"
                )
            end = FRAME_HEADER_BYTES + length
            if len(self._buffer) < end:
                return frames
            body = bytes(self._buffer[FRAME_HEADER_BYTES:end])
            del self._buffer[:end]
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise WireError(f"frame payload is not valid JSON: {error}") from error
            except RecursionError as error:
                raise WireError("frame payload nests too deep to parse") from error
            if not isinstance(payload, dict):
                raise WireError(
                    f"frame payload must be a JSON object, got {type(payload).__name__}"
                )
            frames.append(payload)


# -- message codec -------------------------------------------------------------
#
# Each protocol dataclass gets an (encode, decode) pair keyed on its class
# name.  Scalar-only messages go through dataclasses.asdict; anything
# carrying blocks or metadata reuses the canonical serialisers so hash
# verification happens on every decode.


def _plain_encode(message: Any) -> Dict[str, Any]:
    return dataclasses.asdict(message)


def _plain_decoder(cls: type) -> Callable[[Dict[str, Any]], Any]:
    def decode(body: Dict[str, Any]) -> Any:
        try:
            return cls(**body)
        except TypeError as error:
            raise WireError(f"malformed {cls.__name__} body: {error}") from error

    return decode


def _blocks_to_list(blocks: Iterable[Any]) -> List[Dict[str, Any]]:
    return [block_to_dict(block) for block in blocks]


def _blocks_from_list(entries: Any) -> Tuple[Any, ...]:
    if not isinstance(entries, list):
        raise WireError("block list must be a JSON array")
    return tuple(block_from_dict(entry) for entry in entries)


_ENCODERS: Dict[str, Callable[[Any], Dict[str, Any]]] = {}
_DECODERS: Dict[str, Callable[[Dict[str, Any]], Any]] = {}


def _register(
    cls: type,
    encode: Callable[[Any], Dict[str, Any]],
    decode: Callable[[Dict[str, Any]], Any],
) -> None:
    _ENCODERS[cls.__name__] = encode
    _DECODERS[cls.__name__] = decode


_register(
    m.MetadataAnnounce,
    lambda msg: {"metadata": metadata_to_dict(msg.metadata)},
    lambda body: m.MetadataAnnounce(metadata=metadata_from_dict(body["metadata"])),
)
_register(
    m.BlockAnnounce,
    lambda msg: {"block": block_to_dict(msg.block)},
    lambda body: m.BlockAnnounce(block=block_from_dict(body["block"])),
)
_register(
    m.BlockRequest,
    lambda msg: {"indices": list(msg.indices), "origin": msg.origin, "ttl": msg.ttl},
    lambda body: m.BlockRequest(
        indices=tuple(int(i) for i in body["indices"]),
        origin=int(body["origin"]),
        ttl=int(body["ttl"]),
    ),
)
_register(
    m.BlockResponse,
    lambda msg: {"blocks": _blocks_to_list(msg.blocks)},
    lambda body: m.BlockResponse(blocks=_blocks_from_list(body["blocks"])),
)
_register(
    m.ChainResponse,
    lambda msg: {"blocks": _blocks_to_list(msg.blocks)},
    lambda body: m.ChainResponse(blocks=_blocks_from_list(body["blocks"])),
)
for _cls in (
    m.DataRequest,
    m.DataResponse,
    m.DataNack,
    m.DisseminationRequest,
    m.DisseminationResponse,
    m.InvalidStorageClaim,
    m.ChainRequest,
):
    _register(_cls, _plain_encode, _plain_decoder(_cls))


def encode_message(
    source: int,
    payload: Any,
    category: str,
    size_bytes: int = 0,
    sent_at: float = 0.0,
    max_bytes: int = MAX_FRAME_BYTES,
    trace_ctx: Optional[List[Any]] = None,
) -> bytes:
    """Encode one protocol message as a complete ``msg`` frame.

    ``size_bytes`` is the protocol-model message size and ``sent_at`` the
    sender's *logical* clock at dispatch — both ride in the envelope so
    the receiver can shape delivery onto its own logical clock with the
    shared deterministic channel model (see
    :meth:`repro.net.router.SocketNetwork.deliver_frame`).

    ``trace_ctx`` is the sender's wire-form observability trace context
    (:meth:`repro.obs.tracer.TraceContext.to_wire`); present only while
    tracing is enabled.  It rides as the optional ``"tc"`` envelope key —
    purely advisory, never part of protocol semantics: delivery timing is
    derived from ``t``/``size`` alone, so traced and untraced runs stay
    digest-identical.
    """
    encoder = _ENCODERS.get(type(payload).__name__)
    if encoder is None:
        raise WireError(f"no wire encoding for message type {type(payload).__name__}")
    frame = {
        "v": PROTOCOL_VERSION,
        "kind": "msg",
        "type": type(payload).__name__,
        "source": source,
        "category": category,
        "size": size_bytes,
        "t": sent_at,
        "body": encoder(payload),
    }
    if trace_ctx is not None:
        frame["tc"] = trace_ctx
    return encode_frame(frame, max_bytes=max_bytes)


def decode_message(frame: Dict[str, Any]) -> Tuple[int, Any, str, int, float]:
    """Decode a ``msg`` frame into ``(source, payload, category, size, sent_at)``.

    Raises :class:`WireError` on version/kind/type mismatches and
    propagates the canonical serialisers' :class:`ValidationError` for
    tampered blocks or metadata.
    """
    if frame.get("v") != PROTOCOL_VERSION:
        raise WireError(f"unsupported wire protocol version {frame.get('v')!r}")
    if frame.get("kind") != "msg":
        raise WireError(f"not a protocol message frame: kind={frame.get('kind')!r}")
    name = frame.get("type")
    if not isinstance(name, str):
        raise WireError(f"message type must be a string, got {type(name).__name__}")
    decoder = _DECODERS.get(name)
    if decoder is None:
        raise WireError(f"unknown message type {name!r}")
    body = frame.get("body")
    if not isinstance(body, dict):
        raise WireError("message body must be a JSON object")
    try:
        payload = decoder(body)
    except WireError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise WireError(f"malformed {name} body: {error}") from error
    try:
        source = int(frame["source"])
        category = str(frame["category"])
        size_bytes = int(frame.get("size", 0))
        sent_at = float(frame.get("t", 0.0))
    except (KeyError, TypeError, ValueError) as error:
        raise WireError(f"malformed message envelope: {error}") from error
    return source, payload, category, size_bytes, sent_at


# -- control frames ------------------------------------------------------------


def hello_frame(
    node_id: int, genesis_digest: str, listen_port: int, sent_at: float
) -> Dict[str, Any]:
    """The handshake frame each side sends first on a fresh connection."""
    return {
        "v": PROTOCOL_VERSION,
        "kind": "hello",
        "node": node_id,
        "genesis": genesis_digest,
        "port": listen_port,
        "t": sent_at,
    }


def ping_frame(sent_at: float) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "kind": "ping", "t": sent_at}


def pong_frame(echo: float) -> Dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "kind": "pong", "t": echo}
