"""Serialisation of chain objects: the byte codec and the JSON wire format.

**Bytes** — what a block is stored as: chain-store rows, cold-archive
records and journal block records (base64 inside their JSON framing)
all carry :func:`block_to_bytes`.  The encoding leads with the block's
hash preimage (:meth:`~repro.core.block.Block.header_bytes`), so a
reader verifies a block by hashing the bytes it read, and compaction
moves a row to the archive without decoding it (:func:`verify_block_bytes`).
Layout, every field framed by :func:`~repro.crypto.hashing.hash_preimage`
(4-byte length, type tag, value)::

    version byte (BLOCK_CODEC_VERSION)
    B header                      — the exact bytes the block hash covers
    per item: B signing preimage  — the exact bytes its signature covers
              S public key hex, S signature hex, S storing nodes "1,2,3"
    CRC-32 of everything above (4 bytes, big-endian)

The hash covers the header, and the header's content root covers each
item's signing preimage; the CRC catches damage to what neither covers
(an item's key, signature and placement).  :func:`block_from_bytes`
decodes once and refuses anything that is not the canonical encoding of
the block it decodes to — floats must be ``repr``-exact, integers
minimal, node lists must re-join exactly — so a decoded block's header
*is* its preimage and verifying never re-encodes a field.

**JSON** — the wire format between devices and ``repro archive fetch``'s
output: plain dictionaries with stable field names, round-tripping
exactly (hashes recompute identically after a decode, so a deserialised
block still validates).

* :func:`block_to_bytes` / :func:`block_from_bytes` / :func:`verify_block_bytes`
* :func:`metadata_to_dict` / :func:`metadata_from_dict`
* :func:`block_to_dict` / :func:`block_from_dict`
"""

from __future__ import annotations

import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

from repro.core.block import Block
from repro.core.errors import ValidationError
from repro.core.metadata import MetadataItem
from repro.crypto.hashing import hash_preimage, sha256, sha256_hex
from repro.crypto.merkle import merkle_root

#: Format tag embedded in every serialised object, bumped on breaking
#: changes so peers can reject incompatible encodings.
WIRE_FORMAT_VERSION = 1


#: Leading byte of :func:`block_to_bytes`, bumped on any layout change;
#: :func:`block_from_bytes` refuses every other value.
BLOCK_CODEC_VERSION = 1

_VERSION_BYTE = bytes([BLOCK_CODEC_VERSION])

#: The 4-byte big-endian length before every framed field (and the CRC).
_LENGTH = struct.Struct(">I")
_BYTES_TAG = ord("B")

#: The type tags of a block header's fields, in order
#: (:meth:`Block.header_bytes`), and of an item's: its signing preimage's
#: (:meth:`MetadataItem.signing_preimage`), then key, signature, placement.
_HEADER_TAGS = b"SISSSISISBSSS"
_ITEM_TAGS = b"SSSSSISSSI" b"SSS"
#: Position of the content root among the header fields.
_ROOT_FIELD = 9


def block_to_bytes(block: Block) -> bytes:
    """The stored form of ``block`` (layout in the module docstring)."""
    header = block.header_bytes()
    body = [_VERSION_BYTE, _LENGTH.pack(1 + len(header)), b"B", header]
    if block.metadata_items:
        body.append(
            hash_preimage(
                *(
                    field
                    for item in block.metadata_items
                    for field in (
                        item.signing_preimage(),
                        item.producer_public_key_hex,
                        item.signature_hex,
                        ",".join(map(str, item.storing_nodes)),
                    )
                )
            )
        )
    encoded = b"".join(body)
    return encoded + _LENGTH.pack(zlib.crc32(encoded))


def _split(data: bytes, what: str) -> List[bytes]:
    """The framed fields of ``data``, each with its type tag (an empty
    field fails every caller's tag check)."""
    fields: List[bytes] = []
    append, unpack = fields.append, _LENGTH.unpack_from
    at, end = 0, len(data)
    try:
        while at < end:
            (length,) = unpack(data, at)
            at += 4 + length
            append(data[at - length : at])
    except struct.error as error:
        raise ValidationError(f"{what} framing is cut short") from error
    if at != end:
        raise ValidationError(f"{what} framing overruns its {end} bytes")
    return fields


def _block_parts(data: Any) -> Tuple[bytes, List[bytes]]:
    """Check the version byte and CRC of stored block bytes; returns the
    header and the item fields (tags included, four per item)."""
    if type(data) is not bytes or len(data) < 10:
        raise ValidationError("stored block is not bytes, or too short to be one")
    if data[0] != BLOCK_CODEC_VERSION:
        raise ValidationError(
            f"unsupported block codec {data[0]}; this build reads {BLOCK_CODEC_VERSION}"
        )
    end = len(data) - 4
    if zlib.crc32(data[:end]) != _LENGTH.unpack_from(data, end)[0]:
        raise ValidationError("block bytes fail their CRC")
    # The first field is the header; the items, if any, follow it.
    (length,) = _LENGTH.unpack_from(data, 1)
    if not 0 < length <= end - 5 or data[5] != _BYTES_TAG:
        raise ValidationError("block bytes hold no header")
    items = _split(data[5 + length : end], "block items") if 5 + length < end else []
    if len(items) % 4:
        raise ValidationError("block bytes hold a partial item")
    return data[6 : 5 + length], items


def _content_root(items: List[bytes]) -> bytes:
    """Merkle root over the items' signing preimages (each still tagged)."""
    leaves = []
    for preimage in items[::4]:
        if preimage[:1] != b"B":
            raise ValidationError("an item's signing preimage is not a byte field")
        leaves.append(sha256(preimage[1:]))
    return merkle_root(leaves)


def verify_block_bytes(data: Any, index: int, block_hash: str) -> Tuple[str, float]:
    """Check stored block bytes without decoding the block: CRC, header
    hash, the header's index, and its content root against the items.

    Returns the previous hash and timestamp the header carries — what a
    walk along the chain links by.  What compaction runs on every row it
    moves, and the cold archive's integrity walk on every record; raises
    ValidationError.
    """
    header, items = _block_parts(data)
    if sha256_hex(header) != block_hash:
        raise ValidationError(f"block {index} bytes do not hash to {str(block_hash)[:12]}…")
    fields = _split(header, "block header")
    if (
        _tags(fields) != _HEADER_TAGS
        or _integer(fields[1]) != index
        or fields[_ROOT_FIELD][1:] != _content_root(items)
    ):
        raise ValidationError(f"block {index} bytes do not match their header")
    try:
        return fields[3][1:].decode("utf-8"), _real(fields[2])
    except UnicodeDecodeError as error:
        raise ValidationError(f"block {index} header is not UTF-8: {error}") from error


def _tags(fields: List[bytes]) -> bytes:
    """The type tags of ``fields``, to check them in one comparison."""
    try:
        return bytes([field[0] for field in fields])
    except IndexError:  # an empty field, which has no tag
        raise ValidationError("block bytes hold an empty field") from None


# Field decoders: each takes a field whose type tag was checked, and
# refuses any spelling but the one the encoder writes.


def _integer(field: bytes) -> int:
    value = int.from_bytes(field[2:], "big")
    if len(field) - 2 == ((value.bit_length() + 7) >> 3 or 1):
        sign = field[1:2]
        if sign == b"+":
            return value
        if sign == b"-" and value:
            return -value
    raise ValidationError("integer field is not minimally encoded")


def _real(field: bytes) -> float:
    text = field[1:].decode("utf-8")
    try:
        value = float(text)
    except ValueError as error:
        raise ValidationError(f"float field {text[:24]!r} does not parse") from error
    if repr(value) != text:
        raise ValidationError(f"float field {text[:24]!r} is not repr-exact")
    return value


def _nodes(field: bytes) -> Tuple[int, ...]:
    text = field[1:].decode("utf-8")
    if not text:
        return ()
    if text.isascii() and text.isdigit() and (text[0] != "0" or len(text) == 1):
        return (int(text),)  # one node, spelt canonically
    try:
        nodes = tuple(map(int, text.split(",")))
    except ValueError as error:
        raise ValidationError(f"node list {text[:24]!r} does not parse") from error
    if ",".join(map(str, nodes)) != text:
        raise ValidationError(f"node list {text[:24]!r} does not re-join exactly")
    return nodes


def _item_from_fields(
    tagged_preimage: bytes, key: bytes, signature: bytes, nodes: bytes
) -> MetadataItem:
    preimage = tagged_preimage[1:]  # the tag was checked with the content root
    fields = _split(preimage, "item preimage")
    if _tags(fields + [key, signature, nodes]) != _ITEM_TAGS or fields[0] != b"Smetadata":
        raise ValidationError("item has the wrong fields")
    item = MetadataItem(
        data_id=fields[1][1:].decode("utf-8"),
        data_type=fields[2][1:].decode("utf-8"),
        created_at=_real(fields[3]),
        location=fields[4][1:].decode("utf-8"),
        producer=_integer(fields[5]),
        producer_address=fields[6][1:].decode("utf-8"),
        producer_public_key_hex=key[1:].decode("utf-8"),
        signature_hex=signature[1:].decode("utf-8"),
        valid_time_minutes=_real(fields[7]),
        properties=fields[8][1:].decode("utf-8"),
        size_bytes=_integer(fields[9]),
        storing_nodes=_nodes(nodes),
    )
    object.__setattr__(item, "_preimage_memo", preimage)
    return item


def block_from_bytes(data: Any, expected_hash: Optional[str] = None) -> Block:
    """Decode stored block bytes; raises ValidationError unless they are
    the canonical encoding of the block returned.

    The block's hash is the SHA-256 of the header read — with
    ``expected_hash`` given, it must equal it — and the header's content
    root must equal the Merkle root of the items read.
    """
    header, items = _block_parts(data)
    block_hash = sha256_hex(header)
    if expected_hash is not None and block_hash != expected_hash:
        raise ValidationError(
            f"block bytes hash to {block_hash[:12]}…, expected {str(expected_hash)[:12]}…"
        )
    fields = _split(header, "block header")
    if _tags(fields) != _HEADER_TAGS or fields[0] != b"Sblock":
        raise ValidationError("block header has the wrong fields")
    if fields[_ROOT_FIELD][1:] != _content_root(items):
        raise ValidationError("block header's content root does not match its items")
    try:
        block = Block(
            index=_integer(fields[1]),
            timestamp=_real(fields[2]),
            previous_hash=fields[3][1:].decode("utf-8"),
            pos_hash=fields[4][1:].decode("utf-8"),
            miner=_integer(fields[5]),
            miner_address=fields[6][1:].decode("utf-8"),
            hit=_integer(fields[7]),
            target_b=_real(fields[8]),
            metadata_items=tuple(
                _item_from_fields(*items[at : at + 4]) for at in range(0, len(items), 4)
            )
            if items
            else (),
            storing_nodes=_nodes(fields[10]),
            previous_storing_nodes=_nodes(fields[11]),
            recent_cache_nodes=_nodes(fields[12]),
            current_hash=block_hash,
        )
    except ValueError as error:  # not UTF-8, or out of its domain (negative index, ...)
        raise ValidationError(f"malformed block: {error}") from error
    object.__setattr__(block, "_header_memo", header)
    object.__setattr__(block, "_hash_memo", block_hash)
    return block


def _require(mapping: Dict[str, Any], key: str) -> Any:
    if key not in mapping:
        raise ValidationError(f"serialised object is missing field {key!r}")
    return mapping[key]


def metadata_to_dict(item: MetadataItem) -> Dict[str, Any]:
    """Encode a metadata item as a JSON-safe dict."""
    return {
        "v": WIRE_FORMAT_VERSION,
        "data_id": item.data_id,
        "data_type": item.data_type,
        "created_at": item.created_at,
        "location": item.location,
        "producer": item.producer,
        "producer_address": item.producer_address,
        "producer_public_key": item.producer_public_key_hex,
        "signature": item.signature_hex,
        "valid_time_minutes": item.valid_time_minutes,
        "properties": item.properties,
        "size_bytes": item.size_bytes,
        "storing_nodes": list(item.storing_nodes),
    }


def metadata_from_dict(payload: Dict[str, Any]) -> MetadataItem:
    """Decode a metadata item; raises ValidationError on malformed input."""
    if _require(payload, "v") != WIRE_FORMAT_VERSION:
        raise ValidationError(
            f"unsupported metadata wire format {payload.get('v')!r}"
        )
    try:
        return MetadataItem(
            data_id=str(_require(payload, "data_id")),
            data_type=str(_require(payload, "data_type")),
            created_at=float(_require(payload, "created_at")),
            location=str(_require(payload, "location")),
            producer=int(_require(payload, "producer")),
            producer_address=str(_require(payload, "producer_address")),
            producer_public_key_hex=str(_require(payload, "producer_public_key")),
            signature_hex=str(_require(payload, "signature")),
            valid_time_minutes=float(_require(payload, "valid_time_minutes")),
            properties=str(payload.get("properties", "")),
            size_bytes=int(_require(payload, "size_bytes")),
            storing_nodes=tuple(int(n) for n in _require(payload, "storing_nodes")),
        )
    except (TypeError, ValueError) as error:
        raise ValidationError(f"malformed metadata item: {error}") from error


def block_to_dict(block: Block) -> Dict[str, Any]:
    """Encode a block as a JSON-safe dict (including its hash)."""
    return {
        "v": WIRE_FORMAT_VERSION,
        "index": block.index,
        "timestamp": block.timestamp,
        "previous_hash": block.previous_hash,
        "pos_hash": block.pos_hash,
        "miner": block.miner,
        "miner_address": block.miner_address,
        "hit": block.hit,
        "target_b": block.target_b,
        "metadata_items": [metadata_to_dict(item) for item in block.metadata_items],
        "storing_nodes": list(block.storing_nodes),
        "previous_storing_nodes": list(block.previous_storing_nodes),
        "recent_cache_nodes": list(block.recent_cache_nodes),
        "current_hash": block.current_hash,
    }


def block_from_dict(payload: Dict[str, Any], verify_hash: bool = True) -> Block:
    """Decode a block; optionally verify the embedded hash recomputes.

    ``verify_hash=True`` (the default) rejects any payload whose contents
    were altered in transit: the recomputed hash must equal the embedded
    one.
    """
    if _require(payload, "v") != WIRE_FORMAT_VERSION:
        raise ValidationError(f"unsupported block wire format {payload.get('v')!r}")
    try:
        block = Block(
            index=int(_require(payload, "index")),
            timestamp=float(_require(payload, "timestamp")),
            previous_hash=str(_require(payload, "previous_hash")),
            pos_hash=str(_require(payload, "pos_hash")),
            miner=int(_require(payload, "miner")),
            miner_address=str(_require(payload, "miner_address")),
            hit=int(_require(payload, "hit")),
            target_b=float(_require(payload, "target_b")),
            metadata_items=tuple(
                metadata_from_dict(item)
                for item in _require(payload, "metadata_items")
            ),
            storing_nodes=tuple(int(n) for n in _require(payload, "storing_nodes")),
            previous_storing_nodes=tuple(
                int(n) for n in _require(payload, "previous_storing_nodes")
            ),
            recent_cache_nodes=tuple(
                int(n) for n in _require(payload, "recent_cache_nodes")
            ),
            current_hash=str(_require(payload, "current_hash")),
        )
    except (TypeError, ValueError) as error:
        raise ValidationError(f"malformed block: {error}") from error
    if verify_hash and not block.hash_is_valid():
        raise ValidationError(
            f"block {block.index} hash does not match its contents"
        )
    return block

