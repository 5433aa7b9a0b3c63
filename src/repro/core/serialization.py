"""Canonical JSON serialisation of chain objects.

A real deployment ships blocks and metadata between devices as bytes; this
module defines that wire format: plain-JSON dictionaries with stable field
names, round-tripping exactly (hashes recompute identically after a
decode, so a deserialised block still validates).

* :func:`metadata_to_dict` / :func:`metadata_from_dict`
* :func:`block_to_dict` / :func:`block_from_dict`
* :func:`chain_to_json` / :func:`chain_from_json` — whole-chain transfer
  (the ChainResponse payload of Section IV-D's new-node sync).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Sequence

from repro.core.block import Block
from repro.core.errors import SerializationError, ValidationError
from repro.core.metadata import MetadataItem

#: Format tag embedded in every serialised object, bumped on breaking
#: changes so peers can reject incompatible encodings.
WIRE_FORMAT_VERSION = 1


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


def chain_to_json(blocks: Sequence[Block]) -> str:
    """Serialise a whole chain to a JSON string."""
    return json.dumps(
        {"v": WIRE_FORMAT_VERSION, "blocks": [block_to_dict(b) for b in blocks]},
        sort_keys=True,
    )


#: Ceiling on a serialised chain accepted by :func:`chain_from_json`.
#: A 500-minute paper run serialises to well under 10 MB; an input past
#: this is hostile or corrupt, and rejecting it up front keeps a peer
#: from making us parse an arbitrarily large document.
MAX_CHAIN_JSON_BYTES = 64 * 1024 * 1024

#: Ceiling on JSON nesting depth.  Honest chain documents nest ~6 deep
#: (chain → block → metadata → storing nodes); deeply nested input only
#: exists to exhaust the parser's recursion.
MAX_CHAIN_JSON_DEPTH = 32


def _check_depth(value: Any, limit: int, depth: int = 0) -> None:
    if depth > limit:
        raise SerializationError(
            f"chain payload nests deeper than {limit} levels"
        )
    if isinstance(value, dict):
        for item in value.values():
            _check_depth(item, limit, depth + 1)
    elif isinstance(value, list):
        for item in value:
            _check_depth(item, limit, depth + 1)


def chain_from_json(text: str, verify_hashes: bool = True) -> List[Block]:
    """Deserialise a chain, checking linkage between consecutive blocks.

    Structural defences run before content validation: payloads larger
    than :data:`MAX_CHAIN_JSON_BYTES` or nested deeper than
    :data:`MAX_CHAIN_JSON_DEPTH` raise :class:`SerializationError`
    (a :class:`ValidationError`, so existing handlers already catch it).
    """
    if len(text) > MAX_CHAIN_JSON_BYTES:
        raise SerializationError(
            f"chain payload of {len(text)} bytes exceeds the "
            f"{MAX_CHAIN_JSON_BYTES}-byte limit"
        )
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ValidationError(f"chain payload is not valid JSON: {error}") from error
    except RecursionError as error:
        raise SerializationError(
            "chain payload nests too deeply to parse"
        ) from error
    _check_depth(payload, MAX_CHAIN_JSON_DEPTH)
    if not isinstance(payload, dict) or _require(payload, "v") != WIRE_FORMAT_VERSION:
        raise ValidationError("unsupported chain wire format")
    blocks = [
        block_from_dict(entry, verify_hash=verify_hashes)
        for entry in _require(payload, "blocks")
    ]
    for parent, child in zip(blocks, blocks[1:]):
        if not child.links_to(parent):
            raise ValidationError(
                f"serialised chain breaks at block {child.index}"
            )
    return blocks

