"""Metadata items — the block payload.

Blocks store metadata *about* data items instead of the (large) data itself
(Section III-B).  A metadata item carries the attributes from the paper's
examples — data type, creation time, location, producer (with signature),
storing nodes, valid time, free-form properties — and the producer's ECDSA
signature binding them together, so any consumer can verify the data it
later fetches from a storing node.

The storing-node list is *not* signed: the producer signs the content
description, and the miner fills in the placement when it packs the item
into a block (Section IV-B).  :meth:`MetadataItem.with_storing_nodes`
produces that miner-side copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Tuple

from repro.core.account import Account
from repro.core.config import DATA_ITEM_BYTES
from repro.crypto.hashing import hash_items, hash_preimage, sha256
from repro.crypto.keys import PublicKey
from repro.crypto.signature import Signature, verify

#: Serialized overhead of one metadata item on the wire: attribute text
#: (~150 B), compressed public key (33 B), signature (64 B), framing.
METADATA_WIRE_BYTES = 300


@dataclass(frozen=True)
class MetadataItem:
    """A signed descriptor of one data item.

    Attributes mirror the paper's examples, e.g.::

        (AirQuality/PM2.5; 11:00AM 06-11-2018; NewYork,NY/40.72,-74.00;
         17,[signature]; 10,11,12,15; 1440; NULL)
    """

    data_id: str  # unique id (hash of producer + sequence)
    data_type: str  # e.g. "AirQuality/PM2.5"
    created_at: float  # simulation timestamp, seconds
    location: str  # e.g. "NewYork,NY/40.72,-74.00"
    producer: int  # producer node id
    producer_address: str
    producer_public_key_hex: str
    signature_hex: str
    valid_time_minutes: float  # lifetime of the data item
    properties: str = ""  # free-form extras ("Camera", a key, ...)
    size_bytes: int = DATA_ITEM_BYTES
    #: Filled in by the miner when packed into a block (Section IV-B).
    storing_nodes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Written so that NaN fails too: it compares false with everything.
        if not (self.valid_time_minutes > 0):
            raise ValueError("valid time must be positive")
        if self.size_bytes <= 0:
            raise ValueError("data size must be positive")
        if not (self.created_at >= 0):
            raise ValueError("creation time cannot be negative")

    # -- signing ------------------------------------------------------------------

    def signing_preimage(self) -> bytes:
        """The framed fields the producer signs (placement excluded — see
        module doc); a stored item carries exactly these bytes.  Memoised
        on the instance, never pickled (see ``Block.compute_hash``)."""
        memo = self.__dict__.get("_preimage_memo")
        if memo is None:
            memo = hash_preimage(
                "metadata",
                self.data_id,
                self.data_type,
                str(self.created_at),
                self.location,
                self.producer,
                self.producer_address,
                str(self.valid_time_minutes),
                self.properties,
                self.size_bytes,
            )
            object.__setattr__(self, "_preimage_memo", memo)
        return memo

    def signing_payload(self) -> bytes:
        """The digest the producer signs: SHA-256 of :meth:`signing_preimage`."""
        return sha256(self.signing_preimage())

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle/copy state: the declared fields only, never the memo."""
        state = dict(self.__dict__)
        state.pop("_preimage_memo", None)
        return state

    def verify_signature(self) -> bool:
        """Validate the producer signature with the embedded public key."""
        try:
            public_key = PublicKey.from_hex(self.producer_public_key_hex)
            signature = Signature.from_hex(self.signature_hex)
        except ValueError:
            return False
        return verify(public_key, self.signing_payload(), signature)

    # -- lifecycle -------------------------------------------------------------------

    @property
    def expires_at(self) -> float:
        """Simulation time at which the data item expires."""
        return self.created_at + self.valid_time_minutes * 60.0

    def is_expired(self, now: float) -> bool:
        return now >= self.expires_at

    def with_storing_nodes(self, storing_nodes: Tuple[int, ...]) -> "MetadataItem":
        """Miner-side copy with the placement decision recorded."""
        return replace(self, storing_nodes=tuple(sorted(set(storing_nodes))))

    def wire_size(self) -> int:
        """Approximate serialised size, including the storing-node list."""
        return METADATA_WIRE_BYTES + 4 * len(self.storing_nodes)


def data_id_for(account: Account, sequence: int) -> str:
    """The data id the producer's ``sequence``-th item will carry.

    Depends only on the account address and the per-producer counter —
    not on production time — so any party that knows the deterministic
    workload can precompute ids without running the producer (the live
    harness uses this to schedule requests ahead of production).
    """
    return hash_items("data", account.address, sequence).hex()[:32]


def create_metadata(
    account: Account,
    producer: int,
    sequence: int,
    created_at: float,
    data_type: str = "Sensor/Generic",
    location: str = "Field/0,0",
    valid_time_minutes: float = 1440.0,
    properties: str = "",
    size_bytes: int = DATA_ITEM_BYTES,
) -> MetadataItem:
    """Create and sign a metadata item for a freshly produced data item.

    ``sequence`` is the producer's local counter; the data id is the hash of
    (producer address, sequence), which is unique per producer.
    """
    data_id = data_id_for(account, sequence)
    unsigned = MetadataItem(
        data_id=data_id,
        data_type=data_type,
        created_at=created_at,
        location=location,
        producer=producer,
        producer_address=account.address,
        producer_public_key_hex=account.public_key.hex(),
        signature_hex="00" * 64,
        valid_time_minutes=valid_time_minutes,
        properties=properties,
        size_bytes=size_bytes,
    )
    signature = account.sign(unsigned.signing_payload())
    return replace(unsigned, signature_hex=signature.hex())
