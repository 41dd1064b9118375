"""Transactions, blocks, digests, and per-node chains.

Cryptography is replaced by a deterministic 64-bit digest over a canonical
serialization, plus statistical validation delays. Only *detectability* of
tampering matters here, not forgery resistance, so the digest is the first
8 bytes of an unkeyed BLAKE2b, read little-endian.

Canonical serialization (bit-exact, documented in the README):
  u64le(x)    8 bytes, little-endian, unsigned
  str(s)      u32le(len(utf8)) + utf8 bytes
  tx          u64(tx_id) u64(origin) str(payload) u64(created_at) u64(day)
  block       u64(height) u64(view) u64(proposer) u64(parent_digest)
              u64(proposed_at) u32le(len(txs)) + each tx
  digest      u64le read of blake2b(block bytes, digest_size=8)
"""

from __future__ import annotations

import hashlib
import struct

from .distributions import Distribution, constant
from .errors import ConfigError, DigestInvalid, HeightGap, ParentMismatch

DIGEST_MASK = 0xFFFFFFFFFFFFFFFF
GENESIS_PARENT = 0


def hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def _u64(x: int) -> bytes:
    return struct.pack("<Q", x & DIGEST_MASK)


def _s(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def value_eq(self, other) -> bool:
    """`__eq__` of a slotted value: same class and equal public slots (memos are private)."""
    return type(other) is type(self) and all(
        getattr(other, name) == getattr(self, name) for cls in type(self).__mro__
        for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_"))


class Transaction:
    """An immutable value by convention: its serialization is memoized on first use."""

    __slots__ = ("tx_id", "origin", "payload", "created_at", "day", "_ser")

    def __init__(self, tx_id: int, origin: int, payload: str, created_at: int, day: int):
        self.tx_id = tx_id
        self.origin = origin
        self.payload = payload
        self.created_at = created_at
        self.day = day
        self._ser = None

    __eq__ = value_eq

    def serialize(self) -> bytes:
        cached = self._ser
        if cached is None:  # hot path: each block that carries the transaction reads it
            cached = self._ser = (
                _u64(self.tx_id)
                + _u64(self.origin)
                + _s(self.payload)
                + _u64(self.created_at)
                + _u64(self.day)
            )
        return cached


class Block:
    """An immutable value by convention; `compute_digest` memoizes its digest on it."""

    __slots__ = ("height", "view", "proposer", "parent_digest", "txs", "proposed_at",
                 "digest", "_computed_digest")

    def __init__(self, height: int, view: int, proposer: int, parent_digest: int,
                 txs: tuple[Transaction, ...], proposed_at: int, digest: int = 0):
        self.height = height
        self.view = view
        self.proposer = proposer
        self.parent_digest = parent_digest
        self.txs = txs
        self.proposed_at = proposed_at
        self.digest = digest
        self._computed_digest = None

    __eq__ = value_eq

    def serialize_for_digest(self) -> bytes:
        parts = [
            _u64(self.height),
            _u64(self.view),
            _u64(self.proposer),
            _u64(self.parent_digest),
            _u64(self.proposed_at),
            struct.pack("<I", len(self.txs)),
        ]
        parts.extend(tx.serialize() for tx in self.txs)
        return b"".join(parts)

    @property
    def is_empty(self) -> bool:
        return not self.txs


def compute_digest(block: Block) -> int:
    """Deterministic digest over every block field except the digest itself.

    Memoized on the block object, which nothing alters once it is built. A
    copy built with `Block(...)` starts without the memo, so a tampered or
    moved copy is hashed afresh.
    """
    cached = block._computed_digest
    if cached is None:
        cached = block._computed_digest = hash64(block.serialize_for_digest())
    return cached


def make_block(height: int, view: int, proposer: int, parent_digest: int,
               txs: tuple[Transaction, ...], proposed_at: int) -> Block:
    block = Block(height, view, proposer, parent_digest, txs, proposed_at)
    # the digest field is not serialized, so setting it keeps the memo valid
    block.digest = compute_digest(block)
    return block


def genesis_block() -> Block:
    return make_block(0, 0, 0, GENESIS_PARENT, (), 0)


def digest_hex(d: int) -> str:
    return f"{d:016x}"


class Chain:
    """Digest-linked, height-consecutive block list starting at genesis."""

    def __init__(self, owner: int):
        self.owner = owner
        self.blocks: list[Block] = [genesis_block()]
        self.height = 0  # the tip's height, kept by `append`

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def __len__(self) -> int:
        return len(self.blocks)

    def append(self, block: Block) -> None:
        """Extend by one block; raises a distinguishable error per violated rule."""
        tip = self.tip
        if block.height != tip.height + 1:
            raise HeightGap(
                f"node {self.owner}: got height {block.height}, tip is {tip.height}"
            )
        if block.parent_digest != tip.digest:
            raise ParentMismatch(
                f"node {self.owner}: parent digest {digest_hex(block.parent_digest)} "
                f"!= tip digest {digest_hex(tip.digest)}"
            )
        if block.digest != compute_digest(block):
            raise DigestInvalid(
                f"node {self.owner}: block at height {block.height} carries a tampered digest"
            )
        self.blocks.append(block)
        self.height = block.height

    def digests_beyond_genesis(self) -> list[int]:
        return [b.digest for b in self.blocks[1:]]


# Delay kinds, per message category.
TRANSACTION = "transaction"
BLOCK = "block"
CONSENSUS_MESSAGE = "consensus-message"

# Processing-delay preset named for the Hyperledger-Fabric-derived statistics
# it is meant to hold. The values below are placeholders; calibrated studies
# must override them with measured data.
HYPERLEDGER_FABRIC_PRESET = {
    TRANSACTION: {"kind": "normal", "mean": 2.0, "std": 0.5},
    BLOCK: {"kind": "normal", "mean": 5.0, "std": 1.0},
    CONSENSUS_MESSAGE: {"kind": "normal", "mean": 1.0, "std": 0.25},
    "default": {"kind": "constant", "ms": 1},
}

DELAY_PRESETS = {"hyperledger-fabric": HYPERLEDGER_FABRIC_PRESET}


class ValidationDelays:
    """Per-kind processing delay distributions with a global default."""

    def __init__(self, per_kind: dict, default: Distribution | None = None):
        self.per_kind = per_kind
        self.default = default

    @classmethod
    def from_config(cls, spec: dict | None) -> "ValidationDelays":
        if spec is None:
            return cls(per_kind={}, default=constant(1))
        if not isinstance(spec, dict):
            raise ConfigError(f"processing_delay must be an object, got {spec!r}")
        if "preset" in spec:
            name = spec["preset"]
            if not isinstance(name, str) or name not in DELAY_PRESETS:
                raise ConfigError(f"unknown processing-delay preset {name!r}")
            extra = sorted(set(spec) - {"preset"})
            if extra:  # a preset is used whole; its placeholders cannot be patched
                raise ConfigError(f"processing_delay takes no keys beside 'preset', got {extra}")
            spec = DELAY_PRESETS[name]
        per_kind = {}
        default = None
        for key, sub in spec.items():
            dist = Distribution.from_dict(sub)
            if key == "default":
                default = dist
            elif key in (TRANSACTION, BLOCK, CONSENSUS_MESSAGE):
                per_kind[key] = dist
            else:
                raise ConfigError(f"unknown processing-delay kind {key!r}")
        return cls(per_kind=per_kind, default=default)

    def model_for(self, kind: str) -> Distribution:
        dist = self.per_kind.get(kind, self.default)
        if dist is None:
            raise ConfigError(f"no processing-delay distribution for kind {kind!r} and no default")
        return dist

    def to_dict(self) -> dict:
        out = {k: d.to_dict() for k, d in sorted(self.per_kind.items())}
        if self.default is not None:
            out["default"] = self.default.to_dict()
        return out
