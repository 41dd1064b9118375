"""Protocol message bodies.

The network hands a body to each recipient's ``receive(sender, body)`` as it
is (see network.py). Each body class carries what the rest of the simulator
needs to know about it:
  * ``delay_kind``: which processing-delay distribution a receiver applies;
  * ``handler``: the node method that consumes it (see node.py);
  * ``corrupted()``: the copy an active tamperer sends, with its carried
    digest flipped by bitwise NOT (an involution), so every honest verifier
    rejects it. A body that carries a block flips that block's digest, and a
    body without a digest returns itself.

A body that carries a block does not copy the block's height or digest: a
receiver reads them from the block. `Prepare` and `Commit` are each a `_Vote`
(view, height, digest) that adds only its handler. A `Lock` (view, block) is
a prepared certificate: a replica holds one per height, and its `ViewChange`
carries that same object to the new primary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .ledger import (BLOCK, CONSENSUS_MESSAGE, DIGEST_MASK, TRANSACTION, Block,
                     Transaction)


def _flip(digest: int) -> int:
    return ~digest & DIGEST_MASK


def _flip_block(block: Block) -> Block:
    return replace(block, digest=_flip(block.digest))


# --- network message bodies -------------------------------------------------

class _Body:
    """Defaults for a network body: consensus-message delay, no digest to corrupt."""
    delay_kind = CONSENSUS_MESSAGE

    def corrupted(self):
        return self


class _BlockBody(_Body):
    """A body whose `block` field carries the digest to corrupt."""

    def corrupted(self):
        return replace(self, block=_flip_block(self.block))


@dataclass(frozen=True)
class TxGossip(_Body):
    tx: Transaction
    delay_kind = TRANSACTION
    handler = "on_gossip"


@dataclass(frozen=True)
class BlockMsg(_BlockBody):
    """Single-round block broadcast (round-robin / lottery protocols)."""
    block: Block
    delay_kind = BLOCK
    handler = "on_block"


@dataclass(frozen=True)
class PrePrepare(_BlockBody):
    view: int
    block: Block  # its height is the sequence number this pre-prepare orders
    handler = "on_preprepare"


@dataclass(frozen=True)
class _Vote(_Body):
    """One replica's vote for `digest` at (view, height); a subclass adds its handler."""
    view: int
    height: int
    digest: int

    def corrupted(self):
        return replace(self, digest=_flip(self.digest))


class Prepare(_Vote):
    handler = "on_prepare"


class Commit(_Vote):
    handler = "on_commit"


@dataclass(frozen=True)
class Lock:
    view: int
    block: Block


@dataclass(frozen=True)
class ViewChange(_Body):
    proposed_view: int
    next_height: int  # sender's chain tip + 1, used by the new primary
    lock: Lock | None = None  # the sender's lock for next_height, if it holds one
    handler = "on_viewchange"

    def corrupted(self):
        if self.lock is None:
            return self
        # the vote itself stays legible; only the carried certificate is junked
        return replace(self, lock=replace(self.lock, block=_flip_block(self.lock.block)))


@dataclass(frozen=True)
class NewView(_Body):
    view: int
    handler = "on_newview"


@dataclass(frozen=True)
class BlockAnnounce(_BlockBody):
    block: Block
    delay_kind = BLOCK
    handler = "on_announce"


def kind_of(body) -> str:
    """Message kind name used in counters and reports."""
    return type(body).__name__
