"""Protocol message bodies.

The network hands a body to each recipient's ``receive(sender, body)`` as it
is (see network.py), so one body object is shared by every member of a
delivery group and nothing writes to it. Each body class carries what the
rest of the simulator needs to know about it:
  * ``delay_kind``: which processing-delay distribution a receiver applies;
  * ``handler``: the node method that consumes it (see node.py);
  * ``corrupted()``: the copy an active tamperer sends, built by the class's
    constructor with its carried digest flipped by bitwise NOT (an
    involution), so every honest verifier rejects it. A body that carries a
    block flips that block's digest, and a body without a digest returns
    itself.

Bodies are plain slotted classes, immutable by convention. Two bodies are
equal when they have the same class and equal fields.

A body that carries a block is a `_BlockBody` (block) and does not copy the
block's height or digest: a receiver reads them from the block. `Prepare` and
`Commit` are each a `_Vote` (view, height, digest) that adds only its handler.
A `Lock` (view, block) is a prepared certificate: a replica holds one per
height, and its `ViewChange` carries that same object to the new primary.
"""

from __future__ import annotations

from .ledger import (BLOCK, CONSENSUS_MESSAGE, DIGEST_MASK, TRANSACTION, Block,
                     Transaction, value_eq)


def _flip(digest: int) -> int:
    return ~digest & DIGEST_MASK


def _flip_block(block: Block) -> Block:
    """A copy of `block` carrying the flipped digest; it starts without the digest memo."""
    return Block(block.height, block.view, block.proposer, block.parent_digest, block.txs,
                 block.proposed_at, _flip(block.digest))


# --- network message bodies -------------------------------------------------

class _Body:
    """Defaults for a network body: consensus-message delay, no digest to corrupt."""
    __slots__ = ()
    delay_kind = CONSENSUS_MESSAGE

    def corrupted(self):
        return self

    __eq__ = value_eq


class _BlockBody(_Body):
    """A body whose `block` slot carries the digest to corrupt. Its constructor
    takes the block alone; a subclass that takes more has its own `corrupted`."""
    __slots__ = ("block",)

    def __init__(self, block: Block):
        self.block = block

    def corrupted(self):
        return type(self)(_flip_block(self.block))


class TxGossip(_Body):
    __slots__ = ("tx",)
    delay_kind = TRANSACTION
    handler = "on_gossip"

    def __init__(self, tx: Transaction):
        self.tx = tx


class BlockMsg(_BlockBody):
    """Single-round block broadcast (round-robin / lottery protocols)."""
    __slots__ = ()
    delay_kind = BLOCK
    handler = "on_block"


class PrePrepare(_BlockBody):
    __slots__ = ("view",)  # the block's height is the sequence number it orders
    handler = "on_preprepare"

    def __init__(self, view: int, block: Block):
        self.view = view
        self.block = block

    def corrupted(self):
        return PrePrepare(self.view, _flip_block(self.block))


class _Vote(_Body):
    """One replica's vote for `digest` at (view, height); a subclass adds its handler."""
    __slots__ = ("view", "height", "digest")

    def __init__(self, view: int, height: int, digest: int):
        self.view = view
        self.height = height
        self.digest = digest

    def corrupted(self):
        return type(self)(self.view, self.height, _flip(self.digest))


class Prepare(_Vote):
    __slots__ = ()
    handler = "on_prepare"


class Commit(_Vote):
    __slots__ = ()
    handler = "on_commit"


class Lock:
    __slots__ = ("view", "block")

    def __init__(self, view: int, block: Block):
        self.view = view
        self.block = block


class ViewChange(_Body):
    __slots__ = ("proposed_view", "next_height", "lock")
    handler = "on_viewchange"

    def __init__(self, proposed_view: int, next_height: int, lock: Lock | None = None):
        self.proposed_view = proposed_view
        self.next_height = next_height  # sender's chain tip + 1, used by the new primary
        self.lock = lock  # the sender's lock for next_height, if it holds one

    def corrupted(self):
        if self.lock is None:
            return self
        # the vote itself stays legible; only the carried certificate is junked
        return ViewChange(self.proposed_view, self.next_height,
                          Lock(self.lock.view, _flip_block(self.lock.block)))


class NewView(_Body):
    __slots__ = ("view",)
    handler = "on_newview"

    def __init__(self, view: int):
        self.view = view


class BlockAnnounce(_BlockBody):
    __slots__ = ()
    delay_kind = BLOCK
    handler = "on_announce"


def kind_of(body) -> str:
    """Message kind name used in counters and reports."""
    return type(body).__name__
