"""State and behaviour every node shares, whatever its protocol.

Each network message class names the handler method that consumes it (see
messages.py), and every node class has the handlers of the bodies its
protocol sends it. The network calls `receive(sender, bodies)` once per
member of a delivery group, after it has recorded the group's transaction or
block deliveries; `bodies` is a list of bodies of one class (more than one
only for an injection batch of ``TxGossip``), and `receive` resolves their
handler once: `on_gossip` takes the whole list, and any other handler is
called once per body, in order. Every class takes (node_id, byz, world).

`_accept` is the one in-order block path: a valid block above the next height
is held in `_ahead` until the blocks below it have been appended.
"""

from __future__ import annotations

from collections import Counter

from . import messages as m
from .faults import ByzantineType
from .ledger import Block, Chain
from .workload import TransactionPool


def primary_of(turn: int, authorities: list[int]) -> int:
    """Round-robin: a pbft view's primary, or poa's proposer above chain height `turn`."""
    return authorities[turn % len(authorities)]


class Node:
    """What every node holds; `stats` is a `Counter` of its rejections by reason."""

    view = 0  # only pbft replicas change views

    def __init__(self, node_id: int, byz: ByzantineType, world):
        self.id = node_id
        self.byz = byz
        self.world = world
        self.chain = Chain(node_id)
        self.pool = TransactionPool()
        self.committed_txids: set[int] = set()
        self.stats: Counter = Counter()
        self._ahead: dict[int, Block] = {}  # height -> accepted block waiting for its parent

    @property
    def next_height(self) -> int:
        return self.chain.height + 1

    def start_day(self) -> None:
        """Called on every authority as a day begins, before block production."""

    def receive(self, sender: int, bodies: list) -> None:
        name = bodies[0].handler
        handler = getattr(self, name)
        if name == "on_gossip":
            handler(sender, bodies)
        else:
            for body in bodies:
                handler(sender, body)

    def on_gossip(self, sender: int, batch: list[m.TxGossip]) -> None:
        """Pool each gossiped transaction not yet committed, keeping the first copy."""
        committed, pool = self.committed_txids, self.pool
        for msg in batch:
            tx = msg.tx
            if tx.tx_id not in committed:
                pool.setdefault(tx.tx_id, tx)

    def _accept(self, block: Block) -> None:
        """Append `block` once it follows the tip, then every held block that follows it."""
        if block.height <= self.chain.height:
            return
        self._ahead[block.height] = block
        while self.next_height in self._ahead:
            self._append(self._ahead.pop(self.next_height))

    def _append(self, block: Block) -> None:
        self.chain.append(block)
        if block.txs:
            ids = block.tx_ids()
            self.committed_txids.update(ids)
            self.pool.discard(ids)
        self.world.recorder.on_append(self.id, block, self.view)
        self.world._on_block_appended(self.id, block)
