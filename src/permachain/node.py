"""State and behaviour every node shares, whatever its protocol.

Each network message class names the handler method that consumes it (see
messages.py); a node class that lacks that method counts the body under
``unhandled_<Kind>`` in its stats and otherwise ignores it. The network calls
`receive(sender, body)` once per delivery, after it has recorded a transaction
or block delivery. Every class takes (node_id, byz, world).

`_accept` is the one in-order block path: a valid block above the next height
is held in `_ahead` until the blocks below it have been appended.
"""

from __future__ import annotations

from . import messages as m
from .faults import ByzantineType
from .ledger import Block, Chain
from .workload import TransactionPool


class Node:
    view = 0  # only pbft replicas change views

    def __init__(self, node_id: int, byz: ByzantineType, world):
        self.id = node_id
        self.byz = byz
        self.world = world
        self.chain = Chain(node_id)
        self.pool = TransactionPool()
        self.committed_txids: set[int] = set()
        self.stats: dict[str, int] = {}
        self._ahead: dict[int, Block] = {}  # height -> accepted block waiting for its parent

    @property
    def next_height(self) -> int:
        return self.chain.height + 1

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1

    def start_day(self) -> None:
        """Called on every authority as a day begins, before block production."""

    def receive(self, sender: int, body) -> None:
        handler = getattr(self, body.handler, None)
        if handler is None:
            self._count("unhandled_" + m.kind_of(body))
        else:
            handler(sender, body)

    def on_gossip(self, sender: int, msg: m.TxGossip) -> None:
        if msg.tx.tx_id not in self.committed_txids:
            self.pool.add(msg.tx)

    def _accept(self, block: Block) -> None:
        """Append `block` once it follows the tip, then every held block that follows it."""
        if block.height <= self.chain.height:
            return
        self._ahead[block.height] = block
        while self.next_height in self._ahead:
            self._append(self._ahead.pop(self.next_height))

    def _append(self, block: Block) -> None:
        self.chain.append(block)
        ids = [tx.tx_id for tx in block.txs]
        self.committed_txids.update(ids)
        self.pool.discard(ids)
        self.world.recorder.on_append(self.id, block, self.view)
        self.world._on_block_appended(self.id, block)
