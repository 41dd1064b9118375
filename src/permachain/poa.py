"""Round-robin authority consensus and its lottery-elected variant.

Authorities take turns broadcasting new blocks; every other node accepts a
valid, in-order block without any further communication, so consensus costs
exactly one message per recipient per block. Fault behaviors are ignored
under these protocols (the model assumes no faulty nodes: every `PoaNode` is
honest), which keeps every chain in the network digest-identical.

The lottery variant differs only in leader selection: each round, every
authority draws an exponential waiting time of rate `poet_rate` from its own
stream, by `Distribution.sample_ms`, and the lowest draw proposes the next
block after that wait.
"""

from __future__ import annotations

from collections import Counter

from .distributions import Distribution
from . import messages as m
from .engine import COORDINATOR
from .faults import ByzantineType
from .ledger import Block, compute_digest, make_block
from .node import Node, primary_of


def poet_elect(authorities: list[int], wait: Distribution, streams):
    """One lottery round: each authority draws `wait` (at least 1 ms) from its own
    stream, and the lowest draw wins, ties to lowest id. Returns (leader, wait_ms)."""
    wait_ms, leader = min((max(1, wait.sample_ms(streams.stream(node, "poet-draw"))), node)
                          for node in authorities)
    return leader, wait_ms


class Lottery:
    """A world's poet rounds, each run by a call: the first as each day's kickoff,
    the next once every authority has appended this round's block that day."""

    def __init__(self, world):
        self.world = world
        self.wait = Distribution("exponential", {"rate": world.config.poet_rate})
        self._holders: Counter = Counter()  # height -> authorities that appended it

    def __call__(self) -> None:  # the winner proposes once its waiting time has passed
        world = self.world
        leader, wait = poet_elect(world.authorities, self.wait, world.streams)
        world.engine.schedule(wait, COORDINATOR, world.nodes[leader].propose_lottery)

    def appended(self, block: Block) -> None:
        if self.world.day_active:
            self._holders[block.height] += 1
            if self._holders[block.height] == len(self.world.authorities):
                self.world.engine.schedule(0, COORDINATOR, self)


class PoaNode(Node):
    """A node under round-robin or lottery consensus (any authority flag)."""

    def __init__(self, node_id: int, byz: ByzantineType, world):
        super().__init__(node_id, ByzantineType.HONEST, world)

    def maybe_propose(self) -> None:
        """Block-interval tick (authorities only): propose iff the rotation points at me."""
        if primary_of(self.chain.height, self.world.authorities) == self.id:
            self._propose()

    def propose_lottery(self) -> None:
        """Lottery winner's proposal; rotation order does not apply."""
        self._propose()

    def _propose(self) -> None:
        txs = self.pool.take_batch(self.world.config.block_capacity)
        block = make_block(self.next_height, 0, self.id, self.chain.tip.digest, txs,
                           self.world.engine.now)
        self._append(block)
        self.world.network.broadcast(self.id, m.BlockMsg(block))

    def on_block(self, sender: int, msg: m.BlockMsg) -> None:
        block = msg.block
        if compute_digest(block) != block.digest:
            self.stats["block_invalid_digest"] += 1
            return
        self._accept(block)  # latency can reorder broadcasts


class PoetAuthority(PoaNode):
    """A lottery authority: tells the world's lottery (its kickoff) of each append."""

    def _append(self, block: Block) -> None:
        super()._append(block)
        self.world.kickoff.appended(block)
