"""Three-phase BFT replication among authorities with view changes.

Replicas run pre-prepare / prepare / commit with quorum 2f+1 where
f = floor((n-1)/3). The pre-prepare counts as the primary's prepare vote and
a replica's own votes count toward its quorums. Sequence number equals block
height and the primary keeps a single fresh instance in flight at a time.

Safety across views comes from prepare locks: a replica prepares at most one
digest per height per view, and abandons a lock only for a proposal in a
strictly higher view. View-change votes carry the sender's next height and
its current prepared lock (digest, view, block) so the new primary re-proposes
any block that may have committed instead of inventing a conflicting one.

Liveness glue for message-dropping faults:
  * a replica that sees f+1 view-change votes for higher views joins in,
    even if its own timer has not fired;
  * a new primary first replays its committed blocks from the lowest
    next-height in its view-change quorum, giving laggards the block bodies;
  * committed blocks are announced to every other node, and an authority
    appends from f+1 matching valid announcements (one of them is then
    guaranteed to come from a node that really committed the block).

Followers take no part in the three phases: they append a block once 2f+1
distinct authorities have announced matching digests, strictly in height
order, and otherwise fall behind.

Active tamperers self-count their own corrupted votes and append a block as
soon as their (self-deluded) prepare quorum is met, so they can build a short
private chain while honest replicas reject every message they send.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import messages as m
from .engine import COORDINATOR
from .faults import ByzantineType
from .ledger import Block, compute_digest, make_block
from .network import MessageEnvelope
from .node import Node


@dataclass(frozen=True)
class QuorumRule:
    n: int
    f: int
    quorum: int


def quorum_params(n: int) -> QuorumRule:
    """Fault tolerance and vote threshold for n authorities."""
    if n < 1:
        raise ValueError("need at least one authority")
    f = (n - 1) // 3
    return QuorumRule(n=n, f=f, quorum=2 * f + 1)


def primary_of(view: int, authorities: list[int]) -> int:
    if not authorities:
        raise ValueError("empty authority list")
    return authorities[view % len(authorities)]


@dataclass
class _Lock:
    digest: int
    view: int
    block: Block


@dataclass(slots=True)
class _Instance:
    """Per-(view, height) message log."""
    pp_digest: Optional[int] = None
    pp_block: Optional[Block] = None
    prepare_senders: dict = field(default_factory=dict)   # digest -> set of node ids
    commit_senders: dict = field(default_factory=dict)    # digest -> set of node ids
    prepare_sent: bool = False
    commit_sent: bool = False


class _AnnouncementReader(Node):
    """A pbft node that appends blocks announced by enough distinct authorities.

    Blocks are appended strictly in height order, each once
    `announce_threshold` authorities have announced the same valid digest for it.
    """

    def __init__(self, node_id: int, byz: ByzantineType, world):
        super().__init__(node_id, byz, world)
        self.rule = quorum_params(len(world.authorities))
        self.announce_threshold = self.rule.quorum  # a replica lowers it to f+1
        # height -> digest -> (distinct announcers, first block seen with that digest)
        self.announcements: dict[int, dict[int, tuple[set, Block]]] = {}
        self.committed_pending: dict[int, Block] = {}  # committed beyond the tip

    def on_announce(self, env: MessageEnvelope, msg: m.BlockAnnounce) -> None:
        if msg.block.digest != msg.digest or compute_digest(msg.block) != msg.digest:
            self._count("announce_invalid_digest")
            return
        per_digest = self.announcements.setdefault(msg.height, {})
        per_digest.setdefault(msg.digest, (set(), msg.block))[0].add(env.sender)
        self._drain()

    def _drain(self) -> None:
        """Append every block that can now follow the tip, pending or announced."""
        while True:
            while self.next_height in self.committed_pending:
                self._append(self.committed_pending.pop(self.next_height))
            announced = self.announcements.get(self.next_height, {}).values()
            block = next((b for senders, b in announced
                          if len(senders) >= self.announce_threshold), None)
            if block is None:
                return
            self._append(block)


class PbftReplica(_AnnouncementReader):
    """One authority's consensus state machine."""

    def __init__(self, node_id: int, byz: ByzantineType, world):
        super().__init__(node_id, byz, world)
        # f+1 matching valid announcements guarantee at least one announcer
        # that truly committed the block, so this is a safe state transfer.
        self.announce_threshold = self.rule.f + 1
        self.instances: dict[tuple[int, int], _Instance] = {}
        self.locks: dict[int, _Lock] = {}
        self.in_flight: Optional[int] = None
        # view-change bookkeeping
        self.vc_votes: dict[int, dict[int, tuple[int, Optional[_Lock]]]] = {}
        self.vc_attempts: dict[int, int] = {}
        self.my_top_vote = 0
        # timers
        self._timer_token = 0
        self._timer_height = 0

    # -- derived ---------------------------------------------------------

    def _instance(self, view: int, height: int) -> _Instance:
        inst = self.instances.get((view, height))
        if inst is None:
            inst = self.instances[(view, height)] = _Instance()
        return inst

    # -- timers ----------------------------------------------------------

    def start_day(self) -> None:
        self._arm_timer()

    def _arm_timer(self) -> None:
        if not self.world.day_active:
            return
        self._timer_token += 1
        self._timer_height = self.next_height
        attempts = self.vc_attempts.get(self.next_height, 0)
        grace = self.world.config.effective_pbft_timeout_ms * (2 ** min(attempts, 20))
        self.world.engine.schedule(
            self.world.config.block_interval_ms + grace, COORDINATOR,
            partial(self.on_timer, self._timer_token))

    def on_timer(self, token: int) -> None:
        if token != self._timer_token or not self.world.day_active:
            return
        if self.chain.height >= self._timer_height:
            return
        height = self._timer_height
        self.vc_attempts[height] = self.vc_attempts.get(height, 0) + 1
        self._send_viewchange(self.view + 1)
        self._arm_timer()

    # -- proposing -------------------------------------------------------

    def maybe_propose(self) -> None:
        """Block-interval tick: the primary proposes its next height."""
        if not self.world.day_active:
            return
        if primary_of(self.view, self.world.authorities) != self.id:
            return
        if self.in_flight is not None and self.chain.height < self.in_flight:
            return  # previous instance still unresolved
        self._propose(self.next_height)

    def _propose(self, height: int, block: Optional[Block] = None) -> None:
        if block is None:
            if height <= self.chain.height:
                block = self.chain.blocks[height]  # replay a committed block
            else:
                lock = self.locks.get(height)
                if lock is not None:
                    block = lock.block  # retry my earlier attempt, same digest
                else:
                    txs = self.pool.take_batch(self.world.config.block_capacity)
                    block = make_block(height, self.view, self.id,
                                       self.chain.tip.digest, txs,
                                       self.world.engine.now)
        inst = self._instance(self.view, height)
        inst.pp_digest = block.digest
        inst.pp_block = block
        inst.prepare_senders.setdefault(block.digest, set()).add(self.id)
        inst.prepare_sent = True  # the pre-prepare is the primary's prepare
        self.in_flight = height
        self.world.network.broadcast(
            self.id, m.PrePrepare(self.view, height, block),
            self.world.authorities)
        self._check_prepared(self.view, height, inst)

    # -- three phases ----------------------------------------------------

    def on_preprepare(self, env: MessageEnvelope, msg: m.PrePrepare) -> None:
        if msg.view > self.view and env.sender == primary_of(msg.view, self.world.authorities):
            self._adopt_view(msg.view)  # proof the network moved on without us
        if msg.view != self.view:
            self._count("preprepare_wrong_view")
            return
        if env.sender != primary_of(msg.view, self.world.authorities):
            self._count("preprepare_not_primary")
            return
        inst = self._instance(msg.view, msg.height)
        if inst.pp_digest is not None:
            if inst.pp_digest != msg.block.digest:
                self._count("preprepare_conflicting")
            return
        if compute_digest(msg.block) != msg.block.digest:
            self._count("preprepare_invalid_digest")
            return  # timer keeps running; tampering suspected
        inst.pp_digest = msg.block.digest
        inst.pp_block = msg.block
        inst.prepare_senders.setdefault(msg.block.digest, set()).add(env.sender)
        self._maybe_send_prepare(msg.view, msg.height, inst)
        self._check_prepared(msg.view, msg.height, inst)
        self._check_committed(msg.view, msg.height, inst)

    def _maybe_send_prepare(self, view: int, height: int, inst: _Instance) -> None:
        if inst.pp_digest is None or inst.prepare_sent:
            return
        digest = inst.pp_digest
        if height <= self.chain.height:
            # already committed here: re-affirm only the block we hold
            if self.chain.blocks[height].digest != digest:
                self._count("preprepare_conflicts_committed")
                return
        else:
            lock = self.locks.get(height)
            if lock is not None and lock.digest != digest and view <= lock.view:
                self._count("prepare_refused_locked")
                return
            self.locks[height] = _Lock(digest, view, inst.pp_block)
        inst.prepare_sent = True
        inst.prepare_senders.setdefault(digest, set()).add(self.id)
        self.world.network.broadcast(self.id, m.Prepare(view, height, digest),
                                     self.world.authorities)

    def on_prepare(self, env: MessageEnvelope, msg: m.Prepare) -> None:
        inst = self._instance(msg.view, msg.height)
        inst.prepare_senders.setdefault(msg.digest, set()).add(env.sender)
        self._check_prepared(msg.view, msg.height, inst)

    def _check_prepared(self, view: int, height: int, inst: _Instance) -> None:
        digest = inst.pp_digest
        if digest is None or inst.commit_sent or view != self.view:
            return
        if len(inst.prepare_senders.get(digest, ())) < self.rule.quorum:
            return
        inst.commit_sent = True
        inst.commit_senders.setdefault(digest, set()).add(self.id)
        self.world.network.broadcast(self.id, m.Commit(view, height, digest),
                                     self.world.authorities)
        if self.byz is ByzantineType.ACTIVE:
            # Self-deluded finalization: an active node believes its own
            # tampered votes, so its quorum is met one round early.
            self._try_append(inst.pp_block)
        self._check_committed(view, height, inst)

    def on_commit(self, env: MessageEnvelope, msg: m.Commit) -> None:
        inst = self._instance(msg.view, msg.height)
        inst.commit_senders.setdefault(msg.digest, set()).add(env.sender)
        self._check_committed(msg.view, msg.height, inst)

    def _check_committed(self, view: int, height: int, inst: _Instance) -> None:
        digest = inst.pp_digest
        if digest is None or inst.pp_block is None:
            return
        if len(inst.commit_senders.get(digest, ())) < self.rule.quorum:
            return
        if height <= self.chain.height:
            return  # late quorum for an already-committed height
        if height > self.next_height:
            self.committed_pending[height] = inst.pp_block
            return
        self._try_append(inst.pp_block)

    # -- appending and catch-up -------------------------------------------

    def _try_append(self, block: Optional[Block]) -> None:
        if block is None or block.height != self.next_height:
            return
        self._append(block)
        self._drain()

    def _append(self, block: Block) -> None:
        super()._append(block)
        self.vc_attempts.pop(block.height, None)
        self._arm_timer()
        self.world.network.broadcast(
            self.id, m.BlockAnnounce(block.height, block.digest, block), self.world.all_ids)

    # -- view changes ------------------------------------------------------

    def _send_viewchange(self, proposed: int) -> None:
        lock = self.locks.get(self.next_height)
        cert = (lock.digest, lock.view, lock.block) if lock is not None else (None, None, None)
        self.my_top_vote = max(self.my_top_vote, proposed)
        vote = m.ViewChange(proposed, self.next_height, *cert)
        self.vc_votes.setdefault(proposed, {})[self.id] = (self.next_height, lock)
        self.world.network.broadcast(self.id, vote, self.world.authorities)
        self._check_viewchange(proposed)

    def on_viewchange(self, env: MessageEnvelope, msg: m.ViewChange) -> None:
        if msg.proposed_view <= self.view:
            self._count("viewchange_stale")
            return
        lock = None
        if msg.cert_digest is not None and msg.cert_block is not None:
            valid = (msg.cert_block.digest == msg.cert_digest
                     and compute_digest(msg.cert_block) == msg.cert_digest)
            if valid:
                lock = _Lock(msg.cert_digest, msg.cert_view, msg.cert_block)
            else:
                self._count("viewchange_invalid_cert")
        self.vc_votes.setdefault(msg.proposed_view, {})[env.sender] = (msg.next_height, lock)
        # join a view change once f+1 peers demand one, even without a timeout
        if self.my_top_vote <= self.view:
            higher = sorted(v for v in self.vc_votes
                            if v > self.view and self.vc_votes[v])
            distinct = set()
            for v in higher:
                distinct.update(self.vc_votes[v])
            if len(distinct) >= self.rule.f + 1:
                self.vc_attempts[self.next_height] = self.vc_attempts.get(self.next_height, 0) + 1
                self._send_viewchange(higher[0])
        self._check_viewchange(msg.proposed_view)

    def _check_viewchange(self, proposed: int) -> None:
        if proposed <= self.view:
            return
        votes = self.vc_votes.get(proposed, {})
        if len(votes) < self.rule.quorum:
            return
        self._adopt_view(proposed, votes)

    def _adopt_view(self, new_view: int, votes: Optional[dict] = None) -> None:
        old = self.view
        self.view = new_view
        self.in_flight = None
        self.world.recorder.on_view_adopted(self.id, old, new_view, self.chain.height)
        self._arm_timer()
        if primary_of(new_view, self.world.authorities) != self.id:
            return
        self.world.network.broadcast(self.id, m.NewView(new_view),
                                     self.world.authorities)
        votes = votes or {}
        next_heights = [nh for nh, _lock in votes.values()] + [self.next_height]
        h_start = min(next_heights)
        # replay committed blocks the slowest voter is missing
        for h in range(h_start, self.next_height):
            self._propose(h)
        # re-propose the pending height from the strongest certificate, if any
        pending = self.next_height
        best: Optional[_Lock] = self.locks.get(pending)
        for nh, lock in votes.values():
            if nh == pending and lock is not None:
                if best is None or lock.view > best.view:
                    best = lock
        self._propose(pending, best.block if best is not None else None)

    def on_newview(self, env: MessageEnvelope, msg: m.NewView) -> None:
        if msg.view > self.view and env.sender == primary_of(msg.view, self.world.authorities):
            self._adopt_view(msg.view)


class PbftFollower(_AnnouncementReader):
    """Non-authority node: appends from 2f+1 matching announcements, in order."""
