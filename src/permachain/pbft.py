"""Three-phase BFT replication among authorities with view changes.

Replicas run pre-prepare / prepare / commit with quorum 2f+1 where
f = floor((n-1)/3). The pre-prepare counts as the primary's prepare vote and
a replica's own votes count toward its quorums. Sequence number equals block
height and the primary keeps a single fresh instance in flight at a time.
Each vote is held once: `prepares` and `commits` map (view, height, digest)
to its senders, and `preprepared` maps (view, height) to the proposed block.
The tallies are defaultdicts written only by votes; every read uses `.get`,
so a lookup never creates an entry. A commit or an announcement at a height
already appended is not tallied, as no check can act on it. A prepare always
is (a late one can still complete this replica's own commit, which lagging
replicas count), but is checked only once its tally reaches the quorum.

Safety across views comes from prepare locks. A replica prepares at most one
digest per (view, height), because `preprepared` takes one pre-prepare for
each. Its lock at a height is the `PrePrepare` it last prepared there, which
is PBFT's prepared certificate. Its view only grows, so each new lock comes
from a higher view. View-change votes carry the sender's next height and its
lock there, so the new primary re-proposes any block that may have committed
instead of inventing a conflicting one.

Liveness glue for message-dropping faults:
  * a replica that sees f+1 view-change votes for higher views joins in,
    even if its own timer has not fired;
  * a new primary first replays its committed blocks from the lowest
    next-height in its view-change quorum, giving laggards the block bodies;
  * committed blocks are announced to every other node, and an authority
    appends from f+1 matching valid announcements (one of them is then
    guaranteed to come from a node that really committed the block).

Followers take no part in the three phases: they append a block once 2f+1
distinct authorities have announced matching digests, and otherwise fall
behind. A committed or announced block above the next height waits in
`Node._accept`'s buffer, so every node appends strictly in height order.

Active tamperers self-count their own corrupted votes and append a block as
soon as their (self-deluded) prepare quorum is met, if it is the next height,
so they build a short private chain that honest replicas never accept. They
drop each later block whose parent is not their tip (`fork_ignored`); at an
honest node such a block raises `ParentMismatch`, the sign of a benign fork.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
from functools import partial
from operator import attrgetter

from . import messages as m
from .engine import COORDINATOR
from .faults import ByzantineType
from .ledger import Block, compute_digest, make_block
from .node import Node, primary_of


def quorum_params(n: int) -> tuple[int, int]:
    """Fault tolerance f and vote threshold 2f+1 for n authorities."""
    f = (n - 1) // 3
    return f, 2 * f + 1


class PbftFollower(Node):
    """A pbft node that accepts blocks announced by enough distinct authorities.

    A block is accepted once `announce_threshold` authorities have announced
    it with a valid digest: 2f+1 for a non-authority, which takes no part in
    the three phases.
    """

    def __init__(self, node_id: int, byz: ByzantineType, world):
        super().__init__(node_id, byz, world)
        self.f, self.quorum = quorum_params(len(world.authorities))
        self.announce_threshold = self.quorum  # a replica lowers it to f+1
        # (height, digest) -> announcers
        self.announcements: dict[tuple[int, int], set] = defaultdict(set)

    def on_announce(self, sender: int, msg: m.BlockAnnounce) -> None:
        block = msg.block
        if compute_digest(block) != block.digest:
            self.stats["announce_invalid_digest"] += 1
            return
        if block.height <= self.chain.height:
            return  # _accept would return at once: a tally at an appended height never acts
        senders = self.announcements[block.height, block.digest]
        senders.add(sender)
        if len(senders) == self.announce_threshold:
            self._accept(block)


class PbftReplica(PbftFollower):
    """One authority's consensus state machine."""

    def __init__(self, node_id: int, byz: ByzantineType, world):
        super().__init__(node_id, byz, world)
        # f+1 matching valid announcements guarantee at least one announcer
        # that truly committed the block, so this is a safe state transfer.
        self.announce_threshold = self.f + 1
        self.preprepared: dict[tuple[int, int], Block] = {}  # (view, height) -> block
        # (view, height, digest) -> senders; my id is in a commit tally once I sent it
        self.prepares: dict[tuple[int, int, int], set] = defaultdict(set)
        self.commits: dict[tuple[int, int, int], set] = defaultdict(set)
        self.locks: dict[int, m.PrePrepare] = {}  # height -> the pre-prepare I prepared
        # view-change bookkeeping: proposed view -> sender -> vote, with no invalid certificate
        self.vc_votes: dict[int, dict[int, m.ViewChange]] = defaultdict(dict)
        self.vc_attempts = 0  # views that failed at the next height
        self.my_top_vote = 0
        self._timer_token = 0  # only the latest armed timer may fire

    # -- timers ----------------------------------------------------------

    def start_day(self) -> None:
        self._arm_timer()

    def _arm_timer(self) -> None:
        if not self.world.day_active:
            return
        self._timer_token += 1
        grace = self.world.config.pbft_timeout_ms * (2 ** min(self.vc_attempts, 20))
        self.world.engine.schedule(
            self.world.config.block_interval_ms + grace, COORDINATOR,
            partial(self.on_timer, self._timer_token))

    def on_timer(self, token: int) -> None:
        # every append re-arms the timer, so a live token means no block yet
        if token != self._timer_token or not self.world.day_active:
            return
        self.vc_attempts += 1
        self._send_viewchange(self.view + 1)
        self._arm_timer()

    # -- proposing -------------------------------------------------------

    def maybe_propose(self) -> None:
        """Block-interval tick: the primary proposes its next height."""
        if primary_of(self.view, self.world.authorities) != self.id:
            return
        # my last proposal is unresolved iff one is stored at my next height: in a view I
        # lead only _propose stores one (on_preprepare takes only the primary's, and no
        # sender receives its own broadcast), and _adopt_view proposes on taking the lead
        if (self.view, self.next_height) in self.preprepared:
            return
        self._propose(self.next_height)

    def _propose(self, height: int, block: Block | None = None) -> None:
        if block is None and height in self.locks:
            block = self.locks[height].block  # retry my earlier attempt, same digest
        if block is None:
            txs = self.pool.take_batch(self.world.config.block_capacity)
            block = make_block(height, self.view, self.id, self.chain.tip.digest, txs,
                               self.world.engine.now)
        self.preprepared[self.view, height] = block
        # the pre-prepare is the primary's prepare
        self.prepares[self.view, height, block.digest].add(self.id)
        self.world.network.broadcast(self.id, m.PrePrepare(self.view, block))
        self._check_prepared(self.view, height)

    # -- three phases ----------------------------------------------------

    def on_preprepare(self, sender: int, msg: m.PrePrepare) -> None:
        self.on_newview(sender, msg)
        if msg.view != self.view:
            self.stats["preprepare_wrong_view"] += 1
            return
        if sender != primary_of(msg.view, self.world.authorities):
            self.stats["preprepare_not_primary"] += 1
            return
        block, view = msg.block, msg.view
        held = self.preprepared.get((view, block.height))
        if held is not None:
            if held.digest != block.digest:
                self.stats["preprepare_conflicting"] += 1
            return
        if compute_digest(block) != block.digest:
            self.stats["preprepare_invalid_digest"] += 1
            return  # timer keeps running; tampering suspected
        height, digest = block.height, block.digest
        self.preprepared[view, height] = block
        self.prepares[view, height, digest].add(sender)
        if height <= self.chain.height and self.chain.blocks[height].digest != digest:
            self.stats["preprepare_conflicts_committed"] += 1  # re-affirm only the block we hold
        else:
            if height > self.chain.height:
                self.locks[height] = msg
            self.prepares[view, height, digest].add(self.id)
            self.world.network.broadcast(self.id, m.Prepare(view, height, digest))
        self._check_prepared(view, height)
        self._check_committed(view, height)

    def on_prepare(self, sender: int, msg: m.Prepare) -> None:
        senders = self.prepares[msg.view, msg.height, msg.digest]
        senders.add(sender)
        # preprepared[v, h] is stored only while self.view == v and is checked then,
        # as is every later growth of its digest's tally; so a check can start to
        # pass only at a prepare whose tally has reached the quorum
        if len(senders) >= self.quorum:
            self._check_prepared(msg.view, msg.height)

    def _check_prepared(self, view: int, height: int) -> None:
        block = self.preprepared.get((view, height))
        if block is None or view != self.view:
            return
        key = (view, height, block.digest)
        if self.id in self.commits.get(key, ()):
            return  # my commit is already out
        if len(self.prepares.get(key, ())) < self.quorum:
            return
        self.commits[key].add(self.id)
        self.world.network.broadcast(self.id, m.Commit(*key))
        if self.byz is ByzantineType.ACTIVE and height == self.next_height:
            # Self-deluded finalization: an active node believes its own
            # tampered votes, so its quorum is met one round early.
            self._accept(block)
        self._check_committed(view, height)

    def on_commit(self, sender: int, msg: m.Commit) -> None:
        if msg.height <= self.chain.height:
            return  # as in on_announce; _check_prepared reads only my own id in a commit tally
        self.commits[msg.view, msg.height, msg.digest].add(sender)
        self._check_committed(msg.view, msg.height)

    def _check_committed(self, view: int, height: int) -> None:
        block = self.preprepared.get((view, height))
        if block is None:
            return
        if len(self.commits.get((view, height, block.digest), ())) >= self.quorum:
            self._accept(block)

    # -- appending and catch-up -------------------------------------------

    def _append(self, block: Block) -> None:
        if self.byz is ByzantineType.ACTIVE and block.parent_digest != self.chain.tip.digest:
            self.stats["fork_ignored"] += 1  # honest blocks do not extend my private fork
            return
        super()._append(block)
        self.vc_attempts = 0
        self._arm_timer()
        self.world.network.broadcast(self.id, m.BlockAnnounce(block))

    # -- view changes ------------------------------------------------------

    def _send_viewchange(self, proposed: int) -> None:
        self.my_top_vote = max(self.my_top_vote, proposed)
        vote = m.ViewChange(proposed, self.next_height, self.locks.get(self.next_height))
        self.vc_votes[proposed][self.id] = vote
        self.world.network.broadcast(self.id, vote)
        self._check_viewchange(proposed)

    def on_viewchange(self, sender: int, msg: m.ViewChange) -> None:
        if msg.proposed_view <= self.view:
            self.stats["viewchange_stale"] += 1
            return
        lock = msg.lock
        if lock is not None and compute_digest(lock.block) != lock.block.digest:
            self.stats["viewchange_invalid_cert"] += 1
            msg = m.ViewChange(msg.proposed_view, msg.next_height)  # an invalid cert is no lock
        self.vc_votes[msg.proposed_view][sender] = msg
        # join a view change once f+1 peers demand one, even without a timeout
        if self.my_top_vote <= self.view:
            higher = sorted(v for v in self.vc_votes if v > self.view)
            distinct = set().union(*(self.vc_votes[v] for v in higher))
            if len(distinct) >= self.f + 1:
                self.vc_attempts += 1
                self._send_viewchange(higher[0])
        self._check_viewchange(msg.proposed_view)

    def _check_viewchange(self, proposed: int) -> None:
        if proposed <= self.view:
            return
        votes = self.vc_votes.get(proposed, {})
        if len(votes) < self.quorum:
            return
        self._adopt_view(proposed, votes.values())

    def _adopt_view(self, new_view: int, votes: Collection[m.ViewChange] = ()) -> None:
        self.world.recorder.on_view_adopted(self.id, self.view, new_view, self.chain.height)
        self.view = new_view
        self._arm_timer()
        if primary_of(new_view, self.world.authorities) != self.id:
            return
        self.world.network.broadcast(self.id, m.NewView(new_view))
        pending = self.next_height
        # replay committed blocks the slowest voter is missing
        for h in range(min([v.next_height for v in votes] + [pending]), pending):
            self._propose(h, self.chain.blocks[h])
        # re-propose the pending height from the strongest certificate (mine first), if any
        certs = [self.locks.get(pending)] + [v.lock for v in votes if v.next_height == pending]
        best = max(filter(None, certs), key=attrgetter("view"), default=None)
        self._propose(pending, None if best is None else best.block)

    def on_newview(self, sender: int, msg: m.NewView | m.PrePrepare) -> None:
        """Adopt a later view on a `NewView` or a `PrePrepare` from that view's primary."""
        if msg.view > self.view and sender == primary_of(msg.view, self.world.authorities):
            self._adopt_view(msg.view)
