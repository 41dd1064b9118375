"""Three-phase consensus: quorum arithmetic, scripted phases, view changes."""

import pytest
from hypothesis import given, strategies as st

from conftest import make_world, quick_run
from permachain import messages as m
from permachain.engine import COORDINATOR
from permachain.errors import ConfigError
from permachain.ledger import genesis_block, make_block, Transaction
from permachain.node import primary_of
from permachain.pbft import quorum_params


def test_quorum_params_values():
    assert quorum_params(13) == (4, 9)
    assert quorum_params(4) == (1, 3)
    assert quorum_params(1) == (0, 1)


@given(st.integers(1, 200))
def test_quorum_params_formula(n):
    f, quorum = quorum_params(n)
    assert f == (n - 1) // 3
    assert quorum == 2 * f + 1
    assert n >= 3 * f + 1


def test_pbft_refuses_the_group_sizes_whose_quorums_need_not_intersect():
    # two quorums of 2f+1 share a node only when 2(2f+1) > n
    refused = []
    for n in range(1, 11):
        try:
            quick_run({1: {}}, n_authorities=n, empty_block_threshold=1)
        except ConfigError as exc:
            assert f"{n} authorities" in str(exc) and "2(2f+1) <= n" in str(exc)
            refused.append(n)
    assert refused == [2, 3, 6]
    quick_run({1: {}}, n_authorities=3, protocol="poa", empty_block_threshold=1)


def test_primary_rotates_and_wraps():
    auths = list(range(1, 14))
    assert primary_of(0, auths) == 1
    assert primary_of(13, auths) == 1
    assert primary_of(3, auths) == 4


def block_at(height, parent, txs=(), view=0, proposer=1):
    return make_block(height, view, proposer, parent, txs, 1000 * height)


def tx(i):
    return Transaction(i, 5, f"tx-{i}", 10, 1)


def test_prepare_quorum_triggers_single_commit_broadcast():
    # oracle: quorum_params(13) gives 9 distinct prepare-phase votes
    world = make_world(13)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    r.receive(1, [m.PrePrepare(0, blk)])
    assert world.recorder.message_counts["Prepare"] == 12  # to the other authorities
    for sender in range(3, 9):  # votes now: primary + self + six others = 8
        r.receive(sender, [m.Prepare(0, 1, blk.digest)])
    assert world.recorder.message_counts.get("Commit", 0) == 0  # below quorum
    r.receive(9, [m.Prepare(0, 1, blk.digest)])  # 9th distinct vote
    assert world.recorder.message_counts["Commit"] == 12
    for sender in (10, 11):  # extra votes never re-broadcast the commit
        r.receive(sender, [m.Prepare(0, 1, blk.digest)])
    assert world.recorder.message_counts["Commit"] == 12


def test_commit_quorum_appends_and_announces():
    world = make_world(13, n_followers=2)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest, txs=(tx(1),))
    r.receive(1, [m.PrePrepare(0, blk)])
    for sender in range(3, 10):
        r.receive(sender, [m.Prepare(0, 1, blk.digest)])
    assert r.chain.height == 0
    for sender in (1, 3, 4, 5, 6, 7, 8, 9):  # + own commit = 9 distinct
        r.receive(sender, [m.Commit(0, 1, blk.digest)])
    assert r.chain.height == 1
    assert r.chain.tip.digest == blk.digest
    # the new block is announced to all 14 other nodes, followers included
    assert world.recorder.message_counts["BlockAnnounce"] == 14
    # late commits for an already-committed height are ignored
    r.receive(10, [m.Commit(0, 1, blk.digest)])
    assert r.chain.height == 1


def test_corrupted_preprepare_never_prepared():
    world = make_world(13)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    r.receive(1, [m.PrePrepare(0, blk).corrupted()])
    assert world.recorder.message_counts.get("Prepare", 0) == 0
    assert r.stats["preprepare_invalid_digest"] == 1


def test_conflicting_preprepare_ignored():
    world = make_world(13)
    r = world.nodes[2]
    blk_a = block_at(1, genesis_block().digest)
    blk_b = block_at(1, genesis_block().digest, txs=(tx(9),))
    r.receive(1, [m.PrePrepare(0, blk_a)])
    r.receive(1, [m.PrePrepare(0, blk_b)])
    assert r.stats["preprepare_conflicting"] == 1
    assert world.recorder.message_counts["Prepare"] == 12  # only the first


def test_wrong_view_and_non_primary_preprepares_ignored():
    world = make_world(13)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    r.receive(3, [m.PrePrepare(0, blk)])  # node 3 is not primary of view 0
    assert r.stats["preprepare_not_primary"] == 1
    r.receive(1, [m.PrePrepare(5, blk)])  # view 5 pre-prepare from node 1
    assert r.stats["preprepare_wrong_view"] == 1
    assert world.recorder.message_counts.get("Prepare", 0) == 0


def test_a_later_views_preprepare_moves_a_replica_only_from_that_views_primary():
    # in a 4-authority group, node 3 is the primary of view 2 and node 4 is not
    world = make_world(4)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest, view=2, proposer=3)
    r.receive(4, [m.PrePrepare(2, blk)])
    assert r.view == 0 and r.stats["preprepare_wrong_view"] == 1
    assert world.recorder.message_counts.get("Prepare", 0) == 0
    r.receive(3, [m.PrePrepare(2, blk)])
    assert r.view == 2
    assert world.recorder.view_change_log == [(0, 2, 0, 2)]
    assert r.locks[1].view == 2 and r.preprepared[2, 1] == blk
    assert world.recorder.message_counts["Prepare"] == 3  # to the other authorities


def announce(replica, block, senders=(3, 4)):
    """Hand `replica` valid announcements of `block`: f+1 of them in a 4-authority group."""
    for sender in senders:
        replica.receive(sender, [m.BlockAnnounce(block)])


def test_a_preprepare_that_conflicts_with_a_committed_block_is_not_prepared():
    world = make_world(4)
    r, q = world.nodes[2], world.nodes[3]
    committed = block_at(1, genesis_block().digest)
    announce(r, committed)
    announce(q, committed, senders=(2, 4))
    r.receive(1, [m.PrePrepare(0, block_at(1, genesis_block().digest, txs=(tx(9),)))])
    assert r.stats["preprepare_conflicts_committed"] == 1
    assert world.recorder.message_counts.get("Prepare", 0) == 0
    assert r.locks == {} and r.chain.tip == committed
    # the block a replica holds at a committed height is prepared again, with no lock
    q.receive(1, [m.PrePrepare(0, committed)])
    assert "preprepare_conflicts_committed" not in q.stats and q.locks == {}
    assert world.recorder.message_counts["Prepare"] == 3


def test_votes_for_unseen_heights_buffer_until_preprepare():
    world = make_world(13)
    r = world.nodes[2]
    g = genesis_block().digest
    blk1 = block_at(1, g)
    blk2 = block_at(2, blk1.digest)
    # full quorum for height 2 arrives before anything about height 1
    r.receive(1, [m.PrePrepare(0, blk2)])
    for sender in range(3, 10):
        r.receive(sender, [m.Prepare(0, 2, blk2.digest)])
    for sender in (1, 3, 4, 5, 6, 7, 8, 9):
        r.receive(sender, [m.Commit(0, 2, blk2.digest)])
    assert r.chain.height == 0  # appends stay in height order
    assert r._ahead[2] == blk2  # held until height 1 is appended
    r.receive(1, [m.PrePrepare(0, blk1)])
    for sender in range(3, 10):
        r.receive(sender, [m.Prepare(0, 1, blk1.digest)])
    for sender in (1, 3, 4, 5, 6, 7, 8, 9):
        r.receive(sender, [m.Commit(0, 1, blk1.digest)])
    assert r.chain.height == 2  # the buffered block drains right after


def test_mismatched_digest_votes_never_merge():
    world = make_world(13)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    r.receive(1, [m.PrePrepare(0, blk)])
    wrong = ~blk.digest & (2**64 - 1)
    for sender in range(3, 10):
        r.receive(sender, [m.Prepare(0, 1, wrong)])
    assert world.recorder.message_counts.get("Commit", 0) == 0


def test_active_replica_self_counts_and_appends_early():
    world = make_world(13, byzantine={2: 1})
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    r.receive(1, [m.PrePrepare(0, blk)])
    for sender in range(3, 9):
        r.receive(sender, [m.Prepare(0, 1, blk.digest)])
    assert r.chain.height == 0
    r.receive(9, [m.Prepare(0, 1, blk.digest)])
    # prepare quorum met, zero commits received: the tamperer appends anyway
    assert r.chain.height == 1


def test_follower_appends_at_announce_quorum_in_order():
    world = make_world(13, n_followers=2)
    follower = world.nodes[14]
    g = genesis_block().digest
    blk1 = block_at(1, g)
    blk2 = block_at(2, blk1.digest)
    blk3 = block_at(3, blk2.digest)
    for sender in range(1, 9):  # 8 matching announces: below 2f+1
        follower.receive(sender, [m.BlockAnnounce(blk1)])
    assert follower.chain.height == 0
    follower.receive(9, [m.BlockAnnounce(blk1)])
    assert follower.chain.height == 1
    # a height past tip+1 is held until the gap resolves
    for sender in range(1, 10):
        follower.receive(sender, [m.BlockAnnounce(blk3)])
    assert follower.chain.height == 1
    for sender in range(1, 10):
        follower.receive(sender, [m.BlockAnnounce(blk2)])
    assert follower.chain.height == 3


def test_follower_rejects_corrupted_announces():
    world = make_world(13, n_followers=2)
    follower = world.nodes[14]
    blk = block_at(1, genesis_block().digest)
    for sender in range(1, 14):
        follower.receive(sender, [m.BlockAnnounce(blk).corrupted()])
    assert follower.chain.height == 0
    assert follower.stats["announce_invalid_digest"] == 13


def test_active_replica_ignores_an_announced_block_off_its_private_fork():
    world = make_world(4, byzantine={2: 1})  # f = 1: quorum 3, announce threshold 2
    r = world.nodes[2]
    g = genesis_block().digest
    private, honest = block_at(1, g), block_at(1, g, txs=(tx(1),))
    r.receive(1, [m.PrePrepare(0, private)])  # the primary's vote and r's own
    r.receive(3, [m.Prepare(0, 1, private.digest)])  # r's prepare quorum: it self-appends
    assert r.chain.tip == private and "fork_ignored" not in r.stats
    on_honest = block_at(2, honest.digest)
    for sender in (3, 4):  # f+1 valid announcements of a block built on the other height 1
        r.receive(sender, [m.BlockAnnounce(on_honest)])
    assert r.stats["fork_ignored"] == 1
    assert r.chain.height == 1 and r.chain.tip == private
    assert r._ahead == {}


def test_authority_catches_up_from_announcements():
    world = make_world(13)
    r = world.nodes[2]
    blk = block_at(1, genesis_block().digest)
    for sender in (3, 4, 5, 6):   # f+1 = 5 matching valid announces needed
        r.receive(sender, [m.BlockAnnounce(blk)])
    assert r.chain.height == 0
    r.receive(7, [m.BlockAnnounce(blk)])
    assert r.chain.height == 1


def test_timeout_grace_doubles_per_failed_view():
    world = make_world(4)
    world.day_active = True
    scheduled = []
    world.engine.schedule = lambda delay, target, payload: scheduled.append((delay, target))
    r = world.nodes[2]
    r.start_day()
    r.on_timer(r._timer_token)
    r.on_timer(r._timer_token)
    base = world.config.pbft_timeout_ms
    timers = [delay - world.config.block_interval_ms
              for delay, target in scheduled if target == COORDINATOR]
    assert timers == [base, 2 * base, 4 * base]
    assert world.recorder.message_counts["ViewChange"] == 2 * 3
    r._accept(block_at(1, genesis_block().digest))  # an append resets the grace
    r.on_timer(r._timer_token)
    timers = [delay - world.config.block_interval_ms
              for delay, target in scheduled if target == COORDINATOR]
    assert timers == [base, 2 * base, 4 * base, base, 2 * base]


def test_stale_timer_tokens_ignored():
    world = make_world(4)
    world.day_active = True
    r = world.nodes[2]
    r.start_day()
    old_token = r._timer_token
    r._arm_timer()
    r.on_timer(old_token)
    assert world.recorder.message_counts.get("ViewChange", 0) == 0


def test_viewchange_quorum_adopts_next_view():
    world = make_world(13)
    r = world.nodes[2]
    for sender in (3, 4, 5, 6):
        r.receive(sender, [m.ViewChange(1, 1)])
    assert r.view == 0  # below both echo and quorum thresholds
    r.receive(7, [m.ViewChange(1, 1)])   # f+1 seen: r echoes its own vote
    assert r.view == 0
    for sender in (8, 9, 10):
        r.receive(sender, [m.ViewChange(1, 1)])
    assert r.view == 1  # 8 peers + own echo = 9 votes
    r.receive(11, [m.ViewChange(1, 1)])
    assert r.stats["viewchange_stale"] == 1
    assert r.view == 1


def test_new_primary_reproposes_on_adoption():
    # in a 4-authority group, node 2 is the primary of view 1
    world = make_world(4)
    r = world.nodes[2]
    for sender in (3, 4):  # f+1 = 2 triggers the echo, own vote completes quorum
        r.receive(sender, [m.ViewChange(1, 1)])
    assert r.view == 1
    assert world.recorder.message_counts["NewView"] == 3
    assert world.recorder.message_counts["PrePrepare"] == 3


def test_new_primary_replays_its_committed_blocks_unchanged():
    # node 2, the primary of view 1 in a 4-authority group, has appended heights 1
    # and 2; voters that report next height 1 get both blocks back as they were
    world = make_world(4)
    r = world.nodes[2]
    blk1 = block_at(1, genesis_block().digest, txs=(tx(1),))
    blk2 = block_at(2, blk1.digest, txs=(tx(2),))
    for blk in (blk1, blk2):
        announce(r, blk)
    assert r.chain.height == 2
    for sender in (3, 4):  # f+1 = 2 triggers the echo, own vote completes quorum
        r.receive(sender, [m.ViewChange(1, 1)])
    assert r.view == 1
    assert r.preprepared[1, 1] is blk1 and r.preprepared[1, 2] is blk2
    assert r.preprepared[1, 3].proposer == 2 and r.preprepared[1, 3].parent_digest == blk2.digest
    assert world.recorder.message_counts["PrePrepare"] == 3 * 3


@pytest.mark.parametrize("tampered, invalid_certs, reproposed", [
    pytest.param(False, 0, True, id="valid_cert"),
    pytest.param(True, 2, False, id="tampered_cert"),
])
def test_new_primary_reproposes_only_a_valid_certificate(tampered, invalid_certs, reproposed):
    # in a 4-authority group, node 2 is the primary of view 1
    world = make_world(4)
    r = world.nodes[2]
    prepared = block_at(1, genesis_block().digest, txs=(tx(9),))
    vote = m.ViewChange(1, 1, m.PrePrepare(0, prepared))
    for sender in (3, 4):  # a tamperer's vote carries its certificate with a flipped digest
        r.receive(sender, [vote.corrupted() if tampered else vote])
    assert r.view == 1
    assert r.stats.get("viewchange_invalid_cert", 0) == invalid_certs
    assert (r.vc_votes[1][3].lock is None) == tampered  # an invalid certificate is no lock
    proposal = r.preprepared[1, 1]
    assert (proposal.digest == prepared.digest) == reproposed
    assert proposal.proposer == (1 if reproposed else 2)  # else a fresh block of its own
    assert world.recorder.message_counts["PrePrepare"] == 3


def test_primary_retries_its_locked_block_instead_of_draining_its_pool():
    # node 1, the primary of view 0 in a 4-authority group, holds a prepare lock
    # at its next height from an earlier attempt; its tick re-proposes that digest
    world = make_world(4)
    r = world.nodes[1]
    locked = block_at(1, genesis_block().digest, txs=(tx(9),))
    r.locks[1] = m.PrePrepare(0, locked)
    r.pool.add(tx(1))
    r.maybe_propose()
    assert r.preprepared[0, 1].digest == locked.digest
    assert list(r.pool) == [1]  # the pool was not drained into a fresh block
    assert world.recorder.message_counts["PrePrepare"] == 3


def test_primary_waits_for_its_unresolved_proposal():
    # node 1, the primary of view 0 in a 4-authority group, ticks twice with no
    # delivery in between; it proposes height 2 only once height 1 is appended
    world = make_world(4)
    r = world.nodes[1]
    r.maybe_propose()
    r.maybe_propose()
    assert world.recorder.message_counts["PrePrepare"] == 3
    assert list(r.preprepared) == [(0, 1)]
    digest = r.preprepared[0, 1].digest
    for vote in (m.Prepare, m.Commit):
        for sender in (2, 3):
            r.receive(sender, [vote(0, 1, digest)])
    assert r.chain.height == 1
    r.maybe_propose()
    assert list(r.preprepared) == [(0, 1), (0, 2)]
    assert world.recorder.message_counts["PrePrepare"] == 6


def test_newview_heals_lagging_view():
    world = make_world(13)
    r = world.nodes[2]
    r.receive(4, [m.NewView(3)])  # node 4 is the legitimate primary of view 3
    assert r.view == 3
    r.receive(9, [m.NewView(4)])  # node 9 is not the primary of view 4
    assert r.view == 3


def test_three_faulty_leaders_give_three_view_changes_then_commit():
    result = quick_run({1: {5: 10}}, n_authorities=13,
                       byzantine={1: 1, 2: 1, 3: 1}, seed=3)
    day = result.days[0]
    assert day["view_changes"] == 3
    assert day["txs_committed"] == 10
    ref = result.world.reference
    first_commit = next(row for row in result.world.recorder.timeline
                        if row[1] == ref and row[2] >= 1)
    assert first_commit[3] == 3  # committed under view 3, primary = 4th authority
    vc_times = [t for (t, n, _o, _nv) in result.world.recorder.view_change_log
                if n == ref]
    assert len(vc_times) == 3 and all(t < first_commit[0] for t in vc_times)


def test_message_counts_fault_free_single_block():
    result = quick_run({1: {}}, n_authorities=4, empty_block_threshold=1)
    counts = result.world.recorder.message_counts
    assert counts["PrePrepare"] == 3
    assert counts["Prepare"] == 9
    assert counts["Commit"] == 12
    heights = [result.world.nodes[n].chain.height for n in result.world.all_ids]
    assert heights == [1, 1, 1, 1]
