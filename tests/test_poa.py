"""Round-robin consensus, lottery election, single-round message law."""

import math
from collections import Counter

import pytest

from conftest import make_world, quick_run
from permachain.engine import RngStreams
from permachain.distributions import Distribution, round_half_up_ms
from permachain.ledger import genesis_block, make_block
from permachain import messages as m
from permachain.node import primary_of
from permachain.poa import poet_elect


def test_leader_for_height_rotation():
    # poa's proposer of height h is primary_of(h - 1): the turn is the tip's height
    auths = [11, 12, 13, 14, 15]
    assert primary_of(0, auths) == 11
    assert primary_of(5, auths) == 11  # wraps
    assert primary_of(4, auths) == 15
    result = quick_run({1: {}}, n_authorities=3, protocol="poa", empty_block_threshold=7)
    blocks = result.world.nodes[1].chain.blocks[1:]
    assert [(b.height, b.proposer) for b in blocks] == \
        [(1, 1), (2, 2), (3, 3), (4, 1), (5, 2), (6, 3), (7, 1)]


def test_leader_counts_over_heights():
    # counting oracle: 100 heights over 7 authorities -> 14 or 15 leads each
    auths = list(range(1, 8))
    counts = Counter(primary_of(h - 1, auths) for h in range(1, 101))
    assert set(counts.values()) <= {14, 15}
    assert sum(counts.values()) == 100


def test_single_round_law_and_identical_chains():
    # 12 nodes, 7 authorities: one Block message to each of the 11 others
    result = quick_run({1: {1: 6, 8: 6}}, n_authorities=7, n_followers=5,
                       protocol="poa")
    world = result.world
    blocks = world.nodes[1].chain.height
    counts = world.recorder.message_counts
    assert counts["BlockMsg"] == blocks * 11
    for phase in ("PrePrepare", "Prepare", "Commit", "BlockAnnounce"):
        assert counts.get(phase, 0) == 0
    digests = {tuple(world.nodes[n].chain.digests_beyond_genesis())
               for n in world.all_ids}
    assert len(digests) == 1
    assert result.days[0]["txs_committed"] == 12


def test_empty_pool_still_proposes_empty_blocks():
    result = quick_run({1: {}}, n_authorities=3, protocol="poa",
                       empty_block_threshold=4)
    day = result.days[0]
    assert day["ended_by"] == "empty-blocks"
    assert result.world.nodes[1].chain.height == 4
    assert not any(b.txs for b in result.world.nodes[1].chain.blocks[1:])


def test_out_of_order_blocks_buffer_until_parent():
    world = make_world(3, protocol="poa")
    node = world.nodes[2]
    g = genesis_block().digest
    blk1 = make_block(1, 0, 1, g, (), 1000)
    blk2 = make_block(2, 0, 2, blk1.digest, (), 2000)
    node.receive(3, [m.BlockMsg(blk2)])
    assert node.chain.height == 0
    node.receive(3, [m.BlockMsg(blk1)])
    assert node.chain.height == 2


def test_invalid_block_digest_ignored():
    world = make_world(3, protocol="poa")
    node = world.nodes[2]
    blk = make_block(1, 0, 1, genesis_block().digest, (), 1000)
    node.receive(3, [m.BlockMsg(blk).corrupted()])
    assert node.chain.height == 0
    assert node.stats["block_invalid_digest"] == 1


def test_byzantine_types_warn_and_are_ignored_under_poa():
    with pytest.warns(UserWarning, match="assumes no faulty nodes"):
        result = quick_run({1: {1: 3}}, n_authorities=3, protocol="poa",
                           byzantine={1: 1, 2: 2})
    digests = {tuple(result.world.nodes[n].chain.digests_beyond_genesis())
               for n in result.world.all_ids}
    assert len(digests) == 1
    assert result.days[0]["txs_committed"] == 3


def test_poet_single_authority_always_wins():
    streams = RngStreams(5)
    leader, wait = poet_elect([42], Distribution("exponential", {"rate": 0.001}), streams)
    assert leader == 42 and wait >= 1


def test_poet_election_matches_min_oracle():
    # a parallel stream set replays each authority's draw; the argmin is taken by hand
    auths = [3, 1, 4, 5, 9]
    rate = 0.002
    s1, s2 = RngStreams(123), RngStreams(123)
    lottery_wait = Distribution("exponential", {"rate": rate})
    for _ in range(500):
        leader, wait = poet_elect(auths, lottery_wait, s1)
        draws = {a: max(1, round_half_up_ms(
            -math.log(1 - s2.stream(a, "poet-draw").random()) / rate)) for a in auths}
        lowest = min(draws.values())
        assert wait == lowest
        assert leader == min(a for a in auths if draws[a] == lowest)


def test_poet_ties_break_to_lowest_id():
    # a huge rate clamps every draw to the 1 ms floor, forcing a tie
    streams = RngStreams(1)
    leader, wait = poet_elect([7, 3, 9], Distribution("exponential", {"rate": 1000.0}), streams)
    assert (leader, wait) == (3, 1)


def test_a_lone_poet_authority_runs_each_next_round_from_its_own_append():
    # the winner's append completes the round and schedules the next at delay 0,
    # while the winner's own control event is the instant's tail: the round joins
    # that event's list of calls and must still be made
    result = quick_run({1: {1: 25}}, n_authorities=1, n_followers=2, protocol="poet",
                       empty_block_threshold=3)
    day = result.days[0]
    assert (day["txs_committed"], day["ended_by"]) == (25, "empty-blocks")
    assert day["blocks_appended"] == {"1": 6, "2": 6, "3": 6}  # 3 full, then 3 empty


def test_poet_run_consistent_and_paced_by_waits():
    result = quick_run({1: {1: 4}}, n_authorities=5, protocol="poet",
                       empty_block_threshold=3, poet_rate=0.01)
    world = result.world
    digests = {tuple(world.nodes[n].chain.digests_beyond_genesis())
               for n in world.all_ids}
    assert len(digests) == 1
    assert result.days[0]["txs_committed"] == 4
    tx_ids = [tx.tx_id for block in world.nodes[1].chain.blocks for tx in block.txs]
    assert len(tx_ids) == len(set(tx_ids)) == 4  # no transaction committed twice
    proposers = {b.proposer for b in world.nodes[1].chain.blocks[1:]}
    assert proposers <= set(world.authorities)


def test_poet_fairness_quick():
    streams = RngStreams(2024)
    wins = Counter()
    rounds = 2000
    wait = Distribution("exponential", {"rate": 0.001})
    for _ in range(rounds):
        leader, _ = poet_elect([1, 2, 3, 4, 5], wait, streams)
        wins[leader] += 1
    for a in (1, 2, 3, 4, 5):
        assert abs(wins[a] - rounds / 5) < 120
