"""Closed-form commit times of fault-free runs with constant delays.

With constant latency L, processing delay P and block interval I, every
message takes L + P from send to handling, and height h is proposed at the
tick h·I. So height h commits:
  * in pbft, at h·I + 3(L + P) at every replica (pre-prepare, prepare,
    commit: Castro & Liskov 1999, section 4.2) and one announcement later,
    at h·I + 4(L + P), at every follower;
  * in poa, at h·I at its round-robin proposer and at h·I + L + P at every
    other node.
Each pbft height costs n-1 pre-prepares, (n-1)^2 prepares and n(n-1)
commits among n replicas. Single-authority pbft needs no vote: its one
replica commits at the tick, h·I, and its followers at h·I + L + P. Every
timeline row of every node is checked, empty blocks included, so a change
that moves one commit by one millisecond fails here.
"""

import pytest

from conftest import quick_run
from permachain.poa import leader_for_height

INTERVAL = 1000
DELAYS = [(10, 1), (37, 5), (0, 0), (250, 3)]  # (L, P): 4(L + P) < I throughout


def constant_run(protocol, n, followers, latency, processing):
    return quick_run({1: {1: 25, n: 7}}, n_authorities=n, n_followers=followers,
                     protocol=protocol, block_interval_ms=INTERVAL, block_capacity=10,
                     empty_block_threshold=3,
                     latency={"default": {"kind": "constant", "ms": latency}},
                     processing_delay={"default": {"kind": "constant", "ms": processing}})


def mismatches(world, expected_at):
    """The timeline rows whose time is not expected_at(node, height)."""
    assert not world.recorder.view_change_log  # so every row is an append
    return [row for row in world.recorder.timeline if row[0] != expected_at(row[1], row[2])]


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [4, 7, 13])
def test_pbft_commits_three_hops_after_the_tick_and_followers_one_later(
        n, followers, latency, processing):
    world = constant_run("pbft", n, followers, latency, processing).world
    hop = latency + processing
    assert mismatches(world, lambda node, h: h * INTERVAL + (3 if node <= n else 4) * hop) == []
    heights = {world.nodes[node].chain.height for node in world.all_ids}
    assert len(heights) == 1 and heights.pop() >= 4  # 32 txs at capacity 10, 3 empty blocks
    blocks = world.nodes[1].chain.height
    counts = world.recorder.message_counts
    assert (counts["PrePrepare"], counts["Prepare"], counts["Commit"]) == \
        (blocks * (n - 1), blocks * (n - 1) ** 2, blocks * n * (n - 1))


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [1, 4, 7])
def test_poa_commits_at_the_tick_at_its_proposer_and_one_hop_later_elsewhere(
        n, followers, latency, processing):
    world = constant_run("poa", n, followers, latency, processing).world
    authorities = world.authorities
    hop = latency + processing

    def expected_at(node, h):
        return h * INTERVAL + (0 if node == leader_for_height(h, authorities) else hop)

    assert mismatches(world, expected_at) == []
    assert len(world.recorder.timeline) == len(world.all_ids) * world.nodes[1].chain.height


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
def test_single_authority_pbft_commits_at_its_tick(followers, latency, processing):
    world = constant_run("pbft", 1, followers, latency, processing).world
    hop = latency + processing
    assert mismatches(world, lambda node, h: h * INTERVAL + (0 if node == 1 else hop)) == []
    assert world.nodes[1].chain.height >= 4
    assert not {"PrePrepare", "Prepare", "Commit"} & set(world.recorder.message_counts)
