"""Closed-form commit times of fault-free runs with constant delays.

With constant latency L, processing delay P and block interval I, every
message takes L + P from send to handling, and height h is proposed at the
tick h·I. So height h commits:
  * in pbft, at h·I + 3(L + P) at every replica (pre-prepare, prepare,
    commit: Castro & Liskov 1999, section 4.2) and one announcement later,
    at h·I + 4(L + P), at every follower, as long as the pbft timeout
    outlasts the three hops (the default, 10 L, does for every pair in DELAYS);
  * in poa, at h·I at its round-robin proposer and at h·I + L + P at every
    other node.
Each pbft height costs n-1 pre-prepares, (n-1)^2 prepares and n(n-1)
commits among n replicas. Single-authority pbft needs no vote: its one
replica commits at the tick, h·I, and its followers at h·I + L + P. Every
timeline row of every node is checked, empty blocks included, so a change
that moves one commit by one millisecond fails here.

Three cases hold under faults or a lottery (with T the pbft timeout):
  * f passive droppers, never view 0's primary, change no benign row of the
    pbft form above, and no view changes;
  * with a silent view-0 primary, every benign replica adopts view 1 at
    I + T + (L + P), commits height 1 three hops later, at I + T + 4(L + P),
    and every follower one hop after that;
  * in poet, round 1 proposes at I + wait_1 and round h at the previous
    proposal + (L + P) + wait_h, the next round starting once every
    authority holds the block (+ wait_h alone with one authority); every
    other node appends one hop after its round's proposal.
"""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import quick_run
from permachain.distributions import Distribution
from permachain.engine import RngStreams
from permachain.pbft import quorum_params
from permachain.node import primary_of
from permachain.poa import poet_elect

INTERVAL = 1000
DELAYS = [(10, 1), (37, 5), (0, 0), (250, 3)]  # (L, P): 4(L + P) < I throughout


def constant_run(protocol, n, followers, latency, processing, interval=INTERVAL, capacity=10,
                 loads=(25, 7), **config):
    """`loads` transactions created at node 1 and at node n on day 1."""
    return quick_run({1: {1: loads[0], n: loads[1]}}, n_authorities=n, n_followers=followers,
                     protocol=protocol, block_interval_ms=interval, block_capacity=capacity,
                     empty_block_threshold=3,
                     latency={"default": {"kind": "constant", "ms": latency}},
                     processing_delay={"default": {"kind": "constant", "ms": processing}},
                     **config)


def commit_time(protocol, authorities, interval, hop):
    """The module docstring's closed form: the time `node` commits height `h`."""
    n = len(authorities)
    if protocol == "poa":
        return lambda node, h: h * interval + (0 if node == primary_of(h - 1, authorities)
                                               else hop)
    if n == 1:
        return lambda node, h: h * interval + (0 if node == 1 else hop)
    return lambda node, h: h * interval + (3 if node <= n else 4) * hop


def mismatches(world, expected_at, nodes=None):
    """The timeline rows of `nodes` (every node by default) whose time is not
    expected_at(node, height)."""
    assert not world.recorder.view_change_log  # so every row is an append
    return [row for row in world.recorder.timeline if row[0] != expected_at(row[1], row[2])
            and (nodes is None or row[1] in nodes)]


def pbft_counts_per_height(world, n):
    """Each pbft height's n-1 pre-prepares, (n-1)^2 prepares and n(n-1) commits."""
    blocks = world.nodes[1].chain.height
    counts = world.recorder.message_counts
    assert (counts["PrePrepare"], counts["Prepare"], counts["Commit"]) == \
        (blocks * (n - 1), blocks * (n - 1) ** 2, blocks * n * (n - 1))


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [4, 7, 13, 22, 31])
def test_pbft_commits_three_hops_after_the_tick_and_followers_one_later(
        n, followers, latency, processing):
    world = constant_run("pbft", n, followers, latency, processing).world
    hop = latency + processing
    assert mismatches(world, commit_time("pbft", world.authorities, INTERVAL, hop)) == []
    heights = {world.nodes[node].chain.height for node in world.all_ids}
    assert len(heights) == 1 and heights.pop() >= 4  # 32 txs at capacity 10, 3 empty blocks
    pbft_counts_per_height(world, n)


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [1, 4, 7, 13, 22, 31])
def test_poa_commits_at_the_tick_at_its_proposer_and_one_hop_later_elsewhere(
        n, followers, latency, processing):
    world = constant_run("poa", n, followers, latency, processing).world
    hop = latency + processing
    assert mismatches(world, commit_time("poa", world.authorities, INTERVAL, hop)) == []
    assert len(world.recorder.timeline) == len(world.all_ids) * world.nodes[1].chain.height


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
def test_single_authority_pbft_commits_at_its_tick(followers, latency, processing):
    world = constant_run("pbft", 1, followers, latency, processing).world
    hop = latency + processing
    assert mismatches(world, commit_time("pbft", world.authorities, INTERVAL, hop)) == []
    assert world.nodes[1].chain.height >= 4
    assert not {"PrePrepare", "Prepare", "Commit"} & set(world.recorder.message_counts)


def check_passive_droppers(n, followers, droppers, drop_prob, latency, processing, **config):
    """Every benign row of a run whose `droppers` drop with `drop_prob` is on the
    fault-free pbft form."""
    world = constant_run("pbft", n, followers, latency, processing, drop_prob=drop_prob,
                         byzantine=dict.fromkeys(droppers, 2), **config).world
    hop = latency + processing
    assert mismatches(world, commit_time("pbft", world.authorities, INTERVAL, hop),
                      world.benign) == []
    heights = {world.nodes[node].chain.height for node in world.benign}
    assert len(heights) == 1 and heights.pop() >= 4
    assert world.recorder.drop_counts  # the droppers did drop


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("drop_prob", [1.0, 0.4])
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [4, 7, 13, 22, 31])
def test_f_passive_droppers_leave_every_benign_commit_on_the_closed_form(
        n, followers, drop_prob, latency, processing):
    f = quorum_params(n)[0]
    check_passive_droppers(n, followers, range(n - f + 1, n + 1), drop_prob, latency,
                           processing)


@st.composite
def passive_dropper_runs(draw):
    """(n, followers, droppers, drop_prob, (L, P)): any f authorities but node 1,
    view 0's primary, drop, in a group whose quorums intersect."""
    n = draw(st.sampled_from([n for n in range(4, 32) if 2 * quorum_params(n)[1] > n]))
    f = quorum_params(n)[0]
    droppers = draw(st.sets(st.integers(2, n), min_size=f, max_size=f))
    return (n, draw(st.integers(0, 2)), sorted(droppers), draw(st.sampled_from([0.4, 1.0])),
            draw(st.sampled_from(DELAYS)))


@pytest.mark.long
@settings(deadline=None, derandomize=True)
@given(run=passive_dropper_runs())
def test_f_passive_droppers_placed_at_random_leave_benign_commits_on_the_closed_form(run):
    n, followers, droppers, drop_prob, (latency, processing) = run
    # a timeout of one interval outlasts the three hops to a commit; the derived
    # default, 10 L, ignores P, so the closed form is not left to rest on it
    check_passive_droppers(n, followers, droppers, drop_prob, latency, processing,
                           pbft_timeout_ms=INTERVAL)


@pytest.mark.parametrize("latency, processing", [d for d in DELAYS if d != (250, 3)])
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [4, 7])
def test_a_silent_primary_is_replaced_one_hop_after_the_timeout(
        n, followers, latency, processing):
    # with (250, 3) height 2 commits after its timer fires, and later views follow
    timeout = 100
    world = constant_run("pbft", n, followers, latency, processing, pbft_timeout_ms=timeout,
                         drop_prob=1.0, byzantine={1: 2}).world
    hop, benign = latency + processing, world.benign
    replicas = sorted(benign & set(world.authorities))
    adopted = INTERVAL + timeout + hop
    assert sorted(row for row in world.recorder.view_change_log if row[1] in benign) == \
        [(adopted, node, 0, 1) for node in replicas]
    committed = {row[1]: row[0] for row in world.recorder.timeline
                 if row[1] in benign and row[2] == 1}
    assert committed == {node: adopted + (3 if node in replicas else 4) * hop
                         for node in benign}


@pytest.mark.parametrize("latency, processing", DELAYS)
@pytest.mark.parametrize("followers", [0, 2])
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_poet_proposes_a_hop_and_a_lottery_wait_after_the_last_round(
        n, followers, latency, processing):
    world = constant_run("poet", n, followers, latency, processing).world
    hop, height = latency + processing, world.nodes[1].chain.height
    twin = RngStreams(world.config.seed)  # replays the run's lottery draws
    wait = Distribution("exponential", {"rate": world.config.poet_rate})
    rounds, proposed = {}, INTERVAL
    for h in range(1, height + 1):
        leader, wait_ms = poet_elect(world.authorities, wait, twin)
        proposed += wait_ms + (hop if h > 1 and n > 1 else 0)
        assert world.nodes[1].chain.blocks[h].proposer == leader
        rounds[h] = (leader, proposed)
    assert mismatches(world, lambda node, h: rounds[h][1] + (0 if node == rounds[h][0]
                                                             else hop)) == []
    assert len(world.recorder.timeline) == len(world.all_ids) * height >= len(world.all_ids)


@st.composite
def constant_runs(draw):
    """(protocol, n, followers, L, P, I, capacity, loads) with 4(L + P) < I, and
    only pbft group sizes whose quorums intersect."""
    protocol = draw(st.sampled_from(["pbft", "poa"]))
    n = draw(st.integers(1, 13).filter(
        lambda n: protocol == "poa" or 2 * quorum_params(n)[1] > n))
    latency, processing = draw(st.integers(0, 300)), draw(st.integers(0, 20))
    interval = draw(st.integers(4 * (latency + processing) + 1, 4 * (latency + processing) + 3000))
    return (protocol, n, draw(st.integers(0, 2)), latency, processing, interval,
            draw(st.integers(1, 12)), (draw(st.integers(0, 40)), draw(st.integers(0, 40))))


@settings(deadline=None, derandomize=True)
@given(run=constant_runs())
def test_random_constant_delay_runs_commit_on_the_closed_form(run):
    protocol, n, followers, latency, processing, interval, capacity, loads = run
    # a pbft timeout of one interval outlasts the three hops to a commit; the
    # default, 10 L, need not (L = 0, P = 1 fires it)
    world = constant_run(protocol, n, followers, latency, processing, interval, capacity,
                         loads, pbft_timeout_ms=interval).world
    hop = latency + processing
    assert mismatches(world, commit_time(protocol, world.authorities, interval, hop)) == []
    assert len(world.recorder.timeline) == len(world.all_ids) * world.nodes[1].chain.height
    if protocol == "pbft" and n > 1:
        pbft_counts_per_height(world, n)
