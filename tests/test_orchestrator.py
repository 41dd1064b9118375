"""Day loop: empty-block termination, fast-forward, carryover, guard."""

import gc
import weakref

import pytest

from conftest import BUNDLED_INPUTS, make_world, quick_run
from permachain.config import DAY_LENGTH_MS
from permachain.errors import PermachainError
from permachain.ledger import genesis_block, make_block
from permachain.orchestrator import World
from permachain.pbft import PbftFollower, PbftReplica
from permachain.reporting import RunRecorder


def test_stop_condition_counter_semantics():
    world = make_world(3, protocol="poa")  # threshold defaults to 10
    world.day_active = True

    class FakeBlock:
        def __init__(self, empty, height):
            self.txs = () if empty else ("a transaction",)
            self.height = height

    for h in range(1, 10):
        world._on_block_appended(world.reference, FakeBlock(True, h))
    assert world.empty_streak == 9 and world.day_active
    world._on_block_appended(world.reference, FakeBlock(False, 10))
    assert world.empty_streak == 0  # non-empty resets the counter
    for h in range(11, 21):
        world._on_block_appended(world.reference, FakeBlock(True, h))
    assert not world.day_active
    assert world.day_ended_by == "empty-blocks"


def test_a_proposal_that_ends_the_day_ends_the_tick():
    # the reference (node 1) appends its own empty block at once and ends the
    # day; node 2, given a height-1 block by hand so that it leads height 2,
    # must not propose after it
    world = make_world(3, protocol="poa", empty_block_threshold=1)
    world.nodes[2]._append(make_block(1, 0, 1, genesis_block().digest, (), 0))
    world.day_active = True
    world._tick()
    assert not world.day_active and world.day_ended_by == "empty-blocks"
    assert world.nodes[1].chain.height == 1
    assert world.nodes[2].chain.height == 1
    assert world.recorder.message_counts["BlockMsg"] == 2  # node 1's, to nodes 2 and 3


def test_zero_tx_day_ends_after_exactly_k_empty_blocks():
    result = quick_run({1: {}}, n_authorities=3, protocol="poa",
                       empty_block_threshold=10)
    assert result.world.nodes[1].chain.height == 10
    assert result.days[0]["ended_by"] == "empty-blocks"


def test_k_equals_one_ends_at_first_empty_block():
    result = quick_run({1: {}}, n_authorities=3, protocol="poa",
                       empty_block_threshold=1)
    assert result.world.nodes[1].chain.height == 1


def test_day_of_25_txs_capacity_10_gives_3_full_then_k_empty():
    # ceiling(25 / 10) = 3 non-empty blocks
    result = quick_run({1: {1: 25}}, n_authorities=3, protocol="poa",
                       block_capacity=10, empty_block_threshold=10)
    chain = result.world.nodes[1].chain
    sizes = [len(b.txs) for b in chain.blocks[1:]]
    assert sizes == [10, 10, 5] + [0] * 10
    assert result.days[0]["txs_committed"] == 25


def test_fast_forward_lands_exactly_on_day_boundaries():
    result = quick_run({1: {1: 4}, 2: {}, 3: {1: 2}}, n_authorities=3,
                       protocol="poa")
    starts = [d["day_start_sim_time"] for d in result.days]
    assert starts == [0, DAY_LENGTH_MS, 2 * DAY_LENGTH_MS]
    for d in result.days:
        assert d["day_start_sim_time"] % DAY_LENGTH_MS == 0
        assert d["day_end_sim_time"] < d["day_start_sim_time"] + DAY_LENGTH_MS


def test_chains_persist_and_grow_across_days():
    result = quick_run({1: {1: 4}, 2: {1: 4}}, n_authorities=3, protocol="poa",
                       empty_block_threshold=3)
    per_day = {d["day"]: d["blocks_appended"]["1"] for d in result.days}
    assert per_day[1] == 4  # 1 non-empty + 3 empty
    assert per_day[2] >= 4  # rotation continues; day 2 may open with an empty
    assert result.days[0]["txs_committed"] == result.days[1]["txs_committed"] == 4
    # one continuous ledger: the final chain is the sum of the day snapshots
    digests = result.world.nodes[1].chain.digests_beyond_genesis()
    assert len(digests) == per_day[1] + per_day[2]
    day2_txs = [t.tx_id for b in result.world.nodes[1].chain.blocks[per_day[1] + 1:]
                for t in b.txs]
    assert len(day2_txs) == 4


def test_guard_day_reports_stall_not_failure():
    # the guard is shorter than one block interval: nothing can commit,
    # yet the run completes and reports the shortfall
    result = quick_run({1: {1: 5}}, n_authorities=4, protocol="pbft",
                       day_length_ms=900, tx_broadcast_interval_ms=500,
                       empty_block_threshold=3)
    day = result.days[0]
    assert day["ended_by"] == "guard"
    assert (day["txs_scheduled"], day["txs_committed"]) == (5, 0)
    assert day["day_end_sim_time"] <= 900


def test_late_transactions_carry_over_to_the_next_day():
    # most of day 1's injections land only after its empty-block rule already
    # fired, so those transactions sit pooled until day 2 commits them
    result = quick_run({1: {1: 5}, 2: {}}, n_authorities=4, protocol="pbft",
                       tx_broadcast_interval_ms=6000, tx_spread_ticks=5,
                       empty_block_threshold=3)
    d1, d2 = result.days
    assert d1["ended_by"] == "empty-blocks"
    assert (d1["txs_scheduled"], d1["txs_committed"]) == (5, 1)
    assert d2["txs_scheduled"] == 0
    assert d2["txs_committed"] == 4  # carryover, not loss
    assert d2["ended_by"] == "empty-blocks"


def test_scheduled_batches_fire_while_the_day_drains():
    # the README's example: production stops at 4,000 ms, but the 9 batches
    # still due (6,000 ms to 46,000 ms) are created and gossiped before the day ends
    result = quick_run({1: {1: 20}}, n_authorities=3, protocol="poa",
                       tx_broadcast_interval_ms=5000, tx_spread_ticks=10,
                       empty_block_threshold=3)
    day = result.days[0]
    assert day["ended_by"] == "empty-blocks"
    assert result.world.nodes[1].chain.height == 4
    assert (day["txs_committed"], result.world.txs_created) == (2, 20)
    assert day["day_end_sim_time"] == 46_011


def test_day_cost_independent_of_idle_hours():
    # identical load, very different day lengths: same busy time simulated
    short = quick_run({1: {1: 6}}, n_authorities=3, protocol="poa",
                      day_length_ms=3_600_000)
    long = quick_run({1: {1: 6}}, n_authorities=3, protocol="poa",
                     day_length_ms=86_400_000)
    assert short.days[0]["day_end_sim_time"] == long.days[0]["day_end_sim_time"]


def test_no_transaction_created_before_its_day_starts():
    result = quick_run({1: {1: 3}, 2: {1: 3}}, n_authorities=3, protocol="poa")
    interval = result.world.config.block_interval_ms
    for block in result.world.nodes[1].chain.blocks:
        for tx in block.txs:
            day_start = (tx.day - 1) * DAY_LENGTH_MS
            assert tx.created_at >= day_start + interval  # injection headroom


def test_multi_day_run_at_desk_scale_conserves_transactions():
    # 180 days, 5 nodes, small per-day counts
    loads = {day: {n: (day + n) % 3 for n in range(1, 6)} for day in range(1, 181)}
    result = quick_run(loads, n_authorities=5, protocol="poa",
                       empty_block_threshold=3)
    scheduled = sum(d["txs_scheduled"] for d in result.days)
    committed = sum(d["txs_committed"] for d in result.days)
    expected = sum(sum(v.values()) for v in loads.values())
    assert scheduled == expected
    assert committed == expected
    assert result.report["totals"]["txs_created"] == expected


@pytest.mark.parametrize("name", ["pbft-viewchange", "poa-baseline", "poet-baseline",
                                  "situation1-desk", "pbft-quorum-small"])
def test_whole_run_conserves_events_and_deliveries(name, shared_run):
    run = shared_run(name)
    result, received = run.result, run.received  # body kind -> deliveries handed to a node
    engine = result.world.engine
    assert engine.scheduled_count == engine.dispatched_count + engine.discarded_count

    counts = result.world.recorder.message_counts
    # a discarded delivery was sent but never received
    if engine.discarded_count:
        assert all(received[kind] <= counts[kind] for kind in received | counts)
    else:
        assert received == counts
    recorded = sum(a["count"] for a in result.report["propagation"]["aggregates"].values())
    assert recorded == received["TxGossip"] + received["BlockMsg"] + received["BlockAnnounce"]


@pytest.mark.parametrize("name", BUNDLED_INPUTS)
def test_a_finished_run_leaves_no_unreachable_cycle(name, shared_run):
    # run_all switches the cyclic collector off, which is only safe while
    # reference counting alone frees whatever a run drops
    run = shared_run(name)
    assert run.unreachable == 0, f"{name} left {run.unreachable} objects in unreachable cycles"
    assert run.result.days  # the run was alive through the count


@pytest.mark.parametrize("protocol", ["pbft", "poa", "poet"])
def test_a_dropped_result_frees_its_world_without_the_collector(protocol):
    # run_all drops the world's back-references once the report is built, so the
    # world is no cycle and reference counting frees it as soon as it is dropped
    gc.collect()
    gc.disable()
    try:
        result = quick_run({1: {1: 5}, 2: {2: 4}}, n_authorities=4, n_followers=1,
                           protocol=protocol)
        world = weakref.ref(result.world)
        del result
        assert world() is None, f"a finished {protocol} world outlived its result"
    finally:
        gc.enable()


@pytest.mark.parametrize("raises", [False, True], ids=["completes", "raises"])
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_all_leaves_the_collector_as_it_found_it(collecting, raises, monkeypatch):
    if raises:
        def failing_hook(*args):
            raise RuntimeError("recorder hook failed")

        monkeypatch.setattr(RunRecorder, "on_append", failing_hook)
    (gc.enable if collecting else gc.disable)()
    try:
        if raises:
            with pytest.raises(RuntimeError, match="recorder hook failed"):
                quick_run({1: {1: 3}}, n_authorities=4)
        else:
            quick_run({1: {1: 3}}, n_authorities=4)
        assert gc.isenabled() is collecting
    finally:
        gc.enable()


def test_a_simulator_error_names_the_day_it_stopped(monkeypatch):
    boom = PermachainError("boom")
    inject = World._inject

    def inject_until_day_2(self, origin_id, day, count):
        if day == 2:
            raise boom
        inject(self, origin_id, day, count)

    monkeypatch.setattr(World, "_inject", inject_until_day_2)
    with pytest.raises(PermachainError, match="^day 2: boom$") as info:
        quick_run({1: {1: 3}, 2: {1: 3}}, n_authorities=4)
    assert info.value.__cause__ is boom


def test_vote_tallies_hold_no_empty_entries(shared_run):
    # the tallies are defaultdicts, so a lookup with [] instead of .get would
    # leave an empty entry for every vote read but never cast
    result = shared_run("pbft-quorum-small").result
    assert result.report["view_changes"]  # the run has view changes, tamperers, droppers
    nodes = result.world.nodes.values()
    followers = [n for n in nodes if type(n) is PbftFollower]
    replicas = [n for n in nodes if isinstance(n, PbftReplica)]
    assert followers and replicas
    for node in followers + replicas:
        held = [node.announcements] if node in followers else \
            [node.prepares, node.commits, node.vc_votes]
        for tally in held:
            assert tally, f"node {node.id}"
        for tally in held + [node.announcements]:
            assert all(tally.values()), f"node {node.id}"
    # an announcement at an appended height is not tallied, and every replica here
    # appends each height before its first announcement arrives; in empirical-pbft
    # some replica still tallies announcements
    others = [node for node in shared_run("empirical-pbft").result.world.nodes.values()
              if isinstance(node, PbftReplica)]
    assert any(node.announcements for node in others)
    assert all(all(node.announcements.values()) for node in others)
