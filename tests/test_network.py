"""Latency sampling, sender-side drops, and broadcast scheduling."""

import collections
import hashlib
import math
import random
import statistics
import zlib
from functools import partial

import pytest

from conftest import BUNDLED_INPUTS, RECORDED_SCENARIOS, input_argv, make_config, make_table
from permachain import messages as m, orchestrator
from permachain.cli import EXIT_OK, main
from permachain.distributions import (Distribution, latency_table, processing_delays,
                                      round_half_up_ms)
from permachain.engine import EventEngine, RngStreams
from permachain.errors import ConfigError
from permachain.config import RunConfig
from permachain.faults import ByzantineType
from permachain.ledger import Transaction, genesis_block, make_block
from permachain.network import Network
from permachain.node import Node
from permachain.nodetable import parse_node_rows
from permachain.reporting import RunRecorder, emit_json
from permachain.workload import parse_schedule
from reference import RefEngine, RefNetwork


class LoggedStreams(RngStreams):
    """RngStreams that logs every (node, purpose) it is asked for."""

    def __init__(self, seed):
        super().__init__(seed)
        self.asked = []

    def stream(self, node_id, purpose):
        self.asked.append((node_id, purpose))
        return super().stream(node_id, purpose)


class LoggedRecorder(RunRecorder):
    """RunRecorder that logs its network hook calls, deliveries apart."""

    def __init__(self):
        super().__init__()
        self.hook_calls = []
        self.deliveries = []  # (kind, src, dst, sent_at, delivered_at), dispatch order

    def message_sent(self, kind, n):
        self.hook_calls.append(("sent", kind, n))
        super().message_sent(kind, n)

    def message_dropped(self, kind, n):
        self.hook_calls.append(("dropped", kind, n))
        super().message_dropped(kind, n)

    def record_delivery(self, kind, src, sent_at, members, times):
        for _ in range(times):  # one row per body, as the sink writes them
            self.deliveries.extend((kind, src, dst, sent_at, sent_at + latency)
                                   for dst, latency in members)
        super().record_delivery(kind, src, sent_at, members, times)


def build_net(n_nodes=13, byz=None, drop_prob=0.4, latency=None, seed=1, overrides=None,
              receive=lambda node, sender, bodies: None, delays=None, followers=0):
    """A bare Network over conftest's `make_table` of nodes 1..n_nodes at loc-1..,
    the last `followers` of them followers; node i hands each delivery group's
    bodies to receive(i, sender, bodies)."""
    byz = byz or {}
    engine = EventEngine()
    streams = LoggedStreams(seed)
    table = latency or latency_table({"default": {"kind": "constant", "ms": 10}})
    delays = delays or processing_delays({"default": {"kind": "constant", "ms": 1}})
    recorder = LoggedRecorder()
    recorder.engine = engine
    faults = RunConfig("pbft", drop_prob=drop_prob, drop_prob_overrides=overrides or {})
    nodes = make_table(n_nodes - followers, followers)
    net = Network(engine, streams, nodes, table, delays, recorder=recorder)
    for i in range(1, n_nodes + 1):
        net.register_node(i, ByzantineType(byz.get(i, 0)), faults.drop_prob_for(i),
                          partial(receive, i))
    return engine, net, recorder


def gossip(i=1):
    return m.TxGossip(Transaction(i, 1, "x", 0, 1))


def block_one():
    return make_block(1, 0, 1, genesis_block().digest, (), 0)


def logged_net(**kwargs):
    """build_net, plus a log of every delivery as (time, node, sender, body), in
    dispatch order."""
    log = []
    engine, net, recorder = build_net(
        receive=lambda node, sender, bodies: log.extend((engine.now, node, sender, body)
                                                        for body in bodies),
        **kwargs)
    return engine, net, recorder, log


def latencies(net, src, dst, n):
    """Latencies from src to dst of n gossip broadcasts from src, in send order,
    read from the rows the recorder takes as each one is delivered."""
    rows = net.recorder.deliveries
    start = len(rows)
    for i in range(n):
        net.broadcast(src, gossip(i))
        net.engine.run_until_idle()
    return [delivered_at - sent_at for _, s, d, sent_at, delivered_at in rows[start:]
            if (s, d) == (src, dst)]


def test_constant_latency_always_ten():
    _, net, _ = build_net(n_nodes=2)
    assert latencies(net, 1, 2, 20) == [10] * 20


def test_degenerate_uniform_latency():
    table = latency_table({"default": {"kind": "uniform", "lo": 5, "hi": 5}})
    _, net, _ = build_net(n_nodes=2, latency=table)
    assert latencies(net, 1, 2, 20) == [5] * 20


def test_empirical_latency_reproducible_and_concentrated():
    table = latency_table({"default": {"kind": "empirical", "values": [3, 7]}})
    _, net1, _ = build_net(n_nodes=2, latency=table, seed=9)
    _, net2, _ = build_net(n_nodes=2, latency=table, seed=9)
    seq1 = latencies(net1, 1, 2, 10_000)
    seq2 = latencies(net2, 1, 2, 10_000)
    assert seq1 == seq2
    assert abs(statistics.fmean(seq1) - 5.0) <= 0.25


def test_pair_specific_model_with_default_fallback():
    table = latency_table({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": "loc-2", "kind": "constant", "ms": 50}],
    })
    _, net, _ = build_net(latency=table)
    assert latencies(net, 1, 2, 1) == [50]
    assert latencies(net, 2, 1, 1) == [50]  # pairs apply symmetrically
    assert latencies(net, 1, 3, 1) == [10]


def test_latency_echo_round_trips_explicit_reverse_pairs():
    spec = {"default": {"kind": "constant", "ms": 10},
            "pairs": [{"src": "a", "dst": "b", "kind": "constant", "ms": 5},
                      {"src": "c", "dst": "a", "kind": "uniform", "lo": 1, "hi": 3},
                      {"src": "b", "dst": "a", "kind": "constant", "ms": 50}]}
    table = latency_table(spec)
    assert table.to_dict() == spec  # every explicit entry once, in input order
    assert table.model_for(("b", "a")).params == {"ms": 50}
    assert table.model_for(("a", "c")).kind == "uniform"
    echoed = latency_table(table.to_dict())
    locations = ("a", "b", "c", "d")
    for src in locations:
        for dst in locations:
            assert echoed.model_for((src, dst)).to_dict() == table.model_for((src, dst)).to_dict()


def test_no_model_no_default_errors():
    table = latency_table({})
    _, net, _ = build_net(latency=table)
    with pytest.raises(ConfigError,
                       match=r"no latency model for \('loc-1', 'loc-2'\) and no default"):
        net.broadcast(1, gossip())


def test_send_schedules_delivery_after_latency_plus_processing():
    engine, net, recorder, log = logged_net(n_nodes=2)
    assert net.broadcast(1, gossip()) == 1
    engine.run_until_idle()
    (kind, src, dst, sent_at, delivered_at), = recorder.deliveries
    assert (kind, src, dst) == ("transaction", 1, 2)
    assert sent_at == 0
    assert delivered_at == 10           # latency only
    assert log == [(11, 2, 1, gossip())]  # plus the receiver's processing delay
    assert delivered_at >= sent_at


def test_an_unknown_sender_raises():
    # the loaders refuse an unknown node id; past them, one is a KeyError, never skipped
    _, net, _ = build_net(n_nodes=2)
    with pytest.raises(KeyError):
        net.broadcast(99, gossip())


def test_full_dropper_always_drops():
    _, net, recorder = build_net(n_nodes=2, byz={1: 2}, drop_prob=1.0)
    assert not any(net.broadcast(1, gossip(i)) for i in range(20))
    assert recorder.drop_counts["TxGossip"] == 20


def test_passive_drop_fraction_concentrates():
    _, net, recorder = build_net(n_nodes=2, byz={1: 2}, drop_prob=0.4)
    n = 10_000
    dropped = sum(1 - net.broadcast(1, gossip(i)) for i in range(n))
    assert 0.38 <= dropped / n <= 0.42
    assert recorder.drop_counts["TxGossip"] == dropped
    assert recorder.message_counts["TxGossip"] == n - dropped


def test_broadcast_counts_scheduled():
    _, net, _ = build_net()
    assert net.broadcast(1, gossip()) == 12
    _, alone, _ = build_net(n_nodes=3, followers=2)  # node 1 is the only authority
    assert alone.broadcast(1, gossip()) == 0
    _, net2, _ = build_net(byz={1: 2}, drop_prob=1.0)
    assert net2.broadcast(1, gossip()) == 0


def test_broadcast_mean_scheduled_under_partial_drops():
    # expectation: 8 recipients x 0.6 keep-probability = 4.8
    _, net, _ = build_net(n_nodes=9, byz={1: 2}, drop_prob=0.4)
    rounds = 5000
    total = sum(net.broadcast(1, gossip(i)) for i in range(rounds))
    assert abs(total / rounds - 4.8) <= 0.1


def test_latency_draws_unaffected_by_other_nodes():
    # per-sender streams: nodes outside the audience and another sender's traffic
    # leave a sender's draws unchanged
    table = latency_table({"default": {"kind": "uniform", "lo": 1, "hi": 30}})
    _, big, _ = build_net(n_nodes=13, followers=10, latency=table, seed=5)
    _, small, _ = build_net(n_nodes=3, latency=table, seed=5)
    big.broadcast(3, gossip(50))  # unrelated traffic from another sender
    seq_big = latencies(big, 1, 2, 50)
    seq_small = latencies(small, 1, 2, 50)
    assert seq_big == seq_small


def test_active_sender_corrupts_digest_bearing_only():
    engine, net, _, log = logged_net(n_nodes=2, byz={1: 1})
    block = make_block(1, 0, 1, genesis_block().digest, (), 0)
    net.broadcast(1, m.PrePrepare(0, block))
    net.broadcast(1, gossip())
    engine.run_until_idle()
    got = [body for _t, _node, _sender, body in log]
    assert got[0].block.digest != block.digest  # tampered in transit
    assert got[1] == gossip()                   # payload traffic untouched


def test_passive_sender_byte_identical_when_not_dropping():
    engine_h, net_h, recorder_h, seen_h = logged_net(byz={}, seed=11)
    engine_p, net_p, recorder_p, seen_p = logged_net(byz={1: 2}, drop_prob=0.0, seed=11)
    body = gossip()
    net_h.broadcast(1, body)
    net_p.broadcast(1, body)
    engine_h.run_until_idle()
    engine_p.run_until_idle()
    assert seen_h == seen_p
    assert recorder_h.deliveries == recorder_p.deliveries


def reference_stream(seed, node_id, purpose):
    """A `random.Random` seeded the way RngStreams.stream seeds one, rebuilt by hand."""
    triple = f"{seed}/{node_id}/{zlib.crc32(purpose.encode())}".encode()
    return random.Random(int.from_bytes(triple + hashlib.sha256(triple).digest(), "big"))


def reference_draw(kind, p, rng):
    """Each kind's documented formula, on nothing but rng.random()."""
    if kind == "uniform":
        x = p["lo"] + (p["hi"] - p["lo"]) * rng.random()
    elif kind == "normal":
        radius = math.sqrt(-2 * math.log(1 - rng.random()))
        x = p["mean"] + p["std"] * radius * math.cos(2 * math.pi * rng.random())
    elif kind == "exponential":
        x = -math.log(1 - rng.random()) / p["rate"]
    else:
        x = p["values"][int(rng.random() * len(p["values"]))]
    return max(0, round_half_up_ms(x))


FORMULA_CASES = [
    {"kind": "uniform", "lo": lo, "hi": hi}
    for lo, hi in [(0, 1), (5, 30), (10, 10), (0.5, 17.25), (3, 9.75), (1e-3, 2.5e-3),
                   (7, 10**9)]
] + [
    {"kind": "normal", "mean": 20, "std": 6}, {"kind": "normal", "mean": 1, "std": 5},
    {"kind": "normal", "mean": 3.5, "std": 0},
    # the hyperledger-fabric preset's three, then means and stds at the edges of
    # the shortcut that takes a draw's bucket from u1 alone
    {"kind": "normal", "mean": 2.0, "std": 0.5}, {"kind": "normal", "mean": 5.0, "std": 1.0},
    {"kind": "normal", "mean": 1.0, "std": 0.25}, {"kind": "normal", "mean": 1.4999, "std": 0.3},
    {"kind": "normal", "mean": 7.2, "std": 0.001},
    {"kind": "normal", "mean": 999_999_999.7, "std": 0.2},
    {"kind": "normal", "mean": -999_999_999.7, "std": 0.2},
    {"kind": "exponential", "rate": 0.05}, {"kind": "exponential", "rate": 1e-9},
    {"kind": "empirical", "values": [1, 4, 4, 9.5, 30]}, {"kind": "empirical", "values": [7]},
]


def case_id(spec):
    return "-".join("_".join(map(str, v)) if isinstance(v, list) else str(v)
                    for v in spec.values())


@pytest.mark.parametrize("spec", FORMULA_CASES, ids=case_id)
def test_each_kind_draws_its_formula_from_random_alone(spec):
    dist = Distribution.from_dict(spec)
    ours, reference = RngStreams(42).stream(3, "latency"), reference_stream(42, 3, "latency")
    assert [dist.sample_ms(ours) for _ in range(5_000)] == \
        [reference_draw(dist.kind, dist.params, reference) for _ in range(5_000)]
    assert ours.random() == reference.random()  # and not one draw more


def test_passive_sender_draws_drop_stream_once_per_recipient():
    # per recipient, in order: drop iff the drop stream reads below p, else one latency draw
    table = latency_table({"default": {"kind": "uniform", "lo": 1, "hi": 30}})
    _, net, recorder, log = logged_net(byz={1: 2}, drop_prob=0.4, latency=table, seed=3)
    drop, latency = reference_stream(3, 1, "drop"), reference_stream(3, 1, "latency")
    expected = []
    for i in range(10):
        for dst in range(2, 14):
            if not drop.random() < 0.4:
                expected.append((i, dst, reference_draw("uniform", table.default.params,
                                                        latency)))
    for i in range(10):
        net.broadcast(1, gossip(i))  # to every authority but the sender
    net.engine.run_until_idle()
    # each delivery is recorded just before its recipient receives it
    assert [dst for _, _, dst, _, _ in recorder.deliveries] == [node for _, node, _, _ in log]
    assert sorted((body.tx.tx_id, node, delivered_at - sent_at)
                  for (_, node, _, body), (_, _, _, sent_at, delivered_at)
                  in zip(log, recorder.deliveries)) == expected
    assert 0 < len(expected) < 120
    assert net.streams.stream(1, "drop").random() == drop.random()
    assert net.streams.stream(1, "latency").random() == latency.random()


def test_only_a_dropping_passive_sender_has_a_drop_stream():
    # 1 active, 2 honest, 3 passive, 4 passive that never drops
    _, net, _ = build_net(byz={1: 1, 3: 2, 4: 2}, drop_prob=0.4, overrides={4: 0.0})
    for src in (1, 2, 4):
        assert net.broadcast(src, gossip()) == 12
    assert [node for node, purpose in net.streams.asked if purpose == "drop"] == [3]


def test_broadcast_counts_its_sends_and_drops_once():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=0.4)
    scheduled = net.broadcast(1, gossip())
    assert 0 < scheduled < 12
    assert recorder.hook_calls == [("sent", "TxGossip", scheduled),
                                   ("dropped", "TxGossip", 12 - scheduled)]
    assert recorder.message_counts == {"TxGossip": scheduled}
    assert recorder.drop_counts == {"TxGossip": 12 - scheduled}
    _, net, recorder = build_net(n_nodes=3, followers=2)  # node 1 is the only authority
    assert net.broadcast(1, m.BlockAnnounce(block_one())) == 2
    assert net.broadcast(1, m.Prepare(0, 1, 5)) == 0  # only itself: nothing to count
    assert recorder.hook_calls == [("sent", "BlockAnnounce", 2)]
    assert "BlockAnnounce" not in recorder.drop_counts


def test_one_event_per_delivery_instant():
    engine, net, _, log = logged_net()  # constant 10 ms latency, constant 1 ms processing
    for i in range(10):
        assert net.broadcast(1, gossip(i)) == 12
    assert engine.scheduled_count == 1  # the ten groups share one instant, joined
    engine.run_until_idle()
    assert engine.dispatched_count == 1
    assert [(t, node, sender, body.tx.tx_id) for t, node, sender, body in log] == \
        [(11, node, 1, i) for i in range(10) for node in range(2, 14)]


def test_a_batch_of_bodies_draws_and_delivers_as_one_broadcast_per_body():
    latency = latency_table({"default": {"kind": "uniform", "lo": 1, "hi": 30}})
    delays = processing_delays(
        {"transaction": {"kind": "normal", "mean": 5, "std": 3},
         "default": {"kind": "constant", "ms": 1}})
    nets = [logged_net(byz={1: 2}, drop_prob=0.4, latency=latency, delays=delays, seed=4)
            for _ in range(2)]
    bodies = [gossip(i) for i in range(8)]
    (engine_b, net_b, recorder_b, log_b), (engine_s, net_s, recorder_s, log_s) = nets
    scheduled = net_b.broadcast(1, bodies)
    assert scheduled == sum(net_s.broadcast(1, body) for body in bodies)
    assert engine_b.scheduled_count == engine_s.scheduled_count  # groups joined alike
    engine_b.run_until_idle()
    engine_s.run_until_idle()
    assert 0 < scheduled < 8 * 12 and len(log_b) == scheduled
    assert log_b == log_s
    assert recorder_b.deliveries == recorder_s.deliveries
    assert (recorder_b.message_counts, recorder_b.drop_counts) == \
        (recorder_s.message_counts, recorder_s.drop_counts)
    asked = sorted(set(net_b.streams.asked))
    assert asked == sorted(set(net_s.streams.asked))
    assert [net_b.streams.stream(*key).random() for key in asked] == \
        [net_s.streams.stream(*key).random() for key in asked]


def mixed_delay_net(receive, n_nodes=7, **kwargs):
    """Nodes 1..n_nodes; from node 1, nodes 3 and 5 are 5 ms away, node 7 is 20 ms,
    the rest 10 ms.

    With 1 ms processing, a broadcast from node 1 to nodes 2-7 arrives at 2, 4
    and 6 after 11 ms, at 3 and 5 after 6 ms and at 7 after 21 ms.
    """
    table = latency_table({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": f"loc-{dst}", "kind": "constant", "ms": ms}
                  for dst, ms in ((3, 5), (5, 5), (7, 20))],
    })
    return build_net(n_nodes=n_nodes, latency=table, receive=receive, **kwargs)


def test_grouped_deliveries_keep_the_order_of_one_event_per_recipient():
    log = []

    def receive(node, sender, bodies):
        log.append((engine.now, node))
        if node == 2:  # node 2 schedules an event at its own delivery instant
            engine.schedule(0, 9, "scheduled during the group")

    engine, net, _ = mixed_delay_net(receive)
    for target in (8, 9):  # engine events of their own, not deliveries
        engine.register(target, lambda items, target=target:
                        log.extend((engine.now, target) for _ in items))
    for t in (6, 11):
        engine.schedule(t, 8, "scheduled before the broadcast")
    assert net.broadcast(1, gossip()) == 6
    for t in (6, 11):
        engine.schedule(t, 9, "scheduled after the broadcast")
    assert engine.scheduled_count == 4 + 3
    engine.run_until_idle()
    assert log == [
        (6, 8), (6, 3), (6, 5), (6, 9),
        (11, 8), (11, 2), (11, 4), (11, 6), (11, 9), (11, 9),
        (21, 7),
    ]
    assert engine.dispatched_count == 4 + 3  # node 2's item joins the tail event on 9


def test_a_group_joined_while_its_event_is_delivered_runs_at_its_tail():
    log = []

    def receive(node, sender, bodies):
        body, = bodies
        log.append((engine.now, node, sender, body.tx.tx_id))
        if (node, body.tx.tx_id) == (2, 1):  # total delay 0: joins the event being delivered
            net.broadcast(2, gossip(2))

    zero = latency_table({"default": {"kind": "constant", "ms": 0}})
    delays = processing_delays({"default": {"kind": "constant", "ms": 0}})
    engine, net, _ = build_net(n_nodes=3, latency=zero, delays=delays, receive=receive)
    net.broadcast(1, gossip(1))
    engine.run_until_idle()
    assert log == [(0, 2, 1, 1), (0, 3, 1, 1), (0, 1, 2, 2), (0, 3, 2, 2)]
    assert engine.scheduled_count == engine.dispatched_count == 1


def test_a_group_past_the_deadline_is_discarded_whole():
    log = []
    engine, net, _ = mixed_delay_net(lambda node, sender, bodies: log.append((engine.now, node)))
    net.broadcast(1, gossip())
    engine.run_until_idle(deadline=10)
    assert log == [(6, 3), (6, 5)]
    assert (engine.scheduled_count, engine.dispatched_count, engine.discarded_count) == (3, 1, 2)
    assert engine.scheduled_count == engine.dispatched_count + engine.discarded_count
    assert engine.pending() == 0


def receive_calls(**kwargs):
    """build_net over mixed_delay_net's layout, plus a log of every `receive` call
    as (time, node, sender, tx ids), in dispatch order."""
    calls = []
    engine, net, recorder = mixed_delay_net(
        lambda node, sender, bodies: calls.append(
            (engine.now, node, sender, [body.tx.tx_id for body in bodies])), **kwargs)
    return engine, net, recorder, calls


def test_a_constant_delay_batch_is_one_group_per_instant():
    k = 6
    engine, net, recorder, calls = receive_calls()
    assert net.broadcast(1, [gossip(i) for i in range(k)]) == 6 * k
    one_by_one, net_s, recorder_s, _ = receive_calls()
    for i in range(k):
        net_s.broadcast(1, gossip(i))
    assert engine.scheduled_count == one_by_one.scheduled_count == 3
    engine.run_until_idle()
    one_by_one.run_until_idle()
    ids = list(range(k))
    assert calls == [(6, 3, 1, ids), (6, 5, 1, ids), (11, 2, 1, ids), (11, 4, 1, ids),
                     (11, 6, 1, ids), (21, 7, 1, ids)]
    assert recorder.deliveries == recorder_s.deliveries  # one row per body, in body order
    assert engine.dispatched_count == one_by_one.dispatched_count == 3


def test_a_batch_merges_only_bodies_with_the_same_members():
    # a passive sender under constant delays: recipients 2 and 4 share a total
    # delay and 3 has its own, and a body's members are those its drops spared
    runs = []
    for batched in (True, False):
        engine, net, recorder, calls = receive_calls(n_nodes=4, byz={1: 2}, drop_prob=0.3)
        bodies = [gossip(i) for i in range(20)]
        if batched:
            scheduled = net.broadcast(1, bodies)
        else:
            scheduled = sum(net.broadcast(1, body) for body in bodies)
        engine.run_until_idle()
        by_node = {}
        for t, node, _, ids in calls:
            by_node.setdefault(node, []).extend((t, i) for i in ids)
        runs.append((scheduled, by_node, recorder.deliveries, len(calls)))
    (scheduled, by_node, rows, n_calls), (scheduled_s, by_node_s, rows_s, n_calls_s) = runs
    assert 0 < scheduled == scheduled_s < 20 * 3
    assert by_node == by_node_s  # every node gets the same bodies, in the same order
    assert rows == rows_s
    assert n_calls < n_calls_s == scheduled  # some bodies did share their members


@pytest.mark.parametrize("bodies", [[m.Prepare(0, 1, 5)], [gossip(), m.Prepare(0, 1, 5)],
                                    [m.BlockAnnounce(None)]],
                         ids=["prepare", "gossip_then_prepare", "announce"])
def test_broadcast_refuses_a_list_of_other_bodies(bodies):
    engine, net, recorder = build_net()
    with pytest.raises(TypeError, match="TxGossip bodies only"):
        net.broadcast(1, bodies)
    assert engine.scheduled_count == 0
    assert recorder.message_counts == {} and recorder.hook_calls == []


OUTPUTS = ("report.json", "timeseries.csv", "propagation.csv")


def cli_outputs(argv, out, monkeypatch, engine, network):
    """The report, timeseries and propagation bytes that `main` writes for `argv`
    with `engine` and `network` swapped into the orchestrator."""
    monkeypatch.setattr(orchestrator, "EventEngine", engine)
    monkeypatch.setattr(orchestrator, "Network", network)
    assert main([*argv, "--out", str(out), "--emit-csv", "--emit-records"]) == EXIT_OK
    return [(out / f).read_bytes() for f in OUTPUTS]


@pytest.mark.parametrize("name", RECORDED_SCENARIOS)
def test_merged_batches_write_the_bytes_of_unmerged_ones(name, shared_run, tmp_path,
                                                         monkeypatch):
    # the reference model (tests/reference.py) delivers one body to one recipient per event
    run = shared_run(name)  # the real network's run, before receive is patched
    receive = Node.receive
    calls = 0

    def counting_receive(node, sender, bodies):
        nonlocal calls
        calls += 1
        receive(node, sender, bodies)

    monkeypatch.setattr(Node, "receive", counting_receive)
    naive = cli_outputs(run.argv, tmp_path, monkeypatch, RefEngine, RefNetwork)
    assert [(run.out / f).read_bytes() for f in OUTPUTS] == naive
    assert run.receive_calls < calls  # the real network did merge some batches


def test_repeated_injection_batches_write_the_bytes_of_the_reference_model(tmp_path,
                                                                          monkeypatch):
    # two batches of three transactions a day from each origin, over two days, so
    # each pair's later groups of several bodies fold into a pair already recorded
    config = make_config(tx_spread_ticks=2)
    table = make_table(4, n_followers=2)
    schedule = parse_schedule({"days": [{"day": day, "loads": {"1": 6, "5": 6}}
                                        for day in (1, 2)]}, set(table.ids))
    groups = collections.Counter()  # (src, dst) -> groups of more than one body
    record_delivery = RunRecorder.record_delivery

    def counting(recorder, kind, src, sent_at, members, times):
        groups.update((src, dst) for dst, _ in members if times > 1)
        record_delivery(recorder, kind, src, sent_at, members, times)

    monkeypatch.setattr(RunRecorder, "record_delivery", counting)
    outputs = []
    for engine, network in ((EventEngine, Network), (RefEngine, RefNetwork)):
        monkeypatch.setattr(orchestrator, "EventEngine", engine)
        monkeypatch.setattr(orchestrator, "Network", network)
        out = tmp_path / network.__name__
        out.mkdir()
        with open(out / "propagation.csv", "w", newline="") as records:
            result = orchestrator.run_all(config, table, schedule, records)
        emit_json(result.report, out / "report.json")
        outputs.append([(out / f).read_bytes() for f in ("report.json", "propagation.csv")])
    assert outputs[0] == outputs[1]
    assert groups == {(src, dst): 4 for src in (1, 5) for dst in range(1, 5) if dst != src}


@pytest.mark.long
@pytest.mark.parametrize("name", BUNDLED_INPUTS)
def test_every_bundled_input_writes_the_bytes_of_the_reference_model(name, tmp_path,
                                                                     monkeypatch):
    real, naive = (cli_outputs(input_argv(name), tmp_path / network.__name__,
                               monkeypatch, engine, network)
                   for engine, network in ((EventEngine, Network), (RefEngine, RefNetwork)))
    assert real == naive


def test_a_pair_with_no_latency_model_is_refused_before_any_draw():
    # loc-1 -> loc-2 has a model and loc-1 -> loc-3 none, with no default
    table = latency_table({"pairs": [{"src": "loc-1", "dst": "loc-2", "kind": "uniform",
                                      "lo": 1, "hi": 30}]})
    for byz in ({}, {1: 1}, {1: 2}):  # honest, active and passive (always dropping) senders
        engine, net, recorder = build_net(n_nodes=3, byz=byz, drop_prob=1.0, seed=2,
                                          latency=table)
        for _ in range(2):  # a refused audience keeps no partial route list
            with pytest.raises(ConfigError, match=r"\('loc-1', 'loc-3'\)"):
                net.broadcast(1, gossip())
        assert engine.scheduled_count == 0 and recorder.hook_calls == []
        for purpose in ("drop", "latency"):
            assert net.streams.stream(1, purpose).random() == \
                reference_stream(2, 1, purpose).random()


def counted_samples(monkeypatch):
    """Patch Distribution.sample_ms to count its calls per distribution object."""
    counts = collections.Counter()
    sample_ms = Distribution.sample_ms

    def counting(self, rng):
        counts[id(self)] += 1
        return sample_ms(self, rng)

    monkeypatch.setattr(Distribution, "sample_ms", counting)
    return counts


def test_a_constant_latency_is_sampled_once_per_pair_and_a_constant_processing_delay_never(monkeypatch):
    counts = counted_samples(monkeypatch)
    table = latency_table({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": "loc-3", "kind": "constant", "ms": 5}]})
    delays = processing_delays({"default": {"kind": "constant", "ms": 1}})
    engine, net, recorder, log = logged_net(n_nodes=5, latency=table, delays=delays)
    for i in range(4):
        net.broadcast(1, gossip(i))
    net.broadcast(1, [gossip(i) for i in range(4, 10)])
    net.broadcast(3, gossip(10))
    engine.run_until_idle()
    assert len(log) == 11 * 4
    pair, default = table.model_for(("loc-1", "loc-3")), table.default
    # the constant processing delay is read as its fixed_ms, never sampled
    assert counts == {id(pair): 2,     # routes 1->3 and 3->1
                      id(default): 6}  # routes 1->2, 1->4, 1->5, 3->2, 3->4 and 3->5
    assert sorted({(s, d, at - sent) for _, s, d, sent, at in recorder.deliveries}) == \
        [(1, 2, 10), (1, 3, 5), (1, 4, 10), (1, 5, 10),
         (3, 1, 5), (3, 2, 10), (3, 4, 10), (3, 5, 10)]


def test_random_models_draw_once_per_attempt_in_stream_order():
    # constant and random pairs mixed, and loc-1 -> loc-2 differs from loc-2 -> loc-1
    latency = latency_table({
        "default": {"kind": "uniform", "lo": 1, "hi": 30},
        "pairs": [{"src": "loc-1", "dst": "loc-2", "kind": "constant", "ms": 7},
                  {"src": "loc-2", "dst": "loc-1", "kind": "exponential", "rate": 0.1},
                  {"src": "loc-1", "dst": "loc-4", "kind": "constant", "ms": 3}]})
    delays = processing_delays({"transaction": {"kind": "normal", "mean": 5, "std": 3},
                                "default": {"kind": "constant", "ms": 2}})
    runs = []
    nodes = make_table(4, n_followers=2)  # nodes 5 and 6 hear only blocks
    for engine, network in ((EventEngine(), Network), (RefEngine(), RefNetwork)):
        streams, recorder = RngStreams(8), LoggedRecorder()
        recorder.engine = engine
        net = network(engine, streams, nodes, latency, delays, recorder)
        log = []
        for i in range(1, 7):
            net.register_node(i, ByzantineType(2 if i == 2 else 0), 0.3,
                              lambda sender, bodies, i=i: log.extend(
                                  (engine.now, i, sender, body) for body in bodies))
        net.broadcast(1, [gossip(i) for i in range(5)])
        net.broadcast(2, [gossip(i) for i in range(5, 9)])
        net.broadcast(1, m.Prepare(0, 1, 5))
        net.broadcast(2, m.BlockAnnounce(block_one()))
        net.broadcast(2, gossip(9))
        net.broadcast(6, gossip(10))  # a follower gossips to the authorities
        engine.run_until_idle()
        state = [streams.stream(node, purpose).random() for node in range(1, 7)
                 for purpose in ("drop", "latency", "processing-delay")]
        # a merged group hands its bodies member by member (network.py), so the
        # receive log is compared as a multiset; the recorded rows keep their order
        runs.append((sorted(log, key=lambda row: row[:3] + (type(row[3]).__name__,)),
                     recorder.deliveries, recorder.message_counts, recorder.drop_counts,
                     state))
    assert runs[0] == runs[1]
    assert 0 < runs[0][3]["TxGossip"]  # node 2 dropped some


def test_a_route_never_serves_another_sender():
    # loc-1 -> loc-3 is 5 ms; node 2 at loc-2 reaches node 3 on the 10 ms default
    table = latency_table({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": "loc-3", "kind": "constant", "ms": 5}]})
    _, net, _ = build_net(n_nodes=3, latency=table)
    assert latencies(net, 1, 3, 2) == [5, 5]
    assert latencies(net, 2, 3, 2) == [10, 10]
    assert latencies(net, 3, 1, 1) == [5]


def test_each_body_class_reaches_its_audience_but_the_sender_in_table_order(monkeypatch):
    # authorities 4, 7 and 1 and followers 2 and 5, listed out of id order; the
    # default delays are constant, so a draw is a route's latency sample
    counts = counted_samples(monkeypatch)
    table = parse_node_rows([{"id": i, "authority": int(i in (4, 7, 1)), "location": f"loc-{i}"}
                             for i in (4, 2, 7, 1, 5)])
    engine, streams, recorder = EventEngine(), LoggedStreams(3), LoggedRecorder()
    recorder.engine = engine
    net = Network(engine, streams, table, latency_table(None), processing_delays(None),
                  recorder)
    log = []
    for i in table.ids:
        net.register_node(i, ByzantineType.HONEST, 0.0, lambda sender, bodies, i=i: log.extend(
            (i, sender, type(body).__name__) for body in bodies))
    block = block_one()
    bodies = [gossip(), m.BlockMsg(block), m.PrePrepare(0, block), m.Prepare(0, 1, 5),
              m.Commit(0, 1, 5), m.ViewChange(1, 1), m.NewView(1), m.BlockAnnounce(block)]
    everyone, authorities = [4, 2, 1, 5], [4, 1]  # node 7's two audiences, without node 7
    expected = [(dst, 7, type(body).__name__) for body in bodies
                for dst in (everyone if type(body) in (m.BlockMsg, m.BlockAnnounce)
                            else authorities)] + [(dst, 2, "TxGossip") for dst in (4, 7, 1)]
    for second in (False, True):  # the second round builds no route
        asked, sampled = len(streams.asked), sum(counts.values())
        for body in bodies:
            net.broadcast(7, body)
        net.broadcast(2, gossip())  # a follower gossips to the authorities
        engine.run_until_idle()
        assert log == expected
        log.clear()
        if second:
            assert (len(streams.asked), sum(counts.values())) == (asked, sampled)
        else:  # one constant latency sample and one processing-delay stream per route
            assert streams.asked[asked:] == [(dst, "processing-delay")
                                             for dst in authorities + everyone + [4, 7, 1]]
            assert sum(counts.values()) - sampled == 2 + 4 + 3


class GossipNode(Node):
    """A Node that logs each gossip handler call."""

    def __init__(self):
        super().__init__(1, ByzantineType.HONEST, None)
        self.gossip_calls = []

    def on_gossip(self, sender, batch):
        self.gossip_calls.append((sender, len(batch)))
        super().on_gossip(sender, batch)


def test_the_gossip_handler_takes_a_batch_in_one_call():
    node = GossipNode()
    first, copy = Transaction(4, 2, "first", 0, 1), Transaction(4, 2, "copy", 9, 1)
    node.committed_txids.add(6)
    node.receive(2, [m.TxGossip(first), m.TxGossip(Transaction(6, 2, "x", 0, 1)),
                     m.TxGossip(copy), m.TxGossip(Transaction(5, 2, "y", 0, 1))])
    assert node.gossip_calls == [(2, 4)]
    assert list(node.pool) == [4, 5]  # the committed transaction is skipped
    assert node.pool[4] is first      # the first copy is kept
    node.receive(3, [m.TxGossip(Transaction(6, 3, "z", 0, 1))])
    assert node.gossip_calls == [(2, 4), (3, 1)] and 6 not in node.pool
