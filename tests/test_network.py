"""Latency sampling, sender-side drops, and broadcast scheduling."""

import hashlib
import math
import random
import statistics
import zlib
from functools import partial

import pytest

from permachain import messages as m
from permachain.distributions import Distribution, round_half_up_ms
from permachain.engine import EventEngine, RngStreams
from permachain.errors import ConfigError, UnknownNodeError
from permachain.config import RunConfig
from permachain.faults import ByzantineType
from permachain.ledger import Transaction, ValidationDelays
from permachain.network import LatencyTable, Network
from permachain.reporting import RunRecorder


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

    def record_delivery(self, kind, src, dst, sent_at, delivered_at):
        self.deliveries.append((kind, src, dst, sent_at, delivered_at))
        super().record_delivery(kind, src, dst, sent_at, delivered_at)


def build_net(n_nodes=13, byz=None, drop_prob=0.4, latency=None, seed=1, overrides=None,
              receive=lambda node, sender, body: None):
    """A bare Network over nodes 1..n_nodes; node i hands each delivery to
    receive(i, sender, body)."""
    byz = byz or {}
    engine = EventEngine()
    streams = LoggedStreams(seed)
    table = latency or LatencyTable(default=Distribution("constant", {"ms": 10}))
    delays = ValidationDelays.from_config({"default": {"kind": "constant", "ms": 1}})
    recorder = LoggedRecorder()
    recorder.engine = engine
    faults = RunConfig("pbft", drop_prob=drop_prob, drop_prob_overrides=overrides or {})
    net = Network(engine, streams, table, delays, recorder=recorder)
    for i in range(1, n_nodes + 1):
        net.register_node(i, f"loc-{i}", ByzantineType(byz.get(i, 0)), faults.drop_prob_for(i),
                          partial(receive, i))
    return engine, net, recorder


def gossip(i=1):
    return m.TxGossip(Transaction(i, 1, "x", 0, 1))


def logged_net(**kwargs):
    """build_net, plus a log of every delivery as (time, node, sender, body), in
    dispatch order."""
    log = []
    engine, net, recorder = build_net(
        receive=lambda node, sender, body: log.append((engine.now, node, sender, body)),
        **kwargs)
    return engine, net, recorder, log


def latencies(net, src, dst, n):
    """Latencies of n single-recipient broadcasts, in send order."""
    groups = []
    net.engine.schedule = lambda delay, target, group: groups.append(group)
    for i in range(n):
        net.broadcast(src, gossip(i), [dst])
    return [lat for _src, _sent_at, _body, members in groups for _dst, lat in members]


def test_constant_latency_always_ten():
    _, net, _ = build_net()
    assert latencies(net, 1, 2, 20) == [10] * 20


def test_degenerate_uniform_latency():
    table = LatencyTable(default=Distribution("uniform", {"lo": 5, "hi": 5}))
    _, net, _ = build_net(latency=table)
    assert latencies(net, 1, 2, 20) == [5] * 20


def test_empirical_latency_reproducible_and_concentrated():
    table = LatencyTable(default=Distribution("empirical", {"values": [3, 7]}))
    _, net1, _ = build_net(latency=table, seed=9)
    _, net2, _ = build_net(latency=table, seed=9)
    seq1 = latencies(net1, 1, 2, 10_000)
    seq2 = latencies(net2, 1, 2, 10_000)
    assert seq1 == seq2
    assert abs(statistics.fmean(seq1) - 5.0) <= 0.25


def test_pair_specific_model_with_default_fallback():
    table = LatencyTable.from_config({
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
    table = LatencyTable.from_config(spec)
    assert table.to_dict() == spec  # every explicit entry once, in input order
    assert table.model_for("b", "a").params == {"ms": 50}
    assert table.model_for("a", "c").kind == "uniform"
    echoed = LatencyTable.from_config(table.to_dict())
    locations = ("a", "b", "c", "d")
    for src in locations:
        for dst in locations:
            assert echoed.model_for(src, dst).to_dict() == table.model_for(src, dst).to_dict()


def test_no_model_no_default_errors():
    table = LatencyTable(default=None)
    _, net, _ = build_net(latency=table)
    with pytest.raises(ConfigError):
        net.broadcast(1, gossip(), [2])


def test_send_schedules_delivery_after_latency_plus_processing():
    engine, net, recorder, log = logged_net()
    assert net.broadcast(1, gossip(), [2]) == 1
    engine.run_until_idle()
    (kind, src, dst, sent_at, delivered_at), = recorder.deliveries
    assert (kind, src, dst) == ("transaction", 1, 2)
    assert sent_at == 0
    assert delivered_at == 10           # latency only
    assert log == [(11, 2, 1, gossip())]  # plus the receiver's processing delay
    assert delivered_at >= sent_at


def test_unknown_recipient_raises():
    _, net, _ = build_net(n_nodes=2)
    with pytest.raises(UnknownNodeError):
        net.broadcast(1, gossip(), [99])
    with pytest.raises(UnknownNodeError):
        net.broadcast(99, gossip(), [1])


def test_full_dropper_always_drops():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=1.0)
    assert not any(net.broadcast(1, gossip(i), [2]) for i in range(20))
    assert recorder.drop_counts["TxGossip"] == 20


def test_passive_drop_fraction_concentrates():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=0.4)
    n = 10_000
    dropped = sum(1 - net.broadcast(1, gossip(i), [2]) for i in range(n))
    assert 0.38 <= dropped / n <= 0.42
    assert recorder.drop_counts["TxGossip"] == dropped
    assert recorder.message_counts["TxGossip"] == n - dropped


def test_broadcast_counts_scheduled():
    _, net, _ = build_net()
    assert net.broadcast(1, gossip(), list(range(2, 14))) == 12
    assert net.broadcast(1, gossip(), []) == 0
    _, net2, _ = build_net(byz={1: 2}, drop_prob=1.0)
    assert net2.broadcast(1, gossip(), list(range(2, 14))) == 0


def test_broadcast_mean_scheduled_under_partial_drops():
    # expectation: 8 recipients x 0.6 keep-probability = 4.8
    _, net, _ = build_net(n_nodes=9, byz={1: 2}, drop_prob=0.4)
    rounds = 5000
    total = sum(net.broadcast(1, gossip(i), list(range(2, 10))) for i in range(rounds))
    assert abs(total / rounds - 4.8) <= 0.1


def test_latency_draws_unaffected_by_other_nodes():
    # per-sender streams: dropping an unrelated node leaves draws unchanged
    table = LatencyTable(default=Distribution("uniform", {"lo": 1, "hi": 30}))
    _, big, _ = build_net(n_nodes=13, latency=table, seed=5)
    _, small, _ = build_net(n_nodes=3, latency=table, seed=5)
    big.broadcast(3, gossip(50), [2])  # unrelated traffic from another sender
    seq_big = latencies(big, 1, 2, 50)
    seq_small = latencies(small, 1, 2, 50)
    assert seq_big == seq_small


def test_active_sender_corrupts_digest_bearing_only():
    engine, net, _, log = logged_net(byz={1: 1})
    from permachain.ledger import genesis_block, make_block
    block = make_block(1, 0, 1, genesis_block().digest, (), 0)
    net.broadcast(1, m.PrePrepare(0, block), [2])
    net.broadcast(1, gossip(), [2])
    engine.run_until_idle()
    got = [body for _t, _node, _sender, body in log]
    assert got[0].block.digest != block.digest  # tampered in transit
    assert got[1] == gossip()                   # payload traffic untouched


def test_passive_sender_byte_identical_when_not_dropping():
    engine_h, net_h, recorder_h, seen_h = logged_net(byz={}, seed=11)
    engine_p, net_p, recorder_p, seen_p = logged_net(byz={1: 2}, drop_prob=0.0, seed=11)
    body = gossip()
    net_h.broadcast(1, body, [2])
    net_p.broadcast(1, body, [2])
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
    table = LatencyTable(default=Distribution("uniform", {"lo": 1, "hi": 30}))
    _, net, recorder, log = logged_net(byz={1: 2}, drop_prob=0.4, latency=table, seed=3)
    drop, latency = reference_stream(3, 1, "drop"), reference_stream(3, 1, "latency")
    expected = []
    for i in range(10):
        for dst in range(2, 14):
            if not drop.random() < 0.4:
                expected.append((i, dst, reference_draw("uniform", table.default.params,
                                                        latency)))
    for i in range(10):
        net.broadcast(1, gossip(i), range(1, 14))  # the sender itself is skipped
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
        assert net.broadcast(src, gossip(), range(1, 14)) == 12
    assert [node for node, purpose in net.streams.asked if purpose == "drop"] == [3]


def test_broadcast_counts_its_sends_and_drops_once():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=0.4)
    scheduled = net.broadcast(1, gossip(), list(range(1, 14)))
    assert 0 < scheduled < 12
    assert recorder.hook_calls == [("sent", "TxGossip", scheduled),
                                   ("dropped", "TxGossip", 12 - scheduled)]
    assert recorder.message_counts == {"TxGossip": scheduled}
    assert recorder.drop_counts == {"TxGossip": 12 - scheduled}
    recorder.hook_calls.clear()
    assert net.broadcast(2, m.Prepare(0, 1, 5), [1, 3]) == 2
    assert net.broadcast(2, m.Prepare(0, 1, 5), [2]) == 0  # only itself: nothing to count
    assert recorder.hook_calls == [("sent", "Prepare", 2)]
    assert "Prepare" not in recorder.drop_counts


def test_one_event_per_delivery_instant():
    engine, net, _, log = logged_net()  # constant 10 ms latency, constant 1 ms processing
    for i in range(10):
        assert net.broadcast(1, gossip(i), range(1, 14)) == 12
    assert engine.scheduled_count == 10
    engine.run_until_idle()
    assert engine.dispatched_count == 10
    assert [(t, node, sender, body.tx.tx_id) for t, node, sender, body in log] == \
        [(11, node, 1, i) for i in range(10) for node in range(2, 14)]


def mixed_delay_net(receive):
    """Nodes 1-9; from node 1, nodes 3 and 5 are 5 ms away, node 7 is 20 ms, the rest 10 ms.

    With 1 ms processing, a broadcast from node 1 to nodes 2-7 arrives at 2, 4
    and 6 after 11 ms, at 3 and 5 after 6 ms and at 7 after 21 ms.
    """
    table = LatencyTable.from_config({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": f"loc-{dst}", "kind": "constant", "ms": ms}
                  for dst, ms in ((3, 5), (5, 5), (7, 20))],
    })
    return build_net(n_nodes=9, latency=table, receive=receive)


def test_grouped_deliveries_keep_the_order_of_one_event_per_recipient():
    log = []

    def receive(node, sender, body):
        log.append((engine.now, node))
        if node == 2:  # node 2 schedules an event at its own delivery instant
            engine.schedule(0, 9, "scheduled during the group")

    engine, net, _ = mixed_delay_net(receive)
    for target in (8, 9):  # engine events of their own, not deliveries
        engine.register(target, lambda payload, target=target: log.append((engine.now, target)))
    for t in (6, 11):
        engine.schedule(t, 8, "scheduled before the broadcast")
    assert net.broadcast(1, gossip(), range(2, 8)) == 6
    for t in (6, 11):
        engine.schedule(t, 9, "scheduled after the broadcast")
    assert engine.scheduled_count == 4 + 3
    engine.run_until_idle()
    assert log == [
        (6, 8), (6, 3), (6, 5), (6, 9),
        (11, 8), (11, 2), (11, 4), (11, 6), (11, 9), (11, 9),
        (21, 7),
    ]
    assert engine.dispatched_count == 4 + 3 + 1


def test_a_group_past_the_deadline_is_discarded_whole():
    log = []
    engine, net, _ = mixed_delay_net(lambda node, sender, body: log.append((engine.now, node)))
    net.broadcast(1, gossip(), range(2, 8))
    engine.run_until_idle(deadline=10)
    assert log == [(6, 3), (6, 5)]
    assert (engine.scheduled_count, engine.dispatched_count, engine.discarded_count) == (3, 1, 2)
    assert engine.scheduled_count == engine.dispatched_count + engine.discarded_count
    assert engine.pending() == 0
