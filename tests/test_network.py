"""Latency sampling, sender-side drops, and broadcast scheduling."""

import numpy as np
import pytest

from permachain import messages as m
from permachain.distributions import Distribution, round_half_up_ms
from permachain.engine import EventEngine, RngStreams
from permachain.errors import ConfigError, UnknownNodeError
from permachain.faults import ByzantineType, FaultConfig
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
    """RunRecorder that logs its network hook calls."""

    def __init__(self):
        super().__init__()
        self.hook_calls = []

    def message_sent(self, kind, n):
        self.hook_calls.append(("sent", kind, n))
        super().message_sent(kind, n)

    def message_dropped(self, kind, n):
        self.hook_calls.append(("dropped", kind, n))
        super().message_dropped(kind, n)


def build_net(n_nodes=13, byz=None, drop_prob=0.4, latency=None, seed=1, overrides=None):
    byz = byz or {}
    engine = EventEngine()
    streams = LoggedStreams(seed)
    table = latency or LatencyTable(default=Distribution("constant", {"ms": 10}))
    delays = ValidationDelays.from_config({"default": {"kind": "constant", "ms": 1}})
    recorder = LoggedRecorder()
    recorder.engine = engine
    net = Network(engine, streams, table, delays,
                  FaultConfig(drop_prob=drop_prob, drop_prob_overrides=overrides),
                  recorder=recorder)
    for i in range(1, n_nodes + 1):
        net.register_node(i, f"loc-{i}", ByzantineType(byz.get(i, 0)))
        engine.register(i, lambda env: None)
    return engine, net, recorder


def gossip(i=1):
    return m.TxGossip(Transaction(i, 1, "x", 0, 1))


def latencies(net, src, dst, n):
    """Latencies of n single-recipient broadcasts, in send order."""
    envelopes = []
    net.engine.schedule = lambda delay, target, env: envelopes.append(env)
    for i in range(n):
        net.broadcast(src, gossip(i), [dst])
    return [env.delivered_at - env.sent_at for env in envelopes]


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
    assert abs(np.mean(seq1) - 5.0) <= 0.25


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
    engine, net, _ = build_net()
    got = []
    engine.register(2, lambda env: got.append((engine.now, env)))
    assert net.broadcast(1, gossip(), [2]) == 1
    engine.run_until_idle()
    t, env = got[0]
    assert env.sent_at == 0
    assert env.delivered_at == 10       # latency only
    assert t == 11                      # plus the receiver's processing delay
    assert env.delivered_at >= env.sent_at


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
    engine, net, _ = build_net(byz={1: 1})
    got = []
    engine.register(2, lambda env: got.append(env))
    from permachain.ledger import genesis_block, make_block
    block = make_block(1, 0, 1, genesis_block().digest, (), 0)
    net.broadcast(1, m.PrePrepare(0, 1, block), [2])
    net.broadcast(1, gossip(), [2])
    engine.run_until_idle()
    assert got[0].body.block.digest != block.digest  # tampered in transit
    assert got[1].body == gossip()                   # payload traffic untouched


def test_passive_sender_byte_identical_when_not_dropping():
    engine_h, net_h, _ = build_net(byz={}, seed=11)
    engine_p, net_p, _ = build_net(byz={1: 2}, drop_prob=0.0, seed=11)
    seen_h, seen_p = [], []
    engine_h.register(2, lambda env: seen_h.append(env))
    engine_p.register(2, lambda env: seen_p.append(env))
    body = gossip()
    net_h.broadcast(1, body, [2])
    net_p.broadcast(1, body, [2])
    engine_h.run_until_idle()
    engine_p.run_until_idle()
    assert seen_h == seen_p


@pytest.mark.parametrize("lo, hi", [(0, 1), (5, 30), (10, 10), (0.5, 17.25), (3, 9.75),
                                    (1e-3, 2.5e-3), (7, 10**9)])
def test_uniform_draw_matches_numpy_uniform(lo, hi):
    # sample_ms draws lo + (hi - lo) * random(), the double numpy's uniform returns
    dist = Distribution("uniform", {"lo": lo, "hi": hi})
    ours, numpys = np.random.default_rng(42), np.random.default_rng(42)
    assert [dist.sample_ms(ours) for _ in range(10_000)] == \
        [round_half_up_ms(numpys.uniform(lo, hi)) for _ in range(10_000)]


def test_passive_sender_draws_drop_stream_once_per_recipient():
    table = LatencyTable(default=Distribution("uniform", {"lo": 1, "hi": 30}))
    _, net, _ = build_net(byz={1: 2}, drop_prob=0.4, latency=table, seed=3)
    drop, latency = RngStreams(3).stream(1, "drop"), RngStreams(3).stream(1, "latency")
    recipients = list(range(1, 14))  # the sender itself is skipped
    scheduled = sum(net.broadcast(1, gossip(i), recipients) for i in range(10))
    assert 0 < scheduled < 120
    drop.random(120)          # one drop draw per non-self recipient
    latency.random(scheduled)  # one latency draw per delivery
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
