"""Latency sampling, sender-side drops, and broadcast scheduling."""

import numpy as np
import pytest

from permachain import messages as m
from permachain.distributions import Distribution
from permachain.engine import EventEngine, RngStreams
from permachain.errors import ConfigError, UnknownNodeError
from permachain.faults import ByzantineType, FaultConfig
from permachain.ledger import Transaction, ValidationDelays
from permachain.network import LatencyTable, Network
from permachain.reporting import RunRecorder


def build_net(n_nodes=13, byz=None, drop_prob=0.4, latency=None, seed=1):
    byz = byz or {}
    engine = EventEngine()
    streams = RngStreams(seed)
    table = latency or LatencyTable(default=Distribution("constant", {"ms": 10}))
    delays = ValidationDelays.from_config({"default": {"kind": "constant", "ms": 1}})
    recorder = RunRecorder()
    recorder.engine = engine
    net = Network(engine, streams, table, delays, FaultConfig(drop_prob=drop_prob),
                  recorder=recorder)
    for i in range(1, n_nodes + 1):
        net.register_node(i, f"loc-{i}", ByzantineType(byz.get(i, 0)))
        engine.register(i, lambda env: None)
    return engine, net, recorder


def gossip(i=1):
    return m.TxGossip(Transaction(i, 1, "x", 0, 1))


def test_constant_latency_always_ten():
    _, net, _ = build_net()
    assert all(net.sample_latency(1, 2) == 10 for _ in range(20))


def test_degenerate_uniform_latency():
    table = LatencyTable(default=Distribution("uniform", {"lo": 5, "hi": 5}))
    _, net, _ = build_net(latency=table)
    assert all(net.sample_latency(1, 2) == 5 for _ in range(20))


def test_empirical_latency_reproducible_and_concentrated():
    table = LatencyTable(default=Distribution("empirical", {"values": [3, 7]}))
    _, net1, _ = build_net(latency=table, seed=9)
    _, net2, _ = build_net(latency=table, seed=9)
    seq1 = [net1.sample_latency(1, 2) for _ in range(10_000)]
    seq2 = [net2.sample_latency(1, 2) for _ in range(10_000)]
    assert seq1 == seq2
    assert abs(np.mean(seq1) - 5.0) <= 0.25


def test_pair_specific_model_with_default_fallback():
    table = LatencyTable.from_config({
        "default": {"kind": "constant", "ms": 10},
        "pairs": [{"src": "loc-1", "dst": "loc-2", "kind": "constant", "ms": 50}],
    })
    _, net, _ = build_net(latency=table)
    assert net.sample_latency(1, 2) == 50
    assert net.sample_latency(2, 1) == 50  # pairs apply symmetrically
    assert net.sample_latency(1, 3) == 10


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
        net.sample_latency(1, 2)


def test_send_schedules_delivery_after_latency_plus_processing():
    engine, net, _ = build_net()
    got = []
    engine.register(2, lambda env: got.append((engine.now, env)))
    assert net.send(1, 2, gossip()) is True
    engine.run_until_idle()
    t, env = got[0]
    assert env.sent_at == 0
    assert env.delivered_at == 10       # latency only
    assert t == 11                      # plus the receiver's processing delay
    assert env.delivered_at >= env.sent_at


def test_unknown_recipient_raises():
    _, net, _ = build_net(n_nodes=2)
    with pytest.raises(UnknownNodeError):
        net.send(1, 99, gossip())


def test_full_dropper_always_drops():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=1.0)
    assert not any(net.send(1, 2, gossip(i)) for i in range(20))
    assert recorder.drop_counts["TxGossip"] == 20


def test_passive_drop_fraction_concentrates():
    _, net, recorder = build_net(byz={1: 2}, drop_prob=0.4)
    n = 10_000
    dropped = sum(not net.send(1, 2, gossip(i)) for i in range(n))
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
    big.send(3, 2, gossip(50))  # unrelated traffic from another sender
    seq_big = [big.sample_latency(1, 2) for _ in range(50)]
    seq_small = [small.sample_latency(1, 2) for _ in range(50)]
    assert seq_big == seq_small


def test_active_sender_corrupts_digest_bearing_only():
    engine, net, _ = build_net(byz={1: 1})
    got = []
    engine.register(2, lambda env: got.append(env))
    from permachain.ledger import genesis_block, make_block
    block = make_block(1, 0, 1, genesis_block().digest, (), 0)
    net.send(1, 2, m.PrePrepare(0, 1, block))
    net.send(1, 2, gossip())
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
    net_h.send(1, 2, body)
    net_p.send(1, 2, body)
    engine_h.run_until_idle()
    engine_p.run_until_idle()
    assert seen_h == seen_p
