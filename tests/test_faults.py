"""Byzantine behaviors: digest corruption and probabilistic drops."""

import pytest

from conftest import make_table
from permachain import messages as m
from permachain.config import RunConfig
from permachain.distributions import latency_table, processing_delays
from permachain.engine import EventEngine, RngStreams
from permachain.errors import ConfigError
from permachain.faults import ByzantineType, should_drop
from permachain.ledger import compute_digest, genesis_block, make_block
from permachain.network import Network
from permachain.reporting import RunRecorder


def sample_block():
    return make_block(1, 0, 2, genesis_block().digest, (), 1000)


def test_corrupt_preprepare_fails_verification():
    block = sample_block()
    msg = m.PrePrepare(0, block)
    bad = msg.corrupted()
    assert bad.block.digest != block.digest
    assert compute_digest(bad.block) != bad.block.digest  # every verifier rejects


def test_corrupt_is_involution():
    block = sample_block()
    for msg in (m.PrePrepare(0, block),
                m.Prepare(0, 1, block.digest),
                m.Commit(0, 1, block.digest),
                m.BlockAnnounce(block),
                m.BlockMsg(block)):
        assert msg.corrupted().corrupted() == msg


def test_corrupt_viewchange_junks_only_the_certificate():
    block = sample_block()
    vote = m.ViewChange(3, 2, m.PrePrepare(1, block))
    bad = vote.corrupted()
    assert bad.proposed_view == 3 and bad.next_height == 2 and bad.lock.view == 1
    assert bad.lock.block.digest != block.digest
    assert compute_digest(bad.lock.block) != bad.lock.block.digest  # every verifier rejects
    bare = m.ViewChange(3, 2)
    assert bare.corrupted() == bare


def test_corrupt_leaves_tx_gossip_alone():
    block = sample_block()
    gossip = m.TxGossip(tx=None)
    assert gossip.corrupted() is gossip
    assert m.BlockMsg(block).corrupted() != m.BlockMsg(block)


def drop_fraction(byz, prob, n=10_000, seed=3):
    """Share of n broadcasts from node 1 to node 2, its one peer, that its network drops."""
    engine = EventEngine()
    net = Network(engine, RngStreams(seed), make_table(2), latency_table(None),
                  processing_delays(None), RunRecorder(engine))
    for node in (1, 2):
        net.register_node(node, byz, prob, lambda sender, body: None)
    return sum(1 - net.broadcast(1, m.TxGossip(tx=None)) for _ in range(n)) / n


def test_honest_and_active_never_drop():
    assert drop_fraction(ByzantineType.HONEST, 1.0) == 0.0
    assert drop_fraction(ByzantineType.ACTIVE, 1.0) == 0.0
    for byz in (ByzantineType.HONEST, ByzantineType.ACTIVE):
        assert not should_drop(byz, 1.0)


def test_passive_boundaries():
    assert drop_fraction(ByzantineType.PASSIVE, 0.0) == 0.0
    assert drop_fraction(ByzantineType.PASSIVE, 1.0) == 1.0
    assert not should_drop(ByzantineType.PASSIVE, 0.0)
    assert should_drop(ByzantineType.PASSIVE, 1e-9)


def test_passive_drop_rate_concentrates():
    # binomial bound: 10_000 draws at p=0.4 stay within +/- 0.02
    frac = drop_fraction(ByzantineType.PASSIVE, 0.4)
    assert 0.38 <= frac <= 0.42


def test_per_node_override():
    cfg = RunConfig("pbft", drop_prob=1.0, drop_prob_overrides={7: 0.0})
    assert (cfg.drop_prob_for(7), cfg.drop_prob_for(8)) == (0.0, 1.0)
    assert not should_drop(ByzantineType.PASSIVE, cfg.drop_prob_for(7))
    assert should_drop(ByzantineType.PASSIVE, cfg.drop_prob_for(8))


def test_invalid_probabilities_rejected():
    with pytest.raises(ConfigError, match="drop_prob"):
        RunConfig("pbft", drop_prob=1.5)
    with pytest.raises(ConfigError, match="drop_prob_overrides"):
        RunConfig("pbft", drop_prob=0.4, drop_prob_overrides={1: -0.1})
