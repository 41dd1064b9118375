"""Digests, canonical serialization, chains, and validation delays."""

import hashlib
import json
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from permachain import ledger
from permachain.distributions import processing_delays
from permachain.errors import ConfigError, DigestInvalid, HeightGap, ParentMismatch
from permachain.ledger import (Block, Chain, Transaction, compute_digest, digest_hex,
                               genesis_block, hash64, make_block)
from permachain.messages import BlockMsg

# computed once from the documented reference serialization
GENESIS_DIGEST_HEX = "6f332dc2b239809f"


def tx(i, origin=1, created=100, day=1):
    return Transaction(i, origin, f"tx-{i}", created, day)


def test_digest_deterministic():
    b1 = make_block(1, 0, 2, 5, (tx(1), tx(2)), 1000)
    b2 = make_block(1, 0, 2, 5, (tx(1), tx(2)), 1000)
    assert b1.digest == b2.digest


def test_genesis_digest_golden():
    g = genesis_block()
    assert digest_hex(g.digest) == GENESIS_DIGEST_HEX
    # independent oracle: hand-built reference serialization
    raw = struct.pack("<QQQQQI", 0, 0, 0, 0, 0, 0)
    expected = int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")
    assert g.digest == expected


def test_canonical_serialization_layout():
    t = Transaction(7, 3, "ab", 1500, 1)
    raw = t.serialize()
    assert raw == (struct.pack("<Q", 7) + struct.pack("<Q", 3)
                   + struct.pack("<I", 2) + b"ab"
                   + struct.pack("<Q", 1500) + struct.pack("<Q", 1))
    b = make_block(1, 0, 2, 5, (t,), 2000)
    assert b.serialize_for_digest() == (
        struct.pack("<QQQQQI", 1, 0, 2, 5, 2000, 1) + raw)
    assert b.digest == hash64(b.serialize_for_digest())


def test_single_field_perturbations_never_collide():
    rng = random.Random(7)
    base = make_block(3, 1, 4, 99, (tx(1), tx(2), tx(3)), 5000)
    seen = {base.digest}
    for _ in range(10_000):
        which = rng.randrange(6)
        fields = {"height": 3, "view": 1, "proposer": 4,
                  "parent_digest": 99, "proposed_at": 5000}
        if which < 5:
            name = list(fields)[which]
            fields[name] = rng.randrange(2**32) + 6000
            blk = make_block(fields["height"], fields["view"], fields["proposer"],
                             fields["parent_digest"],
                             (tx(1), tx(2), tx(3)), fields["proposed_at"])
        else:
            blk = make_block(3, 1, 4, 99,
                             (tx(rng.randrange(10, 2**31)), tx(2), tx(3)), 5000)
        assert blk.digest not in seen or blk == base
        seen.add(blk.digest)


def test_append_valid_child():
    chain = Chain(owner=1)
    b = make_block(1, 0, 2, chain.tip.digest, (tx(1),), 1000)
    chain.append(b)
    assert chain.height == 1
    assert len(chain.blocks) == 2


def test_append_rejects_tampered_digest():
    chain = Chain(owner=1)
    good = make_block(1, 0, 2, chain.tip.digest, (tx(1),), 1000)
    bad = Block(good.height, good.view, good.proposer, good.parent_digest, good.txs,
                good.proposed_at, ~good.digest & (2**64 - 1))
    with pytest.raises(DigestInvalid):
        chain.append(bad)


def test_digest_memo_stays_with_its_block():
    chain = Chain(owner=1)
    good = make_block(1, 0, 2, chain.tip.digest, (tx(1),), 1000)
    assert compute_digest(good) == good.digest  # memoized on `good` from here on
    with pytest.raises(DigestInvalid):
        chain.append(BlockMsg(good).corrupted().block)
    moved = Block(good.height, good.view, good.proposer, good.parent_digest, good.txs, 1001,
                  good.digest)
    assert compute_digest(moved) != good.digest
    assert compute_digest(moved) == hash64(struct.pack("<QQQQQI", 1, 0, 2, chain.tip.digest,
                                                       1001, 1) + tx(1).serialize())
    chain.append(good)
    assert chain.height == 1


def test_a_new_block_is_hashed_once_and_a_flipped_copy_afresh(monkeypatch):
    hashed = []

    def counting_hash64(data):
        hashed.append(data)
        return hash64(data)

    monkeypatch.setattr(ledger, "hash64", counting_hash64)
    chain = Chain(owner=1)
    hashed.clear()  # genesis
    block = make_block(1, 0, 2, chain.tip.digest, (tx(1),), 1000)
    chain.append(block)  # verification reads the memo
    assert len(hashed) == 1
    flipped = BlockMsg(block).corrupted().block
    assert compute_digest(flipped) == block.digest != flipped.digest
    assert len(hashed) == 2


def test_append_rejects_height_gap():
    chain = Chain(owner=1)
    b = make_block(2, 0, 2, chain.tip.digest, (), 1000)
    with pytest.raises(HeightGap):
        chain.append(b)


def test_append_rejects_parent_mismatch():
    chain = Chain(owner=1)
    b = make_block(1, 0, 2, 12345, (), 1000)
    with pytest.raises(ParentMismatch):
        chain.append(b)


@settings(max_examples=30)
@given(st.lists(st.integers(0, 3), min_size=0, max_size=12))
def test_chain_validity_closed_under_append(tx_counts):
    # any chain built solely from successful appends keeps all invariants
    chain = Chain(owner=9)
    next_id = 1
    for i, n_txs in enumerate(tx_counts, start=1):
        txs = tuple(tx(next_id + j, created=i * 10) for j in range(n_txs))
        next_id += n_txs
        chain.append(make_block(i, 0, 1, chain.tip.digest, txs, i * 1000))
    heights = [b.height for b in chain.blocks]
    assert heights == list(range(len(chain.blocks)))
    for parent, child in zip(chain.blocks, chain.blocks[1:]):
        assert child.parent_digest == parent.digest
        assert compute_digest(child) == child.digest
    all_ids = [t.tx_id for b in chain.blocks for t in b.txs]
    assert len(all_ids) == len(set(all_ids))


def test_validation_delay_constant_and_fallback():
    vd = processing_delays({
        "consensus-message": {"kind": "constant", "ms": 2},
        "default": {"kind": "constant", "ms": 9},
    })
    g = random.Random(1)
    assert vd.model_for("consensus-message").sample_ms(g) == 2
    assert vd.model_for("block").sample_ms(g) == 9  # falls back to default


def test_validation_delay_no_default_errors():
    vd = processing_delays({"block": {"kind": "constant", "ms": 1}})
    with pytest.raises(ConfigError,
                       match="no processing-delay model for 'transaction' and no default"):
        vd.model_for("transaction")


def test_validation_delay_truncated_normal_nonnegative():
    vd = processing_delays({"default": {"kind": "normal", "mean": 5, "std": 1}})
    g = random.Random(1)
    assert all(vd.model_for("block").sample_ms(g) >= 0 for _ in range(2000))


def test_delay_preset_expands():
    vd = processing_delays({"preset": "hyperledger-fabric"})
    assert "transaction" in vd.models and vd.default is not None
    with pytest.raises(ConfigError):
        processing_delays({"preset": "nope"})


@pytest.mark.parametrize("spec, echo", [
    pytest.param({"default": {"kind": "constant", "ms": 3},
                  "transaction": {"kind": "uniform", "hi": 4, "lo": 2},
                  "block": {"kind": "exponential", "rate": 0.5}},
                 {"block": {"kind": "exponential", "rate": 0.5},
                  "transaction": {"kind": "uniform", "hi": 4, "lo": 2},
                  "default": {"kind": "constant", "ms": 3}}, id="per_kind"),
    pytest.param({"preset": "hyperledger-fabric"},
                 {"block": {"kind": "normal", "mean": 5.0, "std": 1.0},
                  "consensus-message": {"kind": "normal", "mean": 1.0, "std": 0.25},
                  "transaction": {"kind": "normal", "mean": 2.0, "std": 0.5},
                  "default": {"kind": "constant", "ms": 1}}, id="preset"),
])
def test_processing_delay_echo_round_trips(spec, echo):
    # the echo lists the kinds sorted, then the default, and builds the same table
    table = processing_delays(spec)
    assert json.dumps(table.to_dict()) == json.dumps(echo)
    echoed = processing_delays(table.to_dict())
    assert echoed.to_dict() == table.to_dict()
    for kind in ("transaction", "block", "consensus-message", "gossip"):
        assert echoed.model_for(kind).to_dict() == table.model_for(kind).to_dict()


def test_digest_hex_is_16_chars():
    assert len(digest_hex(genesis_block().digest)) == 16
    assert digest_hex(0) == "0" * 16
