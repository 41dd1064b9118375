"""Load schedules, injection batches, and the pending pool."""

import json

import pytest
from hypothesis import given, strategies as st

from permachain.errors import ScheduleError
from permachain.ledger import Transaction
from permachain.workload import TransactionPool, batches, load_schedule, parse_schedule

# shaped like the documented input: rows of per-node counts per day
SAMPLE = {
    "days": [
        {"day": 1, "loads": {"1": 5, "2": 14, "111": 112}},
        {"day": 2, "loads": {"1": 8, "2": 33, "111": 78}},
        {"day": 180, "loads": {"1": 10, "2": 31, "111": 97}},
    ]
}


def test_parse_known_cells():
    sched = parse_schedule(SAMPLE)
    assert sched.loads_for(1)[1] == 5
    assert sched.loads_for(2)[2] == 33
    assert sched.loads_for(180)[111] == 97
    assert sched.days == [1, 2, 180]


def test_load_schedule_from_file(tmp_path):
    path = tmp_path / "loads.json"
    path.write_text(json.dumps(SAMPLE))
    sched = load_schedule(path, known_nodes={1, 2, 111})
    assert sched.total() == 5 + 14 + 112 + 8 + 33 + 78 + 10 + 31 + 97


def test_negative_count_names_the_cell():
    bad = {"days": [{"day": 3, "loads": {"2": -3}}]}
    with pytest.raises(ScheduleError) as err:
        parse_schedule(bad)
    assert "day=3" in str(err.value) and "node=2" in str(err.value)


def test_unknown_node_rejected():
    with pytest.raises(ScheduleError) as err:
        parse_schedule(SAMPLE, known_nodes={1, 2})
    assert "unknown node" in str(err.value)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "loads.json"
    path.write_text("{not json")
    with pytest.raises(ScheduleError):
        load_schedule(path)


def test_day_out_of_range():
    sched = parse_schedule(SAMPLE)
    with pytest.raises(ScheduleError):
        sched.loads_for(7)


def test_policy_batches_even_split_remainder_first():
    # a zero interval or spread is refused by RunConfig (see test_cli's bad-config table)
    assert batches(10, 4) == [3, 3, 2, 2]
    assert batches(2, 4) == [1, 1]  # fewer txs than ticks
    assert batches(0, 4) == []


def tx(i, created):
    return Transaction(i, 1, f"tx-{i}", created, 1)


def test_take_batch_all_when_under_capacity():
    pool = TransactionPool()
    for i in range(3):
        pool.add(tx(i, 100))
    got = pool.take_batch(10)
    assert len(got) == 3 and len(pool) == 0


def test_take_batch_fifo_by_creation_then_id():
    pool = TransactionPool()
    pool.add(tx(5, 300))
    pool.add(tx(1, 100))
    pool.add(tx(9, 100))
    pool.add(tx(2, 200))
    got = pool.take_batch(3)
    assert [t.tx_id for t in got] == [1, 9, 2]
    assert 5 in pool


@given(st.lists(st.tuples(st.integers(0, 500), st.integers(0, 10_000)),
                min_size=0, max_size=60, unique_by=lambda p: p[1]),
       st.integers(1, 20))
def test_take_batch_matches_sort_oracle(pairs, capacity):
    # oracle: brute-force sort of the full creation log
    pool = TransactionPool()
    txs = [tx(tx_id, created) for created, tx_id in pairs]
    for t in txs:
        pool.add(t)
    expected = sorted(txs, key=lambda t: (t.created_at, t.tx_id))[:capacity]
    assert list(pool.take_batch(capacity)) == expected


def test_take_batch_empty_pool_gives_empty_block_payload():
    assert TransactionPool().take_batch(10) == ()


def test_duplicate_add_is_idempotent():
    pool = TransactionPool()
    pool.add(tx(1, 50))
    pool.add(tx(1, 50))
    assert len(pool) == 1
