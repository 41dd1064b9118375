"""Seeded invariant fuzzer over random pbft, poa and poet runs.

Each example is a whole run with constant, uniform or exponential latency.
A pbft run has 4-10 authorities and 0-2 followers, up to f mixed
active/passive faults among the authorities, and 1-2 days of load on honest
nodes only; with 6 authorities two quorums need not intersect, so that run
must be refused with a ConfigError. A poa or poet run is fault-free (those
protocols assume no faulty nodes) with 1-7 authorities, 1-3 followers, 2-4
days of load on any node and, under poet, one of three lottery rates. Every
run must keep benign chains in prefix agreement, commit no transaction twice
on any benign chain, account for every scheduled event, start day d at
(d - 1) * day_length_ms and end it no later than one day length after that,
and leave no unreachable reference cycle (see `collector_off_run`). In the
long tier, each run of either kind must also write the bytes of the naive
engine, network and recorder in tests/reference.py, or stop on the same error.

The example count comes from the active Hypothesis profile. The default
profile is the fast tier in the tier-1 suite; the `long` profile registered in
conftest.py runs 500 examples:

    PYTHONPATH=src python -m pytest -q tests/test_fuzz.py --hypothesis-profile=long
"""

import gc
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from conftest import quick_run
from permachain.errors import ConfigError, PermachainError
from permachain.reporting import check_benign_consistency
from reference import NAIVE, REAL, swap_into_orchestrator

LATENCIES = st.one_of(
    st.builds(lambda ms: {"kind": "constant", "ms": ms}, st.integers(1, 50)),
    st.builds(lambda lo, span: {"kind": "uniform", "lo": lo, "hi": lo + span},
              st.integers(0, 30), st.integers(0, 40)),
    st.builds(lambda mean: {"kind": "exponential", "rate": 1 / mean}, st.integers(2, 40)),
)


@st.composite
def pbft_runs(draw):
    n = draw(st.integers(4, 10))
    followers = draw(st.integers(0, 2))
    faulty = draw(st.lists(st.integers(1, n), max_size=(n - 1) // 3, unique=True))
    byzantine = {a: draw(st.sampled_from([1, 2])) for a in faulty}  # active / passive
    honest = [i for i in range(1, n + followers + 1) if i not in byzantine]
    loads = {day: draw(st.dictionaries(st.sampled_from(honest), st.integers(1, 12),
                                       max_size=3))
             for day in range(1, draw(st.integers(1, 2)) + 1)}
    return dict(loads_by_day=loads, n_authorities=n, n_followers=followers,
                byzantine=byzantine, seed=draw(st.integers(0, 2**16)),
                latency={"default": draw(LATENCIES)},
                day_length_ms=draw(st.sampled_from([4_000, 120_000])))


@st.composite
def poa_runs(draw):
    n = draw(st.integers(1, 7))
    followers = draw(st.integers(1, 3))
    nodes = list(range(1, n + followers + 1))
    loads = {day: draw(st.dictionaries(st.sampled_from(nodes), st.integers(1, 12), max_size=3))
             for day in range(1, draw(st.integers(2, 4)) + 1)}
    return dict(loads_by_day=loads, protocol=draw(st.sampled_from(["poa", "poet"])),
                n_authorities=n, n_followers=followers, seed=draw(st.integers(0, 2**16)),
                latency={"default": draw(LATENCIES)},
                poet_rate=draw(st.sampled_from([0.0005, 0.002, 0.02])),
                day_length_ms=draw(st.sampled_from([4_000, 120_000])))


@settings(deadline=None, derandomize=True)
@given(pbft_runs())
def test_random_pbft_runs_keep_the_invariants(run):
    if run["n_authorities"] == 6:  # two 2f+1 = 3 quorums need not intersect
        with pytest.raises(ConfigError, match="6 authorities"):
            quick_run(**run, empty_block_threshold=3)
        return
    check_invariants(*collector_off_run(run))


@settings(deadline=None, derandomize=True)
@given(poa_runs())
def test_random_poa_and_poet_runs_keep_the_invariants(run):
    check_invariants(*collector_off_run(run))


def outputs(run, classes):
    """The report, timeline and propagation rows of `run` with `classes`
    (reference.REAL or reference.NAIVE) swapped into the orchestrator, or the
    error that stopped it."""
    records = io.StringIO(newline="")
    with pytest.MonkeyPatch.context() as monkeypatch:
        swap_into_orchestrator(monkeypatch, classes)
        try:
            result = quick_run(**run, empty_block_threshold=3, records=records)
        except PermachainError as exc:
            return repr(exc)
    return (json.dumps(result.report, sort_keys=True), result.world.recorder.timeline,
            records.getvalue())


@pytest.mark.long
@settings(deadline=None, derandomize=True)
@given(st.one_of(pbft_runs(), poa_runs()))
def test_random_runs_write_the_bytes_of_the_reference_model(run):
    assert outputs(run, REAL) == outputs(run, NAIVE)


def collector_off_run(run):
    """The result of `run`, and how many unreachable objects it left.

    The collector is off from before the run to the count. So the youngest
    generation holds exactly the objects the run made, and collecting only
    it counts their cycles without a full pass over the test process's heap
    for each example.
    """
    gc.collect(0)
    gc.disable()
    try:
        result = quick_run(**run, empty_block_threshold=3)
        return result, gc.collect(0)
    finally:
        gc.enable()


def check_invariants(result, unreachable):
    assert unreachable == 0, f"the run left {unreachable} objects in unreachable cycles"
    world = result.world
    check_benign_consistency(result.report["nodes"], world.benign)
    for n in world.benign:
        tx_ids = [tx.tx_id for block in world.nodes[n].chain.blocks for tx in block.txs]
        assert len(tx_ids) == len(set(tx_ids)), f"node {n} committed a transaction twice"
    engine = world.engine
    assert engine.scheduled_count == engine.dispatched_count + engine.discarded_count
    length = world.config.day_length_ms
    for day in result.days:  # no day overruns into the next one's start
        assert day["day_start_sim_time"] == (day["day"] - 1) * length
        assert day["day_end_sim_time"] <= day["day_start_sim_time"] + length
