"""Event engine: ordering, fast-forward, deadlines, determinism."""

import pytest
from hypothesis import given, strategies as st

from permachain.engine import COORDINATOR, EventEngine, RngStreams


def collector(engine):
    seen = []
    engine.register(COORDINATOR, lambda payload: seen.append((engine.now, payload)))
    return seen


def test_schedule_fires_at_now_plus_delay():
    engine = EventEngine()
    seen = collector(engine)
    engine.schedule(5, COORDINATOR, "a")
    assert engine.run_until_idle() == 5
    assert seen == [(5, "a")]


def test_same_time_events_dispatch_in_insertion_order():
    engine = EventEngine()
    seen = collector(engine)
    engine.schedule(1, COORDINATOR, "first")
    engine.schedule(2, COORDINATOR, "second")
    engine.schedule(2, COORDINATOR, "third")
    assert engine.run_until_idle() == 2
    assert [p for _, p in seen] == ["first", "second", "third"]


def test_negative_delay_rejected():
    engine = EventEngine()
    with pytest.raises(ValueError):
        engine.schedule(-1, COORDINATOR, "x")


def test_empty_queue_returns_current_time():
    engine = EventEngine()
    assert engine.run_until_idle() == 0
    engine.advance_to(42)
    assert engine.run_until_idle() == 42


def test_deadline_discards_future_events():
    engine = EventEngine()
    seen = collector(engine)
    engine.schedule(10, COORDINATOR, "early")
    engine.schedule(100, COORDINATOR, "late")
    end = engine.run_until_idle(deadline=50)
    assert end == 10
    assert [p for _, p in seen] == ["early"]
    assert engine.pending() == 0
    assert engine.discarded_count == 1


def test_advance_to_requires_future_time_and_empty_horizon():
    engine = EventEngine()
    engine.advance_to(3_600_000)
    assert engine.advance_to(86_400_000) == 86_400_000
    with pytest.raises(ValueError):
        engine.advance_to(86_400_000 - 1)
    engine.schedule(100, COORDINATOR, "pending")
    with pytest.raises(ValueError):
        engine.advance_to(engine.now + 200)


def test_work_proportionality_counters():
    engine = EventEngine()
    collector(engine)
    for t in (1, 2, 3, 4, 5):
        engine.schedule(t, COORDINATOR, t)
    engine.run_until_idle(deadline=3)
    assert engine.scheduled_count == 5
    assert engine.dispatched_count == 3
    assert engine.discarded_count == 2
    assert engine.dispatched_count + engine.discarded_count == engine.scheduled_count


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 1000)), max_size=40))
def test_dispatch_order_is_deterministic_and_monotone(items):
    traces = []
    for _ in range(2):
        engine = EventEngine()
        trace = []
        engine.register(COORDINATOR, lambda p, tr=trace, e=engine: tr.append((e.now, p)))
        for delay, tag in items:
            engine.schedule(delay, COORDINATOR, tag)
        engine.run_until_idle()
        traces.append(trace)
    assert traces[0] == traces[1]
    times = [t for t, _ in traces[0]]
    assert times == sorted(times)


def test_rng_streams_reproducible_and_independent():
    a = RngStreams(123)
    b = RngStreams(123)
    draws_a = [a.stream(1, "latency").random() for _ in range(5)]
    draws_b = [b.stream(1, "latency").random() for _ in range(5)]
    assert draws_a == draws_b

    # consuming another node's stream must not perturb this one
    c = RngStreams(123)
    c.stream(2, "latency").random()
    c.stream(1, "drop").random()
    draws_c = [c.stream(1, "latency").random() for _ in range(5)]
    assert draws_c == draws_a


def test_rng_streams_differ_across_purposes_and_seeds():
    s = RngStreams(7)
    assert s.stream(1, "latency").random() != s.stream(1, "drop").random()
    assert RngStreams(8).stream(1, "latency").random() != \
        RngStreams(9).stream(1, "latency").random()
    with pytest.raises(ValueError):
        RngStreams(-1)
