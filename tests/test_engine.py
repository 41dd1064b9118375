"""Event engine: ordering, fast-forward, deadlines, determinism."""

import heapq
from itertools import count

import pytest
from hypothesis import given, strategies as st

from permachain.engine import COORDINATOR, EventEngine, RngStreams


def collector(engine, targets=(COORDINATOR,)):
    """Log (time, item) for each item of each event on `targets`, in dispatch order."""
    seen = []
    for target in targets:
        engine.register(target, lambda items: seen.extend((engine.now, item) for item in items))
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


def test_deadline_is_inclusive():
    engine = EventEngine()
    seen = collector(engine)
    engine.schedule(50, COORDINATOR, "at deadline")
    engine.schedule(51, COORDINATOR, "one past")
    assert engine.run_until_idle(deadline=50) == 50
    assert [p for _, p in seen] == ["at deadline"]
    assert (engine.dispatched_count, engine.discarded_count) == (1, 1)


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
        engine.register(COORDINATOR, lambda items, tr=trace, e=engine:
                        tr.extend((e.now, item) for item in items))
        for delay, tag in items:
            engine.schedule(delay, COORDINATOR, tag)
        engine.run_until_idle()
        traces.append(trace)
    assert traces[0] == traces[1]
    times = [t for t, _ in traces[0]]
    assert times == sorted(times)


TARGETS = (COORDINATOR, 1, 2, -1)

# An event: (delay, target, children), each child queued by the event's own
# handler, in order, relative to the instant the handler runs; a child at
# delay 0 may join the list of the event being dispatched.
delays = st.just(0) | st.integers(0, 6)
event_trees = st.recursive(
    st.tuples(delays, st.sampled_from(TARGETS), st.just(())),
    lambda children: st.tuples(delays, st.sampled_from(TARGETS),
                               st.lists(children, max_size=3).map(tuple)),
    max_leaves=25)


def run_engine(roots, deadline):
    """Run `roots` through an EventEngine; returns (engine, [(time, target, name)])."""
    engine = EventEngine()
    trace = []

    def handler(target):
        def handle(items):
            for name, children in items:  # a child may join this very list
                trace.append((engine.now, target, name))
                for i, (delay, child_target, grandchildren) in enumerate(children):
                    engine.schedule(delay, child_target, (f"{name}.{i}", grandchildren))
        return handle

    for target in TARGETS:
        engine.register(target, handler(target))
    for i, (delay, target, children) in enumerate(roots):
        engine.schedule(delay, target, (str(i), children))
    assert engine.run_until_idle(deadline) == (trace[-1][0] if trace else 0)
    return engine, trace


def reference_order(roots, deadline):
    """The same run on one heap entry per item, popped in (fire_at, seq) order;
    returns (trace, [(time, target)] of the entries left past the deadline, in
    that order)."""
    heap, seq, trace = [], count(), []
    for i, (delay, target, children) in enumerate(roots):
        heapq.heappush(heap, (delay, next(seq), target, str(i), children))
    while heap and (deadline is None or heap[0][0] <= deadline):
        now, _, target, name, children = heapq.heappop(heap)
        trace.append((now, target, name))
        for i, (delay, child_target, grandchildren) in enumerate(children):
            heapq.heappush(heap, (now + delay, next(seq), child_target, f"{name}.{i}",
                                  grandchildren))
    return trace, [(at, target) for at, _, target, _, _ in sorted(heap)]


def engine_events(entries):
    """How many engine events carry `entries` ((time, target, ...) in dispatch
    order): a run of one instant's items for one target shares one."""
    keys = [(at, target) for at, target, *_ in entries]
    return sum(1 for i, key in enumerate(keys) if i == 0 or keys[i - 1] != key)


@given(st.lists(event_trees, max_size=12), st.none() | st.integers(0, 20))
def test_dispatch_order_matches_a_heap_of_fire_at_and_seq(roots, deadline):
    engine, trace = run_engine(roots, deadline)
    expected, left = reference_order(roots, deadline)
    assert trace == expected
    assert (engine.dispatched_count, engine.discarded_count) == \
        (engine_events(expected), engine_events(left))
    assert engine.scheduled_count == engine.dispatched_count + engine.discarded_count
    assert engine.pending() == 0


def test_an_item_joined_to_the_entry_being_delivered_runs_at_its_tail():
    engine = EventEngine()
    seen = []

    def handle(items):
        for item in items:
            seen.append((engine.now, item))
            if item == "z":
                engine.schedule(0, -1, "c")  # the running [z] is the instant's last: joins it
                engine.schedule(0, COORDINATOR, "x")
                engine.schedule(0, -1, "d")  # after x: a new entry
                engine.schedule(1, -1, "e")

    engine.register(-1, handle)
    engine.register(COORDINATOR, lambda items: seen.extend((engine.now, x) for x in items))
    engine.schedule(2, -1, "a")
    engine.schedule(2, -1, "b")
    engine.schedule(2, COORDINATOR, "w")
    engine.schedule(2, -1, "z")
    assert engine.scheduled_count == 3
    assert engine.run_until_idle() == 3
    assert seen == [(2, "a"), (2, "b"), (2, "w"), (2, "z"), (2, "c"), (2, "x"), (2, "d"),
                    (3, "e")]
    assert engine.scheduled_count == engine.dispatched_count == 6


def test_advance_to_refuses_to_skip_a_pending_instant():
    engine = EventEngine()
    seen = collector(engine, (COORDINATOR, 1))
    engine.schedule(5, COORDINATOR, "a")
    engine.schedule(5, 1, "b")  # another target: an event of its own
    engine.schedule(9, COORDINATOR, "c")
    assert engine.advance_to(5) == 5  # lands on the instant, skips nothing
    with pytest.raises(ValueError):
        engine.advance_to(6)
    assert (engine.now, engine.pending(), seen) == (5, 3, [])
    assert engine.run_until_idle() == 9
    assert seen == [(5, "a"), (5, "b"), (9, "c")]
    assert engine.advance_to(10) == 10  # a drained instant holds nothing back


def raising_collector(engine, targets=(COORDINATOR,)):
    """Log each item of each event on `targets`; an item "boom" raises instead."""
    seen = []

    def handle(items):
        for item in items:
            if item == "boom":
                raise RuntimeError(item)
            seen.append(item)

    for target in targets:
        engine.register(target, handle)
    return seen


def test_a_raising_handler_leaves_the_rest_of_its_instant_queued():
    engine = EventEngine()
    seen = raising_collector(engine, (COORDINATOR, 1))
    for target, item in ((COORDINATOR, "a"), (1, "boom"), (COORDINATOR, "b")):
        engine.schedule(3, target, item)  # alternating targets: an event per item
    with pytest.raises(RuntimeError):
        engine.run_until_idle()
    assert (seen, engine.pending()) == (["a"], 1)
    assert engine.run_until_idle() == 3
    assert seen == ["a", "b"]
    assert engine.scheduled_count == engine.dispatched_count == 3


def test_a_raise_drops_the_rest_of_its_own_list():
    engine = EventEngine()
    seen = raising_collector(engine)
    for item in ("a", "boom", "b"):
        engine.schedule(3, COORDINATOR, item)  # one target: one event [a, boom, b]
    with pytest.raises(RuntimeError):
        engine.run_until_idle()
    assert (seen, engine.pending()) == (["a"], 0)  # b went with its event
    engine.schedule(0, COORDINATOR, "c")  # the emptied instant takes a new event
    assert engine.run_until_idle() == 3
    assert seen == ["a", "c"]
    assert engine.scheduled_count == engine.dispatched_count == 2


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
