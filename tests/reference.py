"""A naive engine, network and recorder that the real ones must match byte for byte.

`RefEngine` keeps one heap entry per item, ordered by (fire_at, seq), and
hands each item to its target's handler as a one-item list. `RefNetwork`
schedules one event per body and member of the body's audience but the
sender, in node-table order, and makes every draw itself, per attempt: the
sender's drop stream (a passive sender with p > 0), then, if kept, the
sender's latency stream and the recipient's processing-delay stream.
`RefRecorder` keeps each message sent or dropped, each delivery of a body to
a member and each append or view adoption as a row, writes each delivery row
as it comes, and builds the counts, the aggregate table, the timeline and the
view-change log from the rows when they are read. `swap_into_orchestrator(
monkeypatch, NAIVE)` runs any input through all three (and `REAL` back through
the real classes); they assume an input that `check_inputs` accepted.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from itertools import count

from permachain import orchestrator
from permachain.distributions import BLOCK, TRANSACTION
from permachain.engine import EventEngine
from permachain.faults import ByzantineType
from permachain.messages import AUTHORITIES, kind_of
from permachain.network import Network
from permachain.reporting import RunRecorder


class RefEngine:
    def __init__(self):
        self.now = 0
        self._heap: list = []  # (fire_at, seq, target, item)
        self._seq = count()
        self._handlers: dict = {}

    def register(self, target, handler):
        self._handlers[target] = handler

    def schedule(self, delay, target, item):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), target, item))

    def run_until_idle(self, deadline=None):
        while self._heap and (deadline is None or self._heap[0][0] <= deadline):
            self.now, _, target, item = heapq.heappop(self._heap)
            self._handlers[target]([item])
        self._heap.clear()  # the rest lies past the deadline
        return self.now

    def advance_to(self, t):
        assert t >= self.now and not self._heap
        self.now = t
        return t


class RefNetwork:
    def __init__(self, engine, streams, table, latency, delays, recorder):
        self.engine, self.streams, self.latency, self.delays = engine, streams, latency, delays
        self.recorder = recorder
        self.table = table
        self.nodes: dict = {}  # id -> (byz, drop_prob, receive)
        engine.register("deliver", self._deliver)

    def register_node(self, node_id, byz, drop_prob, receive):
        self.nodes[node_id] = (byz, drop_prob, receive)

    def broadcast(self, src, *bodies):
        byz, drop_prob, _ = self.nodes[src]
        location = {row.id: row.location for row in self.table.rows}
        stream = self.streams.stream
        sent = dropped = 0
        for one in bodies:
            if byz is ByzantineType.ACTIVE:
                one = one.corrupted()
            for row in self.table.rows:
                dst = row.id
                if dst == src or (one.audience == AUTHORITIES and not row.authority):
                    continue
                if byz is ByzantineType.PASSIVE and drop_prob > 0 \
                        and stream(src, "drop").random() < drop_prob:
                    dropped += 1
                    continue
                lat = self.latency.model_for((location[src], location[dst])).sample_ms(
                    stream(src, "latency"))
                delay = self.delays.model_for(one.delay_kind).sample_ms(
                    stream(dst, "processing-delay"))
                self.engine.schedule(lat + delay, "deliver", (src, self.engine.now, one, dst, lat))
                sent += 1
        kind = kind_of(bodies[0])
        if sent:
            self.recorder.message_sent(kind, sent)
        if dropped:
            self.recorder.message_dropped(kind, dropped)
        return sent

    def _deliver(self, items):
        for src, sent_at, body, dst, lat in items:
            if body.delay_kind in (TRANSACTION, BLOCK):
                self.recorder.record_delivery(body.delay_kind, src, sent_at, [(dst, lat)], 1)
            self.nodes[dst][2](src, [body])


class RefRecorder:
    def __init__(self, engine=None, record_sink=None):
        self.engine, self.record_sink = engine, record_sink
        self.sent: list = []        # one kind per message sent
        self.dropped: list = []     # one kind per message dropped
        self.deliveries: list = []  # (kind, src, dst, sent_at, delivered_at) per body and member
        self.events: list = []      # (t, node, height, view, the view left or None if an append)

    def message_sent(self, kind, n):
        self.sent += [kind] * n

    def message_dropped(self, kind, n):
        self.dropped += [kind] * n

    def record_delivery(self, kind, src, sent_at, members, times):
        for _ in range(times):
            for dst, delay in members:
                row = (kind, src, dst, sent_at, sent_at + delay)
                self.deliveries.append(row)
                if self.record_sink is not None:
                    self.record_sink.writerow(row)

    def on_append(self, node, block, view):
        self.events.append((self.engine.now, node, block.height, view, None))

    def on_view_adopted(self, node, old, new, height):
        self.events.append((self.engine.now, node, height, new, old))

    @property
    def message_counts(self):
        return Counter(self.sent)

    @property
    def drop_counts(self):
        return Counter(self.dropped)

    @property
    def timeline(self):
        return [(t, node, height, view) for t, node, height, view, _ in self.events]

    @property
    def view_change_log(self):
        return [(t, node, old, new) for t, node, _, new, old in self.events if old is not None]

    def aggregate_table(self):
        delays = defaultdict(list)  # (src, dst) -> every delay, in delivery order
        for _, src, dst, sent_at, delivered_at in self.deliveries:
            delays[src, dst].append(delivered_at - sent_at)
        return {f"{src}->{dst}": {"count": len(d), "mean_ms": round(sum(d) / len(d), 3),
                                  "max_ms": max(d)}
                for (src, dst), d in sorted(delays.items())}


REAL = {"EventEngine": EventEngine, "Network": Network, "RunRecorder": RunRecorder}
NAIVE = {"EventEngine": RefEngine, "Network": RefNetwork, "RunRecorder": RefRecorder}


def swap_into_orchestrator(monkeypatch, classes):
    """Make `orchestrator` build its worlds from `classes` (REAL or NAIVE)."""
    for name, cls in classes.items():
        monkeypatch.setattr(orchestrator, name, cls)
