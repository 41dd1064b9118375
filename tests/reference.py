"""A naive engine and network that the real ones must match byte for byte.

`RefEngine` keeps one heap entry per item, ordered by (fire_at, seq), and
hands each item to its target's handler as a one-item list. `RefNetwork`
schedules one event per body and member of the body's audience but the
sender, in node-table order, and makes every draw itself, per attempt: the
sender's drop stream (a passive sender with p > 0), then, if kept, the
sender's latency stream and the recipient's processing-delay stream. Swap
both into `orchestrator` (`orchestrator.EventEngine = RefEngine`,
`orchestrator.Network = RefNetwork`) to run any input through them; they
assume an input that `check_inputs` accepted.
"""

from __future__ import annotations

import heapq
from itertools import count

from permachain.distributions import BLOCK, TRANSACTION
from permachain.faults import ByzantineType
from permachain.messages import AUTHORITIES, kind_of


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
