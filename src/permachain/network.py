"""Point-to-point message latency and broadcast scheduling.

Latency per location pair and processing delay per body kind come from two
`DelayTable`s (see distributions.py); `send` caches each pair's latency model.
`Network.broadcast` is the one delivery path. It takes one body or a batch of
same-kind bodies (an injection batch of ``TxGossip``), and once per call their
kind and processing-delay model. Body by body, it takes an active sender's
``corrupted()`` form and delivers to each recipient other than the sender at

    now + latency(src, dst) + processing_delay(kind, receiver)

unless a passive sender drops it. The latency alone is the recorded
propagation delay. Per body, and per recipient in recipient order, the draws
are: one on the sender's ``drop`` stream (only a passive sender with a drop
probability above 0 has one), then, if not dropped, one on the sender's
``latency`` stream and one on the recipient's ``processing-delay`` stream. A
constant model consumes no draw, and a batch of k bodies draws exactly what k
one-body calls would. Each node's Byzantine type, drop probability and
``receive(sender, body)`` are fixed when it registers.

A body's recipients that share a total delay form a group (a group of one
included), ``(src, sent_at, body, [(dst, latency), ...])``, which is joined
(`EventEngine.join`) to the delivery event at the tail of its instant on the
network's own target. Delivering an event walks its groups in order: each
records a transaction or block group with one recorder call, then calls each
member's ``receive`` in recipient order. That is the order one event per
recipient would give, because a broadcast's groups are queued back to back,
so no other event can fall between two deliveries of one instant; and the
recorded rows keep that order, because no ``receive`` delivers a group itself.
"""

from __future__ import annotations

import random
from collections import defaultdict
from collections.abc import Callable

from . import messages as m
from .distributions import BLOCK, TRANSACTION, DelayTable, Distribution
from .engine import EventEngine, RngStreams
from .errors import UnknownNodeError
from .faults import ByzantineType, should_drop


# Engine target of every delivery group; node ids are >= 1 and the coordinator is 0.
DELIVERY = -1


class Network:
    """Schedules deliveries through the event engine, delivery groups joined per
    instant; takes each node's streams and receiver at `register_node` and
    caches each (src, dst) latency model."""

    def __init__(self, engine: EventEngine, streams: RngStreams,
                 latency: DelayTable, delays: DelayTable, recorder):
        self.engine = engine
        self.streams = streams
        self.latency = latency
        self.delays = delays
        self.recorder = recorder
        self._locations: dict[int, str] = {}
        self._delay_rng: dict[int, random.Random] = {}
        self._receivers: dict[int, Callable[[int, object], None]] = {}
        # sender -> (byz, dst -> latency model, latency stream, (p, drop stream) or None)
        self._outbound: dict[int, tuple] = {}
        engine.register(DELIVERY, self._deliver)

    def register_node(self, node_id: int, location: str, byz: ByzantineType,
                      drop_prob: float, receive: Callable[[int, object], None]) -> None:
        self._locations[node_id] = location
        self._delay_rng[node_id] = self.streams.stream(node_id, "processing-delay")
        self._receivers[node_id] = receive
        drop = ((drop_prob, self.streams.stream(node_id, "drop"))
                if should_drop(byz, drop_prob) else None)
        self._outbound[node_id] = (byz, {}, self.streams.stream(node_id, "latency"), drop)

    def broadcast(self, src: int, body, recipients) -> int:
        """Deliver `body`, or each body of the non-empty list `body` (one kind) in turn,
        from `src` to every recipient but `src`.

        Returns how many deliveries were scheduled; the others were dropped."""
        out = self._outbound.get(src)
        if out is None:
            raise UnknownNodeError(f"unknown sender {src}")
        bodies = body if isinstance(body, list) else (body,)
        kind = m.kind_of(bodies[0])
        active = out[0] is ByzantineType.ACTIVE
        delay = self.delays.model_for(bodies[0].delay_kind)
        others = [dst for dst in recipients if dst != src]
        send, join, now = self.send, self.engine.join, self.engine.now
        scheduled = 0
        for body in bodies:
            if active:
                body = body.corrupted()
            # total delay -> [(dst, latency)]
            groups: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for dst in others:
                scheduled += send(src, dst, delay, out, groups)
            for total, members in groups.items():
                join(total, DELIVERY, (src, now, body, members))
        attempted = len(others) * len(bodies)
        if scheduled:
            self.recorder.message_sent(kind, scheduled)
        if attempted > scheduled:
            self.recorder.message_dropped(kind, attempted - scheduled)
        return scheduled

    def send(self, src: int, dst: int, delay: Distribution, out: tuple,
             groups: dict[int, list[tuple[int, int]]]) -> bool:
        """One recipient's delivery within `broadcast`, a method of its own so that
        perfbench's span on it counts every attempt; False when it was dropped.

        `out` is the sender's `_outbound` entry, which `broadcast` looked up once.
        (dst, latency) joins the group in `groups` for its total delay."""
        _, models, latency_rng, drop = out
        if drop is not None and drop[1].random() < drop[0]:
            return False
        model = models.get(dst)
        if model is None:
            if dst not in self._locations:
                raise UnknownNodeError(f"unknown recipient {dst}")
            model = models[dst] = self.latency.model_for((self._locations[src],
                                                          self._locations[dst]))
        lat = model.sample_ms(latency_rng)
        groups[lat + delay.sample_ms(self._delay_rng[dst])].append((dst, lat))
        return True

    def _deliver(self, groups: list) -> None:
        """Hand each group's body to each of its members in order, first recording
        a transaction or block group (each latency is a propagation delay).
        Walked by index: a `receive` may join a group to this very list."""
        record, receivers = self.recorder.record_delivery, self._receivers
        i = 0
        while i < len(groups):
            src, sent_at, body, members = groups[i]
            i += 1
            kind = body.delay_kind
            if kind in (TRANSACTION, BLOCK):
                record(kind, src, sent_at, members)
            for dst, _lat in members:
                receivers[dst](src, body)
