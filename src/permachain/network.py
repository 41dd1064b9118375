"""Point-to-point message latency and broadcast scheduling.

Latency per location pair and processing delay per body kind come from two
`DelayTable`s (see distributions.py). A body's class names its audience
(messages.py): the `AUTHORITIES` or `ALL` nodes of the node table that the
network is built with. `Network.broadcast(src, body)` is the one delivery
path. It takes one body or a list of ``TxGossip`` bodies (an injection batch;
a list of any other kind is refused), and once per call their kind, audience
and processing-delay model. A sender's first broadcast to an audience builds
its routes to every other member, in table order, and they are kept. Body by
body, it takes an active sender's ``corrupted()`` form and delivers along each
route at

    now + latency(src, dst) + processing_delay(kind, receiver)

unless a passive sender drops it. The latency alone is the recorded
propagation delay. Per body, and per route in table order, the draws are: one
on the sender's ``drop`` stream (only a passive sender with a drop
probability above 0 has one), then, if not dropped, one on the sender's
``latency`` stream and one on the recipient's ``processing-delay`` stream. A
constant model consumes no draw: a latency is sampled once per route, as the
route is built, and a processing delay is read as its `fixed_ms`. A list of k bodies
draws exactly what k one-body calls would, and a pair with no latency model
raises `ConfigError` as the routes are built, before any draw. Each node's
Byzantine type, drop probability and ``receive(sender, bodies)`` are fixed
when it registers.

A body's recipients that share a total delay form a group (a group of one
included), ``(src, sent_at, bodies, [(dst, latency), ...])``, scheduled on the
network's own target, so it joins its instant's tail event if that is a delivery
event (`EventEngine.schedule`). A body whose groups equal the previous body's in
the same call (the same totals, the same member lists) makes no group of its
own: it is appended to the `bodies` list that the previous body's groups
share. Delivering an event walks its groups in order: each records a
transaction or block group once, with its body count, then calls each
member's ``receive`` once with the group's bodies, in route order.

That is the order of one event per recipient and body, but for one swap.
Adjacent events of one instant run back to back, and a broadcast queues all
its groups at once, so no other event can fall between two deliveries of
one instant; the recorded rows keep that order, because no ``receive``
delivers a group itself. The swap: a merged group hands its bodies member by
member, not body by body. Only an injection batch merges, and a
``TxGossip``'s handler sends nothing and reads and writes only its own
node's pool and committed set, so no node can tell the two orders apart.
"""

from __future__ import annotations

from collections.abc import Callable

from . import messages as m
from .distributions import BLOCK, TRANSACTION, DelayTable, Distribution
from .engine import EventEngine, RngStreams
from .faults import ByzantineType, should_drop


# Engine target of every delivery group; node ids are >= 1 and the coordinator is 0.
DELIVERY = -1


class Network:
    """Schedules deliveries through the event engine, delivery groups run per
    instant; takes each node's streams and receiver at `register_node` and
    builds a sender's routes to an audience on its first broadcast there."""

    def __init__(self, engine: EventEngine, streams: RngStreams, table,
                 latency: DelayTable, delays: DelayTable, recorder):
        self.engine = engine
        self.streams = streams
        self.latency = latency
        self.delays = delays
        self.recorder = recorder
        self._locations = {row.id: row.location for row in table.rows}
        self._audiences = {m.AUTHORITIES: table.authorities, m.ALL: table.ids}
        self._receivers: dict[int, Callable[[int, list], None]] = {}
        # sender -> (byz, audience -> routes, latency stream, (p, drop stream) or None)
        self._outbound: dict[int, tuple] = {}
        engine.register(DELIVERY, self._deliver)

    def register_node(self, node_id: int, byz: ByzantineType, drop_prob: float,
                      receive: Callable[[int, list], None]) -> None:
        self._receivers[node_id] = receive
        drop = ((drop_prob, self.streams.stream(node_id, "drop"))
                if should_drop(byz, drop_prob) else None)
        self._outbound[node_id] = (byz, {}, self.streams.stream(node_id, "latency"), drop)

    def broadcast(self, src: int, body) -> int:
        """Deliver `body`, or each body of the non-empty list `body` of `TxGossip`
        in turn, from `src` to every other member of its class's audience.

        Returns how many deliveries were scheduled; the others were dropped."""
        byz, routes, rng, drop = self._outbound[src]
        if isinstance(body, list):
            bodies = body
            if set(map(type, bodies)) != {m.TxGossip}:
                raise TypeError("a broadcast list carries TxGossip bodies only")
        else:
            bodies = (body,)
        kind, audience = m.kind_of(bodies[0]), bodies[0].audience
        targets = routes.get(audience) or routes.setdefault(audience, [
            self._route(src, dst, rng) for dst in self._audiences[audience] if dst != src])
        active = byz is ByzantineType.ACTIVE
        delay = self.delays.model_for(bodies[0].delay_kind)
        fixed = delay.fixed_ms
        send, schedule, now = self.send, self.engine.schedule, self.engine.now
        scheduled = 0
        last = shared = None  # the previous body's groups and the bodies they carry
        for body in bodies:
            if active:
                body = body.corrupted()
            groups: dict[int, list[tuple[int, int]]] = {}  # total delay -> [(dst, latency)]
            for route in targets:
                scheduled += send(route, drop, delay, fixed, groups)
            if groups == last:
                shared.append(body)
                continue
            last, shared = groups, [body]
            for total, members in groups.items():
                schedule(total, DELIVERY, (src, now, shared, members))
        attempted = len(targets) * len(bodies)
        if scheduled:
            self.recorder.message_sent(kind, scheduled)
        if attempted > scheduled:
            self.recorder.message_dropped(kind, attempted - scheduled)
        return scheduled

    def _route(self, src: int, dst: int, rng) -> tuple:
        """`src`'s route to `dst`: (dst, latency model, (dst, latency) if the model is
        constant else None, src's latency stream `rng`, dst's processing-delay
        stream). Draws nothing."""
        model = self.latency.model_for((self._locations[src], self._locations[dst]))
        member = None if model.fixed_ms is None else (dst, model.sample_ms(rng))
        return dst, model, member, rng, self.streams.stream(dst, "processing-delay")

    def send(self, route: tuple, drop: tuple | None, delay: Distribution,
             fixed: int | None, groups: dict[int, list[tuple[int, int]]]) -> bool:
        """One recipient's delivery within `broadcast`, a method of its own so that
        perfbench's span on it counts every attempt; False when it was dropped.

        `drop` is the sender's (p, drop stream) or None, `fixed` the value of a
        constant `delay`, else None. (dst, latency) joins the group for its total."""
        if drop is not None and drop[1].random() < drop[0]:
            return False
        dst, model, member, latency_rng, delay_rng = route
        if member is None:
            member = (dst, model.sample_ms(latency_rng))
        total = member[1] + (delay.sample_ms(delay_rng) if fixed is None else fixed)
        members = groups.get(total)
        if members is None:
            groups[total] = [member]
        else:
            members.append(member)
        return True

    def _deliver(self, groups: list) -> None:
        """Hand each group's bodies to each of its members in order, first recording
        a transaction or block group once, with its body count (each latency is a
        propagation delay). Walked by an iterator: a `receive` may add a group to
        this very list."""
        record, receivers = self.recorder.record_delivery, self._receivers
        for src, sent_at, bodies, members in groups:
            kind = bodies[0].delay_kind
            if kind in (TRANSACTION, BLOCK):
                record(kind, src, sent_at, members, len(bodies))
            for dst, _lat in members:
                receivers[dst](src, bodies)
