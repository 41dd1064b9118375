"""Point-to-point message latency and broadcast scheduling.

Latency is configured per location pair with a global default fallback.
`Network.broadcast` is the one delivery path. Once per broadcast it takes the
body's kind, an active sender's ``corrupted()`` form and the processing-delay
model; then it delivers to each recipient other than the sender at

    now + latency(src, dst) + processing_delay(kind, receiver)

unless a passive sender drops it. The latency alone is the recorded
propagation delay. Per recipient, in recipient order, the draws are: one on
the sender's ``drop`` stream (only a passive sender with a drop probability
above 0 has one), then, if not dropped, one on the sender's ``latency`` stream
and one on the recipient's ``processing-delay`` stream. A constant model
consumes no draw. Each node's Byzantine type, drop probability and
``receive(sender, body)`` are fixed when it registers.

A broadcast schedules one engine event per delivery instant, not per
recipient: the recipients that share a total delay form a group (a group of
one included), whose event on the network's own target carries
``(src, sent_at, body, [(dst, latency), ...])``. Delivering it records a
transaction or block group with one recorder call, then calls each member's
``receive`` in recipient order. That is the order one event per recipient
would give, because a broadcast's events are scheduled back to back, so no
other event can fall between two deliveries of one instant; and the recorded
rows keep that order, because no ``receive`` delivers a group itself.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Callable, Optional

from . import messages as m
from .distributions import Distribution
from .engine import EventEngine, RngStreams
from .errors import ConfigError, UnknownNodeError
from .faults import ByzantineType, should_drop
from .ledger import BLOCK, TRANSACTION, ValidationDelays


class LatencyTable:
    """Latency models per (src-location, dst-location) pair, plus a default.

    `pairs` holds the explicit entries in input order. Each one also serves
    the reverse direction, unless that direction has an explicit entry too.
    """

    def __init__(self, default: Optional[Distribution] = None,
                 pairs: Optional[dict[tuple[str, str], Distribution]] = None):
        self.default = default
        self.pairs = pairs or {}
        self._models = {**{(b, a): d for (a, b), d in self.pairs.items()}, **self.pairs}

    @classmethod
    def from_config(cls, spec: dict | None) -> "LatencyTable":
        if spec is None:
            return cls(default=Distribution("constant", {"ms": 10}))
        if not isinstance(spec, dict):
            raise ConfigError(f"latency must be an object, got {spec!r}")
        for key in spec:
            if key not in ("default", "pairs"):
                raise ConfigError(f"unknown latency key {key!r} (expected 'default' or 'pairs')")
        default = None
        if "default" in spec:
            default = Distribution.from_dict(spec["default"])
        pairs: dict[tuple[str, str], Distribution] = {}
        entries = spec.get("pairs", [])
        if not isinstance(entries, list):
            raise ConfigError(f"latency pairs must be a list, got {entries!r}")
        for entry in entries:
            if not isinstance(entry, dict) or "src" not in entry or "dst" not in entry:
                raise ConfigError(f"latency pair needs 'src' and 'dst' fields, got {entry!r}")
            for end in ("src", "dst"):
                if not isinstance(entry[end], str):
                    raise ConfigError(f"latency pair {end!r} must be a location name, "
                                      f"got {entry[end]!r}")
            pairs[(entry["src"], entry["dst"])] = Distribution.from_dict(
                {k: v for k, v in entry.items() if k not in ("src", "dst")})
        return cls(default=default, pairs=pairs)

    def model_for(self, src_loc: str, dst_loc: str) -> Distribution:
        model = self._models.get((src_loc, dst_loc), self.default)
        if model is None:
            raise ConfigError(
                f"no latency model for location pair ({src_loc!r}, {dst_loc!r}) and no default"
            )
        return model

    def to_dict(self) -> dict:
        out: dict = {}
        if self.default is not None:
            out["default"] = self.default.to_dict()
        if self.pairs:
            out["pairs"] = [{"src": a, "dst": b, **dist.to_dict()}
                            for (a, b), dist in self.pairs.items()]
        return out


# Engine target of every delivery group; node ids are >= 1 and the coordinator is 0.
DELIVERY = -1


class Network:
    """Schedules deliveries through the event engine, one event per delivery
    instant; takes each node's streams and receiver at `register_node` and
    caches each (src, dst) latency model."""

    def __init__(self, engine: EventEngine, streams: RngStreams,
                 latency: LatencyTable, delays: ValidationDelays, recorder):
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
        """Deliver `body` from `src` to every recipient but `src` itself.

        Returns how many deliveries were scheduled; the others were dropped.
        """
        out = self._outbound.get(src)
        if out is None:
            raise UnknownNodeError(f"unknown sender {src}")
        kind = m.kind_of(body)
        if out[0] is ByzantineType.ACTIVE:
            body = body.corrupted()
        delay = self.delays.model_for(body.delay_kind)
        send = self.send
        # total delay -> [(dst, latency)]
        groups: dict[int, list[tuple[int, int]]] = defaultdict(list)
        attempted = scheduled = 0
        for dst in recipients:
            if dst != src:
                attempted += 1
                scheduled += send(src, dst, delay, out, groups)
        engine = self.engine
        now = engine.now
        for total, members in groups.items():
            engine.schedule(total, DELIVERY, (src, now, body, members))
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
            model = models[dst] = self.latency.model_for(self._locations[src],
                                                         self._locations[dst])
        lat = model.sample_ms(latency_rng)
        groups[lat + delay.sample_ms(self._delay_rng[dst])].append((dst, lat))
        return True

    def _deliver(self, group: tuple) -> None:
        """Hand one group's body to each member in order, first recording a
        transaction or block group (each latency is a propagation delay)."""
        src, sent_at, body, members = group
        kind = body.delay_kind
        if kind in (TRANSACTION, BLOCK):
            self.recorder.record_delivery(kind, src, sent_at, members)
        receivers = self._receivers
        for dst, _lat in members:
            receivers[dst](src, body)
