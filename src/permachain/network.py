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
consumes no draw. Each node's Byzantine type and drop probability are fixed
when it registers; the receiving node records the delivery (see node.py).

A broadcast schedules one engine event per delivery instant, not per
recipient: the recipients that share a total delay form a group, whose event
delivers to them in recipient order (a group of one is scheduled straight to
its recipient). That is the order one event per recipient would give, because
a broadcast's events take consecutive sequence numbers, so no other event can
fall between two deliveries of one instant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from . import messages as m
from .distributions import Distribution
from .engine import EventEngine, RngStreams
from .errors import ConfigError, UnknownNodeError
from .faults import ByzantineType, should_drop
from .ledger import ValidationDelays


@dataclass(slots=True)
class MessageEnvelope:
    sender: int
    recipient: int
    sent_at: int
    delivered_at: int  # arrival time, before the receiver's processing delay
    body: object


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


# Engine target of a group of deliveries; node ids are >= 1 and the coordinator is 0.
GROUP = -1


class Network:
    """Schedules deliveries through the event engine, one event per delivery
    instant; takes each node's streams at `register_node` and caches each
    (src, dst) latency model."""

    def __init__(self, engine: EventEngine, streams: RngStreams,
                 latency: LatencyTable, delays: ValidationDelays, recorder):
        self.engine = engine
        self.streams = streams
        self.latency = latency
        self.delays = delays
        self.recorder = recorder
        self._locations: dict[int, str] = {}
        self._delay_rng: dict[int, random.Random] = {}
        # sender -> (byz, dst -> latency model, latency stream, (p, drop stream) or None)
        self._outbound: dict[int, tuple] = {}
        engine.register(GROUP, self._deliver_group)

    def register_node(self, node_id: int, location: str, byz: ByzantineType,
                      drop_prob: float) -> None:
        self._locations[node_id] = location
        self._delay_rng[node_id] = self.streams.stream(node_id, "processing-delay")
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
        groups: dict[int, list[MessageEnvelope]] = {}  # total delay -> envelopes
        attempted = scheduled = 0
        for dst in recipients:
            if dst != src:
                attempted += 1
                scheduled += send(src, dst, body, delay, out, groups)
        schedule = self.engine.schedule
        for total, group in groups.items():
            if len(group) == 1:
                schedule(total, group[0].recipient, group[0])
            else:
                schedule(total, GROUP, group)
        if scheduled:
            self.recorder.message_sent(kind, scheduled)
        if attempted > scheduled:
            self.recorder.message_dropped(kind, attempted - scheduled)
        return scheduled

    def send(self, src: int, dst: int, body, delay: Distribution, out: tuple,
             groups: dict[int, list[MessageEnvelope]]) -> bool:
        """One recipient's delivery within `broadcast`, a method of its own so that
        perfbench's span on it counts every attempt; False when it was dropped.

        `out` is the sender's `_outbound` entry, which `broadcast` looked up once.
        The envelope joins the group in `groups` for its total delay."""
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
        now = self.engine.now
        groups.setdefault(lat + delay.sample_ms(self._delay_rng[dst]), []).append(
            MessageEnvelope(src, dst, now, now + lat, body))
        return True

    def _deliver_group(self, envelopes: list[MessageEnvelope]) -> None:
        """Hand each envelope of one group, in order, to its recipient's handler
        in the engine's registry, looked up at delivery as for any other event."""
        handlers = self.engine.handlers
        for env in envelopes:
            handlers[env.recipient](env)
