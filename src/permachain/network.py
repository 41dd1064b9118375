"""Point-to-point message latency and broadcast scheduling.

Latency is configured per location pair with a global default fallback.
Sending consults the sender's fault behavior first (passive nodes drop
outbound messages before any latency is sampled; active nodes send each
body's ``corrupted()`` form), then schedules one delivery event per recipient at

    now + latency(src, dst) + processing_delay(kind, receiver)

The latency component alone defines the recorded propagation delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import messages as m
from .distributions import Distribution
from .engine import EventEngine, RngStreams
from .errors import ConfigError, UnknownNodeError
from .faults import ByzantineType, FaultConfig, should_drop
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


class Network:
    """Schedules per-recipient deliveries through the event engine."""

    def __init__(self, engine: EventEngine, streams: RngStreams,
                 latency: LatencyTable, delays: ValidationDelays,
                 fault_config: FaultConfig, recorder=None):
        self.engine = engine
        self.streams = streams
        self.latency = latency
        self.delays = delays
        self.fault_config = fault_config
        self.recorder = recorder
        self._locations: dict[int, str] = {}
        self._byz: dict[int, ByzantineType] = {}

    def register_node(self, node_id: int, location: str, byz: ByzantineType) -> None:
        self._locations[node_id] = location
        self._byz[node_id] = byz

    def sample_latency(self, src: int, dst: int) -> int:
        if src not in self._locations or dst not in self._locations:
            raise UnknownNodeError(f"latency requested for unregistered pair ({src}, {dst})")
        model = self.latency.model_for(self._locations[src], self._locations[dst])
        return model.sample_ms(self.streams.stream(src, "latency"))

    def send(self, src: int, dst: int, body) -> bool:
        """Schedule one delivery; returns False when the sender dropped it."""
        if src not in self._locations:
            raise UnknownNodeError(f"unknown sender {src}")
        if dst not in self._locations:
            raise UnknownNodeError(f"unknown recipient {dst}")
        kind = m.kind_of(body)
        byz = self._byz[src]
        if should_drop(byz, src, self.fault_config, self.streams.stream(src, "drop")):
            if self.recorder is not None:
                self.recorder.message_dropped(kind, src)
            return False
        if byz is ByzantineType.ACTIVE:
            body = body.corrupted()
        lat = self.sample_latency(src, dst)
        proc = self.delays.validation_delay(
            body.delay_kind, self.streams.stream(dst, "processing-delay"))
        env = MessageEnvelope(
            sender=src, recipient=dst,
            sent_at=self.engine.now, delivered_at=self.engine.now + lat, body=body,
        )
        if self.recorder is not None:
            self.recorder.message_sent(kind, src, dst)
        self.engine.schedule(lat + proc, dst, env)
        return True

    def broadcast(self, src: int, body, recipients) -> int:
        """Independent send per recipient; returns how many were scheduled."""
        scheduled = 0
        for dst in recipients:
            if dst == src:
                continue
            if self.send(src, dst, body):
                scheduled += 1
        return scheduled
