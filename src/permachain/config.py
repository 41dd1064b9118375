"""Run configuration: one dataclass, loaded from JSON, echoed into reports."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import inf

from .distributions import MAX_MS, is_int, is_number, round_half_up_ms
from .errors import ConfigError
from .ledger import ValidationDelays
from .network import LatencyTable

PROTOCOLS = ("pbft", "poa", "poet")

DAY_LENGTH_MS = 86_400_000

OPTIONAL_FIELDS = ("tx_broadcast_interval_ms", "pbft_timeout_ms")  # None: derived at load
NUMBER_FIELDS = ("drop_prob", "poet_rate")  # the other numeric fields are integers
# Closed range of each numeric field. A day longer than MAX_MS could run without
# end, and a lower lottery rate could draw an infinite wait.
BOUNDS = {"seed": (0, inf), "block_interval_ms": (1, inf), "block_capacity": (1, inf),
          "empty_block_threshold": (1, inf), "day_length_ms": (1, MAX_MS),
          "tx_broadcast_interval_ms": (1, inf), "tx_spread_ticks": (1, inf),
          "pbft_timeout_ms": (0, inf), "drop_prob": (0, 1), "poet_rate": (1 / MAX_MS, inf)}


@dataclass
class RunConfig:
    protocol: str
    seed: int = 0
    block_interval_ms: int = 1000
    block_capacity: int = 10
    empty_block_threshold: int = 10
    day_length_ms: int = DAY_LENGTH_MS
    tx_broadcast_interval_ms: int | None = None  # None: one block interval
    tx_spread_ticks: int = 10
    pbft_timeout_ms: int | None = None  # None: 10x the default latency's mean, else 100
    drop_prob: float = 0.4
    drop_prob_overrides: dict = field(default_factory=dict)
    poet_rate: float = 0.001  # per-ms; mean lottery wait = 1000 ms
    latency: LatencyTable = field(default_factory=lambda: LatencyTable.from_config(None))
    processing_delay: ValidationDelays = field(
        default_factory=lambda: ValidationDelays.from_config(None))
    authority_rule: dict = field(default_factory=lambda: {"kind": "column"})

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        for name, (lo, hi) in BOUNDS.items():
            value = getattr(self, name)
            if value is None and name in OPTIONAL_FIELDS:
                continue
            if name in NUMBER_FIELDS and not is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if name not in NUMBER_FIELDS and not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if not lo <= value <= hi:
                raise ConfigError(f"{name} must be in [{lo}, {hi}], got {value!r}")
        for node, p in self.drop_prob_overrides.items():
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"drop_prob_overrides for node {node} must be in [0, 1]")
        rule = self.authority_rule
        if not isinstance(rule, dict):
            raise ConfigError(f"authority_rule must be an object, got {rule!r}")
        kind = rule.get("kind")
        if kind not in ("column", "location_threshold"):
            raise ConfigError("authority_rule.kind must be 'column' or 'location_threshold'")
        unknown = set(rule) - {"kind", "threshold" if kind == "location_threshold" else "kind"}
        if unknown:
            raise ConfigError(f"authority_rule of kind {kind!r} takes no keys {sorted(unknown)}")
        if kind == "location_threshold":
            threshold = rule.get("threshold", 4)
            if not is_int(threshold):
                raise ConfigError(f"authority_rule.threshold must be an integer, got {threshold!r}")
            self.authority_rule = {**rule, "threshold": threshold}  # the echo shows the default
        if self.tx_broadcast_interval_ms is None:
            self.tx_broadcast_interval_ms = self.block_interval_ms
        if self.pbft_timeout_ms is None:
            default = self.latency.default
            self.pbft_timeout_ms = (100 if default is None
                                    else max(1, round_half_up_ms(10 * default.mean_ms)))

    def drop_prob_for(self, node: int) -> float:
        return self.drop_prob_overrides.get(node, self.drop_prob)

    def to_echo_dict(self) -> dict:
        """Effective configuration as echoed into reports (defaults resolved)."""
        echo = {f.name: getattr(self, f.name) for f in fields(self)}
        echo["drop_prob_overrides"] = {str(k): v
                                       for k, v in sorted(self.drop_prob_overrides.items())}
        echo["latency"] = self.latency.to_dict()
        echo["processing_delay"] = self.processing_delay.to_dict()
        return echo

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "protocol" not in data:
            raise ConfigError("config is missing required field 'protocol'")
        kwargs = dict(data)
        kwargs["latency"] = LatencyTable.from_config(data.get("latency"))
        kwargs["processing_delay"] = ValidationDelays.from_config(data.get("processing_delay"))
        if "drop_prob_overrides" in data:
            overrides = data["drop_prob_overrides"]
            if not isinstance(overrides, dict) or not all(
                    str(k).isdigit() and is_number(v) for k, v in overrides.items()):
                raise ConfigError("drop_prob_overrides must map integer node ids to "
                                  f"numbers, got {overrides!r}")
            kwargs["drop_prob_overrides"] = {int(k): float(v) for k, v in overrides.items()}
        return cls(**kwargs)
