"""Run configuration: one dataclass, loaded from JSON, echoed into reports."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .distributions import is_int, is_number, round_half_up_ms
from .errors import ConfigError
from .faults import FaultConfig
from .ledger import ValidationDelays
from .network import LatencyTable

PROTOCOLS = ("pbft", "poa", "poet")

DAY_LENGTH_MS = 86_400_000

INT_FIELDS = ("seed", "block_interval_ms", "block_capacity", "empty_block_threshold",
              "day_length_ms", "tx_spread_ticks")
OPTIONAL_INT_FIELDS = ("tx_broadcast_interval_ms", "pbft_timeout_ms")
NUMBER_FIELDS = ("drop_prob", "poet_rate")


@dataclass
class RunConfig:
    protocol: str
    seed: int = 0
    block_interval_ms: int = 1000
    block_capacity: int = 10
    empty_block_threshold: int = 10
    day_length_ms: int = DAY_LENGTH_MS
    tx_broadcast_interval_ms: int | None = None  # defaults to one block interval
    tx_spread_ticks: int = 10
    pbft_timeout_ms: int | None = None  # defaults to 10x mean network latency
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
        for name in INT_FIELDS + OPTIONAL_INT_FIELDS:
            value = getattr(self, name)
            if value is None and name in OPTIONAL_INT_FIELDS:
                continue
            if not is_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in NUMBER_FIELDS:
            value = getattr(self, name)
            if not is_number(value):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.authority_rule, dict):
            raise ConfigError(f"authority_rule must be an object, got {self.authority_rule!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.block_interval_ms <= 0:
            raise ConfigError("block_interval_ms must be > 0")
        if self.block_capacity < 1:
            raise ConfigError("block_capacity must be >= 1")
        if self.empty_block_threshold < 1:
            raise ConfigError("empty_block_threshold must be >= 1")
        if self.day_length_ms <= 0:
            raise ConfigError("day_length_ms must be > 0")
        if self.tx_broadcast_interval_ms is not None and self.tx_broadcast_interval_ms <= 0:
            raise ConfigError("tx_broadcast_interval_ms must be > 0")
        if self.tx_spread_ticks < 1:
            raise ConfigError("tx_spread_ticks must be >= 1")
        if self.poet_rate <= 0:
            raise ConfigError("poet_rate must be > 0")
        if self.authority_rule.get("kind") not in ("column", "location_threshold"):
            raise ConfigError("authority_rule.kind must be 'column' or 'location_threshold'")
        threshold = self.authority_rule.get("threshold", 0)
        if not is_int(threshold):
            raise ConfigError(f"authority_rule.threshold must be an integer, got {threshold!r}")

    @property
    def effective_tx_interval_ms(self) -> int:
        return self.tx_broadcast_interval_ms or self.block_interval_ms

    @property
    def effective_pbft_timeout_ms(self) -> int:
        if self.pbft_timeout_ms is not None:
            return self.pbft_timeout_ms
        if self.latency.default is not None:
            return max(1, round_half_up_ms(10 * self.latency.default.mean_ms()))
        return 100

    def fault_config(self) -> FaultConfig:
        return FaultConfig(drop_prob=self.drop_prob,
                           drop_prob_overrides=dict(self.drop_prob_overrides) or None)

    def to_echo_dict(self) -> dict:
        """Effective configuration as echoed into reports (defaults resolved)."""
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "block_interval_ms": self.block_interval_ms,
            "block_capacity": self.block_capacity,
            "empty_block_threshold": self.empty_block_threshold,
            "day_length_ms": self.day_length_ms,
            "tx_broadcast_interval_ms": self.effective_tx_interval_ms,
            "tx_spread_ticks": self.tx_spread_ticks,
            "pbft_timeout_ms": self.effective_pbft_timeout_ms,
            "drop_prob": self.drop_prob,
            "drop_prob_overrides": {str(k): v for k, v in sorted(self.drop_prob_overrides.items())},
            "poet_rate": self.poet_rate,
            "latency": self.latency.to_dict(),
            "processing_delay": self.processing_delay.to_dict(),
            "authority_rule": self.authority_rule,
        }

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
