"""Run configuration: one plain class, loaded from JSON, echoed into reports.

Every field but `protocol` may be omitted and then takes its default. A JSON
null, an unknown field, or a value of the wrong type or outside its range is
refused with a ConfigError that names the field.
"""

from __future__ import annotations

from math import inf

from .distributions import MAX_MS, check_number, is_int, round_half_up_ms
from .errors import ConfigError
from .ledger import ValidationDelays
from .network import LatencyTable

PROTOCOLS = ("pbft", "poa", "poet")

DAY_LENGTH_MS = 86_400_000

# Every numeric field: its default (None: derived at load), its closed range and
# whether it is an integer. A day longer than MAX_MS could run without end, and
# a lottery rate outside [1 / MAX_MS, MAX_MS] could draw an infinite wait or
# overflow a float.
NUMBERS = {
    "seed": (0, 0, inf, True),
    "block_interval_ms": (1000, 1, inf, True),
    "block_capacity": (10, 1, inf, True),
    "empty_block_threshold": (10, 1, inf, True),
    "day_length_ms": (DAY_LENGTH_MS, 1, MAX_MS, True),
    "tx_broadcast_interval_ms": (None, 1, inf, True),  # derived: one block interval
    "tx_spread_ticks": (10, 1, inf, True),
    # derived: 10x the default latency's mean, else 100
    "pbft_timeout_ms": (None, 0, inf, True),
    "drop_prob": (0.4, 0, 1, False),
    "poet_rate": (0.001, 1 / MAX_MS, MAX_MS, False),  # per-ms; mean lottery wait = 1000 ms
}
# The fields given in their JSON form, after `protocol` and the numbers.
OBJECTS = ("drop_prob_overrides", "latency", "processing_delay", "authority_rule")


class RunConfig:
    """One run's parameters, validated on construction.

    Takes `protocol` and any of the other fields as keywords, each in its JSON
    form. A field omitted or given as None takes its default: NUMBERS' for the
    numeric fields, no drop-probability overrides, a constant 10 ms latency, a
    constant 1 ms processing delay and the authority column of the node table.
    """

    def __init__(self, protocol: str, **fields):
        unknown = set(fields) - {*NUMBERS, *OBJECTS}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
        self.protocol = protocol
        for name, (default, lo, hi, integer) in NUMBERS.items():
            value = fields.get(name)
            if value is not None:
                check_number(name, value, lo, hi, integer)
            setattr(self, name, default if value is None else value)  # None: derived below
        overrides = fields.get("drop_prob_overrides")
        overrides = {} if overrides is None else overrides
        if not isinstance(overrides, dict):
            raise ConfigError(f"drop_prob_overrides must map node ids to numbers, "
                              f"got {overrides!r}")
        self.drop_prob_overrides = {}
        for node, p in overrides.items():
            try:  # str.isdigit() would pass "²", which int() refuses
                node_id = int(node) if str(node).isdecimal() else None
            except ValueError:  # more digits than int() converts
                node_id = None
            if node_id is None:
                raise ConfigError(f"drop_prob_overrides keys must be node ids, got {node!r}")
            check_number(f"drop_prob_overrides for node {node_id}", p, 0, 1)
            self.drop_prob_overrides[node_id] = float(p)
        self.latency = LatencyTable.from_config(fields.get("latency"))
        self.processing_delay = ValidationDelays.from_config(fields.get("processing_delay"))
        rule = fields.get("authority_rule")
        rule = self.authority_rule = {"kind": "column"} if rule is None else rule
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
        return {"protocol": self.protocol, **{name: getattr(self, name) for name in NUMBERS},
                "drop_prob_overrides": {str(k): v
                                        for k, v in sorted(self.drop_prob_overrides.items())},
                "latency": self.latency.to_dict(),
                "processing_delay": self.processing_delay.to_dict(),
                "authority_rule": self.authority_rule}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        if "protocol" not in data:
            raise ConfigError("config is missing required field 'protocol'")
        nulls = sorted(name for name, value in data.items() if value is None)
        if nulls:  # the constructor reads None as the default; a JSON null is refused
            raise ConfigError(f"config fields must not be null: {nulls}")
        return cls(**data)
