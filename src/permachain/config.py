"""Run configuration: one plain class, loaded from JSON, echoed into reports.

Every field but `protocol` may be omitted and then takes its default. A JSON
null, an unknown field, or a value of the wrong type or outside its range is
refused with a ConfigError that names the field.
"""

from __future__ import annotations

from .distributions import (MAX_MS, brief, check_number, check_object, int_cell,
                            latency_table, processing_delays, round_half_up_ms)
from .errors import ConfigError

PROTOCOLS = ("pbft", "poa", "poet")

DAY_LENGTH_MS = 86_400_000

# Every numeric field: its default (None: derived at load), its closed range and
# whether it is an integer. Every bound is finite, so a valid config always echoes
# as JSON text. A day longer than MAX_MS could run without end, and a lottery
# rate outside [1 / MAX_MS, MAX_MS] could draw an infinite wait or overflow a float.
NUMBERS = {
    "seed": (0, 0, 2**64 - 1, True),
    "block_interval_ms": (1000, 1, MAX_MS, True),
    "block_capacity": (10, 1, MAX_MS, True),
    "empty_block_threshold": (10, 1, MAX_MS, True),
    "day_length_ms": (DAY_LENGTH_MS, 1, MAX_MS, True),
    "tx_broadcast_interval_ms": (None, 1, MAX_MS, True),  # derived: one block interval
    "tx_spread_ticks": (10, 1, MAX_MS, True),
    # derived: 10x the default latency's mean, else 100, and at most MAX_MS. The cap changes
    # no run: a timer armed at t >= day start with a timeout >= MAX_MS, capped or not, fires
    # at t + interval (>= 1) + timeout > day start + MAX_MS >= the day's deadline: discarded
    "pbft_timeout_ms": (None, 0, MAX_MS, True),
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
        check_object("config", fields, {*NUMBERS, *OBJECTS})
        if protocol not in PROTOCOLS:
            raise ConfigError(f"protocol must be one of {PROTOCOLS}, got {brief(protocol)}")
        self.protocol = protocol
        for name, (default, lo, hi, integer) in NUMBERS.items():
            value = fields.get(name)
            if value is not None:
                check_number(name, value, lo, hi, integer)
            setattr(self, name, default if value is None else value)  # None: derived below
        overrides = fields.get("drop_prob_overrides")
        overrides = check_object("drop_prob_overrides", {} if overrides is None else overrides)
        self.drop_prob_overrides = {}
        for node, p in overrides.items():
            node_id = int_cell(node)
            if node_id is None:
                raise ConfigError(f"drop_prob_overrides keys must be node ids, got {brief(node)}")
            check_number(f"drop_prob_overrides for node {brief(node_id)}", p, 0, 1)
            self.drop_prob_overrides[node_id] = float(p)
        self.latency = latency_table(fields.get("latency"))
        self.processing_delay = processing_delays(fields.get("processing_delay"))
        rule = fields.get("authority_rule")
        rule = self.authority_rule = {"kind": "column"} if rule is None else rule
        kind = check_object("authority_rule", rule, ("kind", "threshold")).get("kind")
        if kind not in ("column", "location_threshold"):
            raise ConfigError(f"authority_rule.kind must be 'column' or 'location_threshold', "
                              f"got {brief(kind)}")
        if kind == "column" and "threshold" in rule:
            raise ConfigError("authority_rule of kind 'column' takes no 'threshold'")
        if kind == "location_threshold":
            threshold = rule.get("threshold", 4)
            check_number("authority_rule.threshold", threshold, 0, MAX_MS, integer=True)
            self.authority_rule = {**rule, "threshold": threshold}  # the echo shows the default
        if self.tx_broadcast_interval_ms is None:
            self.tx_broadcast_interval_ms = self.block_interval_ms
        if self.pbft_timeout_ms is None:
            default = self.latency.default
            self.pbft_timeout_ms = (100 if default is None else
                                    min(MAX_MS, max(1, round_half_up_ms(10 * default.mean_ms))))

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
        check_object("config", data, required=("protocol",))
        nulls = [name for name, value in data.items() if value is None]
        if nulls:  # the constructor reads None as the default; a JSON null is refused
            raise ConfigError(f"config fields must not be null: {brief(nulls)}")
        return cls(**data)
