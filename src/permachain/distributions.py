"""Statistical delay distributions (latencies, processing delays).

All samples are returned in integer milliseconds, rounded half-up, and are
never negative. The normal distribution is truncated at zero by clipping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

KINDS = ("constant", "uniform", "normal", "exponential", "empirical")
NUMERIC_PARAMS = {"constant": ("ms",), "uniform": ("lo", "hi"), "normal": ("mean", "std"),
                  "exponential": ("rate",)}


def is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    """An int or a finite float (JSON NaN and Infinity load as floats)."""
    return is_int(x) or (isinstance(x, float) and math.isfinite(x))


def round_half_up_ms(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Distribution:
    """A named delay distribution with millisecond-scale parameters.

    kind        one of constant / uniform / normal / exponential / empirical
    params      constant: {ms}; uniform: {lo, hi}; normal: {mean, std};
                exponential: {rate} (per-ms, mean = 1/rate); empirical: {values}
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown distribution kind {self.kind!r}")
        p = self.params
        for name in NUMERIC_PARAMS.get(self.kind, ()):
            if not is_number(p.get(name)):
                raise ConfigError(f"{self.kind} distribution needs a numeric {name!r}, "
                                  f"got {p.get(name)!r}")
        if self.kind == "constant":
            if p.get("ms", -1) < 0:
                raise ConfigError("constant distribution needs ms >= 0")
        elif self.kind == "uniform":
            if not (0 <= p.get("lo", -1) <= p.get("hi", -1)):
                raise ConfigError("uniform distribution needs 0 <= lo <= hi")
        elif self.kind == "normal":
            if p.get("std", -1) < 0:
                raise ConfigError("normal distribution needs std >= 0")
        elif self.kind == "exponential":
            if p.get("rate", 0) <= 0:
                raise ConfigError("exponential distribution needs rate > 0")
        elif self.kind == "empirical":
            values = p.get("values")
            if not values:
                raise ConfigError("empirical distribution needs a non-empty value list")
            if not isinstance(values, (list, tuple)) or not all(is_number(v) for v in values):
                raise ConfigError(f"empirical distribution values must be numbers, got {values!r}")
            if any(v < 0 for v in values):
                raise ConfigError("empirical distribution values must be >= 0")

    def sample_ms(self, rng: np.random.Generator) -> int:
        """Draw one delay in integer ms (>= 0)."""
        p = self.params
        if self.kind == "constant":
            x = float(p["ms"])
        elif self.kind == "uniform":
            x = rng.uniform(p["lo"], p["hi"])
        elif self.kind == "normal":
            x = max(0.0, rng.normal(p["mean"], p["std"]))
        elif self.kind == "exponential":
            x = rng.exponential(1.0 / p["rate"])
        else:  # empirical
            values = p["values"]
            x = float(values[rng.integers(0, len(values))])
        return max(0, round_half_up_ms(x))

    def mean_ms(self) -> float:
        """Analytic mean of the underlying distribution (pre-rounding)."""
        p = self.params
        if self.kind == "constant":
            return float(p["ms"])
        if self.kind == "uniform":
            return (p["lo"] + p["hi"]) / 2.0
        if self.kind == "normal":
            return float(p["mean"])  # truncation bias ignored for sizing
        if self.kind == "exponential":
            return 1.0 / p["rate"]
        return float(np.mean(p["values"]))

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, spec: dict) -> "Distribution":
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigError(f"distribution spec must be a dict with a 'kind': {spec!r}")
        params = {k: v for k, v in spec.items() if k != "kind"}
        return cls(spec["kind"], params)


def constant(ms: float) -> Distribution:
    return Distribution("constant", {"ms": ms})
