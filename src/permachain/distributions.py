"""Statistical delay distributions (latencies, processing delays).

All samples are returned in integer milliseconds, rounded half-up, and are
never negative. The normal distribution is truncated at zero by clipping.
Every millisecond parameter is at most MAX_MS, a normal mean at least
-MAX_MS, and an exponential rate at least 1 / MAX_MS, so every draw and every
mean is a finite number of milliseconds. A constant distribution holds its
value as `fixed_ms` and consumes no draw.

Every draw is a function of `rng.random()` alone, each u in [0, 1):

    uniform      lo + (hi - lo) * u
    normal       mean + std * sqrt(-2 log(1 - u1)) * cos(2 pi u2)   (Box-Muller)
    exponential  -log(1 - u) / rate
    empirical    values[int(u * len(values))]
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError

NUMERIC_PARAMS = {"constant": ("ms",), "uniform": ("lo", "hi"), "normal": ("mean", "std"),
                  "exponential": ("rate",)}
PARAMS = {**NUMERIC_PARAMS, "empirical": ("values",)}  # every parameter each kind takes
MAX_MS = 10**9  # about 11.6 days


def is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_number(x) -> bool:
    """An int or a finite float (JSON NaN and Infinity load as floats)."""
    return is_int(x) or (isinstance(x, float) and math.isfinite(x))


def round_half_up_ms(x: float) -> int:
    return int(math.floor(x + 0.5))


def exponential(u: float, rate: float) -> float:
    """An exponential variate with the given rate from one uniform u in [0, 1)."""
    return -math.log(1.0 - u) / rate


@dataclass(frozen=True)
class Distribution:
    """A named delay distribution with millisecond-scale parameters.

    kind        one of constant / uniform / normal / exponential / empirical
    params      constant: {ms}; uniform: {lo, hi}; normal: {mean, std};
                exponential: {rate} (per-ms, mean = 1/rate); empirical: {values}
    """

    kind: str
    params: dict = field(default_factory=dict)
    fixed_ms: int | None = field(default=None, init=False, repr=False, compare=False)
    # every other kind: rng -> one draw in integer ms, bound once by __post_init__
    _draw: Callable[[random.Random], int] | None = field(default=None, init=False,
                                                          repr=False, compare=False)
    # analytic mean before rounding (a normal's truncation bias is ignored)
    mean_ms: float = field(default=0.0, init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, p = self.kind, self.params
        if not isinstance(kind, str) or kind not in PARAMS:
            raise ConfigError(f"unknown distribution kind {kind!r}")
        for name in p:
            if name not in PARAMS[kind]:
                raise ConfigError(f"{kind} distribution takes no parameter {name!r}")
        for name in NUMERIC_PARAMS.get(kind, ()):
            if not is_number(p.get(name)):
                raise ConfigError(f"{kind} distribution needs a numeric {name!r}, "
                                  f"got {p.get(name)!r}")
            if name != "rate" and p[name] > MAX_MS:
                raise ConfigError(f"{kind} distribution needs {name!r} <= {MAX_MS} ms, "
                                  f"got {p[name]!r}")
        # Each kind binds its mean and its draw: the module docstring's formula,
        # rounded half-up as int(x + 0.5), equal to floor(x + 0.5) whenever
        # x + 0.5 >= 0. Only a normal draw can be negative, so only it clips at 0.
        if kind == "constant":
            if p["ms"] < 0:
                raise ConfigError("constant distribution needs ms >= 0")
            object.__setattr__(self, "fixed_ms", round_half_up_ms(p["ms"]))
            mean, draw = p["ms"], None
        elif kind == "uniform":
            lo, hi = p["lo"], p["hi"]
            if not 0 <= lo <= hi:
                raise ConfigError("uniform distribution needs 0 <= lo <= hi")
            span, mean = hi - lo, (lo + hi) / 2.0

            def draw(rng):
                return int(lo + span * rng.random() + 0.5)
        elif kind == "normal":
            mean, std = p["mean"], p["std"]
            if std < 0:
                raise ConfigError("normal distribution needs std >= 0")
            if mean < -MAX_MS:
                raise ConfigError(f"normal distribution needs 'mean' >= -{MAX_MS} ms, "
                                  f"got {mean!r}")

            def draw(rng, sqrt=math.sqrt, log=math.log, cos=math.cos, tau=math.tau):
                x = mean + std * sqrt(-2.0 * log(1.0 - rng.random())) * cos(tau * rng.random())
                return int(x + 0.5) if x > -0.5 else 0
        elif kind == "exponential":
            rate = p["rate"]
            if rate < 1 / MAX_MS:
                raise ConfigError(f"exponential distribution needs rate >= 1 / {MAX_MS}")
            mean = 1.0 / rate

            def draw(rng):
                return int(exponential(rng.random(), rate) + 0.5)
        else:  # empirical
            values = p.get("values")
            if not values:
                raise ConfigError("empirical distribution needs a non-empty value list")
            if not isinstance(values, (list, tuple)) or not all(is_number(v) for v in values):
                raise ConfigError(f"empirical distribution values must be numbers, got {values!r}")
            if any(v < 0 or v > MAX_MS for v in values):
                raise ConfigError(f"empirical distribution values must be in [0, {MAX_MS}]")
            rounded, n = tuple(int(v + 0.5) for v in values), len(values)
            mean = math.fsum(values) / n  # statistics.fmean's arithmetic, without its import

            def draw(rng):
                return rounded[int(rng.random() * n)]
        object.__setattr__(self, "_draw", draw)
        object.__setattr__(self, "mean_ms", float(mean))

    def sample_ms(self, rng: random.Random) -> int:
        """Draw one delay in integer ms (>= 0); a constant draws nothing."""
        if self.fixed_ms is not None:
            return self.fixed_ms
        return self._draw(rng)

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
