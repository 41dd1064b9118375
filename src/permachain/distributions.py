"""Statistical delay distributions (latencies, processing delays).

All samples are returned in integer milliseconds, rounded half-up, and are
never negative. The normal distribution is truncated at zero by clipping.
Each parameter lies in the closed range that PARAMS gives it: every
millisecond parameter in [0, MAX_MS] (a normal mean in [-MAX_MS, MAX_MS]) and
an exponential rate in [1 / MAX_MS, MAX_MS] per ms, so every draw and every
mean is a finite number of milliseconds. A constant distribution holds its value as
`fixed_ms` and consumes no draw.

Every draw is a function of `rng.random()` alone, each u in [0, 1):

    uniform      lo + (hi - lo) * u
    normal       mean + std * sqrt(-2 log(1 - u1)) * cos(2 pi u2)   (Box-Muller)
    exponential  -log(1 - u) / rate
    empirical    values[int(u * len(values))]
"""

from __future__ import annotations

import math
import random

from .errors import ConfigError

MAX_MS = 10**9  # about 11.6 days
# Each kind's parameters, each with its closed range (for empirical, the range
# of every value in its list).
PARAMS = {"constant": {"ms": (0, MAX_MS)},
          "uniform": {"lo": (0, MAX_MS), "hi": (0, MAX_MS)},
          "normal": {"mean": (-MAX_MS, MAX_MS), "std": (0, MAX_MS)},
          "exponential": {"rate": (1 / MAX_MS, MAX_MS)},
          "empirical": {"values": (0, MAX_MS)}}


def is_int(x) -> bool:
    """An int that is not a bool (JSON true/false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def check_number(name: str, x, lo, hi, integer: bool = False) -> None:
    """Refuse x unless it is an int or a finite float (only an int, if `integer`)
    in [lo, hi]; bools, and JSON NaN and Infinity, are refused."""
    if not (is_int(x) or (not integer and isinstance(x, float) and math.isfinite(x))) \
            or not lo <= x <= hi:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind} in [{lo}, {hi}], got {x!r}")


def round_half_up_ms(x: float) -> int:
    return int(math.floor(x + 0.5))


def exponential(u: float, rate: float) -> float:
    """An exponential variate with the given rate from one uniform u in [0, 1)."""
    return -math.log(1.0 - u) / rate


class Distribution:
    """A named delay distribution with millisecond-scale parameters.

    kind        one of constant / uniform / normal / exponential / empirical
    params      constant: {ms}; uniform: {lo, hi}; normal: {mean, std};
                exponential: {rate} (per-ms, mean = 1/rate); empirical: {values}

    The constructor validates both and binds `fixed_ms` (a constant's value,
    else None), `_draw` (every other kind: rng -> one draw in integer ms) and
    `mean_ms` (the analytic mean before rounding; a normal's truncation bias
    is ignored). An immutable value by convention.
    """

    __slots__ = ("kind", "params", "fixed_ms", "_draw", "mean_ms")

    def __init__(self, kind: str, params: dict | None = None):
        p = {} if params is None else params
        self.kind, self.params, self.fixed_ms = kind, p, None
        if not isinstance(kind, str) or kind not in PARAMS:
            raise ConfigError(f"unknown distribution kind {kind!r}")
        for name in p:
            if name not in PARAMS[kind]:
                raise ConfigError(f"{kind} distribution takes no parameter {name!r}")
        for name, (lo, hi) in PARAMS[kind].items():
            value = p.get(name)
            if kind == "empirical" and not (isinstance(value, (list, tuple)) and value):
                raise ConfigError(f"empirical distribution needs a non-empty list of {name!r}, "
                                  f"got {value!r}")
            for x in value if kind == "empirical" else (value,):
                check_number(f"{kind} distribution's {name!r}", x, lo, hi)
        # Each kind binds its mean and its draw: the module docstring's formula,
        # rounded half-up as int(x + 0.5), equal to floor(x + 0.5) whenever
        # x + 0.5 >= 0. Only a normal draw can be negative, so only it clips at 0.
        if kind == "constant":
            self.fixed_ms = round_half_up_ms(p["ms"])
            mean, draw = p["ms"], None
        elif kind == "uniform":
            lo, hi = p["lo"], p["hi"]
            if lo > hi:
                raise ConfigError(f"uniform distribution needs 'lo' <= 'hi', got {lo!r} > {hi!r}")
            span, mean = hi - lo, (lo + hi) / 2.0

            def draw(rng):
                return int(lo + span * rng.random() + 0.5)
        elif kind == "normal":
            mean, std = p["mean"], p["std"]

            def draw(rng, sqrt=math.sqrt, log=math.log, cos=math.cos, tau=math.tau):
                x = mean + std * sqrt(-2.0 * log(1.0 - rng.random())) * cos(tau * rng.random())
                return int(x + 0.5) if x > -0.5 else 0
        elif kind == "exponential":
            rate = p["rate"]
            mean = 1.0 / rate

            def draw(rng):
                return int(exponential(rng.random(), rate) + 0.5)
        else:  # empirical
            values = p["values"]
            rounded, n = tuple(int(v + 0.5) for v in values), len(values)
            mean = math.fsum(values) / n  # statistics.fmean's arithmetic, without its import

            def draw(rng):
                return rounded[int(rng.random() * n)]
        self._draw = draw
        self.mean_ms = float(mean)

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
