"""Statistical delay distributions, the delay tables built from them (latency per
location pair, processing delay per message kind), and the rules every loader
applies to outside input: brief, int_cell, check_object, read_json.

All samples are returned in integer milliseconds, rounded half-up, and are
never negative. The normal distribution is truncated at zero by clipping.
Each parameter lies in the closed range that PARAMS gives it: every
millisecond parameter in [0, MAX_MS] (a normal mean in [-MAX_MS, MAX_MS]) and
an exponential rate in [1 / MAX_MS, MAX_MS] per ms, so every draw and every
mean is a finite number of milliseconds. A constant distribution holds its value as
`fixed_ms` and consumes no draw.

`Distribution.sample_ms` is the one draw rule: every random latency and
processing delay, and every poet lottery wait (poa.py), is its formula below on
`rng.random()` alone, each u in [0, 1), rounded half up as floor(x + 0.5) (an
empirical value is rounded once, when the distribution is built):

    uniform      lo + (hi - lo) * u
    normal       mean + std * sqrt(-2 log(1 - u1)) * cos(2 pi u2)   (Box-Muller)
    exponential  -log(1 - u) / rate
    empirical    values[int(u * len(values))]

Only a normal x can be negative, so only a normal draw clips at 0 (it is 0
whenever x <= -0.5).

A normal draw takes its result from u1 alone when u1 < t. With a = mean + 0.5
as a float, k0 = floor(a), d the distance from a to the nearest integer,
U = ulp(|mean| + 1), b = d - (d * 2**-20 + 4U), s = (b / std)**2 / 2 and
W = exp(-s) * (1 + 2**-40), t is max(0, 1 - W); t = 0 when b <= 0, and t = 1
when std = 0. Then u2 is still drawn, so the stream moves on as before, and the
draw is k = max(k0, 0), which the formula gives too:
  * u1 < t makes v = 1 - u1, as a float, at least W. If W >= 1/2, t = 1 - W
    exactly and 1 - u1 > W. If W < 1/2 and u1 >= 1/2, v = 1 - u1 exactly, and
    u1 and t are multiples of 2**-53 with t within 2**-54 of 1 - W, so
    v >= 1 - t + 2**-53 > W. If u1 < 1/2, v >= 1/2 > W.
  * W exceeds exp(-s) by far more than exp's rounding error, so -log v < s
    (exp(-s) underflows only above s = 708, where t = 1 and every v >= 2**-53
    has -log v < 37). log, sqrt and cos err by under an ulp and |cos| <= 1, so
    the computed |std * sqrt(-2 log v) * cos| is below b * (1 + 2**-48) < d - 4U.
  * So mean + 0.5 plus that product lies over 3.5U inside (k0, k0 + 1), and
    the two float additions move it by at most U: floor(x + 0.5) = k0. If
    k0 >= 0, then x + 0.5 > 0, so x > -0.5 and the draw is k0; if k0 < 0, then
    x + 0.5 < 0 and the draw is 0.
  * If std = 0, x = mean exactly, and the draw is max(floor(a), 0) = k.
For the hyperledger-fabric preset, u1 < t on about 86% of consensus-message
draws, 39% of transaction draws and 12% of block draws.
"""

from __future__ import annotations

import json
import math
import random
import reprlib
from math import cos, floor, log, sqrt, tau

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


class _Brief(reprlib.Repr):
    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:  # more digits than str() converts: quoted by its size
            return f"{'-' if x < 0 else ''}<int of {x.bit_length()} bits>"


_BRIEF = _Brief()


def brief(x) -> str:
    """How an error message quotes an input value: reprlib's short repr, in ASCII, <= 40 chars."""
    text = _BRIEF.repr(x).encode("ascii", "backslashreplace").decode()
    return text if len(text) <= 40 else f"{text[:20]}...{text[-17:]}"


def int_cell(x) -> int | None:
    """x as an int if it is an int but not a bool, or a str of ASCII digits (int() also
    takes signs, spaces, underscores and other scripts' digits); else None."""
    if is_int(x):
        return x
    if isinstance(x, str) and x.isascii() and x.isdigit():
        try:
            return int(x)
        except ValueError:  # more digits than int() converts
            pass
    return None


def check_number(name: str, x, lo, hi, integer: bool = False) -> None:
    """Refuse x unless it is an int or a finite float (only an int, if `integer`)
    in [lo, hi]; bools, and JSON NaN and Infinity, are refused."""
    if not (is_int(x) or (not integer and isinstance(x, float) and math.isfinite(x))) \
            or not lo <= x <= hi:
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind} in [{lo}, {hi}], got {brief(x)}")


def check_object(name: str, x, keys=None, required=(), error=ConfigError) -> dict:
    """Return x if it is a dict (a JSON object) that holds every key in `required`
    and, unless `keys` is None, no key outside `keys`; else raise `error`."""
    if not isinstance(x, dict):
        raise error(f"{name} must be a JSON object, got {brief(x)}")
    for key in required:
        if key not in x:
            raise error(f"{name} is missing required key {key!r}")
    unknown = [] if keys is None else [key for key in x if key not in keys]
    if unknown:
        raise error(f"{name} has unknown keys {brief(unknown)}")
    return x


def read_json(path, error=ConfigError):
    """The JSON value in the UTF-8 file at `path`; text that is not JSON raises `error`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # also bytes that are not UTF-8, or a huge integer
            raise error(f"{path} is not valid JSON: {exc}")


def round_half_up_ms(x: float) -> int:
    return floor(x + 0.5)


def _normal_numbers(mean, std) -> tuple:
    """(mean, std, k, t): a normal draw is k whenever u1 < t (see the module docstring)."""
    half = mean + 0.5
    k0 = floor(half)
    d = min(half - k0, k0 + 1 - half)
    b = d - (d * 2**-20 + 4 * math.ulp(abs(mean) + 1))
    if std == 0:
        t = 1.0
    elif b <= 0:
        t = 0.0
    else:
        r = b / std
        t = max(0.0, 1.0 - math.exp(-0.5 * (r * r)) * (1 + 2**-40))
    return mean, std, max(k0, 0), t


class Distribution:
    """A named delay distribution with millisecond-scale parameters.

    kind        one of constant / uniform / normal / exponential / empirical
    params      constant: {ms}; uniform: {lo, hi}; normal: {mean, std};
                exponential: {rate} (per-ms, mean = 1/rate); empirical: {values}

    The constructor validates both and binds `fixed_ms` (a constant's value,
    else None), `_numbers` (what `sample_ms` reads: uniform (lo, hi - lo),
    normal (mean, std, k, t), exponential (rate,), empirical (rounded values,
    count))
    and `mean_ms` (the analytic mean before rounding; a normal's truncation bias
    is ignored). An immutable value by convention.
    """

    __slots__ = ("kind", "params", "fixed_ms", "_numbers", "mean_ms")

    def __init__(self, kind: str, params: dict | None = None):
        p = {} if params is None else params
        self.kind, self.params, self.fixed_ms = kind, p, None
        if not isinstance(kind, str) or kind not in PARAMS:
            raise ConfigError(f"unknown distribution kind {brief(kind)}")
        check_object(f"{kind} distribution", p, PARAMS[kind])
        for name, (lo, hi) in PARAMS[kind].items():
            value = p.get(name)
            if kind == "empirical" and not (isinstance(value, (list, tuple)) and value):
                raise ConfigError(f"empirical distribution needs a non-empty list of {name!r}, "
                                  f"got {brief(value)}")
            for x in value if kind == "empirical" else (value,):
                check_number(f"{kind} distribution's {name!r}", x, lo, hi)
        if kind == "constant":
            self.fixed_ms = round_half_up_ms(p["ms"])
            mean, numbers = p["ms"], ()
        elif kind == "uniform":
            lo, hi = p["lo"], p["hi"]
            if lo > hi:
                raise ConfigError(f"uniform distribution needs 'lo' <= 'hi', "
                                  f"got {brief(lo)} > {brief(hi)}")
            mean, numbers = (lo + hi) / 2.0, (lo, hi - lo)
        elif kind == "normal":
            mean, numbers = p["mean"], _normal_numbers(p["mean"], p["std"])
        elif kind == "exponential":
            mean, numbers = 1.0 / p["rate"], (p["rate"],)
        else:  # empirical
            values = p["values"]
            numbers = (tuple(map(round_half_up_ms, values)), len(values))
            mean = math.fsum(values) / len(values)  # statistics.fmean's arithmetic, without its import
        self._numbers = numbers
        self.mean_ms = float(mean)

    def sample_ms(self, rng: random.Random) -> int:
        """Draw one delay in integer ms (>= 0) by the module docstring's formula for
        its kind, rounded as floor(x + 0.5); a constant draws nothing. A normal
        draw clips at 0, and takes the shortcut the module docstring proves."""
        kind, numbers = self.kind, self._numbers
        if kind == "uniform":
            lo, span = numbers
            return floor(lo + span * rng.random() + 0.5)
        if kind == "normal":
            mean, std, k, t = numbers
            u1 = rng.random()
            if u1 < t:
                rng.random()  # the angle the formula would have drawn
                return k
            x = mean + std * sqrt(-2.0 * log(1.0 - u1)) * cos(tau * rng.random())
            return floor(x + 0.5) if x > -0.5 else 0
        if kind == "exponential":
            return floor(-log(1.0 - rng.random()) / numbers[0] + 0.5)
        if kind == "empirical":
            rounded, n = numbers
            return rounded[int(rng.random() * n)]
        return self.fixed_ms

    def to_dict(self) -> dict:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, spec: dict) -> "Distribution":
        check_object("distribution spec", spec, required=("kind",))
        params = {k: v for k, v in spec.items() if k != "kind"}
        return cls(spec["kind"], params)


# Delay kinds, per message category: the keys of a processing-delay table.
TRANSACTION = "transaction"
BLOCK = "block"
CONSENSUS_MESSAGE = "consensus-message"

# Processing-delay presets. "hyperledger-fabric" is named for the Hyperledger
# Fabric-derived statistics it is meant to hold; its values are placeholders
# that calibrated studies must override with measured data.
DELAY_PRESETS = {"hyperledger-fabric": {
    TRANSACTION: {"kind": "normal", "mean": 2.0, "std": 0.5},
    BLOCK: {"kind": "normal", "mean": 5.0, "std": 1.0},
    CONSENSUS_MESSAGE: {"kind": "normal", "mean": 1.0, "std": 0.25},
    "default": {"kind": "constant", "ms": 1},
}}


class DelayTable:
    """Delay models by key, a (src-location, dst-location) pair or a delay kind, and
    a default for every other key. `to_dict` returns `spec`, the normalized input the
    table was built from, as the report echoes it. Immutable by convention."""

    __slots__ = ("name", "models", "default", "spec")

    def __init__(self, name: str, models: dict, default: Distribution | None, spec: dict):
        self.name, self.models, self.default, self.spec = name, models, default, spec

    def model_for(self, key) -> Distribution:
        model = self.models.get(key, self.default)
        if model is None:
            raise ConfigError(f"no {self.name} model for {brief(key)} and no default")
        return model

    def to_dict(self) -> dict:
        return self.spec


def latency_table(spec: dict | None) -> DelayTable:
    """The config's `latency` (None: a constant 10 ms default) by location pair. A pair
    also serves the reverse direction, unless that has an entry of its own."""
    if spec is None:
        spec = {"default": {"kind": "constant", "ms": 10}}
    check_object("latency", spec, ("default", "pairs"))
    default = Distribution.from_dict(spec["default"]) if "default" in spec else None
    pairs: dict[tuple[str, str], Distribution] = {}
    entries = spec.get("pairs", [])
    if not isinstance(entries, list):
        raise ConfigError(f"latency pairs must be a list, got {brief(entries)}")
    for entry in entries:
        check_object("latency pair", entry, required=("src", "dst"))
        for end in ("src", "dst"):
            if not isinstance(entry[end], str):
                raise ConfigError(f"latency pair {end!r} must be a location name, "
                                  f"got {brief(entry[end])}")
        pairs[(entry["src"], entry["dst"])] = Distribution.from_dict(
            {k: v for k, v in entry.items() if k not in ("src", "dst")})
    echo = {} if default is None else {"default": default.to_dict()}
    if pairs:
        echo["pairs"] = [{"src": a, "dst": b, **d.to_dict()} for (a, b), d in pairs.items()]
    models = {**{(b, a): d for (a, b), d in pairs.items()}, **pairs}
    return DelayTable("latency", models, default, echo)


def processing_delays(spec: dict | None) -> DelayTable:
    """The config's `processing_delay` (None: a constant 1 ms default) as a table keyed
    by delay kind: a model per kind and a default, or a preset used whole (its
    placeholders cannot be patched). The echo lists the kinds sorted, then the default."""
    if spec is None:
        spec = {"default": {"kind": "constant", "ms": 1}}
    elif "preset" in check_object("processing_delay", spec):
        name = check_object("processing_delay", spec, ("preset",))["preset"]
        if not isinstance(name, str) or name not in DELAY_PRESETS:
            raise ConfigError(f"unknown processing-delay preset {brief(name)}")
        spec = DELAY_PRESETS[name]
    check_object("processing_delay", spec, ("default", TRANSACTION, BLOCK, CONSENSUS_MESSAGE))
    models = {key: Distribution.from_dict(spec[key])
              for key in sorted(spec, key=lambda k: (k == "default", k))}
    echo = {key: model.to_dict() for key, model in models.items()}
    default = models.pop("default", None)
    return DelayTable("processing-delay", models, default, echo)
