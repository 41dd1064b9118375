"""Seeded input generator for the three benchmark workloads.

Each workload is written as the three files the ``permachain`` CLI reads:
``config.json``, ``nodes.csv`` and ``transactions.json``. The same
(workload, seed, scale) always gives byte-identical files. The seed picks the
simulation seed, node locations, latency parameters, fault placement and the
split of load across origin nodes; it never changes the amount of work, so
host cost stays comparable across seeds.

Load is put on honest nodes only. A passive dropper's own gossip can be lost,
which is model behaviour, so keeping load off those nodes makes "every
scheduled transaction commits" a valid check at any seed. No config sets
``record_sampling``.
"""

from __future__ import annotations

import csv
import io
import json
import random
from pathlib import Path

WORKLOADS = ("gossip-flood", "pbft-quorum", "poet-days")

CITIES = (
    "Portland", "Minneapolis", "Honolulu", "Yokohama", "Hanoi", "San Diego",
    "Philadelphia", "Chicago", "Pittsburgh", "Newark", "Vienna", "Taipei",
    "Boston", "Denver", "Austin", "Lagos", "Lima", "Oslo", "Perth", "Quito",
)

HONEST, ACTIVE, PASSIVE = 0, 1, 2


def _split(rng: random.Random, total: int, origins: list[int]) -> dict[str, int]:
    """Split `total` across `origins` near-evenly, the remainder on random nodes."""
    base, extra = divmod(total, len(origins))
    lucky = set(rng.sample(origins, extra))
    return {str(n): base + (1 if n in lucky else 0) for n in sorted(origins)}


def _rows(ids, authorities, locations, byzantine) -> list[dict]:
    return [{"id": n, "authority": int(n in authorities), "location": locations[n],
             "byzantine": byzantine.get(n, HONEST)} for n in ids]


def gossip_flood(rng: random.Random, scale: float) -> tuple[dict, list[dict], dict]:
    """The situation3 layout: 13 authorities, 2 followers, nodes 1-4 passive at 0.4.

    One front-loaded day at capacity 3000 with constant 10 ms latency and
    constant 1 ms processing: almost every event is a TxGossip send.
    """
    ids = list(range(1, 16))
    authorities = set(range(1, 14))
    cities = rng.sample(CITIES, len(ids))
    locations = dict(zip(ids, cities))
    byzantine = {n: PASSIVE for n in (1, 2, 3, 4)}
    honest = [n for n in ids if n not in byzantine]
    origins = sorted(rng.sample(honest, 10))
    config = {
        "protocol": "pbft",
        "seed": rng.randrange(2**31),
        "block_interval_ms": 1000,
        "block_capacity": 3000,
        "empty_block_threshold": 10,
        "day_length_ms": 86_400_000,
        "tx_broadcast_interval_ms": 500,
        "tx_spread_ticks": 1,
        "drop_prob": 0.4,
        "latency": {"default": {"kind": "constant", "ms": 10}},
        "processing_delay": {"default": {"kind": "constant", "ms": 1}},
    }
    total = max(len(origins), round(8868 * scale))
    schedule = {"days": [{"day": 1, "loads": _split(rng, total, origins)}]}
    return config, _rows(ids, authorities, locations, byzantine), schedule


def pbft_quorum(rng: random.Random, scale: float) -> tuple[dict, list[dict], dict]:
    """pbft with 31 authorities and 4 followers over 5 locations, f = 10.

    Ids 1-3 are tamperers, so the first three primaries are impeached by view
    changes; three passive droppers sit at the far end of the rotation.
    Uniform pair latencies and the normal hyperledger-fabric processing delays.
    """
    ids = list(range(1, 36))
    authorities = set(range(1, 32))
    sites = rng.sample(CITIES, 5)
    locations = {n: sites[(n - 1) % len(sites)] for n in ids}
    byzantine = {1: ACTIVE, 2: ACTIVE, 3: ACTIVE}
    for n in rng.sample(range(24, 32), 3):
        byzantine[n] = PASSIVE
    honest = [n for n in ids if n not in byzantine]
    pairs = []
    for i, a in enumerate(sites):
        for b in sites[i:]:
            lo = rng.randint(5, 15)
            pairs.append({"src": a, "dst": b, "kind": "uniform", "lo": lo,
                          "hi": lo + rng.randint(10, 20)})
    config = {
        "protocol": "pbft",
        "seed": rng.randrange(2**31),
        "block_interval_ms": 1000,
        "block_capacity": 5,
        "empty_block_threshold": 5,
        "day_length_ms": 86_400_000,
        "drop_prob": 0.4,
        "latency": {"default": {"kind": "uniform", "lo": 10, "hi": 30}, "pairs": pairs},
        "processing_delay": {"preset": "hyperledger-fabric"},
    }
    days = max(2, round(2 * scale))
    per_day = max(5, round(100 * scale))
    schedule = {"days": [{"day": d, "loads": _split(rng, per_day, sorted(rng.sample(honest, 12)))}
                         for d in range(1, days + 1)]}
    return config, _rows(ids, authorities, locations, byzantine), schedule


def poet_days(rng: random.Random, scale: float) -> tuple[dict, list[dict], dict]:
    """A fault-free poet network of 30 nodes, 10 of them authorities, over many short days.

    Exponential default latency with uniform pairs between four sites and the
    normal hyperledger-fabric processing delays, so no draw is constant; each
    day's load is injected at once so the empty-block rule ends the day soon
    after the last commit.
    """
    ids = list(range(1, 31))
    authorities = set(rng.sample(ids, 10))
    sites = rng.sample(CITIES, 4)
    locations = {n: rng.choice(sites) for n in ids}
    pairs = []
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            lo = rng.randint(5, 20)
            pairs.append({"src": a, "dst": b, "kind": "uniform", "lo": lo,
                          "hi": lo + rng.randint(10, 30)})
    config = {
        "protocol": "poet",
        "seed": rng.randrange(2**31),
        "block_interval_ms": 1000,
        "block_capacity": 10,
        "empty_block_threshold": 3,
        "day_length_ms": 600_000,
        "tx_broadcast_interval_ms": 500,
        "tx_spread_ticks": 1,
        "poet_rate": 0.001,
        "latency": {"default": {"kind": "exponential", "rate": 0.05}, "pairs": pairs},
        "processing_delay": {"preset": "hyperledger-fabric"},
    }
    days = max(2, round(60 * scale))
    schedule = {"days": [{"day": d, "loads": _split(rng, 20, sorted(rng.sample(ids, 5)))}
                         for d in range(1, days + 1)]}
    return config, _rows(ids, authorities, locations, {}), schedule


GENERATORS = {"gossip-flood": gossip_flood, "pbft-quorum": pbft_quorum, "poet-days": poet_days}


def render(workload: str, seed: int, scale: float = 1.0) -> dict[str, bytes]:
    """File name -> exact bytes of one workload's inputs."""
    rng = random.Random(f"{workload}:{seed}")
    config, rows, schedule = GENERATORS[workload](rng, scale)
    nodes = io.StringIO()
    writer = csv.writer(nodes, lineterminator="\n")
    writer.writerow(["NodeID", "Authority", "Location", "Data", "Byzantine"])
    for r in rows:
        writer.writerow([r["id"], r["authority"], r["location"], "", r["byzantine"]])
    return {
        "config.json": (json.dumps(config, sort_keys=True, indent=2) + "\n").encode(),
        "nodes.csv": nodes.getvalue().encode(),
        "transactions.json": (json.dumps(schedule, sort_keys=True, indent=2) + "\n").encode(),
    }


def write(workload: str, seed: int, directory: Path, scale: float = 1.0) -> dict[str, Path]:
    """Write one workload's inputs into `directory`; returns name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, data in render(workload, seed, scale).items():
        path = directory / name
        path.write_bytes(data)
        paths[name] = path
    return paths
