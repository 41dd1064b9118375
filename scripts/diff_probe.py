#!/usr/bin/env python3
"""Print one fingerprint line per seeded random input, to diff two checkouts.

Each input is a small random run: pbft with up to f active or passive faults,
or fault-free poa or poet, under constant, uniform, exponential, normal or
empirical latency, with a constant 1 ms or the hyperledger-fabric preset's
processing delay (normal per message kind), short days, short block intervals
and (for pbft) short view-change timeouts. Inputs run in-process, one at a
time, through the same loaders as the CLI. For each input the script prints
the index, the protocol, the authority count and either the SHA-256 of the
model's outputs (report JSON, timeline, every node's stats) followed by the
engine's scheduled, dispatched and discarded event counts, or
``ERR <message>`` when the run stops on a simulator error or its benign nodes
disagree on a committed block (the check that report emission makes:
``ERR benign nodes A and B disagree ...``). The inputs depend only on --seed
and --count, so two checkouts print the same hashes exactly when the model
behaves the same; the trailing counts differ alone when only the event
bookkeeping changed.

Usage: python scripts/diff_probe.py [--count 100] [--seed 0]
"""

import argparse
import hashlib
import json
import random

from permachain.config import RunConfig
from permachain.errors import PermachainError
from permachain.nodetable import parse_node_rows
from permachain.orchestrator import run_all
from permachain.reporting import check_benign_consistency
from permachain.workload import parse_schedule

PBFT_SIZES = (1, 4, 5, 7, 8, 9, 10)  # 2, 3 and 6 authorities are refused


def random_input(rng: random.Random):
    protocol = rng.choice(("pbft", "pbft", "poa", "poet"))
    n_auth = rng.choice(PBFT_SIZES) if protocol == "pbft" else rng.randint(1, 6)
    n_nodes = n_auth + rng.randint(0, 3)
    faults = {}
    if protocol == "pbft":
        for node in rng.sample(range(1, n_auth + 1), rng.randint(0, (n_auth - 1) // 3)):
            faults[node] = rng.choice((1, 2))
    rows = [{"id": i, "authority": int(i <= n_auth), "location": f"loc-{i}",
             "byzantine": faults.get(i, 0)} for i in range(1, n_nodes + 1)]
    latency = rng.choice((
        {"kind": "constant", "ms": rng.randint(0, 50)},
        {"kind": "uniform", "lo": 0, "hi": rng.choice((20, 200, 2000))},
        {"kind": "exponential", "rate": rng.choice((0.02, 0.2, 1.0))},
        {"kind": "normal", "mean": rng.choice((5, 20.5, 100)), "std": rng.choice((0.25, 5, 40))},
        {"kind": "empirical", "values": [rng.randint(0, 200) for _ in range(rng.randint(1, 5))]},
    ))
    config = {
        "protocol": protocol,
        "seed": rng.randint(0, 9999),
        "day_length_ms": rng.choice((1500, 3000, 5100)),
        "block_interval_ms": rng.choice((50, 200, 1000)),
        "block_capacity": rng.randint(1, 2),
        "empty_block_threshold": rng.randint(1, 3),
        "tx_broadcast_interval_ms": rng.choice((100, 500)),
        "tx_spread_ticks": 1,
        "pbft_timeout_ms": rng.choice((1, 10, 100)),
        "latency": {"default": latency},
        "processing_delay": rng.choice(({"default": {"kind": "constant", "ms": 1}},
                                        {"preset": "hyperledger-fabric"})),
    }
    days = [{"day": day, "loads": {str(rng.randint(1, n_nodes)): rng.randint(1, 10)
                                   for _ in range(rng.randint(1, 4))}}
            for day in range(1, rng.randint(1, 3) + 1)]
    return config, rows, {"days": days}


def fingerprint(config: dict, rows: list, transactions: dict) -> str:
    run_config = RunConfig.from_dict(config)
    table = parse_node_rows(rows, run_config.authority_rule)
    schedule = parse_schedule(transactions, set(table.ids))
    try:
        result = run_all(run_config, table, schedule)
        check_benign_consistency(result.report["nodes"], result.world.benign)
    except PermachainError as exc:
        return f"ERR {exc}"
    world = result.world
    engine = world.engine
    outputs = {
        "report": result.report,
        "timeline": world.recorder.timeline,
        "stats": {str(n): world.nodes[n].stats for n in world.all_ids},
    }
    digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()
    return (f"{digest} {engine.scheduled_count}/{engine.dispatched_count}"
            f"/{engine.discarded_count}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    for i in range(args.count):
        config, rows, transactions = random_input(rng)
        n_auth = sum(row["authority"] for row in rows)
        print(f"{i} {config['protocol']} {n_auth} {fingerprint(config, rows, transactions)}",
              flush=True)


if __name__ == "__main__":
    main()
