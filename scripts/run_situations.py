#!/usr/bin/env python3
"""Run the four bundled Byzantine fault layouts and tabulate per-node chains.

Reproduces the headline comparison: five active tamperers stall every benign
node, passive droppers slow things down and can leave followers behind, and
four tamperers are tolerated outright.

Usage: python scripts/run_situations.py [--seed N]
"""

import argparse
import time

from permachain.cli import load_scenario
from permachain.config import RunConfig
from permachain.nodetable import parse_node_rows
from permachain.orchestrator import run_all
from permachain.workload import parse_schedule

SCENARIOS = ["situation1", "situation2", "situation3", "situation4"]


def run(name: str, seed: int | None):
    sc = load_scenario(name)
    raw = dict(sc["config"])
    if seed is not None:
        raw["seed"] = seed
    config = RunConfig.from_dict(raw)
    table = parse_node_rows(sc["nodes"], config.authority_rule)
    schedule = parse_schedule(sc["transactions"], set(table.ids))
    start = time.perf_counter()
    result = run_all(config, table, schedule)
    elapsed = time.perf_counter() - start
    return sc, table, result, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()

    results = {}
    for name in SCENARIOS:
        sc, table, result, elapsed = run(name, args.seed)
        results[name] = (table, result)
        day = result.days[0]
        print(f"{name}: committed {day['txs_committed']}/{day['txs_scheduled']} txs, "
              f"{day['view_changes']} view changes, "
              f"ended by {day['ended_by']}, wall {elapsed:.1f}s")

    print()
    header = f"{'node':>4} {'auth':>4} " + "".join(
        f"{name.replace('situation', 'type/blocks s'):>18}" for name in SCENARIOS)
    print(header)
    any_table = results[SCENARIOS[0]][0]
    for row in any_table.rows:
        cells = []
        for name in SCENARIOS:
            table, result = results[name]
            byz = table.spec(row.id).byzantine
            height = result.world.nodes[row.id].chain.height
            cells.append(f"{int(byz)} / {height:>5}")
        print(f"{row.id:>4} {int(row.authority):>4} "
              + "".join(f"{c:>18}" for c in cells))


if __name__ == "__main__":
    main()
