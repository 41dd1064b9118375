#!/usr/bin/env python3
"""Run the four bundled Byzantine fault layouts and tabulate per-node chains.

Reproduces the headline comparison: five active tamperers stall every benign
node, passive droppers slow things down and can leave followers behind, and
four tamperers are tolerated outright.

Usage: python scripts/run_situations.py [--seed N]
"""

import argparse
import time

from permachain.cli import load_inputs
from permachain.orchestrator import run_all

SCENARIOS = ["situation1", "situation2", "situation3", "situation4"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    args = parser.parse_args()
    seed_args = [] if args.seed is None else ["--seed", str(args.seed)]

    results = {}
    for name in SCENARIOS:
        # loaded as `permachain --scenario NAME [--seed N]` loads it
        config, table, schedule = load_inputs(["--scenario", name, *seed_args])
        start = time.perf_counter()
        result = run_all(config, table, schedule)
        elapsed = time.perf_counter() - start
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
    # each layout's Byzantine type per node id; the layouts share their ids
    byzantine = {name: {r.id: r.byzantine for r in results[name][0].rows} for name in SCENARIOS}
    for row in any_table.rows:
        cells = []
        for name in SCENARIOS:
            result = results[name][1]
            byz = byzantine[name][row.id]
            height = result.world.nodes[row.id].chain.height
            cells.append(f"{int(byz)} / {height:>5}")
        print(f"{row.id:>4} {int(row.authority):>4} "
              + "".join(f"{c:>18}" for c in cells))


if __name__ == "__main__":
    main()
