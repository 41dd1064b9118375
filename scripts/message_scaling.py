#!/usr/bin/env python3
"""Measure three-phase message counts per block as the authority group grows.

For each committed block the protocol costs (n-1) pre-prepares, (n-1)^2
prepares, and n(n-1) commits, i.e. 2n(n-1) consensus messages: quadratic in
the authority count. This script runs one fault-free block per group size
and compares measured counts against the closed form. It also prints the
wall-clock time of each run and that time per consensus message, so host cost
can be read against group size.

Usage: python scripts/message_scaling.py [--sizes 4,7,13,22]
"""

import argparse
import time

from permachain.config import RunConfig
from permachain.nodetable import parse_node_rows
from permachain.orchestrator import run_all
from permachain.workload import parse_schedule

PHASES = ("PrePrepare", "Prepare", "Commit")


def one_block_run(n: int):
    config = RunConfig.from_dict({
        "protocol": "pbft",
        "seed": 1,
        "empty_block_threshold": 1,
        "latency": {"default": {"kind": "constant", "ms": 10}},
        "processing_delay": {"default": {"kind": "constant", "ms": 1}},
    })
    rows = [{"id": i, "authority": 1, "location": f"loc-{i}", "byzantine": 0}
            for i in range(1, n + 1)]
    table = parse_node_rows(rows)
    schedule = parse_schedule({"days": [{"day": 1, "loads": {}}]}, set(table.ids))
    start = time.perf_counter()
    result = run_all(config, table, schedule)
    elapsed = time.perf_counter() - start
    counts = result.world.recorder.message_counts
    return {k: counts.get(k, 0) for k in PHASES}, elapsed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="4,7,13,22")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print(f"{'n':>4} {'pre-prepare':>12} {'prepare':>10} {'commit':>10} "
          f"{'total':>10} {'2n(n-1)':>10} {'wall_s':>8} {'us/msg':>8}")
    totals = []
    for n in sizes:
        counts, elapsed = one_block_run(n)
        total = sum(counts.values())
        closed = 2 * n * (n - 1)
        assert counts["PrePrepare"] == n - 1
        assert counts["Prepare"] == (n - 1) ** 2
        assert counts["Commit"] == n * (n - 1)
        print(f"{n:>4} {counts['PrePrepare']:>12} {counts['Prepare']:>10} "
              f"{counts['Commit']:>10} {total:>10} {closed:>10} {elapsed:>8.3f} "
              f"{elapsed / total * 1e6:>8.1f}")
        totals.append(total)
    n0, n1 = sizes[0], sizes[-1]
    print(f"\nmessage ratio n={n1} vs n={n0}: {totals[-1] / totals[0]:.3f} "
          f"(closed form {2 * n1 * (n1 - 1) / (2 * n0 * (n0 - 1)):.3f})")


if __name__ == "__main__":
    main()
