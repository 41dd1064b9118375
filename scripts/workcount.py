#!/usr/bin/env python3
"""Count the work `run_all` does on perfbench's workloads or bundled scenarios,
and pair its CPU time against another source tree.

    python scripts/workcount.py [--scale 0.1] [--seed 1] [--workload NAME ...]
                                [--scenario NAME] ... [--against TREE] [--pairs 10]
                                [--out FILE.json]

Each workload's inputs are those of perfbench/inputs.py (imported, never
edited) at --seed and --scale, written once to a temporary directory. Each
--scenario (repeatable) is a bundled scenario, loaded as `permachain
--scenario NAME` loads it, with its own seed and size. Without --workload,
every workload runs unless a --scenario is given. Every measurement runs in a
child interpreter whose PYTHONPATH is one tree's src/, which loads the inputs
through `cli.load_inputs`, runs `run_all` once untimed (so lazy set-up is
done), and then measures a second `run_all`:

    calls     the function calls cProfile records (Python and C functions)
    opcodes   the bytecode instructions `sys.settrace` sees, with
              `frame.f_trace_opcodes` set

Both counts repeat exactly from run to run of one tree under one Python
version. With --against TREE, the script counts TREE too, then runs --pairs
pairs of timing children per workload, one per tree, alternating which tree
runs first. After its untimed warm-up, each timing child reads
`time.process_time()` around each of TIMED_RUNS (a constant, 3) further
`run_all` calls and reports their median, so one host hiccup inside a child
does not decide its pair. The script reports the median of the per-pair
ratios (this tree's time over TREE's) and how many pairs this tree won with a
lower time. --out writes it all as JSON, with each tree's `git describe` and
the host's Python and CPU count.

Neither count alone supports a speed claim. The opcode count misses C-level
work (dict and heap operations, hashing, JSON), each count differs between
Python versions, and the two can move in opposite directions. Making
`Distribution.sample_ms` draw in one call, instead of through a closure per
kind, took pbft-quorum at scale 0.1 from 1,119,241 to 1,028,293 calls (-8.1%)
but from 15,391,942 to 15,887,470 opcodes (+3.2%), under Python 3.11.7. A
speed claim rests on the paired CPU ratios instead, which are noisy on a
shared host: only a tree that wins nearly every pair is faster.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402  (perfbench's input generator)

TIMED_RUNS = 3  # run_all calls a timing child times; it reports their median


def count_opcodes(fn, *args) -> int:
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return local

    sys.settrace(call)
    try:
        fn(*args)
    finally:
        sys.settrace(None)
    return count


def child(mode: str, src: str, argv: str) -> dict:
    """One measurement of the permachain under `src` on the inputs that the CLI
    arguments `argv` (a JSON list) name."""
    import permachain
    from permachain.cli import load_inputs
    from permachain.orchestrator import run_all

    if not Path(permachain.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"permachain was imported from {permachain.__file__}, not from {src}")
    args = load_inputs(json.loads(argv))
    run_all(*args)
    if mode == "counts":
        profile = cProfile.Profile()
        profile.runcall(run_all, *args)
        return {"calls": pstats.Stats(profile).total_calls,
                "opcodes": count_opcodes(run_all, *args)}
    times = []
    for _ in range(TIMED_RUNS):
        start = time.process_time()
        run_all(*args)
        times.append(time.process_time() - start)
    return {"cpu_s": statistics.median(times)}


def spawn(mode: str, tree: Path, argv: list[str]) -> dict:
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__, "--child", mode, str(src), json.dumps(argv)],
                         env=env, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"a {mode} child on {tree} failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def describe(tree: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(tree), "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def workload_argv(directory: Path) -> list[str]:
    return ["--config", str(directory / "config.json"), "--nodes", str(directory / "nodes.csv"),
            "--transactions", str(directory / "transactions.json")]


def measure(name: str, args, argv: list[str]) -> dict:
    row = {"this": spawn("counts", ROOT, argv)}
    print(f"{name}: {row['this']['calls']:,} calls, {row['this']['opcodes']:,} opcodes",
          flush=True)
    if args.against is None:
        return row
    row["against"] = spawn("counts", args.against, argv)
    for key in ("calls", "opcodes"):
        base = row["against"][key]
        print(f"  against: {base:,} {key}, ratio {row['this'][key] / base:.4f}")
    pairs = []  # (this tree's run_all CPU seconds, TREE's)
    for i in range(args.pairs):
        step = -1 if i % 2 else 1  # which tree runs first
        cpu = [spawn("cpu", tree, argv)["cpu_s"] for tree in (ROOT, args.against)[::step]]
        pairs.append(tuple(cpu[::step]))
    ratios = [this / base for this, base in pairs]
    won = sum(ratio < 1 for ratio in ratios)
    row.update(cpu_s_pairs=pairs, cpu_ratio_median=statistics.median(ratios), pairs_won=won)
    print(f"  run_all CPU, this / against: median {row['cpu_ratio_median']:.3f} "
          f"(medians {statistics.median(p[0] for p in pairs):.4f} s / "
          f"{statistics.median(p[1] for p in pairs):.4f} s), "
          f"{won} of {len(ratios)} pairs won", flush=True)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="+", choices=inputs.WORKLOADS)
    parser.add_argument("--scenario", action="append", default=[],
                        help="a bundled scenario, by name (repeatable)")
    parser.add_argument("--against", type=Path, help="another tree, with its own src/")
    parser.add_argument("--pairs", type=int, default=10, help="timing pairs per workload (>= 1)")
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)
    if args.against is not None and not (args.against / "src" / "permachain").is_dir():
        parser.error(f"{args.against} holds no src/permachain")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.workload is None:
        args.workload = [] if args.scenario else list(inputs.WORKLOADS)

    result = {"scale": args.scale, "seed": args.seed, "python": platform.python_version(),
              "cpus": os.cpu_count(), "this": describe(ROOT), "workloads": {}, "scenarios": {}}
    if args.against is not None:
        result.update(against=describe(args.against), pairs=args.pairs)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload:
            directory = Path(tmp) / workload
            inputs.write(workload, args.seed, directory, args.scale)
            result["workloads"][workload] = measure(workload, args, workload_argv(directory))
    for name in args.scenario:
        result["scenarios"][name] = measure(name, args, ["--scenario", name])
    if args.out is not None:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(child(*sys.argv[2:5])))
    else:
        sys.exit(main())
